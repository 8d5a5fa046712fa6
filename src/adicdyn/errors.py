"""Error types shared by every module.

Both derive from ValueError so callers who don't care about the split can
catch one thing.  The CLI maps ParseError to exit code 2 and DomainError to
exit code 1.
"""


class ParseError(ValueError):
    """A text literal could not be parsed."""


class DomainError(ValueError):
    """A well-formed input violates an operation's preconditions."""


def quoted(token: str) -> str:
    """repr(token) for an error message; past 50 characters, its start and its length."""
    return repr(token) if len(token) <= 50 else f"{token[:50]!r}... ({len(token)} characters)"
