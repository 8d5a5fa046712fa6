"""Error types shared by every module, and the one policy for integers from
outside the package.

Both error types derive from ValueError so callers who don't care about the
split can catch one thing.  The CLI maps ParseError to exit code 2 and
DomainError to exit code 1.  An integer in text is read by parse_int (or
parse_ints, for a comma-separated list), and an integer argument is checked
by require_int, which refuses bool and every other type but int.
"""


class ParseError(ValueError):
    """A text literal could not be parsed."""


class DomainError(ValueError):
    """A well-formed input violates an operation's preconditions."""


def quoted(value) -> str:
    """repr(value) for an error message; past 50 characters of its text (a
    str, or the repr of any other value), that text's start and its length,
    and for an int too long for Python to convert to text, its bit length."""
    try:
        text = value if type(value) is str else repr(value)
    except ValueError:  # past the int-string conversion limit
        return f"<{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits>"
    return repr(value) if len(text) <= 50 else f"{text[:50]!r}... ({len(text)} characters)"


def parse_int(token: str, what: str, shown: str | None = None) -> int:
    """The int the token spells; else a ParseError that reads ``what`` and
    then the quoted token, or the quoted text shown in its place."""
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what} {quoted(token if shown is None else shown)}") from None


def parse_ints(text: str, what: str) -> tuple:
    """The ints of a comma-separated list like ``2, 4,8``, each read by parse_int."""
    return tuple([parse_int(tok.strip(), what) for tok in text.split(",")])


def require_int(value, message: str, low=float("-inf"), high=float("inf")) -> int:
    """value, if it is an int (a bool is not) with low <= value < high; else
    a DomainError with message.format(value), where an int, or a value of
    more than 50 characters, shows as quoted() gives it."""
    if type(value) is not int or not low <= value < high:
        shown = quoted(value)
        if isinstance(value, int) or shown != repr(value):
            message, value = message.replace("{!r}", "{}"), shown
        raise DomainError(message.format(value))
    return value
