"""Every request through cli.run answers or exits 1 or 2 with a short message.

Arguments for all the leaf commands are drawn from a grammar of their
inputs: cycle notation with repeats, gaps and huge ids; JSON partitions and
chains with bools, floats, strings, deep nesting, stray points and integers
of more than 4,300 digits; integers up to 10^5000; long tokens with and
without spaces; and --size, --bound and m near each limit.  Systems of
more than 64 points are refused ones, so each call is quick, and an alarm
turns a hang into a failure.
"""

import io
import json
import signal
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from adicdyn import cli
from adicdyn.dynsys import MAX_ENUMERATION, MAX_POINTS


def mostly(common, rare):
    """common three times in four, rare otherwise."""
    return st.one_of(common, common, common, rare)


HUGE = ["1" * 4000, "1" * 5000, "-" + "9" * 5000]
JUNK = ["", "x", "1.5", "true", "-1", "x" * 5000, "x " * 2500]

INTS = mostly(
    st.integers(-2, 40).map(str),
    st.sampled_from([str(MAX_POINTS + 1), str(MAX_ENUMERATION), str(10**8), *HUGE, *JUNK]),
)
# a declared size of MAX_POINTS would be allowed, and slow: only past it
SIZES = mostly(st.integers(0, 64).map(str), st.sampled_from([str(MAX_POINTS + 1), *HUGE]))

POINTS = mostly(
    st.integers(0, 15).map(str), st.sampled_from([str(MAX_POINTS), "1" * 30, "1" * 5000, "-1", "x"])
)
RAW_CYCLES = st.lists(st.lists(POINTS, max_size=5), max_size=5).map(
    lambda cs: "".join("(" + " ".join(c) + ")" for c in cs)
)

JSON_SCALARS = st.sampled_from(
    ["0", "1", "2", "3", "-1", "99", "true", "false", "null", "1.5", '"a"', "{}", "1" * 5000]
)
JSON_JUNK = st.one_of(
    st.recursive(
        JSON_SCALARS,
        lambda inner: st.lists(inner, max_size=4).map(lambda xs: "[" + ",".join(xs) + "]"),
        max_leaves=10,
    ),
    st.sampled_from(["[" * 100000, "[" * 5000 + "]" * 5000, "[[0,1]", "[[" + "1" * 5000 + "]]"]),
)

SUPERNATURALS = mostly(
    st.lists(
        st.tuples(st.sampled_from([2, 3, 5, 7, 11]), st.sampled_from(["0", "1", "2", "7", "inf"])),
        max_size=3,
    ).map(lambda fs: "*".join(f"{p}^{e}" for p, e in fs) or "1"),
    st.sampled_from([";default=inf", "2;default=inf", "2^^3", "4^2", "2^" + "1" * 4000,
                     "2^" + "1" * 5000, str(10**30 + 57), *JUNK]),
)


@st.composite
def systems(draw):
    """(cycle text, cycles): a permutation of up to 12 points, or raw text
    whose cycles are not known."""
    if draw(st.integers(0, 3)) == 0:
        return draw(RAW_CYCLES), []
    pts = draw(st.permutations(range(draw(st.integers(1, 12)))))
    cuts = sorted(draw(st.sets(st.integers(1, len(pts) - 1), max_size=4)) if len(pts) > 1 else [])
    cycles = [pts[a:b] for a, b in zip([0, *cuts], [*cuts, len(pts)])]
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles), cycles


@st.composite
def partitions(draw, cycles):
    """A labeling of the cycles dealt into blocks, sometimes with a stray
    entry; or JSON junk."""
    if not cycles or draw(st.integers(0, 3)) == 0:
        return draw(JSON_JUNK)
    m = draw(st.integers(1, 4))
    blocks = [[] for _ in range(m)]
    for cyc in cycles:
        c = draw(st.integers(0, m - 1))
        for x in cyc:
            blocks[c].append(x)
            c = (c + 1) % m
    if draw(st.integers(0, 3)) == 0:
        blocks[0].append(draw(st.sampled_from([99, -1, True, 1.5, "a", [0]])))
    return json.dumps(blocks)


@st.composite
def bases(draw):
    """A chain of up to four levels of small factors, sometimes with a huge
    one; or a level list that is not a chain, or junk."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(["2,3", "0", "-2", "4,2", "2,,4", "1" * 5000, *JUNK]))
    factors = draw(st.lists(st.integers(1, 12), min_size=1, max_size=4))
    if draw(st.integers(0, 4)) == 0:
        factors.append(draw(st.sampled_from([MAX_POINTS + 1, 10**40])))
    levels = [factors[0]]
    for f in factors[1:]:
        levels.append(levels[-1] * f)
    return ",".join(map(str, levels))


def vectors(base):
    """A residue vector: the image of an integer when the base is a chain of
    levels, or any list of residues."""
    try:
        levels = [int(v) for v in base.split(",")]
    except ValueError:
        levels = [2]
    image = st.integers(-(10**6), 10**6).map(lambda z: [z % max(n, 1) for n in levels])
    residues = st.lists(INTS, max_size=4).map(lambda rs: [r.strip() for r in rs])
    return mostly(image, residues).map(lambda rs: "[" + ",".join(map(str, rs)) + "]")


@st.composite
def argvs(draw):
    """argv for one leaf command, its arguments drawn by name in the order of
    its row in cli._COMMANDS."""
    path, args, _ = draw(st.sampled_from(cli._COMMANDS))
    cycle_text, cycles = draw(systems())
    base = draw(bases())
    positionals = {
        "cycles": st.just(cycle_text),
        "p1": partitions(cycles),
        "p2": partitions(cycles),
        "chain": mostly(
            st.lists(partitions(cycles), min_size=1, max_size=3).map(
                lambda ps: "[" + ",".join(ps) + "]"
            ),
            JSON_JUNK,
        ),
        "lengths": st.lists(INTS, min_size=1, max_size=4).map(",".join),
        "base": st.just(base),
        "x": vectors(base),
        "y": vectors(base),
        "m": SUPERNATURALS,
        "n": SUPERNATURALS,
    }
    argv = path.split()
    for arg in args.split():
        name, _, kind = arg.partition(":")
        if name.startswith("--"):
            if draw(st.integers(0, 3)) == 0:
                argv += [name.partition("=")[0], draw(SIZES if name == "--size" else INTS)]
        elif kind == "ints":
            argv += draw(st.lists(INTS, min_size=1, max_size=4))
        else:
            argv.append(draw(INTS if kind == "int" else positionals[name]))
    if draw(st.booleans()):
        argv.append("--json")
    return argv


def _hang(signum, frame):
    raise TimeoutError("a request took more than 10 s")


@settings(
    derandomize=True,
    database=None,
    max_examples=500,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(argvs())
def test_every_request_answers_or_exits_with_a_short_message(argv):
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _hang)
    signal.alarm(10)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2), err.getvalue()
    assert len(err.getvalue().encode()) < 300, err.getvalue()
    if code:
        assert out.getvalue() == ""
