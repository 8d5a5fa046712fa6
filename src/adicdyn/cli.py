"""Command-line front end.

Every subcommand maps onto one library operation (or a documented
composite like ``project`` = build_chain + build_factor_map + report).
Output is text by default and JSON with --json; JSON is deterministic and
byte-stable for identical inputs.  Exit codes: 0 success, 1 domain error,
2 parse/usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import NamedTuple

from . import dynsys, factors, odometer, supernatural
from .errors import DomainError, ParseError, parse_int, parse_ints, quoted, require_int


class Output(NamedTuple):
    text: list
    payload: object


def _compact(value) -> str:
    return json.dumps(value, separators=(",", ":"))


def _json_value(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int of too many digits
        raise ParseError(f"bad JSON: {exc}") from None
    except RecursionError:
        raise ParseError("bad JSON: nested too deeply") from None


def _blocks(data, ints: bool = True) -> list:
    """data as a block list: an array of arrays of point ids, which are ints
    unless ints is false (then any scalar, left to validate_chain to report)."""
    if not isinstance(data, list) or not all(isinstance(b, list) for b in data):
        raise ParseError("a partition is a JSON array of point arrays")
    for b in data:
        for x in b:
            # JSON true/false are not point ids
            if type(x) is not int and (ints or isinstance(x, (list, dict))):
                raise ParseError("partition blocks hold integer point ids")
    return data


def _parse_partition(S, text: str):
    return dynsys.PeriodicPartition.from_blocks(S, _blocks(_json_value(text)))


def _parse_chain_levels(text: str, ints: bool) -> list:
    data = _json_value(text)
    if not isinstance(data, list) or not all(isinstance(lv, list) for lv in data):
        raise ParseError("a chain is a JSON array of partitions")
    return [_blocks(lv, ints) for lv in data]


def _system(ns) -> dynsys.FinSystem:
    return dynsys.parse_cycles(ns.cycles, getattr(ns, "size", None))


def _chain_output(chain) -> Output:
    levels = [dynsys.blocks_json(P) for P in chain.partitions]
    text = [f"levels: {','.join(map(str, chain.lengths))}"]
    text += [_compact(lv) for lv in levels]
    return Output(text, {"levels": list(chain.lengths), "partitions": levels})


# ---------------------------------------------------------------- handlers


def _h_sn(ns) -> Output:
    if ns.op in ("phi0", "phi-set"):
        value = (supernatural.phi0 if ns.op == "phi0" else supernatural.phi_of_set)(ns.n)
    else:
        M = supernatural.parse_supernatural(ns.m)
        N = supernatural.parse_supernatural(ns.n)
        value = getattr(supernatural, ns.op)(M, N)  # mul, gcd, lcm or leq
        if ns.op == "leq":
            return Output(["true" if value else "false"], {"result": value})
    lit = supernatural.format_supernatural(value)
    return Output([lit], {"result": lit})


def _h_ess(ns) -> Output:
    S = _system(ns)
    periods, phi = dynsys.ess_periods(S)
    ordered = sorted(periods)
    lit = supernatural.format_supernatural(phi)
    return Output(
        [f"periods: {','.join(map(str, ordered))}", f"phi: {lit}"],
        {"periods": ordered, "phi": lit},
    )


def _h_oracle(ns) -> Output:
    S = _system(ns)
    parts = dynsys.all_partitions(S, ns.m, bound=ns.bound)
    serial = [dynsys.blocks_json(P) for P in parts]
    text = [_compact(p) for p in serial]
    return Output(text or ["(none)"], {"partitions": serial})


def _h_compat(ns) -> Output:
    S = _system(ns)
    P1 = _parse_partition(S, ns.p1)
    if ns.op == "check":
        P2 = _parse_partition(S, ns.p2)
        res = dynsys.are_compatible(P1, P2)
        return Output([f"compatible: {'true' if res else 'false'}"], {"compatible": res})
    if ns.op == "make":
        P = dynsys.make_compatible(P1, ns.m2)
        serial = dynsys.blocks_json(P)
        return Output([_compact(serial)], {"partition": serial})
    tagged = dynsys.enumerate_compatible(P1, ns.m2)
    items = [{"blocks": dynsys.blocks_json(P), "class": cid} for P, cid in tagged]
    n_classes = max((cid for _, cid in tagged), default=-1) + 1
    text = [f"class {it['class']}: {_compact(it['blocks'])}" for it in items]
    return Output(text or ["(none)"], {"partitions": items, "class_count": n_classes})


def _h_chain(ns) -> Output:
    S = _system(ns)
    if ns.op == "build":
        chain = dynsys.build_chain(S, parse_ints(ns.lengths, "bad length"))
        return _chain_output(chain)
    levels = _parse_chain_levels(ns.chain, ints=ns.op == "extend")
    if ns.op == "validate":
        report = dynsys.validate_chain(S, levels)
        text = [f"valid: {'true' if report.ok else 'false'}"]
        text += [f"problem: {p}" for p in report.problems]
        return Output(text, {"valid": report.ok, "problems": list(report.problems)})
    parts = tuple(dynsys.PeriodicPartition.from_blocks(S, lv) for lv in levels)
    chain = dynsys.extend_chain(dynsys.PartitionChain(parts), ns.m)
    return _chain_output(chain)


def _h_project(ns) -> Output:
    S = _system(ns)
    chain = dynsys.build_chain(S, parse_ints(ns.lengths, "bad length"))
    F = factors.build_factor_map(S, chain)
    text = [
        f"target: {','.join(map(str, chain.lengths))}",
        f"fibers: {chain.lengths[-1]}",  # the finest blocks
        f"maximal: {'true' if factors.is_maximal_projection(F) else 'false'}",
        f"sigma_top: {supernatural.format_supernatural(factors.sigma_of_system(S))}",
    ]
    # the report lists every point, and only --json prints it
    return Output(text, factors.factor_report(F) if ns.json else None)


def _h_odo(ns) -> Output:
    base = odometer.parse_base(ns.base)
    op = ns.op
    if op == "truncate":
        T = odometer.truncate(base, ns.k)
        return Output(
            [dynsys.format_cycles(T)],
            {"size": T.size, "cycles": dynsys.format_cycles(T)},
        )
    if op == "cylinder":
        cyl = odometer.cylinder(base, ns.j, ns.residue)
        n = base.levels[-1] // cyl.step  # len(cyl) stops at sys.maxsize
        message = f"a cylinder of {{}} points is larger than the limit of {dynsys.MAX_POINTS}"
        require_int(n, message, 1, dynsys.MAX_POINTS + 1)
        members = list(cyl)
        return Output(
            [",".join(map(str, members))],
            {"level": ns.j, "residue": ns.residue, "members": members},
        )
    x = odometer.parse_adic(base, ns.x)
    if op == "metric":
        y = odometer.parse_adic(base, ns.y)
        dist = odometer.metric(x, y)
        text = f"0 (agrees to depth {base.depth})" if dist.agrees_to_depth else str(dist.value)
        return Output(
            [text], {"distance": str(dist.value), "agrees_to_depth": dist.agrees_to_depth}
        )
    if op == "add":
        res = odometer.add(x, odometer.parse_adic(base, ns.y))
    elif op == "neg":
        res = odometer.neg(x)
    else:
        res = odometer.translate(x)
    lit = odometer.format_adic(res)
    return Output([lit], {"result": list(res.residues)})


# ------------------------------------------------------------------ parser


# Each command: its path, its arguments and its handler.  An argument is a
# positional name, with ":int" for an int and ":ints" for one or more ints,
# or an int option, with "=default" when that is not None.
_COMMANDS = (
    ("sn mul", "m n", _h_sn),
    ("sn gcd", "m n", _h_sn),
    ("sn lcm", "m n", _h_sn),
    ("sn leq", "m n", _h_sn),
    ("sn phi0", "n:int", _h_sn),
    ("sn phi-set", "n:ints", _h_sn),
    ("ess", "cycles --size", _h_ess),
    ("oracle", "cycles m:int --size --bound=12", _h_oracle),
    ("compat check", "cycles p1 p2 --size", _h_compat),
    ("compat make", "cycles p1 m2:int --size", _h_compat),
    ("compat enumerate", "cycles p1 m2:int --size", _h_compat),
    ("chain build", "cycles lengths --size", _h_chain),
    ("chain extend", "cycles chain m:int --size", _h_chain),
    ("chain validate", "cycles chain --size", _h_chain),
    ("project", "cycles lengths --size", _h_project),
    ("odo add", "base x y", _h_odo),
    ("odo metric", "base x y", _h_odo),
    ("odo neg", "base x", _h_odo),
    ("odo translate", "base x", _h_odo),
    ("odo cylinder", "base j:int residue:int", _h_odo),
    ("odo truncate", "base k:int", _h_odo),
)

# the first word of each path, in the order of the top-level help
_HELP = {
    "sn": "supernatural-number arithmetic",
    "ess": "periods of a permutation",
    "oracle": "enumerate all partitions",
    "compat": "compatibility of partitions",
    "chain": "regular chains of partitions",
    "project": "factor map onto an odometer",
    "odo": "adic arithmetic over a base chain",
}


def _int_arg(text: str) -> int:
    """argparse's type for an int: parse_int, in argparse's words."""
    try:
        return parse_int(text, "invalid int value:")
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


_KINDS = {"": {}, "int": {"type": _int_arg}, "ints": {"type": _int_arg, "nargs": "+"}}


class _UsageError(Exception):
    """(parser, message): a usage error, raised to run(), which knows argv."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(self, message)


@functools.cache  # built once per process: parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true", help="emit JSON")

    parser = _Parser(
        prog="adicdyn",
        description="supernatural numbers, periodic partitions, odometers, factor maps",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    groups = {}
    for path, args, handler in _COMMANDS:
        head, *op = path.split()
        if not op:
            p = sub.add_parser(head, parents=[shared], help=_HELP[head])
        else:
            if head not in groups:
                group = sub.add_parser(head, help=_HELP[head])
                groups[head] = group.add_subparsers(dest="op", required=True)
            p = groups[head].add_parser(op[0], parents=[shared])
        for arg in args.split():
            if arg.startswith("--"):
                name, _, default = arg.partition("=")
                p.add_argument(name, type=_int_arg, default=int(default) if default else None)
            else:
                name, _, kind = arg.partition(":")
                p.add_argument(name, **_KINDS[kind])
        p.set_defaults(handler=handler)
    return parser


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        ns = _build_parser().parse_args(argv)
    except _UsageError as exc:
        # argparse's two lines, where each echo of more than 50 characters of
        # an argv token, or of the argument after its option ("=", or the
        # flags of "-h..."), plain or as its repr, is cut by quoted()
        parser, message = exc.args
        echoes = {e for tok in argv for e in (tok, tok.partition("=")[2], tok.lstrip("-h"))}
        for e in sorted((e for e in echoes if len(e) > 50), key=len, reverse=True):
            message = message.replace(repr(e), quoted(e)).replace(e, quoted(e))
        parser.print_usage(sys.stderr)
        print(f"{parser.prog}: error: {message}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse exits 0 on --help
        return int(exc.code or 0)
    try:
        out = ns.handler(ns)
    except (ParseError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ParseError) else 1
    if ns.json:
        print(json.dumps(out.payload, indent=2))
    else:
        for line in out.text:
            print(line)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
