"""Command-line front end.

Every subcommand maps onto one library operation (or a documented
composite like ``project`` = build_chain + build_factor_map + report).
Output is text by default and JSON with --json; JSON is deterministic and
byte-stable for identical inputs.  Exit codes: 0 success, 1 domain error,
2 parse/usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import NamedTuple

from . import dynsys, factors, odometer, supernatural
from .errors import DomainError, ParseError


class Output(NamedTuple):
    text: list
    payload: object


def _json_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}") from None


def _parse_partition(S, text: str):
    data = _json_value(text)
    if not isinstance(data, list) or not all(isinstance(b, list) for b in data):
        raise ParseError("a partition is a JSON array of point arrays")
    for b in data:
        for x in b:
            if type(x) is not int:  # JSON true/false are not point ids
                raise ParseError("partition blocks hold integer point ids")
    return dynsys.PeriodicPartition.from_blocks(S, data)


def _parse_chain_levels(text: str):
    data = _json_value(text)
    if not isinstance(data, list) or not all(isinstance(lv, list) for lv in data):
        raise ParseError("a chain is a JSON array of partitions")
    return data


def _parse_lengths(text: str):
    out = []
    for tok in text.strip().split(","):
        try:
            out.append(int(tok.strip()))
        except ValueError:
            raise ParseError(f"bad length {tok.strip()!r}") from None
    return out


def _system(ns) -> dynsys.FinSystem:
    return dynsys.parse_cycles(ns.cycles, getattr(ns, "size", None))


def _chain_output(chain) -> Output:
    levels = [dynsys.blocks_json(P) for P in chain.partitions]
    text = [f"levels: {','.join(map(str, chain.lengths))}"]
    text += [json.dumps(lv, separators=(",", ":")) for lv in levels]
    return Output(text, {"levels": list(chain.lengths), "partitions": levels})


# ---------------------------------------------------------------- handlers


def _h_sn(ns) -> Output:
    op = ns.op
    if op == "phi0":
        value = supernatural.phi0(ns.n)
        lit = supernatural.format_supernatural(value)
        return Output([lit], {"result": lit})
    if op == "phi-set":
        value = supernatural.phi_of_set(ns.n)
        lit = supernatural.format_supernatural(value)
        return Output([lit], {"result": lit})
    M = supernatural.parse_supernatural(ns.m)
    N = supernatural.parse_supernatural(ns.n)
    if op == "leq":
        res = supernatural.leq(M, N)
        return Output(["true" if res else "false"], {"result": res})
    fn = {"mul": supernatural.mul, "gcd": supernatural.gcd, "lcm": supernatural.lcm}[op]
    lit = supernatural.format_supernatural(fn(M, N))
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
    text = [json.dumps(p, separators=(",", ":")) for p in serial]
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
        return Output([json.dumps(serial, separators=(",", ":"))], {"partition": serial})
    tagged = dynsys.enumerate_compatible(P1, ns.m2)
    items = [
        {"blocks": dynsys.blocks_json(P), "class": cid} for P, cid in tagged
    ]
    n_classes = max((cid for _, cid in tagged), default=-1) + 1
    text = [
        f"class {it['class']}: {json.dumps(it['blocks'], separators=(',', ':'))}"
        for it in items
    ]
    return Output(
        text or ["(none)"], {"partitions": items, "class_count": n_classes}
    )


def _h_chain(ns) -> Output:
    S = _system(ns)
    if ns.op == "build":
        chain = dynsys.build_chain(S, _parse_lengths(ns.lengths))
        return _chain_output(chain)
    levels = _parse_chain_levels(ns.chain)
    if ns.op == "validate":
        report = dynsys.validate_chain(S, levels)
        text = [f"valid: {'true' if report.ok else 'false'}"]
        text += [f"problem: {p}" for p in report.problems]
        return Output(text, {"valid": report.ok, "problems": list(report.problems)})
    parts = tuple(_parse_partition(S, json.dumps(lv)) for lv in levels)
    chain = dynsys.extend_chain(dynsys.PartitionChain(parts), ns.m)
    return _chain_output(chain)


def _h_project(ns) -> Output:
    S = _system(ns)
    chain = dynsys.build_chain(S, _parse_lengths(ns.lengths))
    F = factors.build_factor_map(S, chain)
    report = factors.factor_report(F)
    text = [
        f"target: {','.join(map(str, report['target_levels']))}",
        f"fibers: {len(report['fibers'])}",
        f"maximal: {'true' if report['maximal'] else 'false'}",
        f"sigma_top: {report['sigma_top']}",
    ]
    return Output(text, report)


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
        members = list(cyl.members_at_full_depth())
        return Output(
            [",".join(map(str, members))],
            {"level": ns.j, "residue": ns.residue, "members": members},
        )
    x = odometer.parse_adic(base, ns.x)
    if op == "metric":
        y = odometer.parse_adic(base, ns.y)
        dist = odometer.metric(x, y)
        if dist.agrees_to_depth:
            text = f"0 (agrees to depth {base.depth})"
        else:
            text = str(dist.value)
        return Output(
            [text],
            {"distance": str(dist.value), "agrees_to_depth": dist.agrees_to_depth},
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


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true", help="emit JSON")

    parser = argparse.ArgumentParser(
        prog="adicdyn",
        description="supernatural numbers, periodic partitions, odometers, factor maps",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    sn = sub.add_parser("sn", help="supernatural-number arithmetic")
    sn_sub = sn.add_subparsers(dest="op", required=True)
    for op in ("mul", "gcd", "lcm", "leq"):
        p = sn_sub.add_parser(op, parents=[shared])
        p.add_argument("m")
        p.add_argument("n")
        p.set_defaults(handler=_h_sn)
    p = sn_sub.add_parser("phi0", parents=[shared])
    p.add_argument("n", type=int)
    p.set_defaults(handler=_h_sn)
    p = sn_sub.add_parser("phi-set", parents=[shared])
    p.add_argument("n", type=int, nargs="+")
    p.set_defaults(handler=_h_sn)

    p = sub.add_parser("ess", parents=[shared], help="periods of a permutation")
    p.add_argument("cycles")
    p.add_argument("--size", type=int, default=None)
    p.set_defaults(handler=_h_ess)

    p = sub.add_parser("oracle", parents=[shared], help="enumerate all partitions")
    p.add_argument("cycles")
    p.add_argument("m", type=int)
    p.add_argument("--size", type=int, default=None)
    p.add_argument("--bound", type=int, default=12)
    p.set_defaults(handler=_h_oracle)

    compat = sub.add_parser("compat", help="compatibility of partitions")
    compat_sub = compat.add_subparsers(dest="op", required=True)
    p = compat_sub.add_parser("check", parents=[shared])
    p.add_argument("cycles")
    p.add_argument("p1")
    p.add_argument("p2")
    p.add_argument("--size", type=int, default=None)
    p.set_defaults(handler=_h_compat)
    for op in ("make", "enumerate"):
        p = compat_sub.add_parser(op, parents=[shared])
        p.add_argument("cycles")
        p.add_argument("p1")
        p.add_argument("m2", type=int)
        p.add_argument("--size", type=int, default=None)
        p.set_defaults(handler=_h_compat)

    chain = sub.add_parser("chain", help="regular chains of partitions")
    chain_sub = chain.add_subparsers(dest="op", required=True)
    p = chain_sub.add_parser("build", parents=[shared])
    p.add_argument("cycles")
    p.add_argument("lengths")
    p.add_argument("--size", type=int, default=None)
    p.set_defaults(handler=_h_chain)
    p = chain_sub.add_parser("extend", parents=[shared])
    p.add_argument("cycles")
    p.add_argument("chain")
    p.add_argument("m", type=int)
    p.add_argument("--size", type=int, default=None)
    p.set_defaults(handler=_h_chain)
    p = chain_sub.add_parser("validate", parents=[shared])
    p.add_argument("cycles")
    p.add_argument("chain")
    p.add_argument("--size", type=int, default=None)
    p.set_defaults(handler=_h_chain)

    p = sub.add_parser("project", parents=[shared], help="factor map onto an odometer")
    p.add_argument("cycles")
    p.add_argument("lengths")
    p.add_argument("--size", type=int, default=None)
    p.set_defaults(handler=_h_project)

    odo = sub.add_parser("odo", help="adic arithmetic over a base chain")
    odo_sub = odo.add_subparsers(dest="op", required=True)
    for op in ("add", "metric"):
        p = odo_sub.add_parser(op, parents=[shared])
        p.add_argument("base")
        p.add_argument("x")
        p.add_argument("y")
        p.set_defaults(handler=_h_odo)
    for op in ("neg", "translate"):
        p = odo_sub.add_parser(op, parents=[shared])
        p.add_argument("base")
        p.add_argument("x")
        p.set_defaults(handler=_h_odo)
    p = odo_sub.add_parser("cylinder", parents=[shared])
    p.add_argument("base")
    p.add_argument("j", type=int)
    p.add_argument("residue", type=int)
    p.set_defaults(handler=_h_odo)
    p = odo_sub.add_parser("truncate", parents=[shared])
    p.add_argument("base")
    p.add_argument("k", type=int)
    p.set_defaults(handler=_h_odo)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        out = ns.handler(ns)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
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
