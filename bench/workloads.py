"""The three in-process workloads: algebra, project and enumerate.

Each builder turns a seeded random.Random into a pool of Requests, and
also returns a few warm-up requests built from a fixed generator, so that
the warm-up in set-up costs the same whatever the seed.  A request's
``call`` is the timed part: it calls the package only through attribute
lookups on ``api`` (so the tracer's wrappers apply) and returns the raw
outputs.  Its ``check`` runs afterwards, outside the timed region,
and raises Mismatch unless the outputs agree with the benchmark's own
reference arithmetic.  Sizes are stratified -- every seed gets the same
mix of request kinds and size classes, and the seed picks the concrete
instances -- so runs on different seeds measure comparable work.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from reference import (
    INF,
    Factorizer,
    canonical_labels,
    check_equivariant,
    cycle_system,
    divisors,
    expect,
    factor_text,
    label_offset,
    labels_of_blocks,
    merge_factors,
    rotation_key,
    sn_gcd,
    sn_lcm,
    sn_leq,
    sn_mul,
    sn_text,
    trial_factor,
)


WARMUP_SEED = "warm-up"


class Request:
    __slots__ = ("kind", "call", "check")

    def __init__(self, kind, call, check):
        self.kind = kind
        self.call = call
        self.check = check


def _once(compute):
    """Memoize a zero-argument reference computation (pools are replayed)."""
    cache = []

    def get():
        if not cache:
            cache.append(compute())
        return cache[0]

    return get


# ---------------------------------------------------------------- algebra

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)
TRIPLES_PER_SWEEP = 20
SWEEPS = 100
MAX_NK = 210
PHI0_FACTOR_LIMIT = 4000  # a, b <= 4000, so phi0 sees products <= 1.6e7


def _rand_sn(rng):
    # the value distribution of the criterion-7 law suite
    ps = rng.sample(PRIMES, rng.randint(0, 4))
    default = INF if rng.random() < 0.15 else 0
    return {p: INF if rng.random() < 0.2 else rng.randint(0, 6) for p in ps}, default


def _messy_literal(rng, value) -> str:
    """A valid but non-canonical literal: shuffled primes, spacing, ^1, ^0."""
    exps, default = value
    items = list(exps.items())
    rng.shuffle(items)
    parts = []
    for p, e in items:
        if e == INF:
            parts.append(f"{p}^inf")
        elif e == 1 and rng.random() < 0.5:
            parts.append(str(p))
        else:
            parts.append(f"{p} ^ {e}" if rng.random() < 0.3 else f"{p}^{e}")
    body = "*".join(parts)
    if default == INF:
        return body + ";default=inf"
    if rng.random() < 0.3:
        return body + ";default=0"
    return body or "1"


def _triple(api, rng, fz) -> Request:
    refs = [_rand_sn(rng) for _ in range(3)]
    M, N, K = (api.parse_supernatural(sn_text(v)) for v in refs)
    a, b = rng.randint(1, PHI0_FACTOR_LIMIT), rng.randint(1, PHI0_FACTOR_LIMIT)
    gab, lab = math.gcd(a, b), math.lcm(a, b)
    sub = rng.sample(range(1, 60), rng.randint(1, 4))
    sup = sub + rng.sample(range(1, 60), rng.randint(0, 3))
    lit_value = _rand_sn(rng)
    lit = _messy_literal(rng, lit_value)

    def call():
        A = api
        g, l, m = A.gcd(M, N), A.lcm(M, N), A.mul(M, N)
        pa, pb = A.phi0(a), A.phi0(b)
        values = (
            g, A.gcd(N, M), l, A.lcm(N, M),
            A.gcd(g, K), A.gcd(M, A.gcd(N, K)),
            A.lcm(l, K), A.lcm(M, A.lcm(N, K)),
            A.lcm(M, g), A.gcd(M, l),
            m, A.mul(N, M), A.mul(m, K), A.mul(M, A.mul(N, K)), A.mul(M, A.E),
            A.phi0(a * b), A.mul(pa, pb),
            A.phi0(gab), A.gcd(pa, pb),
            A.phi0(lab), A.lcm(pa, pb),
            A.phi_of_set(sub), A.phi_of_set(sup),
        )
        flags = (
            A.leq(g, M), A.leq(M, l), A.leq(M, N), A.leq(N, M),
            A.leq(N, K), A.leq(M, K), A.leq(M, m), A.leq(values[-2], values[-1]),
        )
        return values, flags, A.format_supernatural(A.parse_supernatural(lit))

    @_once
    def expected():
        Mr, Nr, Kr = refs
        g, l, m = sn_gcd(Mr, Nr), sn_lcm(Mr, Nr), sn_mul(Mr, Nr)
        fa, fb = fz.factor(a), fz.factor(b)

        def phi_set(vals):
            out = ({}, 0)
            for v in vals:
                out = sn_lcm(out, (fz.factor(v), 0))
            return out

        values = (
            g, g, l, l,
            sn_gcd(g, Kr), sn_gcd(g, Kr),
            sn_lcm(l, Kr), sn_lcm(l, Kr),
            Mr, Mr,  # absorption
            m, m, sn_mul(m, Kr), sn_mul(m, Kr), Mr,
            (merge_factors(fa, fb), 0), (merge_factors(fa, fb), 0),
            sn_gcd((fa, 0), (fb, 0)), sn_gcd((fa, 0), (fb, 0)),
            sn_lcm((fa, 0), (fb, 0)), sn_lcm((fa, 0), (fb, 0)),
            phi_set(sub), phi_set(sup),
        )
        flags = (True, True, sn_leq(Mr, Nr), sn_leq(Nr, Mr),
                 sn_leq(Nr, Kr), sn_leq(Mr, Kr), True, True)
        return [sn_text(v) for v in values], flags, sn_text(lit_value)

    def check(out):
        values, flags, text = out
        want_values, want_flags, want_text = expected()
        got = [api.format_supernatural(v) for v in values]
        for i, (x, y) in enumerate(zip(got, want_values)):
            expect(x == y, f"supernatural result {i}: {x} != {y}")
        expect(len(got) == len(want_values), "wrong number of results")
        expect(tuple(flags) == want_flags, f"leq flags {flags} != {want_flags}")
        expect(text == want_text, f"round trip {lit!r} -> {text!r}, not {want_text!r}")

    return Request("triple", call, check)


def _divisor_chain(rng, top: int, depth: int) -> list:
    """A random divisibility chain of at most ``depth`` levels ending at top,
    every level above 1."""
    levels = [top]
    while len(levels) < depth:
        ds = [d for d in divisors(levels[0]) if 1 < d < levels[0]]
        if not ds:
            break
        levels.insert(0, rng.choice(ds))
    return levels


def _sweep(api, rng, stratum: int, strata: int) -> Request:
    # the stratum fixes n_K's range, so every seed sweeps the same sizes
    lo = 2 + (MAX_NK - 1) * stratum // strata
    hi = max(lo, 1 + (MAX_NK - 1) * (stratum + 1) // strata)
    nK = rng.randint(lo, hi)
    levels = _divisor_chain(rng, nK, rng.randint(1, 4))
    base = api.parse_base(",".join(map(str, levels)))
    pairs = [(rng.randrange(nK), rng.randrange(nK)) for _ in range(8)]
    singles = [rng.randrange(nK) for _ in range(8)]

    def call():
        A = api
        pts = [A.from_integer(base, z) for z in range(nK)]
        orbit = [pts[0]]
        x = pts[0]
        for _ in range(nK):
            x = A.translate(x)
            orbit.append(x)
        sums = [A.add(pts[i], pts[j]) for i, j in pairs]
        negs = [A.neg(pts[i]) for i in singles]
        dists = [A.metric(pts[i], pts[j]) for i, j in pairs]
        shifted = [A.metric(A.translate(pts[i]), A.translate(pts[j])) for i, j in pairs]
        return pts, orbit, sums, negs, dists, shifted

    def res(z):
        return "[" + ",".join(str(z % n) for n in levels) + "]"

    def dist(i, j):
        for n in levels:
            if i % n != j % n:
                return Fraction(1, n), False
        return Fraction(0), True

    def check(out):
        pts, orbit, sums, negs, dists, shifted = out
        fmt = api.format_adic
        expect([fmt(x) for x in pts] == [res(z) for z in range(nK)], "from_integer residues")
        orbit_text = [fmt(x) for x in orbit]
        expect(orbit_text == [res(k) for k in range(nK + 1)], "translation orbit")
        expect(len(set(orbit_text[:nK])) == nK, "orbit does not cover n_K points")
        expect([fmt(x) for x in sums] == [res(i + j) for i, j in pairs], "add")
        expect([fmt(x) for x in negs] == [res(-i) for i in singles], "neg")
        for (i, j), d, t in zip(pairs, dists, shifted):
            want = dist(i, j)
            expect((d.value, d.agrees_to_depth) == want, f"metric({i},{j})")
            expect((t.value, t.agrees_to_depth) == want, f"metric not translation-invariant at ({i},{j})")

    return Request("sweep", call, check)


def algebra(api, rng):
    fz = Factorizer(PHI0_FACTOR_LIMIT)
    pool = [_triple(api, rng, fz) for _ in range(SWEEPS * TRIPLES_PER_SWEEP)]
    pool += [_sweep(api, rng, i, SWEEPS) for i in range(SWEEPS)]
    rng.shuffle(pool)
    fixed = random.Random(WARMUP_SEED)
    return pool, [_triple(api, fixed, fz), _sweep(api, fixed, 0, SWEEPS)]


# ---------------------------------------------------------------- project

GS = (360, 720, 840, 1260, 2520)  # highly composite cycle-length bases
PER_KIND = 25
MIN_POINTS, MAX_POINTS = 1000, 10000
REPORT_LIMIT = 5_000_000  # factor_report's fiber listing is O(n * n_L)
LEVEL_TARGETS = (4, 12, 60, 360, 2520)


def _largest_divisor_at_most(n: int, t: int) -> int:
    return max(d for d in divisors(n) if d <= t)


def _slot_chain(top: int, depth: int) -> list:
    # chain levels set how much work a chain costs, so they depend on the
    # slot only, never on the seed
    return _divisor_chain(random.Random(f"{top}/{depth}"), top, depth)


def _project_system(rng, g: int, cycles: int, n_target: int):
    """Cycle lengths g * k_i; the slot fixes sum(k_i), and with several
    cycles gcd(k_i) = 1.  The gcd of the cycle lengths, which sets chain
    depth and n_L, is therefore the same for every seed; the seed only
    picks the split and the point labels."""
    k_total = max(cycles, math.ceil(n_target / g))
    while True:
        cuts = sorted(rng.sample(range(1, k_total), cycles - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [k_total])]
        if cycles == 1 or math.gcd(*parts) == 1:
            break
    lengths = [g * k for k in parts]
    forward, cyc = cycle_system(lengths, rng)
    return forward, cyc, math.gcd(*lengths)


def _max_factor(api, forward, cycles, g_all, rng, j) -> Request:
    def call():
        return api.max_odometer_factor(api.FinSystem(forward))

    def check(out):
        base, F = out
        levels = [int(t) for t in api.format_base(base).split(",")]
        expect(levels[-1] == g_all, f"top level {levels[-1]} != gcd {g_all}")
        expect(all(b % a == 0 for a, b in zip(levels, levels[1:])), "levels do not divide")
        expect(api.is_maximal_projection(F) is True, "max_odometer_factor is not maximal")
        check_equivariant(forward, F.labels, levels)
        expect(len(set(F.labels)) == g_all, "label count != n_L")

    return Request("max_factor", call, check)


def _project(api, forward, cycles, g_all, rng, j) -> Request:
    n = len(forward)
    n_L = _largest_divisor_at_most(g_all, LEVEL_TARGETS[(3 * j) % 5])
    lengths = _slot_chain(n_L, 2 + j % 3)
    with_report = n * n_L <= REPORT_LIMIT

    def call():
        A = api
        S = A.FinSystem(forward)
        F = A.build_factor_map(S, A.build_chain(S, lengths))
        return F, A.factor_report(F) if with_report else None

    sigma_top = factor_text(trial_factor(g_all))

    def check(out):
        F, rep = out
        maximal = n_L == g_all
        if rep is None:
            labels = F.labels
            expect(api.is_maximal_projection(F) is maximal, "maximal flag")
        else:
            expect(rep["target_levels"] == lengths, "target_levels")
            labels = [tuple(rep["labels"][str(x)]) for x in range(n)]
            fibers = rep["fibers"]
            expect(len(fibers) == n_L, f"{len(fibers)} fibers, not n_L = {n_L}")
            expect(sorted(x for f in fibers for x in f) == list(range(n)), "fibers do not partition")
            expect(all(len({labels[x] for x in f}) == 1 for f in fibers), "fiber mixes labels")
            expect(rep["maximal"] is maximal, "maximal flag")
            expect(rep["sigma_top"] == sigma_top, f"sigma_top {rep['sigma_top']} != {sigma_top}")
        check_equivariant(forward, labels, lengths)
        expect(len(set(labels)) == n_L, "label count != n_L")

    return Request("project", call, check)


def _compat(api, forward, cycles, g_all, rng, j) -> Request:
    n = len(forward)
    m1 = _largest_divisor_at_most(g_all, (2, 6, 12, 60, 360)[j % 5])
    m2 = _largest_divisor_at_most(g_all, (8, 2520, 60, 24, 360)[(2 * j + 1) % 5])
    D = math.lcm(m1, m2)

    def call():
        A = api
        P1 = A.canonical_partition(A.FinSystem(forward), m1)
        Q = A.make_compatible(P1, m2)
        return P1, Q, A.lcm_partition(P1, Q), A.are_compatible(P1, Q)

    def check(out):
        P1, Q, R, ok = out
        lab1 = labels_of_blocks(forward, api.blocks_json(P1), m1)
        expect(lab1 == canonical_labels(n, cycles, m1), "canonical partition")
        labQ = labels_of_blocks(forward, api.blocks_json(Q), m2)
        expect(label_offset(lab1, m1, labQ, m2) is not None, "make_compatible: not compatible")
        labR = labels_of_blocks(forward, api.blocks_json(R), D)
        expect(labR[0] == 0, "lcm_partition: point 0 not in block 0")
        expect(label_offset(lab1, m1, labR, D) is not None, "lcm_partition does not refine P1")
        expect(label_offset(labQ, m2, labR, D) is not None, "lcm_partition does not refine Q")
        expect(ok is True, "are_compatible(P1, make_compatible(P1, m2)) is false")

    return Request("compat", call, check)


def _validate(api, forward, cycles, g_all, rng, j) -> Request:
    n_L = _largest_divisor_at_most(g_all, LEVEL_TARGETS[(3 * j + 1) % 5])
    lengths = _slot_chain(n_L, 2 + j % 3)
    valid = not (j % 4 == 3 and len(cycles) > 1 and len(lengths) > 1)
    offsets = [rng.randrange(n_L) for _ in cycles]
    shifts = [rng.randrange(m) for m in lengths]
    bad_level = rng.randrange(1, len(lengths)) if not valid else -1
    bad_cycle = rng.randrange(len(cycles))
    levels = []
    for k, m in enumerate(lengths):
        blocks = [[] for _ in range(m)]
        for r, pts in enumerate(cycles):
            off = offsets[r] + shifts[k] + (1 if (k == bad_level and r == bad_cycle) else 0)
            for t, x in enumerate(pts):
                blocks[(off + t) % m].append(x)
        levels.append(blocks)

    def call():
        return api.validate_chain(api.FinSystem(forward), levels)

    def check(rep):
        expect(rep.ok is valid, f"validate_chain says ok={rep.ok}, expected {valid}")
        expect(bool(rep.problems) is not valid, "problems list disagrees with ok")

    return Request("validate", call, check)


PROJECT_KINDS = (_max_factor, _project, _compat, _validate)


def project(api, rng):
    ratio = MAX_POINTS / MIN_POINTS
    # log-sizes spaced cubically: most systems are small, so a pass is short
    # enough to repeat every request many times in a run
    sizes = [round(MIN_POINTS * ratio ** ((i / max(1, PER_KIND - 1)) ** 3))
             for i in range(PER_KIND)]
    pool = []
    for k, make in enumerate(PROJECT_KINDS):
        for j in range(PER_KIND):
            g = GS[j % len(GS)]
            n_target = sizes[(7 * j + 3 * k) % PER_KIND]
            cycles = max(1, min(1 + j % 4, n_target // g))
            forward, cyc, g_all = _project_system(rng, g, cycles, n_target)
            pool.append(make(api, forward, cyc, g_all, rng, j))
    rng.shuffle(pool)
    fixed = random.Random(WARMUP_SEED)
    warmups = []
    for make in PROJECT_KINDS:
        forward, cyc, g_all = _project_system(fixed, GS[0], 1, MIN_POINTS)
        warmups.append(make(api, forward, cyc, g_all, fixed, 0))
    return pool, warmups


# -------------------------------------------------------------- enumerate

CYCLE_LENGTHS = (4, 6, 8, 12)
MAX_PARTITIONS = 1296
MAX_MAPS = 512
ORACLE_POINTS = 12

# (cycles, m1, m2, copies): enumerate_compatible(P1 of length m1, m2) yields
# m2 * (m2 / gcd(m1, m2)) ** (cycles - 1) partitions
COMPAT_SHAPES = (
    (4, 3, 12, 1), (3, 2, 12, 1), (4, 4, 12, 1), (4, 1, 4, 2), (3, 1, 6, 2),
    (3, 3, 12, 2), (4, 2, 6, 3), (2, 1, 12, 3), (3, 4, 12, 3), (4, 6, 12, 3),
    (4, 1, 3, 4), (2, 2, 12, 4), (3, 1, 4, 4), (3, 2, 6, 4), (2, 4, 12, 4),
    (2, 1, 6, 4), (4, 2, 4, 4), (3, 1, 3, 4), (2, 6, 12, 4), (2, 1, 4, 6),
    (2, 2, 4, 4), (2, 1, 2, 5), (3, 1, 2, 4),
)
# (cycles, chain lengths, copies): enumerate_factor_maps yields
# prod(lengths) * n_L ** (cycles - 1) maps in n_L ** (cycles - 1) classes
MAP_SHAPES = (
    (2, (2, 4, 8), 1), (3, (2, 6), 1), (3, (6,), 1), (2, (12,), 1), (3, (2, 4), 2),
    (3, (4,), 2), (4, (3,), 2), (2, (2, 6), 2), (2, (2, 4), 3), (4, (2,), 3),
    (3, (2,), 3), (2, (3,), 3),
)


def compat_count(cycles: int, m1: int, m2: int) -> int:
    return m2 * (m2 // math.gcd(m1, m2)) ** (cycles - 1)


def map_count(cycles: int, lengths) -> int:
    return math.prod(lengths) * lengths[-1] ** (cycles - 1)


def _small_system(rng, cycles: int, need: int, copy: int):
    # cycle lengths are fixed by the shape and copy, so every seed enumerates
    # the same sizes; the seed relabels the points
    allowed = [L for L in CYCLE_LENGTHS if L % need == 0]
    return cycle_system([allowed[(copy + r) % len(allowed)] for r in range(cycles)], rng)


def _enum_compat(api, rng, cycles: int, m1: int, m2: int, copy: int) -> Request:
    count = compat_count(cycles, m1, m2)
    if count > MAX_PARTITIONS:
        raise ValueError(f"shape {(cycles, m1, m2)} exceeds the partition cap")
    forward, cyc = _small_system(rng, cycles, math.lcm(m1, m2), copy)
    n = len(forward)

    def call():
        A = api
        return A.enumerate_compatible(A.canonical_partition(A.FinSystem(forward), m1), m2)

    lab1 = canonical_labels(n, cyc, m1)

    @_once
    def oracle_keys():
        # brute force over every length-m2 partition, filtered by the
        # benchmark's own compatibility test
        found = set()
        for P in api.all_partitions(api.FinSystem(forward), m2):
            blocks = api.blocks_json(P)
            lab = labels_of_blocks(forward, blocks, m2)
            if label_offset(lab1, m1, lab, m2) is not None:
                found.add(tuple(map(tuple, blocks)))
        return found

    def check(tagged):
        expect(len(tagged) == count, f"{len(tagged)} partitions, closed form says {count}")
        classes = {}
        keys = []
        for P, cid in tagged:
            blocks = api.blocks_json(P)
            lab = labels_of_blocks(forward, blocks, m2)
            expect(label_offset(lab1, m1, lab, m2) is not None, "incompatible partition returned")
            keys.append(tuple(map(tuple, blocks)))
            expect(classes.setdefault(rotation_key(lab, m2), cid) == cid, "shifts split across classes")
        expect(all(a < b for a, b in zip(keys, keys[1:])), "not in canonical order, or repeated")
        expect(len(classes) == count // m2, f"{len(classes)} classes, expected {count // m2}")
        expect(len(set(classes.values())) == len(classes), "distinct classes share an id")
        if n <= ORACLE_POINTS:
            expect(set(keys) == oracle_keys(), "differs from the all_partitions oracle")

    return Request("enumerate_compatible", call, check)


def _enum_maps(api, rng, cycles: int, lengths, copy: int) -> Request:
    lengths = list(lengths)
    count = map_count(cycles, lengths)
    if count > MAX_MAPS:
        raise ValueError(f"shape {(cycles, lengths)} exceeds the map cap")
    n_L = lengths[-1]
    forward, _ = _small_system(rng, cycles, n_L, copy)
    n_classes = n_L ** (cycles - 1)

    def call():
        return api.enumerate_factor_maps(api.FinSystem(forward), lengths)

    def check(classes):
        expect(len(classes) == n_classes, f"{len(classes)} classes, expected {n_classes}")
        seen = set()
        for cls in classes:
            expect(len(cls) == count // n_classes, "class size")
            fiber_sets = set()
            for F in cls:
                check_equivariant(forward, F.labels, lengths)
                groups = {}
                for x, lab in enumerate(F.labels):
                    groups.setdefault(lab, []).append(x)
                fiber_sets.add(frozenset(map(tuple, groups.values())))
            expect(len(fiber_sets) == 1, "a class holds maps with different fibers")
            fibers = fiber_sets.pop()
            expect(fibers not in seen, "two classes with the same fibers")
            seen.add(fibers)

    return Request("enumerate_factor_maps", call, check)


def enumerate_(api, rng):
    pool = []
    for cycles, m1, m2, copies in COMPAT_SHAPES:
        for copy in range(copies):
            pool.append(_enum_compat(api, rng, cycles, m1, m2, copy))
    for cycles, lengths, copies in MAP_SHAPES:
        for copy in range(copies):
            pool.append(_enum_maps(api, rng, cycles, lengths, copy))
    rng.shuffle(pool)
    fixed = random.Random(WARMUP_SEED)
    return pool, [_enum_compat(api, fixed, 2, 1, 2, 0), _enum_maps(api, fixed, 2, (3,), 0)]
