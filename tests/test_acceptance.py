"""End-to-end acceptance gate: one test per criterion, one summary line each.

Summary lines are printed through pytest's capture (sys.__stdout__) so they
always land in piped output:

    ACCEPTANCE nn <name>: PASS/FAIL (<measurements>)

All tolerances are pinned here: oracle checks are exact (zero mismatches),
time budgets are wall-clock upper bounds, scaling slopes are least-squares
fits of the log-log points with the stated windows, and count bounds hold
with zero violations. Seeds are fixed; reruns are byte-reproducible.
"""

import math
import random
import sys
import time
from fractions import Fraction

from paraclose.errors import ParacloseError
from paraclose.generate import (
    random_semiorder,
    random_sp_tree,
    random_tree_order,
    random_treewidth_poset,
    random_width2_poset,
)
from paraclose.parametric import maximize_quasiconvex, objective, optimum_at, profile
from paraclose.polygon import hull_union, minkowski_sum
from paraclose.poset import Poset, brute_polygon
from paraclose.semiorder import Semiorder, solve_semiorder
from paraclose.series_parallel import LEAF, SPTree, leaf, solve_sp, sp_to_poset, tree_to_sp
from paraclose import splay
from paraclose.splay import SplayPolygon, combine_any, reset_splay_steps, splay_steps
from paraclose.treewidth import greedy_tree_decomposition, solve_treewidth
from paraclose.width2 import solve_width2

from oracles import check_lower_set_witnesses, random_polygon, slow_minkowski

SEED_SEMI = 0xA1
SEED_SP = 0xA2
SEED_TW = 0xA3
SEED_W2 = 0xA4

_LINES = []  # conftest echoes these in the terminal summary


def _report(num, name, ok, detail):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    _LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def _slope(xs, ys):
    """Least-squares slope of ys against xs."""
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den


def _semiorder_instances():
    rng = random.Random(SEED_SEMI)
    for _ in range(300):
        yield Semiorder.from_json(random_semiorder(rng, rng.randint(1, 14)))


def _sp_instances():
    rng = random.Random(SEED_SP)
    for _ in range(300):
        yield random_sp_tree(rng, rng.randint(1, 14))


def _tw_instances():
    rng = random.Random(SEED_TW)
    for _ in range(200):
        yield Poset.from_json(random_treewidth_poset(rng, rng.randint(1, 12), width=3))


def _w2_instances():
    rng = random.Random(SEED_W2)
    for _ in range(300):
        yield Poset.from_json(random_width2_poset(rng, rng.randint(1, 14)))


def test_criterion_01_semiorder_oracle():
    t0 = time.perf_counter()
    bad = 0
    for s in _semiorder_instances():
        if solve_semiorder(s) != brute_polygon(s.to_poset(), limit=14):
            bad += 1
    dt = time.perf_counter() - t0
    _report(
        1, "semiorder-oracle", bad == 0 and dt < 30.0,
        f"300 instances n<=14, {bad} mismatches, {dt:.1f}s (budget 30s)",
    )


def test_criterion_02_series_parallel_oracle():
    t0 = time.perf_counter()
    bad = 0
    for t in _sp_instances():
        if solve_sp(t) != brute_polygon(sp_to_poset(t), limit=14):
            bad += 1
    dt = time.perf_counter() - t0
    _report(
        2, "series-parallel-oracle", bad == 0 and dt < 30.0,
        f"300 instances n<=14, {bad} mismatches, {dt:.1f}s (budget 30s)",
    )


def test_criterion_03_treewidth_oracle():
    t0 = time.perf_counter()
    bad = wide = 0
    for p in _tw_instances():
        d = greedy_tree_decomposition(p)
        if d.width > 3:
            wide += 1
            continue
        if solve_treewidth(p, d) != brute_polygon(p, limit=12):
            bad += 1
    dt = time.perf_counter() - t0
    _report(
        3, "treewidth-oracle", bad == 0 and wide == 0 and dt < 60.0,
        f"200 instances n<=12, {bad} mismatches, {wide} over width 3, "
        f"{dt:.1f}s (budget 60s)",
    )


def test_criterion_04_width2_oracle():
    t0 = time.perf_counter()
    bad = 0
    for p in _w2_instances():
        if solve_width2(p) != brute_polygon(p, limit=14):
            bad += 1
    dt = time.perf_counter() - t0
    _report(
        4, "width2-oracle", bad == 0 and dt < 30.0,
        f"300 instances n<=14, {bad} mismatches, {dt:.1f}s (budget 30s)",
    )


def test_criterion_05_sp_hull_bound():
    rng = random.Random(0xA5)
    worst = []
    ok = True
    for n in (10**3, 10**4, 10**5):
        poly = solve_sp(random_sp_tree(rng, n), track=False)
        worst.append(f"n={n}: {len(poly.vertices)}")
        ok = ok and len(poly.vertices) <= 2 * n
    _report(5, "sp-hull-at-most-2n", ok, "; ".join(worst) + "; tolerance 0")


def test_criterion_06_sp_scaling():
    import gc

    rng = random.Random(0xA6)
    t = random_sp_tree(rng, 10**5)
    gc.collect()
    t0 = time.perf_counter()
    solve_sp(t)
    dt = time.perf_counter() - t0
    xs, ys = [], []
    c = 0.0
    for k in range(10, 18):
        n = 1 << k
        tree = random_sp_tree(rng, n)
        reset_splay_steps()
        solve_sp(tree, track=False)
        steps = splay_steps()
        xs.append(math.log(n))
        ys.append(math.log(steps))
        c = max(c, steps / (n * math.log2(n)))
    slope = _slope(xs, ys)
    ok = dt < 5.0 and 0.95 <= slope <= 1.25
    _report(
        6, "sp-splay-scaling", ok,
        f"n=1e5 solve {dt:.2f}s (budget 5s); steps slope {slope:.3f} "
        f"in [0.95, 1.25] over 2^10..2^17; c = {c:.2f} steps per n*log2(n)",
    )


def test_criterion_07_semiorder_hull_growth():
    # span widened so hull growth is not capped by the direction count of
    # tiny integer weights; the square-split bound asserts inside every run
    rng = random.Random(0xA7)
    ns = [1 << k for k in range(8, 16)]
    counts = []
    for n in ns:
        s = Semiorder.from_json(random_semiorder(rng, n, span=10**4))
        counts.append(len(solve_semiorder(s, track=False).vertices))
    cap = max(c / (n * math.log2(n)) for n, c in zip(ns, counts))
    monotone = all(a < b for a, b in zip(counts, counts[1:]))
    xs = [math.log(n * math.log2(n)) for n in ns]
    ys = [math.log(c) for c in counts]
    slope = _slope(xs, ys)
    ok = monotone and slope <= 1.1
    _report(
        7, "semiorder-hull-growth", ok,
        f"vertices {counts[0]}..{counts[-1]} over 2^8..2^15, monotone={monotone}, "
        f"slope {slope:.3f} <= 1.1, C = {cap:.3f} vertices per n*log2(n); "
        f"square-split bound asserted in-run",
    )


def test_criterion_08_treewidth_at_scale():
    # far past the oracle, orders that are in two classes at once check the
    # treewidth DP against the other class's solver: rooted-tree orders are
    # series-parallel (greedy width 1), width-2 orders have small treewidth
    t0 = time.perf_counter()
    bad = 0
    rng = random.Random(SEED_TW)
    sp = tree_to_sp(random_tree_order(rng, 5000))
    p = sp_to_poset(sp)
    got = solve_treewidth(p)
    bad += got != solve_sp(sp)
    check_lower_set_witnesses(got, p)
    for _ in range(3):
        p = Poset.from_json(random_width2_poset(rng, 1000))
        got = solve_treewidth(p)
        bad += got != solve_width2(p, track=False)
        check_lower_set_witnesses(got, p)
    dt = time.perf_counter() - t0
    _report(
        8, "treewidth-at-scale", bad == 0 and dt < 18.0,
        f"tree order n=5000 vs solve_sp, 3 width-2 orders n=1000 vs "
        f"solve_width2, {bad} mismatches, witnesses are lower sets, "
        f"{dt:.1f}s (budget 18s)",
    )


def test_criterion_09_splay_matches_kernel(monkeypatch):
    # with no ratio every non-empty pair counts as lopsided, so each merge
    # takes combine_any's engine path
    monkeypatch.setattr(splay, "_RATIO", 0)
    rng = random.Random(0xA9)
    bad = 0
    for trial in range(1000):
        p = random_polygon(rng, kmax=64, span=150, label=f"p{trial}")
        q = random_polygon(rng, kmax=64, span=150, label=f"q{trial}")
        if rng.random() < 0.5:
            want = minkowski_sum(p, q)
            kind = "+"
        else:
            want = hull_union(p, q)
            kind = "u"
        got = combine_any(
            kind, SplayPolygon.from_polygon(p), SplayPolygon.from_polygon(q)
        )
        if got.to_polygon().vertices != want.vertices:
            bad += 1
    _report(
        9, "splay-vs-kernel", bad == 0,
        f"1000 merges (union and minkowski, sizes <= 64), {bad} mismatches",
    )


def _profile_matches_brute(projs, poly, rng):
    pieces = profile(poly)
    lams = [Fraction(rng.randint(-60, 60), rng.randint(1, 8)) for _ in range(20)]
    for left, right in zip(pieces, pieces[1:]):
        if left.hi is not None and right.hi is not None:
            lams.append((left.hi + right.hi) / 2)  # midpoints between breakpoints
    for lam in lams:
        p, q = lam.numerator, lam.denominator
        want = max(a * p + b * q for a, b in projs)
        piece = optimum_at(pieces, lam)
        if piece.vertex[0] * p + piece.vertex[1] * q != want:
            return False
    return True


def _ratio_matches_brute(projs, poly):
    vals = [Fraction(x, y) for x, y in projs if y != 0]
    try:
        got, _, _ = maximize_quasiconvex(poly, objective("ratio"))
    except ParacloseError:
        return not vals
    return bool(vals) and got == max(vals)


def _sign_definite(poset):
    """True when every element's second weight coordinate has one strict
    sign, which makes x/y quasiconvex over the whole reachable polygon.
    Only there does the vertex scan provably agree with exhaustive search;
    a polygon straddling y = 0 can hide a better ratio at an interior
    projection that the hull cannot see."""
    ys = [b for _, b in poset.weights]
    return all(b > 0 for b in ys) or all(b < 0 for b in ys)


def _positive_poset(poset):
    """Same order, second weight coordinate remapped to a positive cost."""
    weights = [(a, abs(b) + 1) for a, b in poset.weights]
    n = len(poset.ids)
    pairs = [
        (poset.ids[u], poset.ids[v])
        for v in range(n)
        for u in range(n)
        if u != v and poset.below[v] >> u & 1
    ]
    return Poset(poset.ids, weights, pairs)


def _positive_tree(t):
    if t.kind == LEAF:
        return leaf(t.id, (t.weight[0], abs(t.weight[1]) + 1))
    return SPTree(t.kind, _positive_tree(t.left), _positive_tree(t.right))


def _solved_pairs():
    """Every oracle-equivalence instance, solved twice: as drawn, and with
    the cost coordinate forced positive (re-solved by the same solver)."""
    for s in _semiorder_instances():
        rows = list(zip(s.ids, s.utilities, ((a, abs(b) + 1) for a, b in s.weights)))
        t = Semiorder(rows)
        yield s.to_poset(), solve_semiorder(s), t.to_poset(), solve_semiorder(t)
    for tr in _sp_instances():
        pt = _positive_tree(tr)
        yield sp_to_poset(tr), solve_sp(tr), sp_to_poset(pt), solve_sp(pt)
    for p in _tw_instances():
        pp = _positive_poset(p)
        yield p, solve_treewidth(p), pp, solve_treewidth(pp)
    for p in _w2_instances():
        pp = _positive_poset(p)
        yield p, solve_width2(p), pp, solve_width2(pp)


def test_criterion_10_parametric_correctness():
    import warnings

    rng = random.Random(0xAA)
    bad_prof = bad_ratio = total = definite = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # ratio undefined at y=0 vertices
        for poset, poly, pposet, ppoly in _solved_pairs():
            total += 1
            projs = [poset.project(m) for m in poset.lower_sets(limit=14)]
            if not _profile_matches_brute(projs, poly, rng):
                bad_prof += 1
            if _sign_definite(poset):
                definite += 1
                if not _ratio_matches_brute(projs, poly):
                    bad_ratio += 1
            # positive-cost rerun of the same order: the regime where the
            # ratio objective is actually quasiconvex, so the vertex scan
            # must equal exhaustive search every single time
            pprojs = [pposet.project(m) for m in pposet.lower_sets(limit=14)]
            if not _ratio_matches_brute(pprojs, ppoly):
                bad_ratio += 1
    ok = bad_prof == 0 and bad_ratio == 0
    _report(
        10, "parametric-correctness", ok,
        f"{total} instances: profile exact at 20 sampled lam + breakpoint "
        f"midpoints ({bad_prof} failures); ratio argmax vs brute on "
        f"{definite} sign-definite + {total} positive-cost reruns "
        f"({bad_ratio} failures)",
    )


def test_criterion_11_kernel_properties():
    rng = random.Random(0xAB)
    bad_bound = bad_mink = 0
    for trial in range(10**4):
        p = random_polygon(rng, kmax=12, span=50, label=f"a{trial}")
        q = random_polygon(rng, kmax=12, span=50, label=f"b{trial}")
        mp = minkowski_sum(p, q)
        hu = hull_union(p, q)
        if (len(mp.vertices) > len(p.vertices) + len(q.vertices)
                or len(hu.vertices) > len(p.vertices) + len(q.vertices)):
            bad_bound += 1
        if mp.vertices != slow_minkowski(p, q):
            bad_mink += 1
    _report(
        11, "kernel-properties", bad_bound == 0 and bad_mink == 0,
        f"10000 pairs: vertex-count bound |p|+|q| ({bad_bound} violations), "
        f"minkowski vs brute ({bad_mink} mismatches), exact",
    )
