import random

import pytest

from oracles import random_polygon
from paraclose import splay
from paraclose.polygon import Polygon, hull_of_points, hull_union, minkowski_sum, point
from paraclose.splay import SplayPolygon, combine_any, reset_splay_steps, settle, splay_steps
from paraclose.witness import wleaf


def eng(poly, track=True):
    return SplayPolygon.from_polygon(poly if track else Polygon(poly.vertices))


@pytest.fixture
def engine_path(monkeypatch):
    # with no ratio every non-empty pair counts as lopsided, so combine_any
    # merges it on the engine, smaller side into larger
    monkeypatch.setattr(splay, "_RATIO", 0)


def msum(a, b):
    got = combine_any("+", a, b)
    assert isinstance(got, SplayPolygon)
    return got


def munion(a, b):
    got = combine_any("u", a, b)
    assert isinstance(got, SplayPolygon)
    return got


def test_roundtrip():
    rng = random.Random(2)
    for _ in range(200):
        p = random_polygon(rng, kmax=20)
        back = settle(eng(p))
        assert back == p
        assert back.witness_sets() == p.witness_sets()


def test_translate():
    rng = random.Random(3)
    for _ in range(50):
        p = random_polygon(rng, kmax=10)
        e = eng(p).translate((7, -3), wleaf({"shift"}))
        got = settle(e)
        assert got == p.translate((7, -3))
        for s in got.witness_sets():
            assert "shift" in s


def _random_pairs(seed):
    """400 random operand pairs, then pairs whose larger side is a point or
    a segment (the other side no bigger, either one first), on a small grid
    so that ties, coincident vertices and parallel or vertical edges are
    common."""
    rng = random.Random(seed)
    for trial in range(400):
        kmax = 4 if trial % 3 == 0 else 24
        p = random_polygon(rng, kmax=kmax, label="P")
        q = random_polygon(rng, kmax=rng.choice([1, 2, 3, kmax]), label="Q")
        yield p, q
    for _ in range(600):
        p = _degenerate(rng, rng.choice([1, 2]), "P")
        q = _degenerate(rng, rng.randint(1, len(p)), "Q")
        yield (p, q) if rng.random() < 0.5 else (q, p)


def _degenerate(rng, k, label):
    """Random point (k = 1) or segment (k = 2) with labelled witnesses."""
    while True:
        pts = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(k)]
        poly = hull_of_points(pts, [wleaf({(label, i)}) for i in range(k)])
        if len(poly) == k:
            return poly


@pytest.mark.usefixtures("engine_path")
def test_minkowski_matches_kernel():
    for p, q in _random_pairs(5):
        want = minkowski_sum(p, q)
        got = settle(msum(eng(p), eng(q)))
        assert got == want, (p.vertices, q.vertices)
        assert got.witness_sets() == want.witness_sets(), (p.vertices, q.vertices)


@pytest.mark.usefixtures("engine_path")
def test_union_matches_kernel():
    for p, q in _random_pairs(7):
        want = hull_union(p, q)
        got = settle(munion(eng(p), eng(q)))
        assert got == want, (p.vertices, q.vertices)
        # ties may keep either side's witness, so check validity, not equality
        pw = {v: s for v, s in zip(p.vertices, p.witness_sets())}
        qw = {v: s for v, s in zip(q.vertices, q.witness_sets())}
        for v, s in zip(got.vertices, got.witness_sets()):
            assert s == pw.get(v) or s == qw.get(v)


@pytest.mark.usefixtures("engine_path")
def test_chained_merges_match_kernel():
    rng = random.Random(11)
    for _ in range(60):
        ref = random_polygon(rng, kmax=8)
        e = eng(ref)
        for _ in range(rng.randint(2, 8)):
            q = random_polygon(rng, kmax=6)
            op = rng.choice(["sum", "union", "shift"])
            if op == "sum":
                ref = minkowski_sum(ref, q)
                e = msum(e, eng(q))
            elif op == "union":
                ref = hull_union(ref, q)
                e = munion(e, eng(q))
            else:
                d = (rng.randint(-9, 9), rng.randint(-9, 9))
                ref = ref.translate(d)
                e = e.translate(d)
        assert settle(e) == ref


@pytest.mark.usefixtures("engine_path")
def test_consumed_engine_rejected():
    a = eng(hull_of_points([(0, 0), (1, 0), (0, 1)]))
    b = eng(point((5, 5)))
    msum(a, b)
    with pytest.raises(RuntimeError):
        settle(b)


@pytest.mark.usefixtures("engine_path")
def test_pair_witnesses_through_sum():
    # after a sum, each vertex witness must split into one vertex of each
    # source whose positions add up
    rng = random.Random(13)
    for _ in range(150):
        p = random_polygon(rng, kmax=16, label="P")
        q = random_polygon(rng, kmax=16, label="Q")
        got = settle(msum(eng(p), eng(q)))
        pw = dict(zip(p.witness_sets(), p.vertices))
        qw = dict(zip(q.witness_sets(), q.vertices))
        for v, s in zip(got.vertices, got.witness_sets()):
            a = frozenset(t for t in s if t[0] == "P")
            b = frozenset(t for t in s if t[0] == "Q")
            assert a in pw and b in qw
            assert (pw[a][0] + qw[b][0], pw[a][1] + qw[b][1]) == v


@pytest.mark.usefixtures("engine_path")
def test_sum_then_translate_then_union_witnesses():
    # exercise epoch folding: pair tags must settle when a newer tag arrives
    rng = random.Random(17)
    for _ in range(100):
        p = random_polygon(rng, kmax=10, label="P")
        q = random_polygon(rng, kmax=6, label="Q")
        r = random_polygon(rng, kmax=6, label="R")
        e = msum(eng(p), eng(q))
        e.translate((3, 1), wleaf({("T", 0)}))
        e = munion(e, eng(r))
        ref = hull_union(minkowski_sum(p, q).translate((3, 1)), r)
        got = settle(e)
        assert got == ref
        pw = dict(zip(p.witness_sets(), p.vertices))
        qw = dict(zip(q.witness_sets(), q.vertices))
        rw = dict(zip(r.witness_sets(), r.vertices))
        for v, s in zip(got.vertices, got.witness_sets()):
            if ("T", 0) in s:
                a = frozenset(t for t in s if t[0] == "P")
                b = frozenset(t for t in s if t[0] == "Q")
                assert a in pw and b in qw
                x = pw[a][0] + qw[b][0] + 3
                y = pw[a][1] + qw[b][1] + 1
                assert (x, y) == v
            else:
                assert s in rw and rw[s] == v


@pytest.mark.usefixtures("engine_path")
def test_union_with_empty_engine_keeps_witnesses():
    from paraclose.polygon import EMPTY_POLYGON

    rng = random.Random(23)
    for _ in range(30):
        p = random_polygon(rng, kmax=10)
        want = hull_union(EMPTY_POLYGON, p)
        for a, b in ((EMPTY_POLYGON, p), (p, EMPTY_POLYGON)):
            got = settle(munion(eng(a), eng(b)))
            assert got == want
            assert got.witness_sets() == want.witness_sets()


@pytest.mark.usefixtures("engine_path")
def test_independent_engines_keep_their_own_epochs():
    # Two engines tagged and summed independently count epochs from the
    # same start, so their stored epochs overlap; merging them and tagging
    # the result further must still match the kernel's witnesses exactly.
    rng = random.Random(29)

    def grow(e, ref, steps, label):
        for k in range(steps):
            if rng.random() < 0.5:
                d = (rng.randint(-9, 9), rng.randint(-9, 9))
                tag = wleaf({(label, "t", k)})
                e = e.translate(d, tag)
                ref = ref.translate(d, tag)
            else:
                q = random_polygon(rng, kmax=rng.choice([2, 4, 12]), label=(label, k))
                e = msum(e, eng(q))
                ref = minkowski_sum(ref, q)
        return e, ref

    for trial in range(80):
        p1 = random_polygon(rng, kmax=24, label=("A", trial))
        p2 = random_polygon(rng, kmax=24, label=("B", trial))
        e1, r1 = grow(eng(p1), p1, rng.randint(1, 6), "A")
        e2, r2 = grow(eng(p2), p2, rng.randint(1, 6), "B")
        e, ref = grow(msum(e1, e2), minkowski_sum(r1, r2),
                      rng.randint(0, 4), "C")
        got = settle(e)
        assert got == ref
        assert got.witness_sets() == ref.witness_sets()


@pytest.mark.usefixtures("engine_path")
def test_untracked_mode_and_steps():
    rng = random.Random(19)
    reset_splay_steps()
    p = random_polygon(rng, kmax=40)
    q = random_polygon(rng, kmax=10)
    e = msum(eng(p, track=False), eng(q, track=False))
    got = settle(e)
    assert got.wit is None
    assert got == minkowski_sum(p, q)
    assert splay_steps() > 0


@pytest.mark.usefixtures("engine_path")
def test_random_op_chains_witness_sums():
    # pool of engines under random sums, unions and tagged translates; every
    # expanded witness must sum, vector-wise, to its vertex at all times
    for seed in range(40):
        rng = random.Random(1000 + seed)
        val = {}
        pool = []
        made = 0

        def fresh():
            nonlocal made
            p = random_polygon(rng, kmax=rng.randint(1, 9), span=60,
                               label=f"s{made}")
            made += 1
            for v, s in zip(p.vertices, p.witness_sets()):
                (t,) = s
                val[t] = v
            pool.append([eng(p), p])

        def check(entry):
            # settle consumes the engine, so the entry goes on with a
            # fresh one over the same polygon and witnesses
            got = settle(entry[0])
            entry[0] = eng(got)
            ref = entry[1]
            assert got == ref
            for v, s in zip(got.vertices, got.witness_sets()):
                assert (sum(val[t][0] for t in s),
                        sum(val[t][1] for t in s)) == v

        for _ in range(3):
            fresh()
        tags = 0
        for _ in range(14):
            op = rng.random()
            if op < 0.25 or len(pool) < 2:
                fresh()
            elif op < 0.45:
                i = rng.randrange(len(pool))
                d = (rng.randint(-30, 30), rng.randint(-30, 30))
                t = ("t", tags)
                tags += 1
                val[t] = d
                pool[i][0].translate(d, wleaf({t}))
                pool[i][1] = pool[i][1].translate(d)
            else:
                b = pool.pop(rng.randrange(len(pool)))
                a = pool.pop(rng.randrange(len(pool)))
                if op < 0.75:
                    pool.append([msum(a[0], b[0]),
                                 minkowski_sum(a[1], b[1])])
                else:
                    pool.append([munion(a[0], b[0]),
                                 hull_union(a[1], b[1])])
            if rng.random() < 0.25:
                check(pool[rng.randrange(len(pool))])
        for entry in pool:
            check(entry)


def _caterpillar(n, seed):
    """Rooted tree: spine s0 -> s1 -> ..., each spine vertex with one leaf
    child, random weights. tree_to_sp turns it into an alternating
    series/parallel spine whose every merge is lopsided."""
    rng = random.Random(seed)

    def w():
        return [rng.randint(-10**4, 10**4), rng.randint(-10**4, 10**4)]

    edges = []
    for i in range(n // 2):
        if i:
            edges.append({"parent": f"s{i - 1}", "child": f"s{i}", "weight": w()})
        edges.append({"parent": f"s{i}", "child": f"l{i}", "weight": w()})
    return {"root": {"id": "s0", "weight": w()}, "edges": edges}


def test_lopsided_merges_stay_off_the_kernel(monkeypatch):
    # Kernel work is linear in both operands, so feeding every caterpillar
    # merge to it costs about n^2/4 operand vertices; the ratio rule sends
    # those merges to the engine and keeps the kernel's share linear.
    from paraclose.series_parallel import solve_sp, tree_to_sp

    seen = [0]

    def counting(op):
        def run(p, q):
            seen[0] += len(p) + len(q)
            return op(p, q)
        return run

    monkeypatch.setattr(splay, "_kernel_minkowski", counting(minkowski_sum))
    monkeypatch.setattr(splay, "_kernel_union", counting(hull_union))
    n = 4000
    poly = solve_sp(tree_to_sp(_caterpillar(n, 3)), track=False)
    assert len(poly) > n // 4  # a hull that grows along the spine
    assert seen[0] <= 4 * n, seen[0]


def test_combine_any_dispatch():
    from paraclose.polygon import EMPTY_POLYGON

    def sized(k, label, shift):
        # k points on a parabola: all in convex position
        pts = [(i, (i - shift) ** 2) for i in range(k)]
        return hull_of_points(pts, [wleaf({(label, i)}) for i in range(k)])

    p, q = sized(8, "P", 3), sized(8, "Q", 5)
    for kind, op in (("+", minkowski_sum), ("u", hull_union)):
        # near-equal sizes go to the kernel, reading the engine out
        e = eng(p)
        got = combine_any(kind, e, q)
        assert isinstance(got, Polygon) and got == op(p, q)
        with pytest.raises(RuntimeError):
            combine_any(kind, e, q)
    big = sized(200, "B", 0)
    # witnesses survive a merge only when both operands carry them, on the
    # kernel path (8 vs 8 vertices) and on the engine path (200 vs 1)
    for tracked, bare, path in ((p, Polygon(q.vertices), Polygon),
                                (big, point((1, 2)), SplayPolygon)):
        for kind, op in (("+", minkowski_sum), ("u", hull_union)):
            for a, b in ((tracked, bare), (bare, tracked)):
                got = combine_any(kind, a, b)
                assert isinstance(got, path)
                if path is SplayPolygon:
                    got = settle(got)
                assert got == op(tracked, bare) and got.wit is None
    got = combine_any("+", big, point((1, 2), wleaf({"x"})))
    assert isinstance(got, SplayPolygon)
    assert settle(got) == big.translate((1, 2))
    # an empty side passes the other one through untouched
    assert combine_any("u", EMPTY_POLYGON, big) is big
    e = eng(big)
    assert combine_any("u", e, EMPTY_POLYGON) is e
    assert combine_any("+", e, EMPTY_POLYGON) is EMPTY_POLYGON
    with pytest.raises(RuntimeError):
        settle(e)
    # Lopsided pairs take the direct path: only the larger operand becomes
    # an engine, and the smaller one is read as chains, straight from a
    # Polygon or from an engine it consumes. Coordinates are even on the
    # big side and odd on the small one, so no vertices coincide and the
    # kernel's witnesses are the only right ones.
    def convex(k, label, odd):
        pts = [(2 * i + odd, 2 * (i - k // 2) ** 2 + odd) for i in range(k)]
        return hull_of_points(pts, [wleaf({(label, i)}) for i in range(k)])

    big = convex(200, "B", 0)
    for k in (1, 2, 3, 40):
        small = convex(k, "S", 1)
        for kind, op in (("+", minkowski_sum), ("u", hull_union)):
            for bt, st in ((True, True), (True, False), (False, True), (False, False)):
                bp = big if bt else Polygon(big.vertices)
                sp = small if st else Polygon(small.vertices)
                want = op(bp, sp)
                for big_engine in (False, True):
                    for small_engine in (False, True):
                        for big_first in (True, False):
                            b = eng(bp, bt) if big_engine else bp
                            sm = eng(sp, st) if small_engine else sp
                            got = combine_any(kind, *((b, sm) if big_first else (sm, b)))
                            assert isinstance(got, SplayPolygon)
                            got = settle(got)
                            assert got == want
                            if bt and st:
                                assert got.witness_sets() == want.witness_sets()
                            else:
                                assert got.wit is None
                            if small_engine:
                                with pytest.raises(RuntimeError):
                                    settle(sm)
                                with pytest.raises(RuntimeError):
                                    combine_any(kind, big, sm)
                            else:
                                assert sm.vertices == small.vertices
                                assert sm.wit == (small.wit if st else None)
                            assert bp.vertices == big.vertices


def test_solves_leave_no_garbage_cycles():
    # Consumed engines and cut subtrees are unlinked as they die, and
    # reference counting frees them, so a solve run with the cyclic GC off
    # leaves it nothing to collect.
    import gc

    from paraclose.generate import random_sp_tree
    from paraclose.series_parallel import solve_sp, tree_to_sp

    cases = ((random_sp_tree(random.Random(37), 2000, span=10**4), True),
             (tree_to_sp(_caterpillar(4000, 5)), False))
    was = gc.isenabled()
    gc.disable()
    try:
        for t, track in cases:
            gc.collect()
            solve_sp(t, track)
            assert gc.collect() == 0
    finally:
        if was:
            gc.enable()
