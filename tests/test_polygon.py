import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    random_polygon,
    slow_hull,
    slow_minkowski,
    slow_union,
    slow_zonotope,
    slow_zonotope_witnesses,
)
from paraclose.errors import InputFormatError
from paraclose.polygon import (
    EMPTY_POLYGON,
    Polygon,
    _chains,
    hull_of_points,
    hull_union,
    is_canonical,
    minkowski_sum,
    point,
    segment_zonotope,
)
from paraclose.witness import WUnion, expand_all, wleaf

points_strategy = st.lists(
    st.tuples(st.integers(-30, 30), st.integers(-30, 30)), min_size=0, max_size=14
)


def test_hull_hand_cases():
    assert hull_of_points([]).vertices == ()
    assert hull_of_points([(3, 5), (3, 5)]).vertices == ((3, 5),)
    assert hull_of_points([(0, 0), (2, 2), (1, 1)]).vertices == ((0, 0), (2, 2))
    got = hull_of_points([(0, 0), (4, 0), (4, 4), (0, 4), (2, 2), (2, 0), (0, 2)])
    assert got.vertices == ((0, 0), (4, 0), (4, 4), (0, 4))


@settings(deadline=None)
@given(points_strategy)
def test_hull_matches_oracle(pts):
    got = hull_of_points(pts)
    assert got.vertices == slow_hull(pts)
    assert is_canonical(got)
    for p in pts:
        assert got.contains(p)


def test_chain_split():
    poly = Polygon(((0, 0), (3, 0), (4, 2), (4, 5), (1, 4), (0, 2)))
    assert is_canonical(poly)
    # lower runs to the lexmax vertex and owns the right vertical edge
    lo, up = _chains(poly, False)
    v = poly.vertices
    assert lo == [(v[i], None) for i in (0, 1, 2, 3)]
    assert up == [(v[i], None) for i in (0, 5, 4, 3)]
    seg = Polygon(((1, 1), (1, 7)), ("a", "b"))
    assert _chains(seg, True) == ([((1, 1), "a"), ((1, 7), "b")],) * 2
    assert _chains(point((2, 2)), False) == ([((2, 2), None)],) * 2


def test_minkowski_hand_case():
    tri = hull_of_points([(0, 0), (2, 0), (0, 2)])
    seg = hull_of_points([(0, 0), (1, 1)])
    got = minkowski_sum(tri, seg)
    assert got.vertices == ((0, 0), (2, 0), (3, 1), (1, 3), (0, 2))


def test_minkowski_degenerate():
    assert minkowski_sum(EMPTY_POLYGON, point((1, 2))).is_empty
    assert minkowski_sum(point((1, 2)), point((3, 4))).vertices == ((4, 6),)
    a = hull_of_points([(0, 0), (1, 0)])
    b = hull_of_points([(0, 0), (2, 0)])
    assert minkowski_sum(a, b).vertices == ((0, 0), (3, 0))
    c = hull_of_points([(0, 0), (0, 3)])
    assert minkowski_sum(a, c).vertices == ((0, 0), (1, 0), (1, 3), (0, 3))


def test_minkowski_random_vs_oracle():
    rng = random.Random(11)
    for _ in range(300):
        p = random_polygon(rng, kmax=9)
        q = random_polygon(rng, kmax=9)
        got = minkowski_sum(p, q)
        assert got.vertices == slow_minkowski(p, q)
        assert is_canonical(got)
        assert len(got) <= len(p) + len(q)


def test_minkowski_witnesses_pair_sources():
    rng = random.Random(7)
    for _ in range(60):
        p = random_polygon(rng, kmax=8, label="P")
        q = random_polygon(rng, kmax=8, label="Q")
        got = minkowski_sum(p, q)
        pw = dict(zip(p.witness_sets(), p.vertices))
        qw = dict(zip(q.witness_sets(), q.vertices))
        for v, ids in zip(got.vertices, got.witness_sets()):
            a = frozenset(t for t in ids if t[0] == "P")
            b = frozenset(t for t in ids if t[0] == "Q")
            assert a in pw and b in qw
            assert (pw[a][0] + qw[b][0], pw[a][1] + qw[b][1]) == v


def test_union_random_vs_oracle():
    rng = random.Random(13)
    for _ in range(300):
        p = random_polygon(rng, kmax=9)
        q = random_polygon(rng, kmax=9)
        got = hull_union(p, q)
        assert got.vertices == slow_union(p, q)
        assert is_canonical(got)
        assert len(got) <= len(p) + len(q)
        for v, s in zip(got.vertices, got.witness_sets()):
            assert v in p.vertices or v in q.vertices
            assert s  # every vertex keeps some source witness


def test_union_degenerate():
    assert hull_union(EMPTY_POLYGON, EMPTY_POLYGON).is_empty
    pt = point((5, 5), wleaf({"a"}))
    assert hull_union(EMPTY_POLYGON, pt).vertices == ((5, 5),)
    assert hull_union(pt, pt).vertices == ((5, 5),)
    seg = hull_of_points([(0, 0), (10, 10)])
    assert hull_union(pt, seg).vertices == ((0, 0), (10, 10))
    assert hull_union(seg, point((20, 0))).vertices == ((0, 0), (20, 0), (10, 10))


def test_zonotope_hand_cases():
    assert segment_zonotope([]).vertices == ((0, 0),)
    assert segment_zonotope([(0, 0)], ["z"]).vertices == ((0, 0),)
    sq = segment_zonotope([(1, 0), (0, 1)], ["g0", "g1"])
    assert sq.vertices == ((0, 0), (1, 0), (1, 1), (0, 1))
    assert sq.witness_sets() == [frozenset(), {"g0"}, {"g0", "g1"}, {"g1"}]
    z = segment_zonotope([(1, 2), (-1, 2)], ["a", "b"])
    assert z.vertices == ((-1, 2), (0, 0), (1, 2), (0, 4))
    assert z.witness_sets() == [{"b"}, frozenset(), {"a"}, {"a", "b"}]


def test_zonotope_many_parallel_generators():
    # one parallel group of 10^5 generators, half of them pointing the
    # other way; growing the group must stay linear in its size
    import time

    k = 10**5
    gens = []
    for i in range(k):
        m = 1 + i % 3
        gens.append((m, 2 * m) if i % 2 else (-m, -2 * m))
    ids = list(range(k))
    lo = (sum(min(gx, 0) for gx, _ in gens), sum(min(gy, 0) for _, gy in gens))
    hi = (sum(max(gx, 0) for gx, _ in gens), sum(max(gy, 0) for _, gy in gens))
    for track in (True, False):
        t0 = time.perf_counter()
        z = segment_zonotope(gens, ids if track else None)
        assert time.perf_counter() - t0 < 5
        assert z.vertices == (lo, hi)
        if track:
            assert z.witness_sets() == [set(ids[0::2]), set(ids[1::2])]
        else:
            assert z.wit is None


def test_zonotope_random_vs_oracle():
    rng = random.Random(17)
    for trial in range(400):
        k = rng.randint(0, 10)
        if trial % 2:
            gens = [(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(k)]
        else:
            # few directions, each taken with both signs: parallel classes
            # that mix kept and flipped generators, and zero vectors
            dirs = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3)]
            gens = []
            for _ in range(k):
                (dx, dy), m = rng.choice(dirs), rng.choice((-2, -1, 1, 3))
                gens.append((m * dx, m * dy))
        ids = [f"g{i}" for i in range(k)]
        got = segment_zonotope(gens, ids)
        assert got.vertices == slow_zonotope(gens)
        assert is_canonical(got)
        assert len(got) <= max(1, 2 * k)
        assert got.witness_sets() == slow_zonotope_witnesses(gens, ids)
        # each witness is a subset of generators summing to its vertex
        for v, ids_here in zip(got.vertices, got.witness_sets()):
            sx = sum(gens[int(g[1:])][0] for g in ids_here)
            sy = sum(gens[int(g[1:])][1] for g in ids_here)
            assert (sx, sy) == v


def test_zonotope_witness_dag_is_linear():
    # k general generators, about half of them flipped: the witnesses of
    # the 2k vertices share one leaf per generator, at most 2k chain nodes
    # and at most one union per vertex, where explicit sets would hold
    # about k^2 ids
    import time

    rng = random.Random(5)
    k = 8000
    gens = [(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)) for _ in range(k)]
    ids = list(range(k))
    times = {}
    for track in (False, True):
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            z = segment_zonotope(gens, ids if track else None)
            best = min(best, time.perf_counter() - t0)
        times[track] = best
    assert len(z) == 2 * k
    assert times[True] < 4 * times[False] + 0.2, times
    leaves = unions = 0
    seen = set()
    stack = list(z.wit)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if type(node) is WUnion:
            unions += 1
            stack += (node.left, node.right)
        else:
            leaves += 1
    assert leaves <= k
    assert unions <= 4 * k
    # spot-check a few vertices against their generators
    for j in rng.sample(range(2 * k), 20):
        ws = expand_all([z.wit[j]])[0]
        assert (sum(gens[i][0] for i in ws), sum(gens[i][1] for i in ws)) == z.vertices[j]


def test_translate_tags_witnesses():
    p = hull_of_points([(0, 0), (2, 0), (0, 2)], [wleaf({i}) for i in range(3)])
    q = p.translate((10, -1), wleaf({"tag"}))
    assert q.vertices == ((10, -1), (12, -1), (10, 1))
    assert all("tag" in s for s in q.witness_sets())


def test_contains():
    p = hull_of_points([(0, 0), (4, 0), (0, 4)])
    assert p.contains((1, 1)) and p.contains((0, 0)) and p.contains((2, 2))
    assert not p.contains((3, 3)) and not p.contains((-1, 0))


@settings(deadline=None, max_examples=60)
@given(points_strategy, points_strategy)
def test_union_and_sum_bounds(apts, bpts):
    p, q = hull_of_points(apts), hull_of_points(bpts)
    u = hull_union(p, q)
    assert len(u) <= len(p) + len(q)
    if not (p.is_empty or q.is_empty):
        s = minkowski_sum(p, q)
        assert len(s) <= len(p) + len(q)
        assert s.vertices == slow_minkowski(p, q)
    assert u.vertices == slow_union(p, q)


def test_json_roundtrip():
    p = hull_of_points([(0, 0), (3, 1), (1, 3)], [wleaf({f"x{i}"}) for i in range(3)])
    d = p.to_json()
    assert d["vertices"] == [[0, 0], [3, 1], [1, 3]]
    back = Polygon.from_json(d)
    assert back == p and back.witness_sets() == p.witness_sets()


def test_from_json_rejects_non_integer_coordinates():
    for bad in ([1.5, 2.7], [1, 2.0], [True, 0], ["1", 2], [1], [1, 2, 3], 7):
        with pytest.raises(InputFormatError):
            Polygon.from_json({"vertices": [[0, 0], bad]})
    for bad in (None, [], {"vertices": 3}, {"points": [[0, 0]]}):
        with pytest.raises(InputFormatError):
            Polygon.from_json(bad)
    with pytest.raises(InputFormatError):
        Polygon.from_json({"vertices": [[0, 0], [1, 2]], "witnesses": [["a"]]})
    with pytest.raises(InputFormatError):
        Polygon.from_json({"vertices": [[0, 0]], "witnesses": [5]})
    got = Polygon.from_json({"vertices": [[0, 0], [1, 2]], "witnesses": [[], ["a"]]})
    assert got.vertices == ((0, 0), (1, 2))
    assert got.witness_sets() == [frozenset(), frozenset({"a"})]
