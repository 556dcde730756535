import random
from fractions import Fraction
from itertools import combinations

import pytest

from oracles import slow_hull
from paraclose.errors import InputFormatError, LimitExceededError
from paraclose.poset import Poset, brute_polygon, incidence_poset, semiorder_poset


def n_poset():
    # four elements, two minimal, shaped like the letter N
    return Poset(
        ["a", "b", "c", "d"],
        [(1, 0), (0, 1), (2, 0), (0, 2)],
        [("b", "c"), ("b", "d"), ("a", "c")],
    )


def test_validation_errors():
    with pytest.raises(InputFormatError):
        Poset(["x", "x"], [(0, 0), (0, 0)], [])
    with pytest.raises(InputFormatError):
        Poset(["x"], [(0, 0)], [("x", "y")])
    with pytest.raises(InputFormatError):
        Poset(["x", "y"], [(0, 0), (1.5, 0)], [])
    with pytest.raises(InputFormatError):
        Poset(["x", "y"], [(0, 0), (True, 0)], [])
    with pytest.raises(InputFormatError):
        Poset(["x", "y", "z"], [(0, 0)] * 3, [("x", "y"), ("y", "z"), ("z", "x")])
    with pytest.raises(InputFormatError):
        Poset(["x"], [(0, 0)], [("x", "x")])


def test_weights_and_ids_of_different_lengths():
    for weights in ([(1, 0), (2, 0)], [], [(1.5, 0), (2, 0)]):
        with pytest.raises(InputFormatError, match="length mismatch"):
            Poset(["a"], weights, [])


def test_repeated_pairs_count_once():
    p = Poset("abc", [(0, 0)] * 3, [("a", "b"), ("a", "b"), ("b", "c"), ("a", "b")])
    assert sorted(p.covers()) == [(0, 1), (1, 2)]
    assert p.less("a", "c") and not p.less("c", "a")


def test_transitive_closure_and_covers():
    p = Poset(["1", "2", "3"], [(0, 0)] * 3, [("1", "2"), ("2", "3")])
    assert p.less("1", "3")
    assert sorted(p.covers()) == [(0, 1), (1, 2)]
    diamond = Poset(
        ["bot", "l", "r", "top"],
        [(0, 0)] * 4,
        [("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top"), ("bot", "top")],
    )
    cov = {(diamond.ids[i], diamond.ids[j]) for i, j in diamond.covers()}
    assert cov == {("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top")}


def test_closure_masks_match_reachability():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(0, 12)
        ids = list(range(n))
        rng.shuffle(ids)
        pairs = [(ids[i], ids[j]) for i, j in combinations(range(n), 2) if rng.random() < 0.25]
        p = Poset(ids, [(0, 0)] * n, pairs)
        reach = {u: set() for u in ids}
        for u, v in pairs:
            reach[u].add(v)
        for w in ids:  # Warshall
            for u in ids:
                if w in reach[u]:
                    reach[u] |= reach[w]
        for a in ids:
            for b in ids:
                i, j = p.index[a], p.index[b]
                assert bool(p.below[j] >> i & 1) == (b in reach[a])
                assert bool(p.above[i] >> j & 1) == (b in reach[a])


def test_lower_set_counts():
    chain = Poset("abcd", [(0, 0)] * 4, [("a", "b"), ("b", "c"), ("c", "d")])
    assert sum(1 for _ in chain.lower_sets()) == 5
    anti = Poset("abcd", [(0, 0)] * 4, [])
    assert sum(1 for _ in anti.lower_sets()) == 16
    assert sum(1 for _ in n_poset().lower_sets()) == 8


def test_lower_sets_match_filter():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(0, 7)
        ids = list(range(n))
        pairs = [
            (i, j)
            for i, j in combinations(range(n), 2)
            if rng.random() < 0.4
        ]
        p = Poset(ids, [(0, 0)] * n, pairs)
        got = sorted(p.lower_sets())
        want = sorted(m for m in range(1 << n) if p.is_lower_set(m))
        assert got == want


def _lower_sets_recursive(p):
    """Reference walk: take/skip over the topological order, skip first."""
    def rec(k, cur):
        if k == len(p):
            yield cur
            return
        v = p._topo[k]
        yield from rec(k + 1, cur)
        if p.below[v] & ~cur == 0:
            yield from rec(k + 1, cur | (1 << v))

    return list(rec(0, 0))


def test_lower_sets_keep_the_recursive_order():
    # brute_polygon keeps the first witness of a repeated point, so the
    # enumeration order decides the oracle's witnesses
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(0, 12)
        pairs = [(i, j) for i, j in combinations(range(n), 2) if rng.random() < 0.3]
        p = Poset(list(range(n)), [(0, 0)] * n, pairs)
        assert list(p.lower_sets()) == _lower_sets_recursive(p)


def test_lower_sets_of_a_long_chain():
    # one level per element: far deeper than the recursion limit allows
    n = 1500
    p = Poset(list(range(n)), [(1, 0)] * n, [(i, i + 1) for i in range(n - 1)])
    got = list(p.lower_sets(limit=2000))
    assert got == [(1 << k) - 1 for k in range(n + 1)]


def test_limit_guard():
    p = Poset(list(range(21)), [(0, 0)] * 21, [])
    with pytest.raises(LimitExceededError):
        list(p.lower_sets())
    assert sum(1 for _ in p.lower_sets(limit=21)) == 2**21


def test_brute_polygon_chain():
    p = Poset(["x0", "x1"], [(1, 0), (0, 1)], [("x0", "x1")])
    poly = brute_polygon(p)
    assert poly.vertices == ((0, 0), (1, 0), (1, 1))
    assert poly.witness_sets() == [frozenset(), {"x0"}, {"x0", "x1"}]


def test_brute_polygon_witnesses_are_lower_sets():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 8)
        ids = [f"v{i}" for i in range(n)]
        pairs = [
            (ids[i], ids[j])
            for i, j in combinations(range(n), 2)
            if rng.random() < 0.35
        ]
        weights = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(n)]
        p = Poset(ids, weights, pairs)
        poly = brute_polygon(p)
        pts = [p.project(m) for m in p.lower_sets()]
        assert poly.vertices == slow_hull(pts)
        for v, ids_here in zip(poly.vertices, poly.witness_sets()):
            mask = 0
            for e in ids_here:
                mask |= 1 << p.index[e]
            assert p.is_lower_set(mask)
            assert p.project(mask) == v


def test_semiorder_poset_relations():
    from fractions import Fraction

    u = [Fraction(2, 3), Fraction(0), Fraction(2), Fraction(4, 3)]
    p = semiorder_poset(["a", "b", "c", "d"], u, [(0, 0)] * 4)
    rel = {
        (x, y)
        for x in p.ids
        for y in p.ids
        if x != y and p.less(x, y)
    }
    assert rel == {("b", "c"), ("b", "d"), ("a", "c")}


def test_incidence_poset():
    g = {
        "vertices": [{"id": v, "weight": [1, 0]} for v in "uvw"],
        "edges": [
            {"ends": ["u", "v"], "weight": [0, 1]},
            {"ends": ["v", "w"], "weight": [0, 1]},
            {"ends": ["u", "w"], "weight": [0, 1]},
        ],
    }
    p = incidence_poset(g)
    assert len(p) == 6
    assert sum(1 for _ in p.lower_sets()) == 18  # subgraphs of a triangle
    assert p.less("u", "e0") and not p.less("u", "e1")
    with pytest.raises(InputFormatError):
        incidence_poset({"vertices": [{"id": "u"}], "edges": [{"ends": ["u", "zz"]}]})


def test_random_incidence_graph_memory_is_linear():
    # listing all nv(nv-1)/2 pairs at nv = 2000 takes about 2M tuples, well
    # over 100 MB; drawing ne pair indices keeps the peak near the output
    import tracemalloc

    from paraclose.generate import random_incidence_graph

    nv, ne = 2000, 4000
    tracemalloc.start()
    try:
        g = random_incidence_graph(random.Random(1), nv, ne)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
    assert [v["id"] for v in g["vertices"]] == [f"v{i}" for i in range(nv)]
    ends = [tuple(int(x[1:]) for x in e["ends"]) for e in g["edges"]]
    assert len(ends) == ne and len(set(ends)) == ne
    assert all(0 <= i < j < nv for i, j in ends)
    assert [e["id"] for e in g["edges"]] == [f"e{k}" for k in range(ne)]


def test_random_incidence_graph_decodes_every_pair():
    from paraclose.generate import random_incidence_graph

    for nv in (2, 3, 4, 9):
        g = random_incidence_graph(random.Random(nv), nv, nv * (nv - 1) // 2)
        ends = sorted(tuple(int(x[1:]) for x in e["ends"]) for e in g["edges"])
        assert ends == list(combinations(range(nv), 2))


def test_json_roundtrip():
    p = n_poset()
    q = Poset.from_json(p.to_json())
    assert q.ids == p.ids and q.weights == p.weights and q.below == p.below


def test_semiorder_margin_is_exclusive():
    # utilities exactly one unit apart stay incomparable
    p = semiorder_poset(["x", "y"], [0, 1], [(1, 0), (0, 1)])
    assert not p.less("x", "y") and not p.less("y", "x")
    q = semiorder_poset(["x", "y"], [0, Fraction(11, 10)], [(1, 0), (0, 1)])
    assert q.less("x", "y")
