import itertools
import math
import random
import sys
import time

import pytest

from paraclose.errors import StructureError
from paraclose.generate import random_width2_poset
from paraclose.polygon import hull_of_points, is_canonical
from paraclose.poset import Poset, brute_polygon
from paraclose.width2 import (
    ChainDecomposition,
    chain_partition_width2,
    feasible_region,
    quadtree_squares,
    solve_width2,
    solve_width2_chains,
    _chain_tables,
    _prefix_points,
)

N_POSET = {
    "elements": [
        {"id": "a", "weight": [1, 0]},
        {"id": "b", "weight": [0, 1]},
        {"id": "c", "weight": [2, -1]},
        {"id": "d", "weight": [-1, 2]},
    ],
    "relations": [["a", "c"], ["b", "c"], ["b", "d"]],
}


def _chain_json(*chains, weights=None):
    elems = []
    rels = []
    for c in chains:
        for k, e in enumerate(c):
            w = weights[e] if weights else [1, 1]
            elems.append({"id": e, "weight": list(w)})
            if k:
                rels.append([c[k - 1], e])
    return {"elements": elems, "relations": rels}


def _check_witnesses(poly, poset):
    for v, s in zip(poly.vertices, poly.witness_sets()):
        mask = 0
        for e in s:
            mask |= 1 << poset.index[e]
        assert poset.is_lower_set(mask)
        assert poset.project(mask) == v


def _prefix_mask(poset, chains, x, y):
    mask = 0
    for e in chains.chain1[:x]:
        mask |= 1 << poset.index[e]
    for e in chains.chain2[:y]:
        mask |= 1 << poset.index[e]
    return mask


def test_partition_single_chain():
    p = Poset.from_json(_chain_json(["a", "b", "c"]))
    ch = chain_partition_width2(p)
    assert ch.chain1 == ("a", "b", "c")
    assert ch.chain2 == ()
    assert ch.position["b"] == (1, 1)


def test_partition_two_chains():
    p = Poset.from_json(_chain_json(["a", "b"], ["c", "d"]))
    ch = chain_partition_width2(p)
    assert sorted((ch.chain1, ch.chain2)) == [("a", "b"), ("c", "d")]


def test_partition_n_poset():
    p = Poset.from_json(N_POSET)
    ch = chain_partition_width2(p)
    for chain in (ch.chain1, ch.chain2):
        for u, v in zip(chain, chain[1:]):
            assert p.less(u, v)
    assert sorted(ch.chain1 + ch.chain2) == sorted(p.ids)


def test_partition_rejects_antichain():
    p = Poset.from_json(
        {"elements": [{"id": e, "weight": [1, 1]} for e in "xyz"], "relations": []}
    )
    with pytest.raises(StructureError) as err:
        chain_partition_width2(p)
    w = err.value.witness
    assert len(w) == 3
    for u in w:
        for v in w:
            assert u == v or not p.less(u, v)


def test_partition_witness_on_buried_antichain():
    # a three-element antichain in the middle of an otherwise chain-like order
    p = Poset.from_json(
        {
            "elements": [{"id": e, "weight": [1, 1]} for e in "abcde"],
            "relations": [["a", "b"], ["a", "c"], ["a", "d"], ["b", "e"], ["c", "e"], ["d", "e"]],
        }
    )
    with pytest.raises(StructureError) as err:
        chain_partition_width2(p)
    assert sorted(err.value.witness) == ["b", "c", "d"]


def test_region_rectangle_for_independent_chains():
    p = Poset.from_json(_chain_json(["a", "b"], ["c", "d", "e"]))
    ch = ChainDecomposition(["a", "b"], ["c", "d", "e"])
    r = feasible_region(p, ch)
    assert r.lo == (0, 0, 0)
    assert r.hi == (3, 3, 3)
    assert r.n1 == 2 and r.n2 == 3


def test_region_cross_constraint():
    p = Poset.from_json(
        {
            "elements": [{"id": e, "weight": [1, 1]} for e in "abc"],
            "relations": [["a", "b"], ["a", "c"]],
        }
    )
    r = feasible_region(p, ChainDecomposition(["a", "b"], ["c"]))
    assert [r.feasible(x, 1) for x in range(3)] == [False, True, True]
    assert all(r.feasible(x, 0) for x in range(3))


def test_region_validates_chains():
    p = Poset.from_json(N_POSET)
    with pytest.raises(StructureError):
        feasible_region(p, ChainDecomposition(["a", "c"], ["b"]))  # d missing
    with pytest.raises(StructureError):
        feasible_region(p, ChainDecomposition(["c", "a"], ["b", "d"]))  # inverted
    with pytest.raises(StructureError):
        ChainDecomposition(["a", "c"], ["a", "d"])  # duplicate


def test_region_matches_brute_feasibility():
    rng = random.Random(19)
    for _ in range(60):
        n = rng.randint(0, 12)
        p = Poset.from_json(random_width2_poset(rng, n))
        ch = chain_partition_width2(p)
        r = feasible_region(p, ch)
        count = 0
        for x in range(len(ch.chain1) + 1):
            for y in range(len(ch.chain2) + 1):
                ok = p.is_lower_set(_prefix_mask(p, ch, x, y))
                assert r.feasible(x, y) == ok
                count += ok
        # the encoding hits every lower set exactly once
        assert count == sum(1 for _ in p.lower_sets(limit=12))


def test_quadtree_tiles_region_exactly():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(1, 12)
        p = Poset.from_json(random_width2_poset(rng, n))
        ch = chain_partition_width2(p)
        r = feasible_region(p, ch)
        size = 1
        while size < max(r.n1, r.n2) + 1:
            size *= 2
        seen = {}
        for a, b, s in quadtree_squares(r, size):
            assert a % s == 0 and b % s == 0  # aligned, power-of-two placement
            for x in range(a, a + s):
                for y in range(b, b + s):
                    assert (x, y) not in seen
                    seen[(x, y)] = True
        expect = {
            (x, y)
            for x in range(r.n1 + 1)
            for y in range(r.n2 + 1)
            if r.feasible(x, y)
        }
        assert set(seen) == expect


def test_chain_table_vertex_bound():
    rng = random.Random(31)
    ids = [f"x{i}" for i in range(16)]
    weights = {e: (rng.randint(-9, 9), rng.randint(-9, 9)) for e in ids}
    p = Poset.from_json(_chain_json(ids, weights=weights))
    pts = _prefix_points(p, ids)
    tables = _chain_tables(p, tuple(ids), pts, 16, track=True)
    for lvl, row in enumerate(tables):
        for h in row:
            assert len(h.vertices) <= (1 << lvl) + 1


def test_rectangle_example():
    p = Poset.from_json(
        _chain_json(["a", "b"], ["c", "d"], weights={"a": (1, 0), "b": (1, 0), "c": (0, 1), "d": (0, 1)})
    )
    got = solve_width2(p)
    assert got.vertices == ((0, 0), (2, 0), (2, 2), (0, 2))
    _check_witnesses(got, p)


def test_single_chain_is_prefix_hull():
    ws = {"a": (1, 2), "b": (3, -5), "c": (-2, 1), "d": (0, 4)}
    p = Poset.from_json(_chain_json(["a", "b", "c", "d"], weights=ws))
    acc = [(0, 0)]
    for e in "abcd":
        acc.append((acc[-1][0] + ws[e][0], acc[-1][1] + ws[e][1]))
    assert solve_width2(p) == hull_of_points(acc)


def test_partition_choice_is_irrelevant():
    ws = {f"x{i}": ((-1) ** i * (i + 2), 3 - i) for i in range(4)}
    p = Poset.from_json(_chain_json(["x0", "x1", "x2", "x3"], weights=ws))
    whole = solve_width2_chains(p, ChainDecomposition(["x0", "x1", "x2", "x3"], []))
    split = solve_width2_chains(p, ChainDecomposition(["x0", "x2"], ["x1", "x3"]))
    swapped = solve_width2_chains(p, ChainDecomposition(["x1", "x3"], ["x0", "x2"]))
    assert whole == split == swapped
    _check_witnesses(split, p)


def test_random_posets_match_oracle():
    rng = random.Random(43)
    for trial in range(150):
        n = rng.randint(0, 14)
        p = Poset.from_json(random_width2_poset(rng, n))
        got = solve_width2(p)
        assert got == brute_polygon(p, limit=14), f"trial {trial}"
        assert is_canonical(got)
        _check_witnesses(got, p)


def test_untracked_matches_tracked():
    rng = random.Random(47)
    p = Poset.from_json(random_width2_poset(rng, 11))
    a = solve_width2(p, track=True)
    b = solve_width2(p, track=False)
    assert a.vertices == b.vertices
    assert b.wit is None


def test_tiny_orders():
    empty = Poset.from_json({"elements": [], "relations": []})
    got = solve_width2(empty)
    assert got.vertices == ((0, 0),)
    assert got.witness_sets() == [frozenset()]
    one = Poset.from_json({"elements": [{"id": "a", "weight": [3, -1]}], "relations": []})
    assert solve_width2(one).vertices == ((0, 0), (3, -1))


def test_square_population_stays_linear():
    # square counts per side are asserted inside every solve; this runs a
    # larger instance and additionally checks the total perimeter budget
    rng = random.Random(61)
    n = 512
    ids1 = [f"a{i}" for i in range(n // 2)]
    ids2 = [f"b{i}" for i in range(n - n // 2)]
    weights = {e: (rng.randint(-9, 9), rng.randint(-9, 9)) for e in ids1 + ids2}
    data = _chain_json(ids1, ids2, weights=weights)
    for _ in range(3 * n):
        i, j = rng.randrange(len(ids1)), rng.randrange(len(ids2))
        if rng.random() < 0.5:
            data["relations"].append([ids1[i], ids2[j]] if i <= j else [ids2[j], ids1[i]])
    p = Poset.from_json(data)
    ch = chain_partition_width2(p)
    r = feasible_region(p, ch)
    size = 1
    while size < max(r.n1, r.n2) + 1:
        size *= 2
    perimeter = sum(4 * s for _, _, s in quadtree_squares(r, size))
    assert perimeter <= 40 * size * max(1, math.log2(size))
    got = solve_width2_chains(p, ch, track=False)
    assert len(got.vertices) >= 3


def _random_order(rng, n):
    """Random order of any width: a random DAG over a shuffled index order."""
    ids = [f"e{i}" for i in range(n)]
    rng.shuffle(ids)
    density = rng.random()
    pairs = [
        (ids[i], ids[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < density
    ]
    return Poset(ids, [(1, 1)] * n, pairs)


def _is_antichain(p, elems):
    return all(not p.less(u, v) and not p.less(v, u) for u, v in itertools.combinations(elems, 2))


def test_partition_decides_width_exactly():
    rng = random.Random(67)
    outcomes = set()
    for trial in range(600):
        p = _random_order(rng, rng.randint(0, 10))
        wide = any(_is_antichain(p, c) for c in itertools.combinations(p.ids, 3))
        try:
            ch = chain_partition_width2(p)
        except StructureError as err:
            assert wide, f"trial {trial}"
            w = err.witness
            assert len(set(w)) == 3 and _is_antichain(p, w), f"trial {trial}"
            outcomes.add("wide")
            continue
        assert not wide, f"trial {trial}"
        for chain in (ch.chain1, ch.chain2):
            for u, v in zip(chain, chain[1:]):
                assert p.less(u, v), f"trial {trial}"
        assert sorted(ch.chain1 + ch.chain2) == sorted(p.ids)
        outcomes.add("narrow")
    assert outcomes == {"wide", "narrow"}


def test_large_partition_is_fast_and_leaves_recursion_limit():
    rng = random.Random(71)
    p = Poset.from_json(random_width2_poset(rng, 10**4))
    limit = sys.getrecursionlimit()
    t0 = time.perf_counter()
    ch = chain_partition_width2(p)
    elapsed = time.perf_counter() - t0
    # about 0.06 s on a 2-vCPU VM with Python 3.11
    assert elapsed < 2.0, f"partition took {elapsed:.2f} s"
    assert len(ch.chain1) + len(ch.chain2) == 10**4
    got = solve_width2(p, track=False)
    assert sys.getrecursionlimit() == limit
    assert is_canonical(got)
