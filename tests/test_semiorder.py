import gc
import math
import random

import pytest

from paraclose.errors import InputFormatError
from paraclose.generate import random_semiorder
from paraclose.polygon import Polygon, hull_of_points, is_canonical
from paraclose.poset import brute_polygon
from oracles import GridSquare, extremes, freeset
import paraclose.semiorder as semiorder
from paraclose.semiorder import Semiorder, solve_semiorder

N_ITEMS = [("a", "2/3", (1, 0)), ("b", 0, (0, 1)), ("c", 2, (-1, 3)), ("d", "4/3", (2, -1))]


def _check_witnesses(poly, poset):
    for v, s in zip(poly.vertices, poly.witness_sets()):
        mask = 0
        for e in s:
            mask |= 1 << poset.index[e]
        assert poset.is_lower_set(mask)
        assert poset.project(mask) == v


def test_extremes_examples():
    s = Semiorder([(f"x{i}", 2 * i, (1, 1)) for i in range(4)])
    assert extremes(s, {"x0", "x1", "x2", "x3"}) == (0, 3)
    assert extremes(s, {"x0"}) == (0, 0)
    n = Semiorder(N_ITEMS)
    # utility order is b, a, d, c; {b, d} misses a (index 1) below d (index 2)
    assert extremes(n, {"b", "d"}) == (2, 2)
    with pytest.raises(InputFormatError):
        extremes(n, set())


def test_extremes_region_property():
    rng = random.Random(23)
    for _ in range(40):
        s = Semiorder.from_json(random_semiorder(rng, rng.randint(1, 9)))
        po = s.to_poset()
        for mask in po.lower_sets():
            if not mask:
                continue
            members = po.mask_ids(mask)
            p, q = extremes(s, members)
            assert 0 <= p <= q <= len(s) - 1
            if p == 0:
                assert members == frozenset(s.ids[: q + 1])
            else:
                assert s.utilities[p - 1] >= s.utilities[q] - 1
                assert set(s.ids[: p - 1]) <= members
                assert s.ids[p - 1] not in members


def test_freeset_examples():
    s = Semiorder([(f"x{i}", 0, (1, 1)) for i in range(8)])
    assert freeset(s, GridSquare((0, 2), 2)) == set()
    assert freeset(s, GridSquare((0, 4), 2)) == {"x2", "x3"}
    assert freeset(s, GridSquare((5, 2), 1)) == set()  # blocks out of order
    assert freeset(s, GridSquare((0, 20), 4)) == {f"x{i}" for i in range(4, 8)}


def test_solve_all_equal_utilities_hexagon():
    s = Semiorder([("a", 1, (1, 0)), ("b", 1, (0, 1)), ("c", 1, (1, 1))])
    got = solve_semiorder(s)
    assert got.vertices == ((0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1))
    _check_witnesses(got, s.to_poset())


def test_solve_chain_prefix_sums():
    rng = random.Random(3)
    weights = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(9)]
    s = Semiorder([(f"x{i}", 2 * i, w) for i, w in enumerate(weights)])
    pts = [(0, 0)]
    for a, b in weights:
        pts.append((pts[-1][0] + a, pts[-1][1] + b))
    assert solve_semiorder(s) == hull_of_points(pts)


def test_solve_n_instance_matches_oracle():
    s = Semiorder(N_ITEMS)
    got = solve_semiorder(s)
    assert got == brute_polygon(s.to_poset())
    _check_witnesses(got, s.to_poset())


def test_solve_random_matches_oracle():
    rng = random.Random(91)
    for _ in range(150):
        s = Semiorder.from_json(random_semiorder(rng, rng.randint(1, 12)))
        got = solve_semiorder(s)
        assert got == brute_polygon(s.to_poset())
        assert is_canonical(got)
        _check_witnesses(got, s.to_poset())


def test_track_false_same_geometry():
    rng = random.Random(29)
    for _ in range(30):
        s = Semiorder.from_json(random_semiorder(rng, rng.randint(1, 12)))
        bare = solve_semiorder(s, track=False)
        assert bare.wit is None
        assert bare == solve_semiorder(s)


def test_solve_tiny():
    assert solve_semiorder(Semiorder([])).vertices == ((0, 0),)
    assert solve_semiorder(Semiorder([])).witness_sets() == [frozenset()]
    one = Semiorder([("z", 5, (-3, 4))])
    got = solve_semiorder(one)
    assert got == brute_polygon(one.to_poset())
    _check_witnesses(got, one.to_poset())


def _is_lower_in_utility_order(s, members):
    """Scan the items in utility order: a set is lower exactly when no
    left-out item sits more than one unit below an included one."""
    top = max((u for x, u in zip(s.ids, s.utilities) if x in members), default=None)
    low = min((u for x, u in zip(s.ids, s.utilities) if x not in members), default=None)
    return top is None or low is None or not low < top - 1


def test_clipped_grid_sizes():
    # Sizes off a power of two leave most of the quadtree's root square past
    # the last item. The solve checks its own square-split counts and raises
    # AssertionError when they exceed the bound.
    rng = random.Random(43)
    for n, umax in ((1025, 3), (1536, 96), (3000, 3000 // 16)):
        s = Semiorder.from_json(random_semiorder(rng, n, span=10**4, utility_max=umax))
        got = solve_semiorder(s)
        assert is_canonical(got)
        assert got == solve_semiorder(s, track=False)
        weight = dict(zip(s.ids, s.weights))
        for v, members in zip(got.vertices, got.witness_sets()):
            assert _is_lower_in_utility_order(s, members)
            assert (sum(weight[x][0] for x in members),
                    sum(weight[x][1] for x in members)) == v


def test_hull_growth_smoke():
    rng = random.Random(41)
    s = Semiorder.from_json(random_semiorder(rng, 256))
    poly = solve_semiorder(s, track=False)
    assert is_canonical(poly)
    assert len(poly) <= 2 * 256 * math.log2(256)


def test_json_round_trip():
    s = Semiorder(N_ITEMS)
    again = Semiorder.from_json(s.to_json())
    assert again.ids == s.ids
    assert again.utilities == s.utilities
    assert again.weights == s.weights


def test_input_validation():
    with pytest.raises(InputFormatError):
        Semiorder([("a", 1, (1, 0)), ("a", 2, (0, 1))])
    with pytest.raises(InputFormatError):
        Semiorder([("a", "x/y", (1, 0))])
    with pytest.raises(InputFormatError):
        Semiorder([("a", 1, (1.5, 0))])
    with pytest.raises(InputFormatError):
        Semiorder([("a", 0.25, (1, 0))])
    with pytest.raises(InputFormatError):
        Semiorder.from_json({"items": [{"id": "a", "weight": [1, 0]}]})
    with pytest.raises(InputFormatError):
        Semiorder.from_json([])


@pytest.mark.parametrize("enabled", [True, False])
def test_solve_leaves_gc_state_as_found(enabled, monkeypatch):
    s = Semiorder.from_json(random_semiorder(random.Random(29), 200))
    merge = semiorder.combine_any
    calls = []

    def failing_merge(op, a, b):
        calls.append(op)
        if len(calls) == 50:
            raise RuntimeError("merge failed")
        return merge(op, a, b)

    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for track in (True, False):
            solve_semiorder(s, track)
            assert gc.isenabled() is enabled
            calls.clear()
            monkeypatch.setattr(semiorder, "combine_any", failing_merge)
            with pytest.raises(RuntimeError):
                solve_semiorder(s, track)
            monkeypatch.setattr(semiorder, "combine_any", merge)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
