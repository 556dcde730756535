import gc
import json
import random

import pytest

from paraclose.errors import InputFormatError
from paraclose.generate import random_sp_tree, random_tree_order
from paraclose.polygon import Polygon, hull_of_points
from paraclose.poset import Poset, brute_polygon
from paraclose.series_parallel import (
    LEAF,
    PARALLEL,
    SERIES,
    SPTree,
    _leaf_polygon,
    leaf,
    parallel,
    parse_sp,
    series,
    solve_sp,
    sp_to_poset,
    sp_tree_to_json,
    tree_to_sp,
)
from paraclose.witness import EMPTY, wleaf


def test_leaf_segment_and_zero_weight_point():
    assert solve_sp(leaf("a", (2, 1))).vertices == ((0, 0), (2, 1))
    assert solve_sp(leaf("a", (0, 0))).vertices == ((0, 0),)


def test_parallel_unit_square():
    t = parallel(leaf("a", (1, 0)), leaf("b", (0, 1)))
    assert solve_sp(t).vertices == ((0, 0), (1, 0), (1, 1), (0, 1))


def test_series_triangle():
    t = series(leaf("a", (1, 0)), leaf("b", (0, 1)))
    got = solve_sp(t)
    assert got.vertices == ((0, 0), (1, 0), (1, 1))
    wits = got.witness_sets()
    assert wits[0] == frozenset()
    assert wits[1] == {"a"}
    assert wits[2] == {"a", "b"}


def test_parse_shapes_and_errors():
    t = parse_sp({"leaf": {"id": "a", "weight": [1, 0]}})
    assert t.kind == "leaf" and t.count == 1

    t = parse_sp({"series": [
        {"leaf": {"id": "a", "weight": [1, 0]}},
        {"leaf": {"id": "b", "weight": [2, 0]}},
        {"leaf": {"id": "c", "weight": [3, 0]}},
    ]})
    # right-leaning: SERIES(a, SERIES(b, c))
    assert t.kind == SERIES and t.left.id == "a"
    assert t.right.kind == SERIES and t.right.left.id == "b"
    assert t.count == 3 and t.total == (6, 0)

    a = {"leaf": {"id": "a", "weight": [0, 0]}}
    for bad in ({"series": []}, {"parallel": [a, a]}, {"thing": 3}, "a leaf",
                {"leaf": {"id": "a", "weight": [1, "x"]}}):
        with pytest.raises(InputFormatError):
            parse_sp(bad)


def test_leaf_weight_checked_once_on_construction(monkeypatch):
    # SPTree's leaf branch is the one place a leaf weight is checked: a list
    # pair becomes a tuple and anything else is an input error
    t = SPTree(LEAF, id="x", weight=[1, 2])
    assert t.weight == t.total == (1, 2)
    assert solve_sp(t) == solve_sp(leaf("x", (1, 2)))
    for bad in ([1.5, 2], [1], "ab", None):
        with pytest.raises(InputFormatError):
            SPTree(LEAF, id="x", weight=bad)
    import paraclose.series_parallel as sp

    t = random_sp_tree(random.Random(3), 25)
    data = json.loads(json.dumps(sp_tree_to_json(t)))
    calls = []
    monkeypatch.setattr(sp, "_check_weight", lambda w, where: calls.append(w) or tuple(w))
    parse_sp(data)
    assert len(calls) == t.count
    calls.clear()
    tree_to_sp({"root": {"id": "r", "weight": [0, 0]},
                "edges": [{"parent": "r", "child": c, "weight": [1, 1]} for c in "abc"]})
    assert len(calls) == 4


def test_round_trip_json():
    rng = random.Random(5)
    t = random_sp_tree(rng, 30)
    again = parse_sp(json.loads(json.dumps(sp_tree_to_json(t))))
    assert solve_sp(again) == solve_sp(t)


def test_sp_to_poset_relations():
    p = sp_to_poset(parallel(leaf("a", (1, 0)), leaf("b", (0, 1))))
    assert not p.less("a", "b") and not p.less("b", "a")
    p = sp_to_poset(series(leaf("a", (1, 0)), leaf("b", (0, 1))))
    assert p.less("a", "b") and not p.less("b", "a")
    p = sp_to_poset(series(parallel(leaf("a", (1, 0)), leaf("b", (0, 1))),
                           leaf("c", (1, 1))))
    assert p.less("a", "c") and p.less("b", "c")
    assert not p.less("a", "b") and not p.less("b", "a")


def _check_witnesses(poly: Polygon, poset: Poset):
    for v, s in zip(poly.vertices, poly.witness_sets()):
        mask = 0
        for e in s:
            mask |= 1 << poset.index[e]
        assert poset.is_lower_set(mask)
        assert poset.project(mask) == v


def test_random_trees_match_oracle():
    rng = random.Random(11)
    for _ in range(120):
        t = random_sp_tree(rng, rng.randint(1, 10))
        got = solve_sp(t)
        poset = sp_to_poset(t)
        assert got == brute_polygon(poset)
        _check_witnesses(got, poset)


def test_association_invariance():
    rng = random.Random(13)
    leaves = [leaf(f"x{i}", (rng.randint(-9, 9), rng.randint(-9, 9)))
              for i in range(8)]
    for mk in (series, parallel):
        left_lean = leaves[0]
        for lf in leaves[1:]:
            left_lean = mk(left_lean, lf)
        right_lean = leaves[-1]
        for lf in reversed(leaves[:-1]):
            right_lean = mk(lf, right_lean)
        assert solve_sp(left_lean) == solve_sp(right_lean)


def test_tree_orders_match_oracle():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 12)
        data = random_tree_order(rng, n)
        t = tree_to_sp(data)
        ids = ["x%d" % i for i in range(n)]
        weights = {data["root"]["id"]: data["root"]["weight"]}
        pairs = []
        for e in data["edges"]:
            weights[e["child"]] = e["weight"]
            pairs.append((e["parent"], e["child"]))
        poset = Poset(ids, [weights[i] for i in ids], pairs)
        got = solve_sp(t)
        assert got == brute_polygon(poset)
        _check_witnesses(got, poset)


def test_tree_order_errors():
    with pytest.raises(InputFormatError):
        tree_to_sp({"edges": []})
    with pytest.raises(InputFormatError):
        tree_to_sp({"root": {"id": "r"}, "edges": [
            {"parent": "r", "child": "a"}, {"parent": "r", "child": "a"}]})
    with pytest.raises(InputFormatError):
        tree_to_sp({"root": {"id": "r"}, "edges": [
            {"parent": "ghost", "child": "a"}]})


def test_hull_bound_medium():
    rng = random.Random(23)
    n = 2000
    t = random_sp_tree(rng, n)
    got = solve_sp(t, track=False)
    assert got.wit is None
    assert len(got) <= 2 * n


@pytest.mark.parametrize("w", [(0, 0), (3, -2), (-3, 2), (0, 5), (0, -5)])
def test_leaf_polygon_matches_hull_of_points(w):
    wit = wleaf({"a"})
    want = hull_of_points([(0, 0), w], [EMPTY, wit])
    got = _leaf_polygon(w, wit)
    assert got.vertices == want.vertices
    assert got.wit == want.wit
    plain = _leaf_polygon(w, None)
    assert plain.vertices == want.vertices and plain.wit is None


@pytest.mark.parametrize("enabled", [True, False])
def test_solve_leaves_gc_state_as_found(enabled):
    t = random_sp_tree(random.Random(29), 300)
    # the weight is swapped in after construction, which validates it; the
    # solve gets past leaf "a" and fails on "b"
    bad = series(leaf("a", (1, 0)), leaf("b", (1, 2)))
    bad.right.weight = [1, 2]
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for track in (True, False):
            solve_sp(t, track)
            assert gc.isenabled() is enabled
            with pytest.raises(TypeError):
                solve_sp(bad, track)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_polygon_json_lists_come_back_as_tuples():
    p = solve_sp(random_sp_tree(random.Random(31), 40))
    back = Polygon.from_json(json.loads(json.dumps(p.to_json())))
    assert type(back.vertices) is tuple
    assert all(type(v) is tuple for v in back.vertices)
    assert back == p and back.vertices == p.vertices
    assert back.witness_sets() == p.witness_sets()
