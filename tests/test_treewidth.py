import random
import time

import pytest

from paraclose.errors import InputFormatError, LimitExceededError, StructureError
from paraclose.generate import random_tree_order, random_treewidth_poset, random_width2_poset
from paraclose.polygon import is_canonical, segment_zonotope
from paraclose.poset import Poset, brute_polygon
from paraclose.series_parallel import solve_sp, sp_to_poset, tree_to_sp
from paraclose import treewidth
from paraclose.treewidth import (
    TreeDecomposition,
    greedy_tree_decomposition,
    solve_treewidth,
    validate_decomposition,
)
from paraclose.width2 import solve_width2

from oracles import check_lower_set_witnesses, greedy_decomposition_min_scan

DIAMOND = {
    "elements": [
        {"id": "a", "weight": [1, 0]},
        {"id": "b", "weight": [0, 1]},
        {"id": "c", "weight": [2, -1]},
        {"id": "d", "weight": [-1, 2]},
    ],
    "relations": [["a", "b"], ["a", "c"], ["b", "d"], ["c", "d"]],
}


def test_decomposition_basics():
    d = TreeDecomposition([(0, {"a", "b"}), (1, {"b", "c"})], [(0, 1)])
    assert d.width == 1
    assert len(d) == 2
    assert d.adj == {0: {1}, 1: {0}}
    rt = TreeDecomposition.from_json(
        {"bags": [{"id": 0, "elems": ["a", "b"]}, {"id": 1, "elems": ["b", "c"]}],
         "edges": [[0, 1]]}
    )
    assert rt.bags == d.bags and rt.adj == d.adj


def test_decomposition_file_with_int_ids():
    # element ids keep their JSON type in a decomposition file
    p = Poset.from_json({
        "elements": [{"id": i, "weight": [i, 1 - i]} for i in range(3)],
        "relations": [[0, 1], [0, 2]],
    })
    d = TreeDecomposition.from_json(
        {"bags": [{"id": 0, "elems": [0, 1]}, {"id": 1, "elems": [0, 2]}], "edges": [[0, 1]]}
    )
    assert solve_treewidth(p, d) == brute_polygon(p)


def test_decomposition_input_errors():
    with pytest.raises(InputFormatError):
        TreeDecomposition([(0, {"a"}), (0, {"b"})], [])
    with pytest.raises(InputFormatError):
        TreeDecomposition([(0, {"a"})], [(0, 1)])
    with pytest.raises(InputFormatError):
        TreeDecomposition([("zero", {"a"})], [])
    with pytest.raises(InputFormatError):
        TreeDecomposition.from_json({"bags": [{"id": 0}]})
    with pytest.raises(InputFormatError):
        TreeDecomposition.from_json([])


def test_validate_accepts_path_decomposition():
    p = Poset.from_json(DIAMOND)
    d = TreeDecomposition(
        [(0, {"a", "b", "c"}), (1, {"b", "c", "d"})], [(0, 1)]
    )
    validate_decomposition(d, p)


def test_validate_rejects_bad_decompositions():
    p = Poset.from_json(DIAMOND)
    # element never placed
    with pytest.raises(StructureError):
        validate_decomposition(
            TreeDecomposition([(0, {"a", "b", "c"})], []), p
        )
    # cover pair (c, d) split across bags
    with pytest.raises(StructureError):
        validate_decomposition(
            TreeDecomposition([(0, {"a", "b", "c"}), (1, {"b", "d"})], [(0, 1)]), p
        )
    # bags of "a" not connected
    with pytest.raises(StructureError):
        validate_decomposition(
            TreeDecomposition(
                [(0, {"a", "b", "c"}), (1, {"b", "c", "d"}), (2, {"a", "d"})],
                [(0, 1), (1, 2)],
            ),
            p,
        )
    # not a tree
    with pytest.raises(StructureError):
        validate_decomposition(
            TreeDecomposition(
                [(0, {"a", "b", "c"}), (1, {"b", "c", "d"}), (2, {"b", "c"})],
                [(0, 1), (1, 2), (0, 2)],
            ),
            p,
        )
    with pytest.raises(StructureError):
        validate_decomposition(
            TreeDecomposition(
                [(0, {"a", "b", "c"}), (1, {"b", "c", "d"}), (2, {"d"})],
                [(0, 1)],
            ),
            p,
        )
    with pytest.raises(StructureError):
        validate_decomposition(
            TreeDecomposition([(0, {"a", "b", "zz"})], []), p
        )


def _antichain(ws):
    return Poset.from_json(
        {
            "elements": [{"id": f"v{i:02d}", "weight": list(w)} for i, w in enumerate(ws)],
            "relations": [],
        }
    )


def test_antichain_formula_is_zonotope():
    ws = [(2, 1), (-1, 3), (4, 0), (0, -2), (1, 1)]
    p = _antichain(ws)
    d = TreeDecomposition([(0, set(p.ids))], [])
    got = solve_treewidth(p, d)
    assert got == segment_zonotope(ws, gen_ids=list(p.ids))
    check_lower_set_witnesses(got, p)


def test_chain_prunes_to_prefixes():
    p = Poset.from_json(
        {
            "elements": [
                {"id": "a", "weight": [1, 2]},
                {"id": "b", "weight": [3, -1]},
                {"id": "c", "weight": [-2, 4]},
            ],
            "relations": [["a", "b"], ["b", "c"]],
        }
    )
    # one bag holding the whole chain: its four prefixes are the only
    # assignments that survive
    elems = sorted(p.index.values())
    assert len(treewidth._assignments(elems, p.below, p.above, 10)) == 4
    for d in (greedy_tree_decomposition(p), TreeDecomposition([(0, set(p.ids))], [])):
        got = solve_treewidth(p, d)
        assert got == brute_polygon(p)
        check_lower_set_witnesses(got, p)


def test_diamond_matches_oracle():
    p = Poset.from_json(DIAMOND)
    d = TreeDecomposition([(0, {"a", "b", "c"}), (1, {"b", "c", "d"})], [(0, 1)])
    got = solve_treewidth(p, d)
    assert got == brute_polygon(p)
    assert is_canonical(got)
    check_lower_set_witnesses(got, p)


def test_random_posets_match_oracle():
    rng = random.Random(101)
    for trial in range(60):
        n = rng.randint(1, 12)
        width = rng.choice((1, 2, 3))
        p = Poset.from_json(random_treewidth_poset(rng, n, width=width))
        got = solve_treewidth(p)
        assert got == brute_polygon(p, limit=n), f"trial {trial}"
        assert is_canonical(got)
        check_lower_set_witnesses(got, p)


def test_greedy_decomposition_shapes():
    chain = Poset.from_json(
        {
            "elements": [{"id": f"c{i}", "weight": [1, 0]} for i in range(5)],
            "relations": [[f"c{i}", f"c{i+1}"] for i in range(4)],
        }
    )
    d = greedy_tree_decomposition(chain)
    validate_decomposition(d, chain)
    assert d.width == 1
    anti = Poset.from_json(
        {"elements": [{"id": "x", "weight": [1, 1]}, {"id": "y", "weight": [2, 2]}], "relations": []}
    )
    assert greedy_tree_decomposition(anti).width == 0
    empty = Poset.from_json({"elements": [], "relations": []})
    assert greedy_tree_decomposition(empty).width == -1


def test_greedy_width_stays_low_on_generator():
    # backs the heuristic-width assumption the acceptance run leans on
    rng = random.Random(71)
    for _ in range(40):
        n = rng.randint(2, 12)
        p = Poset.from_json(random_treewidth_poset(rng, n, width=3))
        d = greedy_tree_decomposition(p)
        validate_decomposition(d, p)
        assert d.width <= 3


def test_greedy_heap_picks_as_the_min_scan():
    rng = random.Random(73)
    for trial in range(120):
        n = rng.randint(1, 60)
        if trial % 2:
            data = random_treewidth_poset(rng, n, width=rng.choice((1, 2, 3, 4)))
        else:
            data = random_width2_poset(rng, n)
        p = Poset.from_json(data)
        bags, edges = greedy_decomposition_min_scan(p)
        want = TreeDecomposition(bags, edges)
        got = greedy_tree_decomposition(p)
        assert got.bags == want.bags and got.adj == want.adj, trial


def test_caps_and_budget(monkeypatch):
    # no cap on size or width: 25 elements (past the oracle) and a bag of
    # 6 (width 5) solve exactly; only the state budget stops a solve
    rng = random.Random(43)
    ws = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(25)]
    big = _antichain(ws)
    got = solve_treewidth(big)
    assert got == segment_zonotope(ws, gen_ids=list(big.ids))
    check_lower_set_witnesses(got, big)
    wide = _antichain(ws[:6])
    fat = TreeDecomposition([(0, set(wide.ids))], [])
    assert fat.width == 5
    got = solve_treewidth(wide, fat)
    assert got == brute_polygon(wide)
    check_lower_set_witnesses(got, wide)
    p = Poset.from_json(DIAMOND)
    monkeypatch.setattr(treewidth, "_STATE_BUDGET", 3)
    with pytest.raises(LimitExceededError):
        solve_treewidth(p, greedy_tree_decomposition(p))


def _random_order(rng, n):
    ids = [f"v{i}" for i in range(n)]
    q = rng.choice((0.0, 0.1, 0.3))
    return Poset.from_json({
        "elements": [{"id": e, "weight": [rng.randint(-5, 5), rng.randint(-5, 5)]} for e in ids],
        "relations": [[a, b] for i, a in enumerate(ids) for b in ids[i + 1:] if rng.random() < q],
    })


def test_one_bag_decomposition_matches_oracle():
    # one bag holding every element is a valid decomposition of any order,
    # so the DP runs on dense random orders too, not only on tree-like ones
    rng = random.Random(59)
    for trial in range(150):
        n = rng.randint(1, 11)
        if trial % 3 == 0:
            p = Poset.from_json(random_treewidth_poset(rng, n, width=rng.choice((1, 2, 3))))
        else:
            p = _random_order(rng, n)
        want = brute_polygon(p, limit=n)
        one_bag = TreeDecomposition([(0, set(p.ids))], [])
        for d in (greedy_tree_decomposition(p), one_bag):
            got = solve_treewidth(p, d)
            assert got == want, (trial, d.bags)
            check_lower_set_witnesses(got, p)


def test_state_budget_counts_every_assignment(monkeypatch):
    # a one-bag antichain of 12 has 2^12 assignments, all of them states
    p = _antichain([(1, i) for i in range(12)])
    fat = TreeDecomposition([(0, set(p.ids))], [])
    monkeypatch.setattr(treewidth, "_STATE_BUDGET", 4096)
    got = solve_treewidth(p, fat)
    assert got == segment_zonotope([(1, i) for i in range(12)])
    monkeypatch.setattr(treewidth, "_STATE_BUDGET", 4095)
    with pytest.raises(LimitExceededError, match="state budget of 4095"):
        solve_treewidth(p, fat)


def test_wide_bag_is_refused_at_the_state_budget():
    # 40 pairwise incomparable elements in one bag have 2^40 assignments;
    # enumeration stops once it holds more than the budget
    p = _antichain([(1, i) for i in range(40)])
    fat = TreeDecomposition([(0, set(p.ids))], [])
    t0 = time.perf_counter()
    with pytest.raises(LimitExceededError, match="state budget of 1000000"):
        solve_treewidth(p, fat)
    assert time.perf_counter() - t0 < 2.0


def test_untracked_run_matches():
    rng = random.Random(7)
    p = Poset.from_json(random_treewidth_poset(rng, 9))
    a = solve_treewidth(p, track=True)
    b = solve_treewidth(p, track=False)
    assert a.vertices == b.vertices
    assert b.wit is None


def test_empty_poset():
    p = Poset.from_json({"elements": [], "relations": []})
    got = solve_treewidth(p)
    assert got.vertices == ((0, 0),)
    assert got.witness_sets() == [frozenset()]
    bare = solve_treewidth(p, track=False)
    assert bare.vertices == ((0, 0),) and bare.wit is None


@pytest.mark.parametrize("n", [200, 400, 5000])
def test_tree_orders_match_sp_solver(n):
    # rooted-tree orders have treewidth 1 and are series-parallel, so the
    # SP solver checks the treewidth solver far past the oracle
    sp = tree_to_sp(random_tree_order(random.Random(n), n))
    p = sp_to_poset(sp)
    d = greedy_tree_decomposition(p)
    assert d.width == 1
    got = solve_treewidth(p, d)
    assert got == solve_sp(sp)
    check_lower_set_witnesses(got, p)


@pytest.mark.parametrize("n", [100, 200, 1000])
def test_width2_orders_match_width2_solver(n):
    p = Poset.from_json(random_width2_poset(random.Random(n), n))
    got = solve_treewidth(p)
    assert got == solve_width2(p, track=False)
    check_lower_set_witnesses(got, p)
