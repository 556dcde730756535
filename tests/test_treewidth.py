import math
import random

import pytest

from paraclose.errors import InputFormatError, LimitExceededError, StructureError
from paraclose.generate import random_tree_order, random_treewidth_poset, random_width2_poset
from paraclose.polygon import is_canonical, segment_zonotope
from paraclose.poset import Poset, brute_polygon
from paraclose.series_parallel import solve_sp, sp_to_poset, tree_to_sp
from paraclose.treewidth import (
    TreeDecomposition,
    build_formula,
    eval_formula,
    greedy_tree_decomposition,
    height_limit,
    node_floor,
    normalize_decomposition,
    selection_count,
    solve_treewidth,
    split_forest,
    validate_decomposition,
)
from paraclose.width2 import solve_width2

DIAMOND = {
    "elements": [
        {"id": "a", "weight": [1, 0]},
        {"id": "b", "weight": [0, 1]},
        {"id": "c", "weight": [2, -1]},
        {"id": "d", "weight": [-1, 2]},
    ],
    "relations": [["a", "b"], ["a", "c"], ["b", "d"], ["c", "d"]],
}


def _check_witnesses(poly, poset):
    for v, s in zip(poly.vertices, poly.witness_sets()):
        mask = 0
        for e in s:
            mask |= 1 << poset.index[e]
        assert poset.is_lower_set(mask)
        assert poset.project(mask) == v


def test_decomposition_basics():
    d = TreeDecomposition([(0, {"a", "b"}), (1, {"b", "c"})], [(0, 1)])
    assert d.width == 1
    assert len(d) == 2
    assert d.edges() == [(0, 1)]
    rt = TreeDecomposition.from_json(d.to_json())
    assert rt.bags == d.bags and rt.adj == d.adj


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


def test_normalize_caps_degree_at_three():
    center = [(0, {"h", f"s{i}"}) for i in range(1)]
    bags = [(0, {"h"})] + [(i + 1, {"h", f"s{i}"}) for i in range(6)]
    d = TreeDecomposition(bags, [(0, i + 1) for i in range(6)])
    nd = normalize_decomposition(d)
    assert max(len(nb) for nb in nd.adj.values()) <= 3
    assert nd.width == d.width
    assert len(nd) == len(d) + 3  # degree 6 -> three splits
    # still one tree and every original bag survives verbatim
    assert sum(len(v) for v in nd.adj.values()) // 2 == len(nd) - 1
    for bid, elems in d.bags.items():
        assert nd.bags[bid] == elems


def test_normalize_keeps_decomposition_valid():
    rng = random.Random(11)
    for _ in range(20):
        p = Poset.from_json(random_treewidth_poset(rng, 10))
        d = greedy_tree_decomposition(p)
        nd = normalize_decomposition(d)
        validate_decomposition(nd, p)
        assert max(len(nb) for nb in nd.adj.values()) <= 3
        assert nd.width == d.width


def _random_ternary_tree(rng, k):
    adj = {0: set()}
    for v in range(1, k):
        u = rng.choice([w for w in adj if len(adj[w]) < 3])
        adj[v] = {u}
        adj[u].add(v)
    return adj


def test_split_forest_balance():
    rng = random.Random(23)
    for _ in range(200):
        k = rng.randint(1, 60)
        adj = _random_ternary_tree(rng, k)
        # knock out a few nodes so we exercise real forests too
        nodes = set(adj)
        for v in range(k):
            if k > 4 and rng.random() < 0.1:
                nodes.discard(v)
        adj = {v: adj[v] & nodes for v in nodes}
        if not nodes:
            continue
        x, f1, f2 = split_forest(nodes, adj)
        assert x in nodes and not (f1 & f2) and x not in f1 | f2
        assert f1 | f2 == nodes - {x}
        cap = math.ceil(2 * len(nodes) / 3)
        assert len(f1) <= cap and len(f2) <= cap
        assert not any(adj[u] & f2 for u in f1)  # halves share no edge


def test_split_forest_empty_rejected():
    with pytest.raises(InputFormatError):
        split_forest(set(), {})


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
    _check_witnesses(got, p)


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
    f = build_formula(p, greedy_tree_decomposition(p))
    assert selection_count(f) == 4  # the four prefixes, nothing else survives
    got = eval_formula(f, p)
    assert got == brute_polygon(p)
    _check_witnesses(got, p)


def test_diamond_matches_oracle():
    p = Poset.from_json(DIAMOND)
    d = TreeDecomposition([(0, {"a", "b", "c"}), (1, {"b", "c", "d"})], [(0, 1)])
    got = solve_treewidth(p, d)
    assert got == brute_polygon(p)
    assert is_canonical(got)
    _check_witnesses(got, p)


def test_selection_count_matches_lower_sets():
    rng = random.Random(37)
    for _ in range(40):
        n = rng.randint(1, 10)
        p = Poset.from_json(random_treewidth_poset(rng, n))
        f = build_formula(p, greedy_tree_decomposition(p))
        assert selection_count(f) == sum(1 for _ in p.lower_sets(limit=n))


def test_random_posets_match_oracle():
    rng = random.Random(101)
    for trial in range(60):
        n = rng.randint(1, 12)
        width = rng.choice((1, 2, 3))
        p = Poset.from_json(random_treewidth_poset(rng, n, width=width))
        got = solve_treewidth(p)
        assert got == brute_polygon(p, limit=n), f"trial {trial}"
        assert is_canonical(got)
        _check_witnesses(got, p)


def test_formula_height_within_limit():
    rng = random.Random(53)
    for _ in range(40):
        n = rng.randint(1, 14)
        p = Poset.from_json(random_treewidth_poset(rng, n))
        d = greedy_tree_decomposition(p)
        f = build_formula(p, d)
        assert f.height <= height_limit(n, d.width)
        assert f.size >= 1


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


def test_caps_and_budget():
    # no cap on size or width: 25 elements (past the oracle) and a bag of
    # 6 (width 5) solve exactly; only the formula's node budget stops a solve
    rng = random.Random(43)
    ws = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(25)]
    big = _antichain(ws)
    got = solve_treewidth(big)
    assert got == segment_zonotope(ws, gen_ids=list(big.ids))
    _check_witnesses(got, big)
    wide = _antichain(ws[:6])
    fat = TreeDecomposition([(0, set(wide.ids))], [])
    assert fat.width == 5
    got = solve_treewidth(wide, fat)
    assert got == brute_polygon(wide)
    _check_witnesses(got, wide)
    p = Poset.from_json(DIAMOND)
    with pytest.raises(LimitExceededError):
        build_formula(p, greedy_tree_decomposition(p), node_budget=3)


def _random_order(rng, n):
    ids = [f"v{i}" for i in range(n)]
    q = rng.choice((0.0, 0.1, 0.3))
    return Poset.from_json({
        "elements": [{"id": e, "weight": [rng.randint(-5, 5), rng.randint(-5, 5)]} for e in ids],
        "relations": [[a, b] for i, a in enumerate(ids) for b in ids[i + 1:] if rng.random() < q],
    })


def test_node_floor_never_exceeds_the_formula():
    # the up-front refusal is sound: every formula has at least node_floor
    # nodes, so input it refuses would run over the same budget when built;
    # one bag holding every element is a valid decomposition of any order
    rng = random.Random(59)
    for trial in range(150):
        n = rng.randint(1, 11)
        if trial % 3 == 0:
            p = Poset.from_json(random_treewidth_poset(rng, n, width=rng.choice((1, 2, 3))))
        else:
            p = _random_order(rng, n)
        one_bag = TreeDecomposition([(0, set(p.ids))], [])
        for d in (greedy_tree_decomposition(p), one_bag):
            f = build_formula(p, d)
            floor = node_floor(p, normalize_decomposition(d))
            assert floor <= f.size, (trial, d.to_json())
            if floor < f.size:
                # a budget between the floor and the real count passes the
                # up-front check and is caught while the formula is built
                with pytest.raises(LimitExceededError):
                    build_formula(p, d, node_budget=floor)


def test_wide_bag_is_refused_before_any_node(monkeypatch):
    # 40 pairwise incomparable elements in one bag make at least 2^40
    # nodes; the refusal comes before the first one is built
    from paraclose import treewidth

    def no_nodes(*args):
        raise AssertionError("a formula node was built")

    monkeypatch.setattr(treewidth, "Formula", no_nodes)
    p = _antichain([(1, i) for i in range(40)])
    fat = TreeDecomposition([(0, set(p.ids))], [])
    with pytest.raises(LimitExceededError, match="formula exceeded the node budget of 1000000"):
        build_formula(p, fat)
    assert node_floor(p, fat) == 2**40


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


@pytest.mark.parametrize("n", [200, 400])
def test_tree_orders_match_sp_solver(n):
    # rooted-tree orders have treewidth 1 and are series-parallel, so the
    # SP solver checks the treewidth solver far past the oracle
    sp = tree_to_sp(random_tree_order(random.Random(n), n))
    p = sp_to_poset(sp)
    assert greedy_tree_decomposition(p).width == 1
    got = solve_treewidth(p)
    assert got == solve_sp(sp)
    _check_witnesses(got, p)


@pytest.mark.parametrize("n", [100, 200])
def test_width2_orders_match_width2_solver(n):
    p = Poset.from_json(random_width2_poset(random.Random(n), n))
    got = solve_treewidth(p)
    assert got == solve_width2(p, track=False)
    _check_witnesses(got, p)
