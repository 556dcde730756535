import json
import random
import sys
import time
import tracemalloc

import pytest

from paraclose import cli
from paraclose.generate import random_sp_tree
from paraclose.parametric import maximize_quasiconvex, objective, profile
from paraclose.polygon import Polygon, hull_of_points
from paraclose.series_parallel import parse_sp, solve_sp, sp_tree_to_json
from paraclose.witness import (
    EMPTY, WLeaf, WUnion, expand_all, id_key, read_leaf, wleaf, wunion,
)


def _reference(handles):
    """Frozenset union at every node, memoized on node identity."""
    memo = {}

    def go(node):
        if id(node) not in memo:
            if type(node) is WLeaf:
                memo[id(node)] = node.ids
            else:
                memo[id(node)] = go(node.left) | go(node.right)
        return memo[id(node)]

    return [None if h is None else go(h) for h in handles]


class Opaque:
    """An id with identity only and no order, like semiorder's padding ids."""

    __slots__ = ()


def _random_dag(rng, ids):
    """Handles into one random DAG: shared subtrees, unions that overlap or
    repeat a child, EMPTY, and None handles."""
    nodes = [EMPTY]
    for _ in range(rng.randint(1, 6)):
        nodes.append(wleaf(rng.sample(ids, rng.randint(0, min(5, len(ids))))))
    for _ in range(rng.randint(0, 40)):
        a, b = rng.choice(nodes), rng.choice(nodes)
        nodes.append(WUnion(a, b) if rng.random() < 0.7 else wunion(a, b))
    return [rng.choice(nodes) if rng.random() < 0.9 else None for _ in range(rng.randint(0, 12))]


def test_expand_all_matches_frozenset_union():
    rng = random.Random(11)
    for trial in range(300):
        ids = list(range(rng.randint(1, 8))) + [f"s{i}" for i in range(rng.randint(0, 8))]
        rng.shuffle(ids)
        handles = _random_dag(rng, ids)
        want = _reference(handles)
        assert expand_all(handles) == want, trial
        got = expand_all(handles, ordered=True)
        assert got == [None if s is None else sorted(s, key=id_key) for s in want], trial
        assert [expand_all([h])[0] for h in handles] == want, trial


def test_expand_all_unorderable_ids_without_key():
    rng = random.Random(12)
    for trial in range(200):
        handles = _random_dag(rng, [Opaque() for _ in range(rng.randint(1, 10))])
        got = expand_all(handles)
        assert got == _reference(handles), trial
        assert all(s is None or type(s) is frozenset for s in got)


def test_expand_all_edge_cases():
    assert expand_all([]) == []
    assert expand_all([None, EMPTY], ordered=True) == [None, []]
    assert expand_all([None]) == [None]
    # a chain far deeper than the recursion limit
    node = wleaf([0])
    for i in range(1, 20000):
        node = wunion(wleaf([i]), node)
    assert expand_all([node, node], ordered=True) == [list(range(20000))] * 2


def _sp_with_mixed_ids():
    """A small SP instance whose element ids are ints and strings."""
    data = sp_tree_to_json(random_sp_tree(random.Random(3), 40, span=5))
    stack = [data]
    while stack:
        node = stack.pop()
        ((kind, val),) = node.items()
        if kind == "leaf":
            k = int(val["id"][1:])
            if k % 3 == 0:
                val["id"] = k
        else:
            stack.extend(val)
    return data


def test_cli_payloads_match_per_vertex_sorting(tmp_path, capsys):
    data = _sp_with_mixed_ids()
    src, poly_path = tmp_path / "in.json", tmp_path / "poly.json"
    src.write_text(json.dumps(data))
    poly = solve_sp(parse_sp(data))
    sets = _reference(poly.wit)
    assert any(isinstance(x, int) for s in sets for x in s)
    assert any(isinstance(x, str) for s in sets for x in s)

    def ref_dump(obj):
        return json.dumps(obj, separators=(",", ":")) + "\n"

    assert cli.run(["sp", str(src), "--out", str(poly_path)]) == 0
    want = {
        "vertices": [list(v) for v in poly.vertices],
        "witnesses": [sorted(s, key=id_key) for s in sets],
    }
    assert poly_path.read_text() == ref_dump(want)

    back = Polygon.from_json(json.loads(poly_path.read_text()))
    pieces = []
    for p in profile(back):
        piece = {"vertex": list(p.vertex), "from": "-inf" if p.lo is None else str(p.lo),
                 "to": "inf" if p.hi is None else str(p.hi)}
        piece["witness"] = sorted(p.witness.ids, key=id_key)
        pieces.append(piece)
    assert len(pieces) > 2
    assert cli.run(["profile", str(poly_path)]) == 0
    assert capsys.readouterr().out == ref_dump({"pieces": pieces})

    value, vertex, wit = maximize_quasiconvex(back, objective("dist2"))
    assert cli.run(["optimize", str(poly_path), "--objective", "dist2"]) == 0
    want = {"value": str(value), "vertex": list(vertex), "witness": sorted(wit.ids, key=id_key)}
    assert capsys.readouterr().out == ref_dump(want)


def test_tracked_sp_serializes_in_time_linear_in_the_answer():
    # about 0.12 s on a 2-vCPU VM; per-vertex expansion and sorting took 5 s
    poly = solve_sp(random_sp_tree(random.Random(0), 8000), track=True)
    t = time.perf_counter()
    out = poly.to_json()
    dt = time.perf_counter() - t
    assert sum(map(len, out["witnesses"])) > 10**6
    assert dt < 3.0, f"to_json took {dt:.2f} s"


def test_read_leaf_keeps_only_canonical_lists_in_order():
    for ids in ([1], [-3, 0, 2, 10**30], ["a"], ["B", "a", "ab", "b"]):
        leaf = read_leaf(ids)
        assert type(leaf.ids) is tuple and list(leaf.ids) == ids
        assert expand_all([leaf], ordered=True) == [ids]
        assert expand_all([leaf]) == [frozenset(ids)]
    assert read_leaf([]) is EMPTY
    for ids in ([2, 1], [1, 1], ["b", "a"], [0, "a"], [False, True], [0, True], [1.5],
                [1, 2.5], [None], [(1, 2)]):
        leaf = read_leaf(ids)
        assert type(leaf.ids) is frozenset and leaf.ids == frozenset(ids), ids
    for bad in ("ab", {"x": 1}, 5, None, [[1]], [{"x": 1}]):
        with pytest.raises(TypeError):
            read_leaf(bad)


# ids a witness list is drawn from: ints, strs, bools and floats, which sort
# apart by type. 0, 1 and 1.0 equal False and True: within one list they
# collapse into one id, but each list keeps its own
_POOL = list(range(-4, 12)) + ["a", "b", "B", "ab", "x10", "x9", ""] + [False, True, 1.0]


def _random_witness(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return []
    if kind == 1:  # canonical: distinct ints or distinct strs, increasing
        ty = rng.choice((int, str))
        return sorted(rng.sample([x for x in _POOL if type(x) is ty], rng.randint(1, 6)))
    ids = [rng.choice(_POOL) for _ in range(rng.randint(1, 8))]
    if kind == 2:  # ints only, repeats allowed, sorted or not
        ids = [x for x in ids if type(x) is int] or [0]
    if kind == 3:
        ids.sort(key=id_key)
    if kind == 4:  # ints and bools, increasing as numbers but not canonical
        ids = sorted({x for x in ids if type(x) is not str} or {True})
    return ids


def _reference_bytes(verts, wits, sub, spec):
    """profile or optimize output of the polygon, every witness taken
    through a frozenset and sorted per vertex."""
    def wit(v):
        return sorted(frozenset(wits[verts.index(v)]), key=id_key)

    poly = Polygon(verts)
    if sub == "profile":
        out = {"pieces": []}
        for p in profile(poly):
            piece = {"vertex": list(p.vertex), "from": "-inf" if p.lo is None else str(p.lo),
                     "to": "inf" if p.hi is None else str(p.hi)}
            if wits is not None:
                piece["witness"] = wit(p.vertex)
            out["pieces"].append(piece)
    else:
        value, vertex, _ = maximize_quasiconvex(poly, objective(spec))
        out = {"value": str(value), "vertex": list(vertex)}
        if wits is not None:
            out["witness"] = wit(vertex)
    return json.dumps(out, separators=(",", ":")) + "\n"


def test_payloads_read_through_match_frozenset_reference(tmp_path, capsys):
    rng = random.Random(41)
    path = tmp_path / "poly.json"
    for trial in range(150):
        pts = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(rng.randint(1, 12))]
        verts = list(hull_of_points(pts).vertices)
        data = {"vertices": [list(v) for v in verts]}
        wits = None
        if rng.random() < 0.9:
            wits = data["witnesses"] = [_random_witness(rng) for _ in verts]
        path.write_text(json.dumps(data))
        for sub, spec in (("profile", None), ("optimize", "dist2"), ("optimize", "linear:1,-2")):
            argv = [sub, str(path)] + (["--objective", spec] if spec else [])
            assert cli.run(argv) == 0, (trial, argv)
            got = capsys.readouterr().out
            assert got == _reference_bytes(verts, wits, sub, spec), (trial, data)


def test_reading_canonical_witnesses_allocates_less_than_the_lists():
    # a 1000-vertex polygon (points on a parabola are all extreme) whose
    # witnesses are increasing int lists, as the solvers write them. Their
    # ids are kept as tuples, each a little smaller than the list it copies
    # (a JSON list grows by appends, so it has room to spare); a frozenset
    # per witness would take several times the lists.
    rng = random.Random(43)
    verts = hull_of_points([(x, x * x) for x in range(-500, 500)]).vertices
    assert len(verts) == 1000
    data = json.loads(json.dumps({
        "vertices": [list(v) for v in verts],
        "witnesses": [sorted(rng.sample(range(10**6), rng.randint(100, 600))) for _ in verts],
    }))
    lists = sum(map(sys.getsizeof, data["witnesses"]))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        poly = Polygon.from_json(data)
        used = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert used < lists, (used, lists)
    assert poly.witness_sets(ordered=True) == data["witnesses"]
