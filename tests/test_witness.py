import json
import random
import time

from paraclose import cli
from paraclose.generate import random_sp_tree
from paraclose.parametric import maximize_quasiconvex, objective, profile
from paraclose.polygon import Polygon, _id_key
from paraclose.series_parallel import parse_sp, solve_sp, sp_tree_to_json
from paraclose.witness import EMPTY, WLeaf, WUnion, expand, expand_all, wleaf, wunion


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
        got = expand_all(handles, key=_id_key)
        assert got == [None if s is None else sorted(s, key=_id_key) for s in want], trial
        assert [expand(h) for h in handles] == want, trial


def test_expand_all_unorderable_ids_without_key():
    rng = random.Random(12)
    for trial in range(200):
        handles = _random_dag(rng, [Opaque() for _ in range(rng.randint(1, 10))])
        got = expand_all(handles)
        assert got == _reference(handles), trial
        assert all(s is None or type(s) is frozenset for s in got)


def test_expand_all_edge_cases():
    assert expand_all([]) == []
    assert expand_all([None, EMPTY], key=_id_key) == [None, []]
    assert expand(None) is None
    # a chain far deeper than the recursion limit
    node = wleaf([0])
    for i in range(1, 20000):
        node = wunion(wleaf([i]), node)
    assert expand_all([node, node], key=_id_key) == [list(range(20000))] * 2


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
        return json.dumps(obj, indent=2) + "\n"

    assert cli.run(["sp", str(src), "--out", str(poly_path)]) == 0
    want = {
        "vertices": [list(v) for v in poly.vertices],
        "witnesses": [sorted(s, key=_id_key) for s in sets],
    }
    assert poly_path.read_text() == ref_dump(want)

    back = Polygon.from_json(json.loads(poly_path.read_text()))
    pieces = []
    for p in profile(back):
        piece = {"vertex": list(p.vertex), "from": "-inf" if p.lo is None else str(p.lo),
                 "to": "inf" if p.hi is None else str(p.hi)}
        piece["witness"] = sorted(p.witness.ids, key=_id_key)
        pieces.append(piece)
    assert len(pieces) > 2
    assert cli.run(["profile", str(poly_path)]) == 0
    assert capsys.readouterr().out == ref_dump({"pieces": pieces})

    value, vertex, wit = maximize_quasiconvex(back, objective("dist2"))
    assert cli.run(["optimize", str(poly_path), "--objective", "dist2"]) == 0
    want = {"value": str(value), "vertex": list(vertex), "witness": sorted(wit.ids, key=_id_key)}
    assert capsys.readouterr().out == ref_dump(want)


def test_tracked_sp_serializes_in_time_linear_in_the_answer():
    # about 0.12 s on a 2-vCPU VM; per-vertex expansion and sorting took 5 s
    poly = solve_sp(random_sp_tree(random.Random(0), 8000), track=True)
    t = time.perf_counter()
    out = poly.to_json()
    dt = time.perf_counter() - t
    assert sum(map(len, out["witnesses"])) > 10**6
    assert dt < 3.0, f"to_json took {dt:.2f} s"
