"""Tests of the benchmark's own checks: python3 -m pytest perfbench

The order models are compared with brute force over every subset of small
instances, with relations read back from the generated input files; then
each check is shown to accept a real CLI payload and to reject it once
corrupted (a vertex dropped, a vertex moved by one unit, an id removed from
a witness).
"""

from __future__ import annotations

import copy
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import inputs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent



def general_weights(gen):
    """The width2 workload's weights are collinear (its hull is a segment);
    give its orders general weights so the checks meet a real polygon."""
    def make(seed):
        data, model = gen(seed)
        rng = random.Random(seed)
        for el in data["elements"]:
            el["weight"] = [rng.randint(-99, 99), rng.randint(-99, 99)]
            model.w[el["id"]] = tuple(el["weight"])
        return data, model
    return make


# name: (generator, subcommand, witnesses on)
SMALL = {
    "sp-witness": (lambda s: inputs.sp_witness(s, n=24, parts=3), "sp", True),
    "semiorder": (lambda s: inputs.semiorder(s, n=24), "semiorder", True),
    "sp-caterpillar": (lambda s: inputs.sp_caterpillar(s, n=24), "sp", False),
    "width2": (general_weights(lambda s: inputs.width2(s, n=24, cross=10)), "width2", True),
    "width2-segment": (lambda s: inputs.width2(s, n=24, cross=10), "width2", True),
}
TINY = {
    "sp-witness": lambda s: inputs.sp_witness(s, n=12, parts=2),
    "semiorder": lambda s: inputs.semiorder(s, n=11),
    "sp-caterpillar": lambda s: inputs.sp_caterpillar(s, n=12),
    "width2": general_weights(lambda s: inputs.width2(s, n=12, cross=4)),
}


def relations(name, data):
    """(ids, weights, strict-order pairs) read from an input file."""
    w, pairs = {}, set()
    if name == "sp-witness":
        def leaves(node):
            (kind, val), = node.items()
            if kind == "leaf":
                w[val["id"]] = tuple(val["weight"])
                return [val["id"]]
            parts = [leaves(c) for c in val]
            if kind == "series":
                for i, lo in enumerate(parts):
                    for hi in parts[i + 1:]:
                        pairs.update(product(lo, hi))
            return [e for p in parts for e in p]
        leaves(data)
    elif name == "sp-caterpillar":
        w[data["root"]["id"]] = tuple(data["root"]["weight"])
        for e in data["edges"]:
            w[e["child"]] = tuple(e["weight"])
            pairs.add((e["parent"], e["child"]))
    elif name == "semiorder":
        u = {}
        for it in data["items"]:
            w[it["id"]] = tuple(it["weight"])
            u[it["id"]] = Fraction(it["utility"])
        pairs = {(x, y) for x in u for y in u if u[x] < u[y] - 1}
    else:
        w = {el["id"]: tuple(el["weight"]) for el in data["elements"]}
        pairs = {tuple(r) for r in data["relations"]}
    ids = sorted(w)
    changed = True
    while changed:  # transitive closure
        extra = {(a, d) for a, b in pairs for c, d in pairs if b == c} - pairs
        pairs |= extra
        changed = bool(extra)
    return ids, w, pairs


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_model_matches_brute_force(name, seed):
    data, model = TINY[name](seed)
    data = json.loads(inputs.input_bytes(data))
    ids, w, pairs = relations(name, data)
    below = {e: {a for a, b in pairs if b == e} for e in ids}
    lower_points = []
    for bits in range(1 << len(ids)):
        s = {e for k, e in enumerate(ids) if bits >> k & 1}
        is_lower = all(below[e] <= s for e in s)
        assert model.is_lower(s) == is_lower
        if is_lower:
            lower_points.append((sum(w[e][0] for e in s), sum(w[e][1] for e in s)))
    assert all(model.weight(e) == w[e] for e in ids)
    rng = random.Random(seed)
    for d in [(1, 0), (0, 1), (-1, -1)] + [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(20)]:
        value, proj = model.best(*d)
        assert value == max(d[0] * x + d[1] * y for x, y in lower_points)
        assert proj in lower_points and d[0] * proj[0] + d[1] * proj[1] == value


def test_inputs_are_byte_identical_per_seed():
    for gen, _, _ in SMALL.values():
        assert inputs.input_bytes(gen(5)[0]) == inputs.input_bytes(gen(5)[0])
        assert inputs.input_bytes(gen(5)[0]) != inputs.input_bytes(gen(6)[0])


def cli(tmp_path, sub, src, flags=()):
    out = tmp_path / f"{sub}.out.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, "-m", "paraclose.cli", sub, str(src), "--out", str(out), *flags],
        env=env, check=True,
    )
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def payloads(tmp_path_factory):
    """Per workload: (model, polygon payload, profile payload or None)."""
    tmp = tmp_path_factory.mktemp("payloads")
    out = {}
    for name, (gen, sub, witnesses) in SMALL.items():
        data, model = gen(3)
        src = tmp / f"{name}.json"
        src.write_bytes(inputs.input_bytes(data))
        poly = cli(tmp, sub, src, [] if witnesses else ["--no-witness"])
        prof = None
        if name == "sp-witness":
            poly_path = tmp / "poly.json"
            poly_path.write_text(json.dumps(poly))
            prof = cli(tmp, "profile", poly_path)
        out[name] = (model, poly, prof)
    return out


def run_polygon(name, model, poly):
    checks.check_polygon(poly, model, random.Random(0), SMALL[name][2])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_real_payload_passes(payloads, name):
    model, poly, prof = payloads[name]
    assert len(poly["vertices"]) == 2 if name == "width2-segment" else len(poly["vertices"]) >= 3
    run_polygon(name, model, poly)
    if prof is not None:
        verts = checks.read_vertices(poly)
        checks.check_profile(prof, verts, poly["witnesses"], model, random.Random(0))


def drop_vertex(poly, k):
    """The polygon without vertex k, restarted at its new lexicographic
    minimum so that it stays canonical."""
    poly = copy.deepcopy(poly)
    for key in ("vertices", "witnesses"):
        if key in poly:
            del poly[key][k]
    start = poly["vertices"].index(min(poly["vertices"]))
    for key in ("vertices", "witnesses"):
        if key in poly:
            poly[key] = poly[key][start:] + poly[key][:start]
    return poly


def move_vertex(poly, k, dx, dy):
    poly = copy.deepcopy(poly)
    poly["vertices"][k][0] += dx
    poly["vertices"][k][1] += dy
    return poly


@pytest.mark.parametrize("name", sorted(SMALL))
def test_dropped_vertex_fails_supports(payloads, name):
    model, poly, _ = payloads[name]
    for k in range(len(poly["vertices"])):
        bad = drop_vertex(poly, k)
        verts = checks.read_vertices(bad)
        checks.check_canonical(verts)  # still a convex polygon
        with pytest.raises(checks.CheckError, match="support"):
            checks.check_supports(verts, model, random.Random(0))
        with pytest.raises(checks.CheckError):
            run_polygon(name, model, bad)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_moved_vertex_fails_vertex_cones(payloads, name):
    model, poly, _ = payloads[name]
    for k, (dx, dy) in product(range(len(poly["vertices"])), [(1, 0), (0, 1), (-1, 0), (0, -1)]):
        bad = move_vertex(poly, k, dx, dy)
        verts = checks.read_vertices(bad)
        with pytest.raises(checks.CheckError, match="projects to"):
            checks.check_vertex_cones(verts, model, random.Random(0))
        with pytest.raises(checks.CheckError):
            run_polygon(name, model, bad)


@pytest.mark.parametrize("name", [k for k in sorted(SMALL) if SMALL[k][2]])
def test_removed_id_fails_witnesses(payloads, name):
    model, poly, _ = payloads[name]
    verts = checks.read_vertices(poly)
    hits = 0
    for k, ids in enumerate(poly["witnesses"]):
        for e in ids:
            if model.weight(e) == (0, 0):
                continue  # the sum would not change; only a lower-set check could see it
            bad = copy.deepcopy(poly)
            bad["witnesses"][k].remove(e)
            with pytest.raises(checks.CheckError, match="witness"):
                checks.check_witnesses(verts, bad["witnesses"], model)
            hits += 1
    assert hits > 0


def test_canonical_rejects_bad_order():
    square = [(0, 0), (2, 0), (2, 2), (0, 2)]
    checks.check_canonical(square)
    for bad, why in [
        (square[1:] + square[:1], "minimum"),
        (square[::-1][-1:] + square[::-1][:-1], "left turn"),
        ([(0, 0), (1, 0), (2, 0), (2, 2)], "left turn"),
        ([(0, 0), (2, 0), (2, 0)], "repeated"),
    ]:
        with pytest.raises(checks.CheckError, match=why):
            checks.check_canonical(bad)


def test_witness_of_non_lower_set_fails(payloads):
    model, poly, _ = payloads["sp-caterpillar"]
    # a spine vertex without its parent, at its own weight
    e = model.ids[2]
    verts = [model.weight(e)]
    with pytest.raises(checks.CheckError, match="not a lower set"):
        checks.check_witnesses(verts, [[e]], model)


def test_profile_corruptions_fail(payloads):
    model, poly, prof = payloads["sp-witness"]
    verts = checks.read_vertices(poly)
    wits = poly["witnesses"]
    assert len(prof["pieces"]) >= 3

    def rejects(bad, match):
        with pytest.raises(checks.CheckError, match=match):
            checks.check_profile(bad, verts, wits, model, random.Random(0))

    for k in range(len(prof["pieces"])):
        bad = copy.deepcopy(prof)
        del bad["pieces"][k]
        rejects(bad, "upper hull")
        bad = copy.deepcopy(prof)
        bad["pieces"][k]["vertex"][1] += 1
        rejects(bad, "upper hull")
        if bad["pieces"][k]["witness"]:
            bad = copy.deepcopy(prof)
            bad["pieces"][k]["witness"].pop()
            rejects(bad, "witness")
    bad = copy.deepcopy(prof)
    cut = Fraction(bad["pieces"][0]["to"]) + Fraction(1, 7)
    bad["pieces"][0]["to"] = bad["pieces"][1]["from"] = str(cut)
    rejects(bad, "spans")


def test_profile_value_check_uses_the_order(payloads):
    # a polygon that is consistent with its own profile but wrong for the
    # order: every vertex shifted up by one, so every profile value is off
    model, poly, prof = payloads["sp-witness"]
    verts = [(x, y + 1) for x, y in checks.read_vertices(poly)]
    bad = copy.deepcopy(prof)
    for p in bad["pieces"]:
        p["vertex"][1] += 1
    with pytest.raises(checks.CheckError, match="differs from the order's maximum"):
        checks.check_profile(bad, verts, None, model, random.Random(0))
