import random
from fractions import Fraction
from itertools import combinations

import pytest

from paraclose.errors import ParacloseError
from paraclose.parametric import (
    breakpoints,
    maximize_quasiconvex,
    objective,
    optimum_at,
    profile,
    profile_to_json,
    rat,
    rat_str,
)
from paraclose.polygon import EMPTY_POLYGON, hull_of_points, point
from paraclose.poset import Poset, brute_polygon
from paraclose.witness import expand_all


def random_poset(rng, n):
    ids = [f"v{i}" for i in range(n)]
    pairs = [(ids[i], ids[j]) for i, j in combinations(range(n), 2) if rng.random() < 0.4]
    weights = [(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(n)]
    return Poset(ids, weights, pairs)


def brute_best(poset, lam):
    return max(
        (a * lam + b for a, b in (poset.project(m) for m in poset.lower_sets())),
    )


def lam_samples(cuts):
    out = [Fraction(-1000), Fraction(1000), Fraction(0)]
    for c in cuts:
        out += [c, c - Fraction(1, 7), c + Fraction(1, 7)]
    for a, b in zip(cuts, cuts[1:]):
        out.append((a + b) / 2)
    return out


def test_profile_hand_case():
    poly = hull_of_points([(0, 0), (1, 0), (1, 1)])
    pieces = profile(poly)
    # upper chain is (0,0) -> (1,1); tie at lam = -1
    assert [p.vertex for p in pieces] == [(0, 0), (1, 1)]
    assert breakpoints(poly) == [Fraction(-1)]
    assert optimum_at(pieces, Fraction(-1)).vertex == (0, 0)  # tie -> left piece
    assert optimum_at(pieces, "-9/8").vertex == (0, 0)
    assert optimum_at(pieces, 5).vertex == (1, 1)


def test_profile_degenerate_polygons():
    assert [p.vertex for p in profile(point((3, 4)))] == [(3, 4)]
    vert = hull_of_points([(2, 0), (2, 9)])
    assert [p.vertex for p in profile(vert)] == [(2, 9)]
    flat = hull_of_points([(0, 0), (5, 2)])
    assert [p.vertex for p in profile(flat)] == [(0, 0), (5, 2)]
    with pytest.raises(ParacloseError):
        profile(EMPTY_POLYGON)


def test_profile_matches_brute_force():
    rng = random.Random(23)
    for _ in range(60):
        poset = random_poset(rng, rng.randint(1, 8))
        poly = brute_polygon(poset)
        pieces = profile(poly)
        cuts = breakpoints(poly)
        assert all(a < b for a, b in zip(cuts, cuts[1:]))  # strictly increasing
        for lam in lam_samples(cuts):
            best = brute_best(poset, lam)
            got = optimum_at(pieces, lam)
            assert got.value_at(lam) == best
            # witness realizes the claimed value
            mask = 0
            for e in expand_all([got.witness])[0]:
                mask |= 1 << poset.index[e]
            assert poset.is_lower_set(mask)
            a, b = poset.project(mask)
            assert a * lam + b == best


def test_breakpoint_tie_goes_left():
    rng = random.Random(29)
    for _ in range(40):
        poset = random_poset(rng, rng.randint(2, 7))
        pieces = profile(brute_polygon(poset))
        for left, right in zip(pieces, pieces[1:]):
            lam = left.hi
            assert left.value_at(lam) == right.value_at(lam)
            assert optimum_at(pieces, lam) is left


def test_maximize_quasiconvex_vs_enumeration():
    # dist2 and linear are quasiconvex on the whole plane, so the vertex scan
    # must match full enumeration over lower sets. ratio is only quasiconvex
    # away from y == 0; restrict its comparison to one-sided polygons.
    rng = random.Random(31)
    for spec in ("dist2", "ratio", "linear:2,-3", "linear:1/2,7"):
        fn = objective(spec)
        for _ in range(60):
            poset = random_poset(rng, rng.randint(1, 7))
            poly = brute_polygon(poset)
            if spec == "ratio":
                ys = [y for _, y in poly.vertices]
                if not (min(ys) > 0 or max(ys) < 0):
                    continue
            vals = []
            for m in poset.lower_sets():
                x, y = poset.project(m)
                v = fn(x, y)
                if v is not None:
                    vals.append(v)
            got, v, w = maximize_quasiconvex(poly, fn)
            assert got == max(vals)
            assert fn(v[0], v[1]) == got
            mask = 0
            for e in expand_all([w])[0]:
                mask |= 1 << poset.index[e]
            assert poset.project(mask) == v


def test_maximize_quasiconvex_undefined_vertices():
    fn = objective("ratio")
    poly = hull_of_points([(0, 0), (2, 0), (1, 1)])
    with pytest.warns(UserWarning):
        got, v, _ = maximize_quasiconvex(poly, fn)
    assert got == 1 and v == (1, 1)
    flat = hull_of_points([(0, 0), (4, 0)])
    with pytest.raises(ParacloseError):
        maximize_quasiconvex(flat, fn)


def test_objective_parsing():
    assert objective("ratio")(3, 0) is None
    assert objective("ratio")(3, 2) == Fraction(3, 2)
    assert objective("dist2")(-3, 4) == 25
    assert objective("linear:1/2,-2")(4, 1) == 0
    with pytest.raises(Exception):
        objective("nope")
    with pytest.raises(Exception):
        objective("linear:1")


def test_rat_parsing():
    assert rat("7/3") == Fraction(7, 3)
    assert rat(4) == 4
    assert rat(2.0) == 2
    with pytest.raises(Exception):
        rat(2.5)
    with pytest.raises(Exception):
        rat("x")
    assert rat_str(Fraction(6, 4)) == "3/2"
    assert rat_str(Fraction(8, 4)) == "2"


def test_profile_json():
    poly = hull_of_points([(0, 0), (1, 0), (1, 1)])
    data = profile_to_json(profile(poly))
    assert data["pieces"][0]["from"] == "-inf"
    assert data["pieces"][0]["to"] == "-1"
    assert data["pieces"][-1]["to"] == "inf"
