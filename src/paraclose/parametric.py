"""Parametric view of a polygon.

A vertex (a, b) stands for a family of lower sets of total weight a*lam + b.
Sweeping lam from -inf to +inf, the best lower set walks the upper chain of
the polygon left to right; breakpoints are the exact rationals where two
consecutive chain vertices tie. Quasiconvex objectives attain their maximum
over the polygon at a vertex, so they are maximized by a scan.
"""

from __future__ import annotations

import warnings
from fractions import Fraction

from .errors import InputFormatError, ParacloseError
from .polygon import Polygon, _chains
from .witness import expand_all


def rat(value):
    """Parse an exact rational from int, Fraction, or a 'p/q' string."""
    if isinstance(value, bool):
        raise InputFormatError(f"not a rational: {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as e:
            raise InputFormatError(f"not a rational: {value!r}") from e
    if isinstance(value, float):
        if value.is_integer():
            return Fraction(int(value))
        raise InputFormatError(
            f"refusing non-integral float {value!r}; pass an exact 'p/q' string"
        )
    raise InputFormatError(f"not a rational: {value!r}")


def rat_str(value):
    f = Fraction(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


class Piece:
    """One maximal interval (lo, hi] of lam sharing an optimal vertex.

    lo is None for -inf, hi is None for +inf. At a breakpoint the left piece
    is the canonical owner (both neighbours tie there).
    """

    __slots__ = ("vertex", "witness", "lo", "hi")

    def __init__(self, vertex, witness, lo, hi):
        self.vertex = vertex
        self.witness = witness
        self.lo = lo
        self.hi = hi

    def value_at(self, lam):
        return self.vertex[0] * lam + self.vertex[1]

    def to_json(self):
        return profile_to_json([self])["pieces"][0]


def profile(poly: Polygon):
    """Pieces of the parametric maximum, left to right. Empty polygon has
    no maximum to speak of, which is an error."""
    if poly.is_empty:
        raise ParacloseError("profile of an empty polygon")
    upper = _chains(poly, poly.wit is not None)[1]
    if len(upper) >= 2 and upper[0][0][0] == upper[1][0][0]:
        upper = upper[1:]  # bottom of a left vertical edge is never optimal
    verts = [v for v, _ in upper]
    wits = [w for _, w in upper]
    cuts = []
    for (a1, b1), (a2, b2) in zip(verts, verts[1:]):
        cuts.append(Fraction(b1 - b2, a2 - a1))
    pieces = []
    for k, (v, w) in enumerate(zip(verts, wits)):
        lo = cuts[k - 1] if k > 0 else None
        hi = cuts[k] if k < len(cuts) else None
        pieces.append(Piece(v, w, lo, hi))
    return pieces


def breakpoints(poly: Polygon):
    return [p.hi for p in profile(poly)[:-1]]


def optimum_at(pieces, lam):
    """The piece optimal at lam; ties at a breakpoint go to the left piece."""
    lam = rat(lam)
    for p in pieces:
        if p.hi is None or lam <= p.hi:
            return p
    raise AssertionError("pieces do not cover the line")


def profile_to_json(pieces):
    """JSON of the pieces, their witnesses expanded together as id lists in
    canonical order (see witness.expand_all)."""
    out = []
    wits = expand_all([p.witness for p in pieces], ordered=True)
    for p, wit in zip(pieces, wits):
        piece = {
            "vertex": list(p.vertex),
            "from": "-inf" if p.lo is None else rat_str(p.lo),
            "to": "inf" if p.hi is None else rat_str(p.hi),
        }
        if wit is not None:
            piece["witness"] = wit
        out.append(piece)
    return {"pieces": out}


def maximize_quasiconvex(poly: Polygon, fn):
    """Maximize fn(x, y) over the polygon assuming fn is quasiconvex, by
    scanning vertices. fn may return None where it is undefined; such
    vertices are skipped with a warning, and all-undefined is an error.

    Returns (value, vertex, witness_handle).
    """
    if poly.is_empty:
        raise ParacloseError("maximizing over an empty polygon")
    best = None
    skipped = 0
    for i, v in enumerate(poly.vertices):
        val = fn(v[0], v[1])
        if val is None:
            skipped += 1
            continue
        if best is None or val > best[0]:
            best = (val, v, None if poly.wit is None else poly.wit[i])
    if best is None:
        raise ParacloseError("objective undefined at every vertex")
    if skipped:
        warnings.warn(
            f"objective undefined at {skipped} vertex(es); skipped",
            stacklevel=2,
        )
    return best


def objective(spec: str):
    """Named objectives for the command line.

    ratio      x / y, undefined where y == 0
    dist2      x^2 + y^2
    linear:a,b a*x + b*y with exact rational coefficients
    """
    if spec == "ratio":
        return lambda x, y: None if y == 0 else Fraction(x, y)
    if spec == "dist2":
        return lambda x, y: x * x + y * y
    if spec.startswith("linear:"):
        parts = spec[len("linear:") :].split(",")
        if len(parts) != 2:
            raise InputFormatError(f"bad objective {spec!r}; want linear:a,b")
        a, b = rat(parts[0]), rat(parts[1])
        return lambda x, y: a * x + b * y
    raise InputFormatError(f"unknown objective {spec!r}")
