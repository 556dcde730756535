"""Checks of a payload against an order model (see inputs.py).

Every check raises CheckError naming what is wrong. None of them imports
paraclose or compares against a stored output: polygons are judged by
convex geometry and by the model's own maximum-weight lower sets.

  polygon canonical   CCW, starting at the lexicographic minimum, strictly
                      convex, integer coordinates
  witnesses           each is a lower set of the model's order and its
                      weights sum to its vertex
  supports            along the outward normal of each edge and along the
                      four axis directions, the polygon's support value
                      equals the model's maximum; with witnesses proving
                      every vertex reachable, this pins the polygon exactly
  vertex cones        in a direction strictly inside a vertex's normal
                      cone, the model's best lower set projects onto it
  profile             pieces follow the upper hull, breakpoints increase,
                      and values at sampled lambdas equal the maxima

Where a hull has more edges or vertices than `limit`, a sample of that
size drawn from the caller's random stream is checked instead.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction


class CheckError(Exception):
    pass


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _sample(rng, seq, limit):
    seq = list(seq)
    return seq if limit is None or len(seq) <= limit else rng.sample(seq, limit)


def read_vertices(payload):
    verts = payload.get("vertices") if isinstance(payload, dict) else None
    if not isinstance(verts, list) or not verts:
        raise CheckError("payload has no vertex list")
    out = []
    for v in verts:
        if (
            not isinstance(v, list) or len(v) != 2
            or not all(type(c) is int for c in v)
        ):
            raise CheckError(f"bad vertex {v!r}")
        out.append((v[0], v[1]))
    return out


def check_canonical(verts):
    m = len(verts)
    if len(set(verts)) != m:
        raise CheckError("repeated vertex")
    if min(verts) != verts[0]:
        raise CheckError(f"first vertex {verts[0]} is not the lexicographic minimum")
    if m >= 3:
        for i in range(m):
            if _cross(verts[i], verts[(i + 1) % m], verts[(i + 2) % m]) <= 0:
                raise CheckError(f"no strict left turn at vertex {(i + 1) % m}")


def check_witnesses(verts, witnesses, model):
    if not isinstance(witnesses, list) or len(witnesses) != len(verts):
        raise CheckError("witness list does not match the vertex list")
    for k, (v, ids) in enumerate(zip(verts, witnesses)):
        if not isinstance(ids, list) or len(set(ids)) != len(ids):
            raise CheckError(f"witness {k} is not a list of distinct ids")
        try:
            a = sum(model.weight(e)[0] for e in ids)
            b = sum(model.weight(e)[1] for e in ids)
            lower = model.is_lower(ids)
        except (KeyError, TypeError):
            raise CheckError(f"witness {k} names an unknown element") from None
        if (a, b) != v:
            raise CheckError(f"witness {k} sums to {(a, b)}, not to its vertex {v}")
        if not lower:
            raise CheckError(f"witness {k} is not a lower set")


def _best(model, d):
    value, proj = model.best(*d)
    if d[0] * proj[0] + d[1] * proj[1] != value:
        raise AssertionError(f"model argmax disagrees with its value along {d}")
    return value, proj


def _normals(verts):
    """Outward normal of each edge v[i] -> v[i+1] of a CCW polygon; a
    segment has its two sides."""
    m = len(verts)
    if m == 1:
        return []
    return [
        (verts[(i + 1) % m][1] - verts[i][1], verts[i][0] - verts[(i + 1) % m][0])
        for i in range(m)
    ]


def check_supports(verts, model, rng, limit=None):
    dirs = _sample(rng, _normals(verts), limit) + [(1, 0), (-1, 0), (0, 1), (0, -1)]
    for d in dirs:
        have = max(d[0] * x + d[1] * y for x, y in verts)
        want, _ = _best(model, d)
        if have != want:
            raise CheckError(f"support along {d} is {have}, the order's maximum is {want}")


def check_vertex_cones(verts, model, rng, limit=None):
    m = len(verts)
    normals = _normals(verts)
    for i in _sample(rng, range(m), limit):
        if m == 1:
            dirs = [(1, 0), (0, 1), (-1, 0), (0, -1)]
        elif m == 2:
            o = verts[1 - i]
            dirs = [(verts[i][0] - o[0], verts[i][1] - o[1])]
        else:
            n_in, n_out = normals[i - 1], normals[i]
            dirs = [(n_in[0] + n_out[0], n_in[1] + n_out[1])]
        for d in dirs:
            _, proj = _best(model, d)
            if proj != verts[i]:
                raise CheckError(
                    f"best lower set along {d} projects to {proj}, not to vertex {i} {verts[i]}"
                )


def check_polygon(payload, model, rng, witnesses, limit=None):
    """Every polygon check on one `paraclose <solver>` payload. witnesses:
    whether the payload must carry them (and must not, otherwise)."""
    verts = read_vertices(payload)
    check_canonical(verts)
    if witnesses:
        check_witnesses(verts, payload.get("witnesses"), model)
    elif "witnesses" in payload:
        raise CheckError("witnesses present in a --no-witness payload")
    check_supports(verts, model, rng, limit)
    check_vertex_cones(verts, model, rng, limit)
    return verts


def _rational(text):
    try:
        return Fraction(text)
    except (TypeError, ValueError, ZeroDivisionError):
        raise CheckError(f"bad breakpoint {text!r}") from None


def upper_hull(verts):
    """Vertices that maximize lam*x + y for some lam, left to right."""
    top = {}
    for x, y in verts:
        top[x] = max(y, top.get(x, y))
    out = []
    for p in sorted(top.items()):
        while len(out) >= 2 and _cross(out[-2], out[-1], p) >= 0:
            out.pop()
        out.append(p)
    return out


def check_profile(payload, verts, witnesses, model, rng, limit=None):
    """A `paraclose profile` payload read from the polygon verts (already
    checked), whose vertex witnesses it must repeat."""
    pieces = payload.get("pieces") if isinstance(payload, dict) else None
    if not isinstance(pieces, list) or not pieces:
        raise CheckError("profile payload has no pieces")
    hull = upper_hull(verts)
    got = [tuple(p.get("vertex", ())) for p in pieces]
    if got != hull:
        raise CheckError(f"profile has {len(got)} pieces off the {len(hull)}-vertex upper hull")
    cuts = [
        Fraction(b1 - b2, a2 - a1) for (a1, b1), (a2, b2) in zip(hull, hull[1:])
    ]
    ends = ["-inf", *cuts, "inf"]
    for k, p in enumerate(pieces):
        lo, hi = p.get("from"), p.get("to")
        lo = lo if k == 0 else _rational(lo)
        hi = hi if k == len(pieces) - 1 else _rational(hi)
        if (lo, hi) != (ends[k], ends[k + 1]):
            raise CheckError(f"piece {k} spans ({lo}, {hi}], want ({ends[k]}, {ends[k + 1]}]")
    if any(c1 >= c2 for c1, c2 in zip(cuts, cuts[1:])):
        raise CheckError("breakpoints do not increase")
    if witnesses is not None:
        wit = {v: sorted(w) for v, w in zip(verts, witnesses)}
        for k, p in enumerate(pieces):
            if sorted(p.get("witness", ())) != wit[hull[k]]:
                raise CheckError(f"piece {k} witness differs from its vertex witness")
    # lambdas: a point inside every piece, the breakpoints themselves
    lams = [cuts[0] - 1] if cuts else [Fraction(0)]
    lams += [(c1 + c2) / 2 for c1, c2 in zip(cuts, cuts[1:])]
    lams += cuts + ([cuts[-1] + 1] if cuts else [])
    for lam in _sample(rng, lams, limit):
        a, b = hull[bisect_left(cuts, lam)]  # the piece (from, to] holding lam
        want, _ = _best(model, (lam.numerator, lam.denominator))
        if a * lam.numerator + b * lam.denominator != want:
            raise CheckError(f"profile value at lam={lam} differs from the order's maximum")
