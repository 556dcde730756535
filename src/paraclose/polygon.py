"""Exact convex polygon kernel.

All coordinates are Python ints (weights are integer pairs and every operation
here is closed over them); nothing in this module touches floats. A polygon is
stored in canonical form:

  * vertices in counterclockwise order, starting at the lexicographically
    smallest vertex (min x, then min y),
  * strictly convex: no repeated and no collinear vertices,
  * degenerate cases allowed: 0 vertices (empty), 1 (point), 2 (segment).

Two polygons are equal iff their canonical vertex tuples are equal; witnesses
are metadata and do not take part in equality.

Each vertex optionally carries a witness handle (see witness.py) naming a
lower set that projects onto it. Passing witnesses=None everywhere disables
tracking at zero cost.
"""

from __future__ import annotations

import functools
from operator import itemgetter

from .errors import InputFormatError
from .witness import EMPTY, chain, expand_all, read_leaf, wleaf, wunion


def cross(o, a, b):
    """Cross product of (a - o) and (b - o). >0 means o->a->b turns left."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def crossv(d, e):
    return d[0] * e[1] - d[1] * e[0]


def half(d):
    """0 for directions in [-90deg, 90deg) up to +90 inclusive, 1 for the rest.

    Concretely: 0 iff d is lexicographically positive (dx > 0, or dx == 0 and
    dy > 0). Canonical edge cycles sweep half 0 then half 1.
    """
    return 0 if d[0] > 0 or (d[0] == 0 and d[1] > 0) else 1


def _is_int_pair(v):
    """Whether a JSON value is a pair of integers (bools do not count)."""
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        return False
    a, b = v
    # bool cannot be subclassed, so a type test settles it
    return (isinstance(a, int) and isinstance(b, int)
            and type(a) is not bool and type(b) is not bool)


class Polygon:
    __slots__ = ("vertices", "wit")

    def __init__(self, vertices, wit=None):
        # Trusted constructor: callers must pass canonical data with int-pair
        # tuple vertices; nothing is coerced here (see from_json for that).
        self.vertices = tuple(vertices)
        self.wit = None if wit is None else tuple(wit)
        if self.wit is not None and len(self.wit) != len(self.vertices):
            raise ValueError("witness list length mismatch")

    def __len__(self):
        return len(self.vertices)

    def __eq__(self, other):
        if not isinstance(other, Polygon):
            return NotImplemented
        return self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"Polygon({list(self.vertices)!r})"

    @property
    def is_empty(self):
        return not self.vertices

    def lexmax_index(self):
        v = self.vertices
        return v.index(max(v))

    def translate(self, d, tag=None):
        """Shift by vector d. tag, if given, is a witness handle unioned into
        every vertex witness (the ids forced into every underlying set)."""
        dx, dy = d
        verts = tuple((x + dx, y + dy) for x, y in self.vertices)
        if self.wit is None:
            return Polygon(verts)
        if tag is None:
            return Polygon(verts, self.wit)
        return Polygon(verts, tuple(wunion(w, tag) for w in self.wit))

    def witness_sets(self, ordered=False):
        """The vertices' witness id sets, expanded together (see
        witness.expand_all): frozensets, or lists in canonical id order if
        ordered."""
        if self.wit is None:
            return None
        return expand_all(self.wit, ordered)

    def contains(self, p):
        """Exact point-in-polygon test (boundary counts as inside)."""
        v = self.vertices
        m = len(v)
        if m == 0:
            return False
        if m == 1:
            return tuple(p) == v[0]
        if m == 2:
            a, b = v
            if cross(a, b, p) != 0:
                return False
            lo = (min(a[0], b[0]), min(a[1], b[1]))
            hi = (max(a[0], b[0]), max(a[1], b[1]))
            return lo[0] <= p[0] <= hi[0] and lo[1] <= p[1] <= hi[1]
        for i in range(m):
            if cross(v[i], v[(i + 1) % m], p) < 0:
                return False
        return True

    def to_json(self):
        """The payload: vertices, and the witnesses as lists in canonical id
        order when the polygon tracks them."""
        out = {"vertices": [[x, y] for x, y in self.vertices]}
        if self.wit is not None:
            out["witnesses"] = self.witness_sets(ordered=True)
        return out

    @classmethod
    def from_json(cls, data):
        """Read a polygon written by to_json; the one constructor path for
        untrusted data, so its shape and integer coordinates are checked here.
        Witness lists already in canonical id order are kept as they are
        (witness.read_leaf), so writing them out again costs no sort."""
        if not isinstance(data, dict) or not isinstance(data.get("vertices"), (list, tuple)):
            raise InputFormatError('expected an object with a "vertices" list')
        verts = []
        for v in data["vertices"]:
            if not _is_int_pair(v):
                raise InputFormatError(f"vertex must be a pair of integers, got {v!r}")
            verts.append((v[0], v[1]))
        wit = data.get("witnesses")
        if wit is not None:
            if not isinstance(wit, list) or len(wit) != len(verts):
                raise InputFormatError('"witnesses" must be a list with one entry per vertex')
            try:
                wit = [read_leaf(s) for s in wit]
            except TypeError:
                raise InputFormatError("each witness must be a list of element ids") from None
        return cls(verts, wit)


EMPTY_POLYGON = Polygon(())


def point(p, tag=None):
    """Single-vertex polygon. tag: optional witness handle for the vertex."""
    return Polygon((p,), None if tag is None else (tag,))


def is_canonical(poly):
    """Validation helper used by tests: canonical-form predicate."""
    v = poly.vertices
    m = len(v)
    if m <= 1:
        return True
    if len(set(v)) != m:
        return False
    if min(v) != v[0]:
        return False
    if m == 2:
        return True
    for i in range(m):
        if cross(v[i], v[(i + 1) % m], v[(i + 2) % m]) <= 0:
            return False
    return True


def _scan(seq):
    """One monotone-chain pass over lex-ordered (point, witness) items:
    keeps the strict left turns, dropping collinear middles."""
    out = []
    for item in seq:
        while len(out) >= 2 and cross(out[-2][0], out[-1][0], item[0]) <= 0:
            out.pop()
        out.append(item)
    return out


def hull_of_points(points, witnesses=None):
    """Convex hull (Andrew's monotone chain) over exact integer points.

    Exact duplicate points are collapsed keeping the earliest witness.
    """
    pts = [(tuple(p), i) for i, p in enumerate(points)]
    pts.sort()
    dedup = []
    for p, i in pts:
        if dedup and dedup[-1][0] == p:
            continue
        dedup.append((p, i))
    if not dedup:
        return EMPTY_POLYGON
    lower = _scan(dedup)
    upper = _scan(reversed(dedup))
    if len(dedup) == 1:
        verts = [dedup[0]]
    elif len(lower) == 2 and len(upper) == 2:
        verts = lower  # collinear input: a segment
    else:
        verts = lower[:-1] + upper[:-1]
    if witnesses is None:
        return Polygon([p for p, _ in verts])
    return Polygon([p for p, _ in verts], [witnesses[i] for _, i in verts])


def _edge_cycle(poly):
    """Full CCW edge cycle from the canonical start vertex, as
    (dx, dy, half) triples.

    For canonical polygons the directions are strictly increasing in angle
    over the half-open sweep (-90, 270], which is what the Minkowski merge
    relies on. A segment contributes its direction and the reverse.
    """
    v = poly.vertices
    if len(v) <= 1:
        return []
    out = []
    for (x0, y0), (x1, y1) in zip(v, v[1:] + v[:1]):
        dx, dy = x1 - x0, y1 - y0
        out.append((dx, dy, 0 if dx > 0 or (dx == 0 and dy > 0) else 1))
    return out


def minkowski_sum(p, q):
    """Minkowski sum by merging edge cycles in angle order, O(|p| + |q|).

    Vertex witnesses pair the two source vertices whose sum realizes the
    corner. The sum with an empty polygon is empty.
    """
    if p.is_empty or q.is_empty:
        return EMPTY_POLYGON
    ep, eq = _edge_cycle(p), _edge_cycle(q)
    np_, nq = len(ep), len(eq)
    track = p.wit is not None and q.wit is not None
    if track:
        # After the last edge of a cycle its walk is back at vertex 0, and
        # every cycle has as many edges as vertices except a point (none).
        pw, qw = p.wit + p.wit[:1], q.wit + q.wit[:1]
        wits = [wunion(pw[0], qw[0])]
    else:
        wits = None
    x, y = start = (p.vertices[0][0] + q.vertices[0][0],
                    p.vertices[0][1] + q.vertices[0][1])
    verts = [start]
    ip = iq = 0
    while ip < np_ or iq < nq:
        if iq == nq:
            dx, dy, _ = ep[ip]
            ip += 1
        elif ip == np_:
            dx, dy, _ = eq[iq]
            iq += 1
        else:
            px, py, hp = ep[ip]
            qx, qy, hq = eq[iq]
            if hp != hq:
                c = hq - hp
            else:
                # c == 0 in the same half: parallel edges fuse into one.
                c = px * qy - py * qx
            if c > 0:
                dx, dy = px, py
                ip += 1
            elif c < 0:
                dx, dy = qx, qy
                iq += 1
            else:
                dx, dy = px + qx, py + qy
                ip += 1
                iq += 1
        x += dx
        y += dy
        verts.append((x, y))
        if track:
            wits.append(wunion(pw[ip], qw[iq]))
    assert verts[-1] == start
    if len(verts) > 1:
        verts.pop()  # closing vertex; a strictly convex cycle has no other repeats
        if track:
            wits.pop()
    return Polygon(verts, wits)


_point_of = itemgetter(0)


def _chains(poly, track):
    """Lower and upper chains as lex-sorted (point, witness) lists, both
    from the lexmin vertex to the lexmax vertex, sliced off the vertex
    tuple. Witnesses are None unless track."""
    v = poly.vertices
    pts = list(zip(v, poly.wit if track else (None,) * len(v)))
    t = poly.lexmax_index()
    # upper: v[0], then v[m-1] down to v[t]; for a point (t == 0) just v[0]
    return pts[:t + 1], pts[:1] + pts[:t - 1:-1]


def _merge_lex(a, b):
    """Merge two lex-sorted (point, witness) lists; exact duplicates keep
    the first list's entry. The sort is stable and finds the two runs, so
    this is one linear merge."""
    out = []
    last = None
    for item in sorted(a + b, key=_point_of):
        if item[0] != last:
            out.append(item)
            last = item[0]
    return out


def hull_union(p, q):
    """Convex hull of the union of two polygons in O(|p| + |q|).

    Both canonical chains are already lex-sorted, so a merge plus one
    monotone-chain scan per side avoids the sort.
    """
    if p.is_empty:
        return q
    if q.is_empty:
        return p
    track = p.wit is not None and q.wit is not None
    plo, pup = _chains(p, track)
    qlo, qup = _chains(q, track)
    lo = _scan(_merge_lex(plo, qlo))
    hi = _scan(reversed(_merge_lex(pup, qup)))
    if len(lo) == 1:
        verts = lo
    elif len(lo) == 2 and len(hi) == 2 and lo[0][0] == hi[-1][0] and lo[-1][0] == hi[0][0]:
        verts = lo  # collinear union
    else:
        verts = lo[:-1] + hi[:-1]
    return Polygon(
        [v for v, _ in verts],
        [w for _, w in verts] if track else None,
    )


def segment_zonotope(generators, gen_ids=None):
    """Minkowski sum of the segments {(0,0), g} for each generator g.

    generators: iterable of integer pairs; zero vectors are skipped (their
    elements are simply left out of every witness, which is always valid).
    gen_ids: optional parallel list of ids naming the generators. Witnesses
    are tracked exactly when gen_ids is given, as four shared chains of
    witness nodes (witness.chain): O(k) nodes for k generators.

    Returns a canonical polygon with at most 2k vertices.
    """
    gens = []
    base_x = base_y = 0
    track = gen_ids is not None
    for idx, g in enumerate(generators):
        gx, gy = g
        if gx == 0 and gy == 0:
            continue
        gid = gen_ids[idx] if track else None
        if half((gx, gy)) == 1:
            # Normalize to half 0; a flipped generator is "taken" at lexmin.
            base_x += gx
            base_y += gy
            gens.append(((-gx, -gy), gid, True))
        else:
            gens.append(((gx, gy), gid, False))
    if not gens:
        return Polygon(((base_x, base_y),), (EMPTY,) if track else None)
    if len(gens) == 2:
        if _dir_cmp(gens[0], gens[1]) > 0:
            gens.reverse()
    elif len(gens) > 2:
        gens.sort(key=_dir_sort_key)
    # Group parallel generators: one edge per direction class, grown in
    # place, with the ids of its kept and of its flipped generators.
    groups = []
    for d, gid, flipped in gens:
        if groups and crossv(groups[-1][0], d) == 0:
            group = groups[-1]
            pd = group[0]
            group[0] = (pd[0] + d[0], pd[1] + d[1])
        else:
            group = [d, [], []]
            groups.append(group)
        group[2 if flipped else 1].append(gid)
    verts = [(base_x, base_y)]
    # Walk half 0 (forward edges) then half 1 (the same directions reversed).
    for sign in (1, -1):
        for d, _, _ in groups:
            x, y = verts[-1]
            verts.append((x + sign * d[0], y + sign * d[1]))
    assert verts[-1] == verts[0]
    verts.pop()
    if not track:
        return Polygon(verts)
    # A forward step over group j takes its kept generators K_j and drops
    # its flipped ones F_j; a backward step does the reverse. So forward
    # vertex j holds K_0..K_{j-1} and F_j..F_{m-1}, and backward vertex
    # m + j holds K_j..K_{m-1} and F_0..F_{j-1}: one union of a prefix and
    # a suffix chain each.
    kept = [wleaf(k) for _, k, _ in groups]
    flip = [wleaf(f) for _, _, f in groups]
    kpre, fpre = chain(kept), chain(flip)
    ksuf, fsuf = chain(reversed(kept))[::-1], chain(reversed(flip))[::-1]
    m = len(groups)
    wits = [wunion(a, b) for a, b in zip(kpre[:m], fsuf)]
    wits += [wunion(a, b) for a, b in zip(ksuf[:m], fpre)]
    return Polygon(verts, wits)


def _dir_cmp(a, b):
    # All directions are in half 0 here; order by angle via pairwise cross.
    c = crossv(a[0], b[0])
    return -1 if c > 0 else (1 if c < 0 else 0)


_dir_sort_key = functools.cmp_to_key(_dir_cmp)
