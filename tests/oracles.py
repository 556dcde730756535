"""Independent slow reference implementations used across the test suite.

Everything here is deliberately naive (enumerate, sum, hull) so that a bug in
the package's merge algorithms cannot hide in the checker too.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from paraclose.errors import InputFormatError
from paraclose.polygon import Polygon, cross
from paraclose.semiorder import Semiorder

GridSquare = namedtuple("GridSquare", ("origin", "side"))


def slow_hull(points):
    """Convex hull canonical vertex tuple, by exhaustive extreme-point test."""
    pts = sorted(set(tuple(p) for p in points))
    if not pts:
        return ()
    if len(pts) == 1:
        return (pts[0],)
    # Gift wrapping, robust and independent of the monotone-chain code path.
    start = pts[0]
    hull = [start]
    cur = start
    while True:
        cand = None
        for p in pts:
            if p == cur:
                continue
            if cand is None:
                cand = p
                continue
            c = cross(cur, cand, p)
            if c < 0 or (
                c == 0
                and (abs(p[0] - cur[0]) + abs(p[1] - cur[1]))
                > (abs(cand[0] - cur[0]) + abs(cand[1] - cur[1]))
            ):
                cand = p
        if cand is None or cand == start:
            break
        hull.append(cand)
        cur = cand
        if len(hull) > len(pts) + 1:
            raise AssertionError("gift wrap runaway")
    return tuple(hull)


def slow_minkowski(p: Polygon, q: Polygon):
    if p.is_empty or q.is_empty:
        return ()
    sums = [
        (a[0] + b[0], a[1] + b[1])
        for a in p.vertices
        for b in q.vertices
    ]
    return slow_hull(sums)


def slow_union(p: Polygon, q: Polygon):
    return slow_hull(list(p.vertices) + list(q.vertices))


def slow_zonotope(gens):
    pts = [(0, 0)]
    for r in range(1, len(gens) + 1):
        for sub in combinations(range(len(gens)), r):
            pts.append(
                (sum(gens[i][0] for i in sub), sum(gens[i][1] for i in sub))
            )
    return slow_hull(pts)


def random_polygon(rng, kmax=12, span=40, label="pt"):
    """Hull of up to kmax random integer points (possibly degenerate)."""
    from paraclose.polygon import hull_of_points
    from paraclose.witness import wleaf

    k = rng.randint(1, kmax)
    pts = [(rng.randint(-span, span), rng.randint(-span, span)) for _ in range(k)]
    return hull_of_points(pts, [wleaf({(label, i)}) for i in range(k)])


def slow_zonotope_witnesses(gens, ids):
    """Vertex witnesses of segment_zonotope(gens, ids), in its vertex order,
    by the explicit walk: start from the set of generators that point into
    the lower half-turn, then step through the parallel classes by angle,
    taking or dropping each class's generators and copying the whole set at
    every vertex (O(k^2) ids). Zero generators are in no set."""
    from functools import cmp_to_key

    cur = set()
    items = []
    for (gx, gy), i in zip(gens, ids):
        if (gx, gy) == (0, 0):
            continue
        if gx > 0 or (gx == 0 and gy > 0):
            items.append(((gx, gy), i, False))
        else:
            items.append(((-gx, -gy), i, True))
            cur.add(i)

    def by_angle(a, b):
        c = a[0][0] * b[0][1] - a[0][1] * b[0][0]
        return -1 if c > 0 else (1 if c < 0 else 0)

    classes = []
    for item in sorted(items, key=cmp_to_key(by_angle)):
        if classes and by_angle(classes[-1][0], item) == 0:
            classes[-1].append(item)
        else:
            classes.append([item])
    wits = [frozenset(cur)]
    for forward in (True, False):
        for members in classes:
            for _, i, flipped in members:
                if forward != flipped:
                    cur.add(i)
                else:
                    cur.discard(i)
            wits.append(frozenset(cur))
    # the walk ends where it started; with no classes it is one point
    return wits[:-1] if classes else wits


def extremes(s: Semiorder, lower) -> tuple:
    """Grid point (p, q) of a nonempty lower set: q its largest index, p-1
    the smallest index below q left out, p = 0 when none is missing."""
    if not lower:
        raise InputFormatError("the empty lower set has no extremes point")
    idxs = {s.index[x] for x in lower}
    j = max(idxs)
    i = -1
    for t in range(j):
        if t not in idxs:
            i = t
            break
    return (i + 1, j)


def freeset(s: Semiorder, square: GridSquare) -> set:
    """Elements strictly between a square's row block and column block; they
    are free to include or drop in every lower set the square captures."""
    (i0, j0), side = square
    lo = max(i0 + side, 0)
    hi = min(j0, len(s))
    return {s.ids[t] for t in range(lo, hi)}


def check_lower_set_witnesses(poly: Polygon, poset) -> None:
    """Assert that every vertex's witness is a lower set of the poset that
    projects onto the vertex. A set closed under every cover pair is a lower
    set, so the check costs one pass over the cover pairs per vertex and
    still runs at n in the thousands."""
    covers = [(poset.ids[i], poset.ids[j]) for i, j in poset.covers()]
    weights = poset.weights
    for v, s in zip(poly.vertices, poly.witness_sets()):
        assert all(u in s for u, w in covers if w in s), v
        ws = [weights[poset.index[e]] for e in s]
        assert (sum(a for a, _ in ws), sum(b for _, b in ws)) == v


def greedy_decomposition_min_scan(poset):
    """Bags and edges of min-degree elimination over the cover graph, each
    vertex picked by a min over every alive vertex of (degree, index): the
    quadratic reference for treewidth.greedy_tree_decomposition."""
    n = len(poset.ids)
    nbr = {v: set() for v in range(n)}
    for i, j in poset.covers():
        nbr[i].add(j)
        nbr[j].add(i)
    alive = set(range(n))
    bags, links, pos = [], [], {}
    for step in range(n):
        v = min(alive, key=lambda a: (len(nbr[a]), a))
        alive.discard(v)
        around = set(nbr[v])
        for u in around:
            nbr[u].discard(v)
            nbr[u].update(around - {u})
        bags.append((step, {poset.ids[v]} | {poset.ids[u] for u in around}))
        links.append(around)
        pos[v] = step
    edges = [
        (step, min((pos[u] for u in around), default=step + 1))
        for step, around in enumerate(links[:-1])
    ]
    return bags, edges
