"""Semiorders: utility order with a unit margin, solved in near-linear time.

In sorted utility order, every nonempty lower set is pinned by a grid point
(p, q): q is its largest index, the prefix 0..p-2 is entirely inside, index
p-1 is the smallest one missing below q, and membership of each index
between p and q-1 is a free choice (p = 0 means nothing below q is missing,
so the set is the prefix 0..q). A quadtree over the (p, q) grid classifies
whole squares at once: squares outside the feasible band are dropped,
squares deep inside it become zonotopes of their free elements, and only a
few staircases of squares along the band boundaries ever get subdivided.
The quadtree's root side is the next power of two at or above n, and its
squares are clipped at n: a square whose rows all lie past the last item
holds no grid point, so the solve runs on the n items as given.
Each square's hull is kept relative to its prefix and without its own
always-free block, which the parent restores as a small Minkowski sum; that
keeps the total segment mass near-linear instead of quadratic.
"""

from __future__ import annotations

from .errors import InputFormatError
from .gcpause import gc_paused
from .parametric import rat
from .polygon import Polygon, direction_ranks, hull_of_points, segment_zonotope
from .poset import _check_id, _check_weight, semiorder_poset
from .splay import combine_any, settle
from .witness import prefix_tags, wleaf

# Squares of side l that get subdivided hug a few monotone staircases, so
# their count is linear in n/l. Checked on every solve; a violation means
# the classification logic regressed, not that the input is bad.
SPLIT_COEFF = 6
SPLIT_SLACK = 8


class Semiorder:
    """Weighted items compared by utility with a unit margin of error:
    x is below y exactly when u(x) < u(y) - 1, so a pair within one unit of
    each other stays incomparable. Items are sorted by utility on
    construction; ties keep their input order.
    """

    __slots__ = ("ids", "utilities", "weights", "index")

    def __init__(self, items):
        rows = []
        for k, item in enumerate(items):
            try:
                xid, util, weight = item
            except (TypeError, ValueError):
                raise InputFormatError(
                    f"item {k}: expected an (id, utility, weight) triple"
                ) from None
            rows.append((xid, rat(util), _check_weight(weight, ("item", k))))
        rows.sort(key=lambda r: r[1])
        self.ids = tuple(r[0] for r in rows)
        self.utilities = tuple(r[1] for r in rows)
        self.weights = tuple(r[2] for r in rows)
        self.index = {}
        for k, xid in enumerate(self.ids):
            if xid in self.index:
                raise InputFormatError(f"duplicate item id {xid!r}")
            self.index[xid] = k

    def __len__(self):
        return len(self.ids)

    def __repr__(self):
        return f"Semiorder({len(self.ids)} items)"

    def to_poset(self):
        return semiorder_poset(self.ids, self.utilities, self.weights)

    @staticmethod
    def from_json(data):
        if not isinstance(data, dict) or "items" not in data:
            raise InputFormatError('expected an object with an "items" list')
        items = data["items"]
        if not isinstance(items, list):
            raise InputFormatError('"items" must be a list')
        triples = []
        for k, it in enumerate(items):
            if not isinstance(it, dict) or not {"id", "utility", "weight"} <= it.keys():
                raise InputFormatError(
                    f'item {k}: expected keys "id", "utility", "weight"'
                )
            triples.append((_check_id(it["id"], f"item {k}"), it["utility"], it["weight"]))
        return Semiorder(triples)


def solve_semiorder(s: Semiorder, track=True) -> Polygon:
    """Hull of the projections of every lower set of the semiorder, with one
    witness per vertex when track is on. Automatic GC is paused for the
    solve, as in solve_sp: its merges leave no garbage cycles."""
    with gc_paused():
        return _solve_semiorder(s, track)


def _solve_semiorder(s, track):
    n = len(s)
    nn = 1  # root side of the quadtree; rows and columns past n are clipped
    while nn < n:
        nn *= 2
    ids = s.ids
    w = s.weights
    u = s.utilities
    # within[q] = smallest index whose utility is within the unit margin of
    # u[q]; nondecreasing and never past q. A point (p, q) with p >= 1 is
    # feasible exactly when p <= q and within[q] <= p - 1.
    within = [0] * n
    t = 0
    for q in range(n):
        bar = u[q] - 1
        while u[t] < bar:
            t += 1
        within[q] = t
    px = [0] * (n + 1)
    py = [0] * (n + 1)
    for k in range(n):
        px[k + 1] = px[k] + w[k][0]
        py[k + 1] = py[k] + w[k][1]
    splits = {}

    # every zonotope's generators are items, so their directions are
    # ranked once here and each zonotope sorts by its slice of the ranks
    ranks = direction_ranks(w)

    def zono(ranges):
        gens = None
        gids = None
        for lo, hi in ranges:
            if lo < hi:
                if gens is None:
                    gens = list(w[lo:hi])
                    rks = ranks[lo:hi]
                    gids = list(ids[lo:hi]) if track else None
                else:
                    gens.extend(w[lo:hi])
                    rks.extend(ranks[lo:hi])
                    if track:
                        gids.extend(ids[lo:hi])
        if gens is None:
            return None
        return segment_zonotope(gens, gids, rks)

    def go(a, b, side):
        # Columns [a, a+side) and rows [b, b+side) of the (p, q) grid. The
        # result is relative to the prefix 0..a-2 and leaves out the
        # square's own free block [a+side, b-1]; None when no feasible
        # point lies inside. Rows stop at n - 1, so a square whose rows all
        # lie past it has qs > b2.
        a2 = a + side - 1
        b2 = min(b + side, n) - 1
        qs = b if b >= a else a
        if qs > b2 or max(1, within[qs] + 1) > a2:
            return None
        if a >= 1 and a2 <= b and within[b2] <= a - 1:
            # Every point is feasible; with the margin holding across the
            # whole block, every subset of [a-1, b2] over the prefix is a
            # genuine lower set, so one zonotope covers the square.
            return zono([(a - 1, a2 + 1), (max(b, a2 + 1), b2 + 1)])
        splits[side] = splits.get(side, 0) + 1
        h = side // 2
        pf_lo, pf_hi = a + side, b  # parent's free block, half open
        parts = []
        for ca in (a, a + h):
            for cb in (b, b + h):
                res = go(ca, cb, h)
                if res is None:
                    continue
                # Restore the child's free block, minus what stays free for
                # this square too.
                cf_lo, cf_hi = ca + h, cb
                z = zono([
                    (cf_lo, min(cf_hi, pf_lo)),
                    (max(cf_lo, pf_hi, pf_lo), cf_hi),
                ])
                if z is not None:
                    res = combine_any("+", res, z)
                lo = a - 1 if a >= 1 else 0
                if ca - 1 > lo:
                    # Indices [lo, ca-2] move from variable to forced-in.
                    d = (px[ca - 1] - px[lo], py[ca - 1] - py[lo])
                    tag = wleaf(ids[lo:ca - 1]) if track else None
                    res = res.translate(d, tag)
                parts.append(res)
        # Fold pairwise so small pieces meet small pieces first.
        while len(parts) > 1:
            parts = [
                combine_any("u", parts[k], parts[k + 1])
                if k + 1 < len(parts) else parts[k]
                for k in range(0, len(parts), 2)
            ]
        return parts[0] if parts else None

    body = go(0, 0, nn)
    # Prefixes are the p = 0 column (plus the empty set); they are cheaper
    # as one hull than through the quadtree.
    pts = [(px[k], py[k]) for k in range(n + 1)]
    wits = prefix_tags(ids) if track else None
    prefixes = hull_of_points(pts, wits)
    res = settle(prefixes if body is None else combine_any("u", body, prefixes))
    for side, cnt in splits.items():
        if cnt > SPLIT_COEFF * nn // side + SPLIT_SLACK:
            raise AssertionError(
                f"{cnt} subdivided squares of side {side} under a root of "
                f"side {nn}; expected at most {SPLIT_COEFF}*{nn}/side + {SPLIT_SLACK}"
            )
    return res
