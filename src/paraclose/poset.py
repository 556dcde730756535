"""Finite weighted partial orders and the brute-force polygon oracle.

Elements carry an integer weight pair (a, b), read as the parametric weight
a*lam + b. A lower set is a subset closed downward; project(S) sums the
weight pairs over S (project of the empty set is (0, 0)). The polygon of an
order is the convex hull of the projections of all its lower sets.

The enumeration here is exponential on purpose: it is the ground truth the
structured solvers are checked against, guarded by an element-count limit.
"""

from __future__ import annotations

from .errors import InputFormatError, LimitExceededError
from .polygon import _is_int_pair, hull_of_points
from .witness import wleaf


def _check_weight(w, where):
    """w as a tuple, if it is a pair of integers. where = (kind, id) names
    its owner in the error message, which is formatted only when raised."""
    if not _is_int_pair(w):
        kind, owner = where
        raise InputFormatError(f"{kind} {owner!r}: weight must be a pair of integers, got {w!r}")
    return (w[0], w[1])


def _check_id(e, where):
    """An element id read from JSON; arrays and objects are not hashable."""
    if isinstance(e, (list, dict)):
        raise InputFormatError(f"{where}: id must be a string or a number, got {e!r}")
    return e


def _check_list(data, key):
    """data[key] (an empty list when absent), which must be a JSON array."""
    v = data.get(key, [])
    if not isinstance(v, list):
        raise InputFormatError(f'"{key}" must be a list, got {v!r}')
    return v


class Poset:
    """Partial order over n elements, comparabilities as bitmasks.

    below[i] is the mask of elements strictly less than i, above[i] the mask
    of elements strictly greater. Construction takes arbitrary relation pairs
    (u, v) meaning u < v and closes them transitively; a cycle is an error.
    """

    __slots__ = ("ids", "weights", "below", "above", "index", "_topo")

    def __init__(self, ids, weights, pairs):
        self.ids = list(ids)
        n = len(self.ids)
        self.index = {e: i for i, e in enumerate(self.ids)}
        if len(self.index) != n:
            raise InputFormatError("duplicate element id")
        self.weights = [_check_weight(w, ("element", self.ids[i])) for i, w in enumerate(weights)]
        if len(self.weights) != n:
            raise InputFormatError("weights/ids length mismatch")

        succ = [0] * n
        pred = [0] * n
        indeg = [0] * n
        seen = set()
        for u, v in pairs:
            if u not in self.index or v not in self.index:
                raise InputFormatError(f"relation ({u!r}, {v!r}) names unknown element")
            iu, iv = self.index[u], self.index[v]
            if iu == iv:
                raise InputFormatError(f"element {u!r} related to itself")
            if (iu, iv) in seen:
                continue
            seen.add((iu, iv))
            succ[iu] |= 1 << iv
            pred[iv] |= 1 << iu

        for v in range(n):
            indeg[v] = pred[v].bit_count()
        order = [v for v in range(n) if indeg[v] == 0]
        below = [0] * n
        head = 0
        while head < len(order):
            u = order[head]
            head += 1
            rest = succ[u]
            while rest:
                v = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                below[v] |= below[u] | (1 << u)
                indeg[v] -= 1
                if indeg[v] == 0:
                    order.append(v)
        if len(order) != n:
            raise InputFormatError("relations contain a cycle; not a partial order")
        above = [0] * n
        for u in reversed(order):
            rest = succ[u]
            while rest:
                v = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                above[u] |= above[v] | (1 << v)
        self.below = below
        self.above = above
        self._topo = order

    def __len__(self):
        return len(self.ids)

    def less(self, u, v):
        """Strict order test on element ids."""
        return bool(self.below[self.index[v]] >> self.index[u] & 1)

    def covers(self):
        """Cover pairs (i, j) with i < j and nothing strictly between."""
        out = []
        n = len(self.ids)
        for j in range(n):
            bl = self.below[j]
            rest = bl
            while rest:
                i = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                if not (bl & self.above[i]):
                    out.append((i, j))
        return out

    def is_lower_set(self, mask):
        rest = mask
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if self.below[v] & ~mask:
                return False
        return True

    def lower_sets(self, limit=20):
        """Yield every lower set as a bitmask, via take/skip over a
        topological order (an element is takeable iff its strict down-set
        is already taken). Exponential; refuses to run past `limit`."""
        n = len(self.ids)
        if n > limit:
            raise LimitExceededError(
                f"brute-force enumeration limited to {limit} elements, got {n}"
            )
        below = self.below
        order = self._topo

        def rec(k, cur):
            if k == n:
                yield cur
                return
            v = order[k]
            yield from rec(k + 1, cur)
            if below[v] & ~cur == 0:
                yield from rec(k + 1, cur | (1 << v))

        yield from rec(0, 0)

    def project(self, mask):
        a = b = 0
        rest = mask
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            a += self.weights[v][0]
            b += self.weights[v][1]
        return (a, b)

    def mask_ids(self, mask):
        return frozenset(self.ids[v] for v in range(len(self.ids)) if mask >> v & 1)

    def to_json(self):
        return {
            "elements": [
                {"id": e, "weight": [a, b]}
                for e, (a, b) in zip(self.ids, self.weights)
            ],
            "relations": [[self.ids[i], self.ids[j]] for i, j in self.covers()],
        }

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict) or "elements" not in data:
            raise InputFormatError('expected an object with an "elements" list')
        ids, weights = [], []
        for el in _check_list(data, "elements"):
            if not isinstance(el, dict) or "id" not in el:
                raise InputFormatError(f"bad element entry: {el!r}")
            ids.append(_check_id(el["id"], "element"))
            weights.append(el.get("weight", [0, 0]))
        pairs = _check_list(data, "relations")
        for p in pairs:
            if not isinstance(p, (list, tuple)) or len(p) != 2:
                raise InputFormatError(f"bad relation entry: {p!r}")
            for e in p:
                _check_id(e, "relation")
        return cls(ids, weights, [tuple(p) for p in pairs])


def brute_polygon(poset, limit=20, track=True):
    """Ground-truth polygon: hull over the projections of all lower sets."""
    points = []
    wits = [] if track else None
    for mask in poset.lower_sets(limit=limit):
        points.append(poset.project(mask))
        if track:
            wits.append(wleaf(poset.mask_ids(mask)))
    return hull_of_points(points, wits)


def semiorder_poset(ids, utilities, weights):
    """Order induced by numeric utilities with unit margin: x < y iff
    u(x) < u(y) - 1; a pair exactly one unit apart is still incomparable.
    Quadratic construction, oracle-scale only."""
    n = len(ids)
    pairs = []
    for i in range(n):
        for j in range(n):
            if i != j and utilities[i] < utilities[j] - 1:
                pairs.append((ids[i], ids[j]))
    return Poset(ids, weights, pairs)


def incidence_poset(graph):
    """Vertices below their incident edges; lower sets are subgraphs.

    graph: {"vertices": [{"id", "weight"}], "edges": [{"id"?, "ends": [u, v],
    "weight"}]}. Edge ids default to "e0", "e1", ... and must not collide
    with vertex ids.
    """
    if not isinstance(graph, dict) or "vertices" not in graph:
        raise InputFormatError('expected an object with "vertices" and "edges"')
    ids, weights, pairs = [], [], []
    for v in _check_list(graph, "vertices"):
        if not isinstance(v, dict) or "id" not in v:
            raise InputFormatError(f"bad vertex entry: {v!r}")
        ids.append(_check_id(v["id"], "vertex"))
        weights.append(v.get("weight", [0, 0]))
    vset = set(ids)
    for k, e in enumerate(_check_list(graph, "edges")):
        if not isinstance(e, dict) or not isinstance(e.get("ends"), list) or len(e["ends"]) != 2:
            raise InputFormatError(f"bad edge entry: {e!r}")
        u, v = (_check_id(x, "edge end") for x in e["ends"])
        if u not in vset or v not in vset:
            raise InputFormatError(f"edge {e!r} names unknown vertex")
        eid = _check_id(e.get("id", f"e{k}"), "edge")
        ids.append(eid)
        weights.append(e.get("weight", [0, 0]))
        pairs.append((u, eid))
        pairs.append((v, eid))
    return Poset(ids, weights, pairs)
