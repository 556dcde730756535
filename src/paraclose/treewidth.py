"""Bounded-treewidth orders by a dynamic program over bag assignments.

The decomposition (of the cover graph) is rooted at its smallest bag id. For
each bag the DP enumerates the in/out assignments of the bag's elements that
respect the order inside the bag: no element in while a smaller one is out.
An assignment's state is the hull of the weights of the in-elements that lie
below the bag in the tree and not in it, over every way to extend the
assignment there: the Minkowski sum of the children's messages for the parts
of the assignment each child shares. A bag sends its parent one polygon per
assignment of the elements they share, the hull union of its states, each
first translated by the weights of the bag's own in-elements (those it shares
with no parent, so every weight is counted in exactly one bag). The root's
answer is the union of its states.

Why it is exact: a set closed under every cover pair is a lower set, and
every cover pair lies in some bag, so the lower sets are exactly the
assignments of all elements that respect the order in every bag. Bags that
share an element are joined through bags that hold it, so a child's subtree
meets the rest only in what the child shares with its parent, and given that
part its extensions combine freely with the rest. Hulls distribute over union
and Minkowski sum, so taking hulls at every step loses no vertex.

A bag of k pairwise incomparable elements has 2^k states, so the DP makes at
most the sum over bags of 2^|bag| of them; _STATE_BUDGET caps that total.
"""

from __future__ import annotations

from collections import deque

from .errors import InputFormatError, LimitExceededError, StructureError
from .polygon import Polygon, _is_int_pair, hull_union, minkowski_sum, point
from .poset import _check_id, _check_list
from .witness import EMPTY, wleaf

# bag assignments one solve may enumerate, summed over all bags
_STATE_BUDGET = 1_000_000


class TreeDecomposition:
    """Bags of elements arranged in a tree; width is max bag size - 1."""

    __slots__ = ("bags", "adj")

    def __init__(self, bags, edges):
        self.bags = {}
        for bid, elems in bags:
            if not isinstance(bid, int) or isinstance(bid, bool):
                raise InputFormatError(f"bag id must be an integer, got {bid!r}")
            if bid in self.bags:
                raise InputFormatError(f"duplicate bag id {bid}")
            self.bags[bid] = frozenset(elems)
        self.adj = {bid: set() for bid in self.bags}
        for u, v in edges:
            if u not in self.bags or v not in self.bags or u == v:
                raise InputFormatError(f"bad decomposition edge [{u}, {v}]")
            self.adj[u].add(v)
            self.adj[v].add(u)

    def __len__(self):
        return len(self.bags)

    @property
    def width(self):
        return max((len(b) for b in self.bags.values()), default=0) - 1

    def edges(self):
        return [(u, v) for u in sorted(self.adj) for v in sorted(self.adj[u]) if u < v]

    def to_json(self):
        return {
            "bags": [
                {"id": bid, "elems": sorted(map(str, self.bags[bid]))}
                for bid in sorted(self.bags)
            ],
            "edges": [list(e) for e in self.edges()],
        }

    @staticmethod
    def from_json(data):
        if not isinstance(data, dict) or "bags" not in data:
            raise InputFormatError('expected an object with "bags" and "edges"')
        bags = []
        for k, b in enumerate(_check_list(data, "bags")):
            if not isinstance(b, dict) or "id" not in b or not isinstance(b.get("elems"), list):
                raise InputFormatError(f'bag {k}: expected an "id" and an "elems" list')
            bags.append((b["id"], [_check_id(e, f"bag {k}") for e in b["elems"]]))
        edges = _check_list(data, "edges")
        for e in edges:
            if not _is_int_pair(e):
                raise InputFormatError(f"bad decomposition edge {e!r}")
        return TreeDecomposition(bags, edges)


def validate_decomposition(d: TreeDecomposition, poset) -> None:
    """Raise StructureError unless d is a tree decomposition of the poset's
    cover graph: one tree, every element somewhere, each element's bags
    connected, every cover pair inside some bag."""
    if not d.bags:
        raise StructureError("decomposition has no bags")
    ids = sorted(d.bags)
    nedges = sum(len(v) for v in d.adj.values()) // 2
    seen = {ids[0]}
    queue = deque(seen)
    while queue:
        for nb in d.adj[queue.popleft()]:
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    if len(seen) != len(d.bags) or nedges != len(d.bags) - 1:
        raise StructureError("decomposition bags do not form a single tree")
    holding = {}
    for bid, elems in d.bags.items():
        for e in elems:
            if e not in poset.index:
                raise StructureError(f"bag {bid} mentions unknown element {e!r}")
            holding.setdefault(e, set()).add(bid)
    for e in poset.ids:
        bag_set = holding.get(e)
        if not bag_set:
            raise StructureError(f"element {e!r} appears in no bag", witness=e)
        start = next(iter(bag_set))
        reach = {start}
        queue = deque(reach)
        while queue:
            for nb in d.adj[queue.popleft()]:
                if nb in bag_set and nb not in reach:
                    reach.add(nb)
                    queue.append(nb)
        if reach != bag_set:
            raise StructureError(
                f"bags containing {e!r} are not connected in the tree", witness=e
            )
    for i, j in poset.covers():
        u, v = poset.ids[i], poset.ids[j]
        if not (holding[u] & holding[v]):
            raise StructureError(
                f"cover pair ({u!r}, {v!r}) is in no common bag", witness=(u, v)
            )


def greedy_tree_decomposition(poset) -> TreeDecomposition:
    """Min-degree elimination over the cover graph; valid by construction,
    width is whatever the heuristic achieves."""
    n = len(poset.ids)
    if n == 0:
        return TreeDecomposition([(0, frozenset())], [])
    nbr = {v: set() for v in range(n)}
    for i, j in poset.covers():
        nbr[i].add(j)
        nbr[j].add(i)
    alive = set(range(n))
    bags = []
    links = []  # neighbor sets at elimination time, as positions later on
    pos = {}
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
    edges = []
    for step, around in enumerate(links[:-1]):
        parent = min((pos[u] for u in around), default=step + 1)
        edges.append((step, parent))
    return TreeDecomposition(bags, edges)


def _assignments(elems, below, above, left):
    """In-masks of the assignments of elems (element indices) that respect
    the order among them, built one element at a time: in unless a smaller
    one already placed is out, out unless a larger one is in. Every partial
    assignment extends, so the list only grows; it is refused as soon as it
    holds more than `left` entries."""
    states = [0]
    placed = 0
    for e in elems:
        bit = 1 << e
        nxt = []
        for lm in states:
            if not below[e] & placed & ~lm:
                nxt.append(lm | bit)
            if not above[e] & lm:
                nxt.append(lm)
        if len(nxt) > left:
            raise LimitExceededError(
                f"bag assignments exceeded the state budget of {_STATE_BUDGET}"
            )
        states = nxt
        placed |= bit
    return states


def solve_treewidth(poset, decomp: TreeDecomposition | None = None, track=True) -> Polygon:
    """Hull of the projections of all lower sets of a bounded-treewidth
    order. decomp defaults to the min-degree heuristic; the state budget is
    the only limit on size and width."""
    if decomp is None:
        decomp = greedy_tree_decomposition(poset)
    validate_decomposition(decomp, poset)
    bags, index, ids, weights = decomp.bags, poset.index, poset.ids, poset.weights
    root = min(bags)
    order = [root]
    parent = {root: None}
    for bid in order:
        for nb in sorted(decomp.adj[bid]):
            if nb not in parent:
                parent[nb] = bid
                order.append(nb)
    start = point((0, 0), EMPTY if track else None)
    left = _STATE_BUDGET
    inbox = {bid: [] for bid in bags}  # (shared mask, messages) per child
    for bid in reversed(order):
        elems = sorted(index[e] for e in bags[bid])
        up = parent[bid]
        shared = 0
        if up is not None:
            for e in bags[bid] & bags[up]:
                shared |= 1 << index[e]
        own = [i for i in elems if not shared >> i & 1]
        states = _assignments(elems, poset.below, poset.above, left)
        left -= len(states)
        kids = inbox.pop(bid)
        out = {}
        for lm in states:
            poly = start
            for mask, msgs in kids:
                part = msgs.get(lm & mask)
                if part is None:
                    break
                poly = part if poly is start else minkowski_sum(poly, part)
            else:
                mine = [i for i in own if lm >> i & 1]
                if mine:
                    poly = poly.translate(
                        (sum(weights[i][0] for i in mine), sum(weights[i][1] for i in mine)),
                        wleaf(ids[i] for i in mine) if track else None,
                    )
                key = lm & shared
                prev = out.get(key)
                out[key] = poly if prev is None else hull_union(prev, poly)
        if up is None:
            return out[0]
        inbox[up].append((shared, out))
