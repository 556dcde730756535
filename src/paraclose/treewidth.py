"""Bounded-treewidth orders via a union/Minkowski formula over bag states.

A tree decomposition of the cover graph drives a recursion whose state is a
live forest of bags plus in/out assignments for every element touched so
far. Splitting off a centroid bag first forces an in-or-out choice for each
of its unassigned elements (a small union tree; order conflicts prune the
branch immediately), then deletes the bag, and the two remaining forest
halves contribute independently, so their polygons combine by Minkowski
sum. Deleted-bag separators guarantee the halves never disagree about a
shared element. The base case is a single point carrying the weights of
elements owned by the bags deleted on the way down; ownership (first bag in
a fixed rooted order that contains the element) makes each weight count
exactly once across a sum split.

Assignment masks are kept whole rather than restricted to the live forest:
comparabilities can route through bags that are already gone, and only the
full transitive masks catch those conflicts at assignment time.
"""

from __future__ import annotations

import math
from collections import deque

from .errors import InputFormatError, LimitExceededError, StructureError
from .polygon import EMPTY_POLYGON, Polygon, _is_int_pair
from .poset import _check_id, _check_list
from .splay import combine_any, settle
from .witness import wleaf


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


def normalize_decomposition(d: TreeDecomposition) -> TreeDecomposition:
    """Split bags of degree above three into chains of duplicates; width and
    validity are preserved, bag count stays linear."""
    bags = dict(d.bags)
    adj = {bid: set(nb) for bid, nb in d.adj.items()}
    next_id = max(bags, default=-1) + 1
    pending = deque(bid for bid in bags if len(adj[bid]) > 3)
    while pending:
        x = pending.popleft()
        if len(adj[x]) <= 3:
            continue
        moved = sorted(adj[x])[2:]
        twin = next_id
        next_id += 1
        bags[twin] = bags[x]
        adj[twin] = set()
        for nb in moved:
            adj[x].discard(nb)
            adj[nb].discard(x)
            adj[nb].add(twin)
            adj[twin].add(nb)
        adj[x].add(twin)
        adj[twin].add(x)
        if len(adj[twin]) > 3:
            pending.append(twin)
    edges = [(u, v) for u in adj for v in adj[u] if u < v]
    return TreeDecomposition(sorted(bags.items()), edges)


def _components(nodes, adj):
    comps = []
    left = set(nodes)
    while left:
        start = left.pop()
        comp = {start}
        queue = deque((start,))
        while queue:
            for nb in adj[queue.popleft()]:
                if nb in left:
                    left.discard(nb)
                    comp.add(nb)
                    queue.append(nb)
        comps.append(comp)
    return comps


def _centroid(tree, adj):
    # Node minimizing the largest remaining component; ties take the
    # smallest id so splits are deterministic.
    root = min(tree)
    order = [root]
    parent = {root: None}
    for v in order:
        for nb in adj[v]:
            if nb in tree and nb not in parent:
                parent[nb] = v
                order.append(nb)
    size = {v: 1 for v in tree}
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    k = len(tree)
    best = None
    for v in order:
        worst = k - size[v]
        for nb in adj[v]:
            if nb in tree and parent.get(nb) == v:
                worst = max(worst, size[nb])
        if best is None or (worst, v) < best[:2]:
            best = (worst, v)
    return best[1]


def split_forest(nodes, adj):
    """Pick one node of a max-degree-3 forest whose removal lets the pieces
    pack into two groups of at most ceil(2k/3) nodes each (greedy, largest
    piece first). Returns (node, group1, group2)."""
    comps = _components(nodes, adj)
    if not comps:
        raise InputFormatError("cannot split an empty forest")
    biggest = max(comps, key=lambda c: (len(c), -min(c)))
    x = _centroid(biggest, adj)
    pieces = [c for c in comps if c is not biggest]
    pieces.extend(_components(biggest - {x}, adj))
    pieces.sort(key=lambda c: (-len(c), min(c)))
    bins = [set(), set()]
    sizes = [0, 0]
    for p in pieces:
        i = 0 if sizes[0] <= sizes[1] else 1
        bins[i] |= p
        sizes[i] += len(p)
    return x, frozenset(bins[0]), frozenset(bins[1])


class Formula:
    """Node of a union/Minkowski formula. Kinds: "point" (leaf at a fixed
    weight, lmask holds the forced-in elements), "empty" (infeasible leaf),
    "union", "mink". Height counts operation levels only."""

    __slots__ = ("kind", "left", "right", "weight", "lmask", "height", "size")

    def __init__(self, kind, left=None, right=None, weight=None, lmask=0):
        self.kind = kind
        self.left = left
        self.right = right
        self.weight = weight
        self.lmask = lmask
        if left is None:
            self.height = 0
            self.size = 1
        else:
            self.height = 1 + max(left.height, right.height)
            self.size = 1 + left.size + right.size


_EMPTY_F = Formula("empty")


def height_limit(n, width):
    """Guaranteed ceiling for formula height at n elements."""
    return (width + 2) * (math.log(max(n, 1), 1.5) + 4)


def selection_count(f: Formula) -> int:
    """Number of distinct leaf selections: unions add, sums pair up. Equals
    the number of lower sets when the formula came from build_formula."""
    if f.kind == "point":
        return 1
    if f.kind == "empty":
        return 0
    if f.kind == "union":
        return selection_count(f.left) + selection_count(f.right)
    return selection_count(f.left) * selection_count(f.right)


def build_formula(poset, decomp, node_budget=1_000_000) -> Formula:
    """Materialize the recursion over (live forest, assignments) as a
    formula tree. Infeasible branches collapse on the spot, so the tree
    holds only reachable states; node_budget caps runaway instances."""
    d = normalize_decomposition(decomp)
    validate_decomposition(d, poset)
    order = []
    seen = {min(d.bags)}
    queue = deque(seen)
    while queue:
        bid = queue.popleft()
        order.append(bid)
        for nb in sorted(d.adj[bid]):
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    owned = {bid: [] for bid in d.bags}
    claimed = set()
    for bid in order:
        for e in sorted(d.bags[bid], key=poset.index.get):
            if e not in claimed:
                claimed.add(e)
                owned[bid].append(poset.index[e])
    below = poset.below
    above = poset.above
    weights = poset.weights
    budget = [node_budget]

    def make(kind, left=None, right=None, weight=None, lmask=0):
        budget[0] -= 1
        if budget[0] < 0:
            raise LimitExceededError(
                f"formula exceeded the node budget of {node_budget}"
            )
        return Formula(kind, left, right, weight, lmask)

    def rec(live, lmask, umask, carry):
        if not live:
            return make("point", weight=carry, lmask=lmask)
        x, f1, f2 = split_forest(live, d.adj)
        todo = sorted(
            poset.index[e]
            for e in d.bags[x]
            if not ((lmask | umask) >> poset.index[e]) & 1
        )
        own = owned[x]

        def assign(i, lm, um):
            if i == len(todo):
                cx, cy = carry
                for e in own:
                    if lm >> e & 1:
                        cx += weights[e][0]
                        cy += weights[e][1]
                left = rec(f1, lm, um, (cx, cy))
                if left.kind == "empty":
                    return _EMPTY_F
                right = rec(f2, lm, um, (0, 0))
                if right.kind == "empty":
                    return _EMPTY_F
                return make("mink", left, right)
            e = todo[i]
            bit = 1 << e
            inb = _EMPTY_F if below[e] & um else assign(i + 1, lm | bit, um)
            out = _EMPTY_F if above[e] & lm else assign(i + 1, lm, um | bit)
            if inb.kind == "empty":
                return out
            if out.kind == "empty":
                return inb
            return make("union", inb, out)

        return assign(0, lmask, umask)

    return rec(frozenset(d.bags), 0, 0, (0, 0))


def eval_formula(f: Formula, poset, track=True) -> Polygon:
    def ev(node):
        k = node.kind
        if k == "point":
            wit = (wleaf(poset.mask_ids(node.lmask)),) if track else None
            return Polygon((node.weight,), wit)
        if k == "empty":
            return EMPTY_POLYGON
        return combine_any("u" if k == "union" else "+", ev(node.left), ev(node.right))

    return settle(ev(f))


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


def solve_treewidth(
    poset,
    decomp: TreeDecomposition | None = None,
    track=True,
    max_n=24,
    max_width=4,
    node_budget=1_000_000,
) -> Polygon:
    """Hull of the projections of all lower sets of a bounded-treewidth
    order. decomp defaults to the min-degree heuristic."""
    n = len(poset.ids)
    if n > max_n:
        raise LimitExceededError(f"instance has {n} elements, cap is {max_n}")
    if decomp is None:
        decomp = greedy_tree_decomposition(poset)
    if decomp.width > max_width:
        raise LimitExceededError(
            f"decomposition width {decomp.width}, cap is {max_width}"
        )
    f = build_formula(poset, decomp, node_budget)
    return eval_formula(f, poset, track)
