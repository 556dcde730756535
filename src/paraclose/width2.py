"""Orders of width at most two via a two-chain grid of lower sets.

The two chains come from 2-colouring the incomparability graph, built on
the fly from the order's closure bitmasks. An order of width at most two
has no three-element antichain, so that graph has no triangle; it is
perfect, so it is bipartite, and each colour class is a chain. A failed
colouring yields an odd cycle, whose elements hold a three-element
antichain. The work is O(n^2 / 64) machine words of mask operations.

With the elements split into two chains, every lower set is a pair of
chain prefixes, so lower sets become points (x, y) of an integer grid,
and the feasible points form a staircase-bounded, orthogonally convex
region. A quadtree carves that region into maximal fully feasible
squares. Inside one square the x and y choices are independent, so its
hull is a Minkowski sum of two precomputed chain-prefix hulls shifted by
the square's corner set. One global hull over all square vertices
finishes the job.

Chain-prefix hulls are precomputed per power-of-two interval, bottom-up:
the hull over an interval is the hull_union of its left half with the
right half translated by the left half's total weight. An interval of k
prefix values never carries more than k + 1 hull vertices.
"""

from __future__ import annotations

from .errors import StructureError
from .polygon import hull_of_points, hull_union, minkowski_sum, point
from .witness import EMPTY, prefix_tags, wleaf, wunion

# Emitted squares of side s hug two monotone staircases plus the grid
# edge, so per side the count stays linear in N/s. Margins picked from
# measured worst cases, with the spread asserted on every run.
SQUARE_COEFF = 9
SQUARE_SLACK = 10


class ChainDecomposition:
    """Two chains partitioning the elements, each listed bottom-up.
    position maps an element id to (chain number, index)."""

    __slots__ = ("chain1", "chain2", "position")

    def __init__(self, chain1, chain2):
        self.chain1 = tuple(chain1)
        self.chain2 = tuple(chain2)
        self.position = {}
        for num, chain in ((1, self.chain1), (2, self.chain2)):
            for k, e in enumerate(chain):
                if e in self.position:
                    raise StructureError(f"element {e!r} appears in both chains")
                self.position[e] = (num, k)


def chain_partition_width2(poset) -> ChainDecomposition:
    """Partition into two chains by 2-colouring the incomparability graph.

    The graph joins u and v when neither is below the other; one BFS over
    it colours by level parity, each step a few big-int mask operations
    on the closure masks. A colour class holds no incomparable pair, so
    it is a chain, and elements in different components are comparable,
    so the classes join across components into two chains, each listed
    in topological order.

    A same-colour edge closes an odd cycle. Incomparability graphs are
    perfect, so a shortest odd cycle is a triangle: a three-element
    antichain, raised as the witness of a StructureError."""
    n = len(poset.ids)
    full = (1 << n) - 1
    colour = [0] * n
    parent = [-1] * n
    side = [0, 0]
    unseen = full
    for start in poset._topo:
        if not unseen >> start & 1:
            continue
        unseen ^= 1 << start
        side[0] |= 1 << start
        queue = [start]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            c = colour[v]
            inc = _incomparable(poset, v, full)
            clash = inc & side[c]
            if clash:
                u = (clash & -clash).bit_length() - 1
                raise StructureError(
                    "order has width above two",
                    witness=_antichain_witness(poset, _odd_cycle(parent, u, v)),
                )
            new = inc & unseen
            unseen ^= new
            side[1 - c] |= new
            while new:
                u = (new & -new).bit_length() - 1
                new &= new - 1
                colour[u] = 1 - c
                parent[u] = v
                queue.append(u)
    chains = ([], [])
    for v in poset._topo:
        chains[colour[v]].append(poset.ids[v])
    return ChainDecomposition(*chains)


def _incomparable(poset, v, full):
    return full ^ (poset.below[v] | poset.above[v] | 1 << v)


def _odd_cycle(parent, u, v):
    # same colour means same BFS level, so the tree paths up from u and v
    # meet at one ancestor and the edge u-v closes an odd cycle
    left, right = [u], [v]
    while left[-1] != right[-1]:
        left.append(parent[left[-1]])
        right.append(parent[right[-1]])
    return left + right[-2::-1]


def _antichain_witness(poset, cycle):
    # The cycle's elements induce a perfect graph holding an odd cycle,
    # hence a triangle; one mask intersection per incomparable pair finds it.
    full = (1 << len(poset.ids)) - 1
    on_cycle = 0
    for v in cycle:
        on_cycle |= 1 << v
    for x in cycle:
        near = _incomparable(poset, x, full) & on_cycle
        rest = near
        while rest:
            y = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            common = near & _incomparable(poset, y, full)
            if common:
                z = (common & -common).bit_length() - 1
                return tuple(poset.ids[v] for v in sorted((x, y, z)))
    raise AssertionError("odd cycle of incomparable elements without a triangle")


class GridRegion:
    """Feasible grid points (x, y): take x elements of chain1 and y of
    chain2. Per column the feasible y values are the interval
    [lo[x], hi[x]]; both bounds are nondecreasing, never empty."""

    __slots__ = ("lo", "hi", "n1", "n2")

    def __init__(self, lo, hi):
        self.lo = tuple(lo)
        self.hi = tuple(hi)
        self.n1 = len(lo) - 1
        self.n2 = max(hi) if hi else 0

    def feasible(self, x, y):
        return 0 <= x <= self.n1 and self.lo[x] <= y <= self.hi[x]


def feasible_region(poset, chains: ChainDecomposition) -> GridRegion:
    if len(chains.position) != len(poset.ids) or any(
        e not in chains.position for e in poset.ids
    ):
        raise StructureError("chains do not partition the elements")
    for chain in (chains.chain1, chains.chain2):
        for a, b in zip(chain, chain[1:]):
            if not poset.less(a, b):
                raise StructureError(f"chain entries {a!r}, {b!r} out of order")
    mask1 = mask2 = 0
    for e in chains.chain1:
        mask1 |= 1 << poset.index[e]
    for e in chains.chain2:
        mask2 |= 1 << poset.index[e]
    n1, n2 = len(chains.chain1), len(chains.chain2)
    lo = [0] * (n1 + 1)
    for x in range(1, n1 + 1):
        r = bin(poset.below[poset.index[chains.chain1[x - 1]]] & mask2).count("1")
        lo[x] = max(lo[x - 1], r)
    need = [0] * (n2 + 1)
    for y in range(1, n2 + 1):
        r = bin(poset.below[poset.index[chains.chain2[y - 1]]] & mask1).count("1")
        need[y] = max(need[y - 1], r)
    hi = [0] * (n1 + 1)
    y = 0
    for x in range(n1 + 1):
        while y < n2 and need[y + 1] <= x:
            y += 1
        hi[x] = y
    return GridRegion(lo, hi)


def quadtree_squares(region: GridRegion, size):
    """Maximal fully feasible power-of-two squares covering the region:
    emit whole, or subdivide, or drop when no point qualifies. Yields
    (x, y, side) triples; together they tile the feasible points exactly."""
    n1, n2 = region.n1, region.n2
    lo, hi = region.lo, region.hi
    stack = [(0, 0, size)]
    while stack:
        a, b, s = stack.pop()
        if a > n1 or b > n2:
            continue
        top = min(a + s - 1, n1)
        if lo[a] > b + s - 1 or hi[top] < b:
            continue
        if a + s - 1 <= n1 and b + s - 1 <= n2 and lo[a + s - 1] <= b and hi[a] >= b + s - 1:
            yield (a, b, s)
            continue
        h = s // 2
        stack.extend(
            ((a, b, h), (a + h, b, h), (a, b + h, h), (a + h, b + h, h))
        )


def _prefix_points(poset, chain):
    pts = [(0, 0)]
    for e in chain:
        w = poset.weights[poset.index[e]]
        pts.append((pts[-1][0] + w[0], pts[-1][1] + w[1]))
    return pts


def _chain_tables(poset, chain, pts, size, track):
    """tables[lvl][t]: hull of the prefix points over the value interval
    [t*2^lvl, (t+1)*2^lvl - 1], relative to its first point, witnesses
    naming the chain slice taken."""
    m = len(chain)
    base = point((0, 0), EMPTY if track else None)
    tables = [[base] * (m + 1)]
    lvl = 1
    while (1 << lvl) <= size:
        s = 1 << lvl
        prev = tables[-1]
        row = []
        for t in range((m + 1) // s):
            a, mid = t * s, t * s + s // 2
            d = (pts[mid][0] - pts[a][0], pts[mid][1] - pts[a][1])
            tag = wleaf(chain[a:mid]) if track else None
            row.append(hull_union(prev[2 * t], prev[2 * t + 1].translate(d, tag)))
        tables.append(row)
        lvl += 1
    return tables


def solve_width2(poset, track=True):
    """Hull of the projections of all lower sets of a width-2 order."""
    chains = chain_partition_width2(poset)
    return solve_width2_chains(poset, chains, track)


def solve_width2_chains(poset, chains: ChainDecomposition, track=True):
    region = feasible_region(poset, chains)
    n1, n2 = region.n1, region.n2
    size = 1
    while size < max(n1, n2) + 1:
        size *= 2
    p1 = _prefix_points(poset, chains.chain1)
    p2 = _prefix_points(poset, chains.chain2)
    tab1 = _chain_tables(poset, chains.chain1, p1, size, track)
    tab2 = _chain_tables(poset, chains.chain2, p2, size, track)
    pre1 = pre2 = None
    if track:
        pre1 = prefix_tags(chains.chain1)
        pre2 = prefix_tags(chains.chain2)
    pts = []
    wits = [] if track else None
    counts = {}
    for a, b, s in quadtree_squares(region, size):
        counts[s] = counts.get(s, 0) + 1
        lvl = s.bit_length() - 1
        sq = minkowski_sum(tab1[lvl][a >> lvl], tab2[lvl][b >> lvl])
        d = (p1[a][0] + p2[b][0], p1[a][1] + p2[b][1])
        sq = sq.translate(d, wunion(pre1[a], pre2[b]) if track else None)
        pts.extend(sq.vertices)
        if track:
            wits.extend(sq.wit)
    for s, c in counts.items():
        assert c <= SQUARE_COEFF * (size // s) + SQUARE_SLACK, (
            f"{c} squares of side {s} on a grid of {size}"
        )
    return hull_of_points(pts, wits)
