"""Self-adjusting polygon engine.

Holds a canonical polygon as two splay trees, one per hull chain, keyed by
the lex order of the vertices. Node positions are stored relative to the
parent (the root is absolute), so translating a whole subtree is a single
diff update and rotations fix positions in O(1). Each node also stores the
edge vector to its in-order successor, which lets slope and tangent searches
run root-to-leaf without touching neighbours.

The monotone searches of the union merge (new first vertex, new last vertex,
left and right tangent) all go through _first, which descends to the
leftmost node where a predicate holds, given that it holds on a suffix of
the chain. Two searches keep their own loop. _locate brackets a point from
both sides and splays the deepest node it visited, which the amortized bound
needs even when the point falls off an end. _find_slope runs once per edge
of every sum merge; an edge's slope does not depend on where it sits, so it
skips the position bookkeeping that _first carries.

Built for merges where only the smaller argument should cost: the sum merge
inserts the small polygon's edges into the big chain by slope, the union
merge inserts the small polygon's vertices and excises what they dominate.
Both recycle the larger tree and take the smaller side as its two chains of
(point, handle) pairs. combine_any reads those straight off a small Polygon,
which stays as it was, so a one- or two-vertex leaf never becomes a tree;
only a small engine is read out of its trees. Sizes live on the chains, one
vertex count each, not in the nodes: an insertion adds one, and a union cut
counts off the subtree it discards.

A consumed engine, and every subtree a union cut discards, is unlinked as it
dies: a walk over its nodes clears their parent pointers, so reference
counting frees the tree at once. Nothing the engine leaves behind needs the
cyclic GC. The walk costs what building or inserting those nodes cost.

Witnesses are carried as lazily pushed tags. A tag is (acc, cur, ep, rep):
acc is settled, cur is the pairing handle of merge epoch ep, and rep is the
oldest epoch folded in. Delivering the tag replaces a target cur of epoch
rep outright and settles an older one into acc. This is what makes sum
merges work: a vertex re-paired with a later small-chain vertex must drop
the earlier pairing, even when newer tags pile up on top before the pending
one reaches it. Epochs come from a counter on each engine, one per tagging
operation. Tags are only ever compared inside one tree's lineage: a merge
reads the smaller side out as plain handles and keeps tagging the larger
tree with the larger tree's counter, so an incoming tag is never older than
a stored one.

The module-level rotation counter feeds the performance checks; every single
rotation counts once, added up per splay.
"""

from __future__ import annotations

from .polygon import EMPTY_POLYGON, Polygon, _chains
from .polygon import hull_union as _kernel_union
from .polygon import minkowski_sum as _kernel_minkowski
from .witness import wunion

STEPS = 0


def splay_steps():
    return STEPS


def reset_splay_steps():
    global STEPS
    STEPS = 0


class _Node:
    __slots__ = (
        "par", "left", "right",
        "dx", "dy",          # position relative to parent; absolute at root
        "ex", "ey",          # edge vector to in-order successor; ex None at the last node
        "base",              # own witness handle
        "tacc", "tcur", "tep",        # tag applied to this vertex
        "pacc", "pcur", "pep", "prep",  # tag owed to the children
    )

    def __init__(self, dx, dy, base=None):
        self.par = self.left = self.right = None
        self.dx = dx
        self.dy = dy
        self.ex = None
        self.ey = 0
        self.base = base
        self.tacc = self.tcur = None
        self.tep = -1
        self.pacc = self.pcur = None
        self.pep = self.prep = -1


def _tag(n, acc, cur, ep, rep):
    """Apply a tag to a subtree root: fold into the node's own state and
    compose onto the tag owed to its children. A stored cur of epoch rep is
    replaced, an older one is settled into acc. Everything below the node
    carries an epoch <= rep, so composition keeps the stored rep."""
    if n.tep == rep:
        n.tacc = wunion(n.tacc, acc)
    else:
        n.tacc = wunion(wunion(n.tacc, n.tcur), acc)
    n.tcur = cur
    n.tep = ep
    if n.pep < 0:
        n.pacc, n.pcur, n.pep, n.prep = acc, cur, ep, rep
    else:
        if n.pep == rep:
            n.pacc = wunion(n.pacc, acc)
        else:
            n.pacc = wunion(wunion(n.pacc, n.pcur), acc)
        n.pcur, n.pep = cur, ep


def _push(n):
    if n.pep >= 0:
        l, r = n.left, n.right
        if l is not None:
            _tag(l, n.pacc, n.pcur, n.pep, n.prep)
        if r is not None:
            _tag(r, n.pacc, n.pcur, n.pep, n.prep)
        n.pacc = n.pcur = None
        n.pep = n.prep = -1


def _handle(n):
    """Effective witness handle of a vertex (base plus settled and live tag)."""
    return wunion(n.base, wunion(n.tacc, n.tcur))


def _rotate(x):
    """Single rotation moving x above its parent, fixing relative positions:
    x picks up the parent's offset, the parent becomes relative to x, and the
    transplanted middle subtree keeps its absolute position."""
    p = x.par
    g = p.par
    xdx, xdy = x.dx, x.dy
    if p.left is x:
        b = x.right
        p.left = b
        x.right = p
    else:
        b = x.left
        p.right = b
        x.left = p
    if b is not None:
        b.par = p
        b.dx += xdx
        b.dy += xdy
    x.dx += p.dx
    x.dy += p.dy
    p.dx = -xdx
    p.dy = -xdy
    x.par = g
    p.par = x
    if g is not None:
        if g.left is p:
            g.left = x
        else:
            g.right = x


def _splay(ch, x, until=None):
    """Splay x upward until its parent is `until` (None: to the root).
    The access path must already be pushed, which every search guarantees."""
    global STEPS
    steps = 0
    while x.par is not until:
        p = x.par
        g = p.par
        if g is until:
            _rotate(x)
            steps += 1
        elif (g.left is p) == (p.left is x):
            _rotate(p)
            _rotate(x)
            steps += 2
        else:
            _rotate(x)
            _rotate(x)
            steps += 2
    STEPS += steps
    if until is None:
        ch.root = x


class _Chain:
    __slots__ = ("root", "n")

    def __init__(self, root, n):
        self.root = root
        self.n = n  # vertex count


def _build(items, lo, hi, pax, pay, par):
    """Balanced subtree over items[lo:hi], positioned relative to (pax, pay)."""
    if lo >= hi:
        return None
    mid = (lo + hi) // 2
    (x, y), base = items[mid]
    node = _Node(x - pax, y - pay, base)
    node.par = par
    if mid + 1 < len(items):
        nx, ny = items[mid + 1][0]
        node.ex = nx - x
        node.ey = ny - y
    node.left = _build(items, lo, mid, x, y, node)
    node.right = _build(items, mid + 1, hi, x, y, node)
    return node


def _build_chain(items):
    """Balanced tree from lex-sorted (point, handle) pairs."""
    return _Chain(_build(items, 0, len(items), 0, 0, None), len(items))


def _unlink(n):
    """Clear the parent pointers of the subtree at node n, so that reference
    counting frees it once nothing outside points in; returns its size."""
    count = 0
    stack = [n]
    while stack:
        n = stack.pop()
        n.par = None
        count += 1
        if n.left is not None:
            stack.append(n.left)
        if n.right is not None:
            stack.append(n.right)
    return count


def _chain_list(ch):
    """The chain's vertices in order as (point, handle) pairs, the kernel's
    chain format; pushes tags on the way down."""
    out = []
    stack = []
    n = ch.root
    ax = ay = 0
    while n is not None or stack:
        while n is not None:
            _push(n)
            x = ax + n.dx
            y = ay + n.dy
            stack.append((n, x, y))
            ax, ay = x, y
            n = n.left
        n, x, y = stack.pop()
        out.append(((x, y), _handle(n)))
        ax, ay = x, y
        n = n.right
    return out


class SplayPolygon:
    """Mutable polygon with splay-tree chains. Create via from_polygon;
    combine_any and settle consume it."""

    __slots__ = ("lo", "up", "track", "dead", "epoch")

    def __init__(self, lo, up, track):
        self.lo = lo
        self.up = up
        self.track = track
        self.dead = False
        self.epoch = 0  # last tagging epoch used on these trees

    @classmethod
    def from_polygon(cls, poly: Polygon):
        """Engine holding poly; it tracks witnesses exactly when poly has them."""
        track = poly.wit is not None
        if poly.is_empty:
            return cls(None, None, track)
        lo, up = _chains(poly, track)
        return cls(_build_chain(lo), _build_chain(up), track)

    @property
    def count(self):
        if self.lo is None:
            return 0
        ls = self.lo.n
        return 1 if ls == 1 else ls + self.up.n - 2

    def _check(self):
        if self.dead:
            raise RuntimeError("polygon was consumed by a merge")

    def _consume(self):
        """Lower and upper chains as lists of (point, handle) pairs, the
        kernel's chain format, with the engine marked consumed. Its trees
        are unlinked and dropped, so reference counting frees them at once
        instead of leaving parent-pointer cycles to the cyclic GC."""
        self._check()
        chains = [], []
        if self.lo is not None:
            chains = _chain_list(self.lo), _chain_list(self.up)
            _unlink(self.lo.root)
            _unlink(self.up.root)
        self.lo = self.up = None
        self.dead = True
        return chains

    def translate(self, d, tag=None):
        self._check()
        if self.lo is None:
            return self
        dx, dy = d
        if self.track and tag is not None:
            self.epoch += 1
            ep = self.epoch
            _tag(self.lo.root, tag, None, ep, ep)
            _tag(self.up.root, tag, None, ep, ep)
        for ch in (self.lo, self.up):
            ch.root.dx += dx
            ch.root.dy += dy
        return self


def _polygon(low, upp, track):
    """Polygon from its lower and upper (point, handle) chains."""
    if not low:
        return EMPTY_POLYGON
    assert low[0][0] == upp[0][0] and low[-1][0] == upp[-1][0]
    seq = low + upp[1:-1][::-1]
    return Polygon([p for p, _ in seq], [h for _, h in seq] if track else None)


def _find_slope(ch, dx, dy, sign):
    """First in-order node whose outgoing edge reaches slope (dx, dy) for a
    sum merge: lower chains (sign +1) stop at cross(e, d) <= 0, upper chains
    (sign -1) at >= 0. The edgeless last node always matches. Splays and
    returns the match."""
    n = ch.root
    best = None
    while n is not None:
        _push(n)
        if n.ex is None or sign * (n.ex * dy - n.ey * dx) <= 0:
            best = n
            n = n.left
        else:
            n = n.right
    _splay(ch, best)
    return best


def _mink_chain(ch, small, sign, ep, track):
    """Fold the edges of a small chain into a big one, in slope order.
    small: lex-sorted (point, handle) pairs of the same side."""
    (px, py), sh = small[0]
    root = ch.root
    if track:
        _tag(root, None, sh, ep, ep)
    root.dx += px
    root.dy += py
    for j in range(1, len(small)):
        (vx, vy), vh = small[j]
        dx, dy = vx - px, vy - py
        px, py = vx, vy
        u = _find_slope(ch, dx, dy, sign)
        r = u.right
        if u.ex is not None and sign * (u.ex * dy - u.ey * dx) == 0:
            # parallel edges fuse; everything after shifts and re-pairs
            u.ex += dx
            u.ey += dy
            r.dx += dx
            r.dy += dy
            if track:
                _tag(r, None, vh, ep, ep)
        else:
            w = _Node(dx, dy)
            if track:
                # inherit only the big-side witness; the pairing handle goes
                # in the tag slot so a later extension at w does not bake it in
                w.base = wunion(u.base, u.tacc)
                w.tcur = vh
                w.tep = ep
            w.ex, w.ey = u.ex, u.ey
            u.ex, u.ey = dx, dy
            w.right = r
            if r is not None:
                # r's new parent sits exactly d above u, so r.dx/dy stand
                r.par = w
                if track:
                    _tag(r, None, vh, ep, ep)
            w.par = u
            u.right = w
            ch.n += 1


def _first(n, ax, ay, hit):
    """Leftmost node at or below n where hit(node, x, y) holds, for a
    predicate that holds on a suffix of the in-order sequence; (ax, ay) is
    the absolute position of n's parent, (0, 0) at the root. Pushes tags on
    the way down and returns (node, x, y), node None when hit holds nowhere."""
    best = None
    bx = by = 0
    while n is not None:
        _push(n)
        x = ax + n.dx
        y = ay + n.dy
        if hit(n, x, y):
            best, bx, by = n, x, y
            n = n.left
        else:
            n = n.right
        ax, ay = x, y
    return best, bx, by


def _locate(ch, vx, vy):
    """Bracket (vx, vy) in the chain: returns (pred, px, py, succ, sx, sy)
    with None sides when v falls off an end; splays whichever side exists.
    An exact coordinate match comes back as succ."""
    n = ch.root
    ax = ay = 0
    pred = succ = None
    ppx = ppy = ssx = ssy = 0
    last = None
    while n is not None:
        _push(n)
        x = ax + n.dx
        y = ay + n.dy
        last = n
        if (x, y) < (vx, vy):
            pred, ppx, ppy = n, x, y
            nxt = n.right
        else:
            succ, ssx, ssy = n, x, y
            nxt = n.left
        if nxt is None:
            break
        ax, ay = x, y
        n = nxt
    if last is not None:
        _splay(ch, last)
    return pred, ppx, ppy, succ, ssx, ssy


def _cut_left(ch, q):
    """Discard q's left subtree, the vertices just before q, and count them
    off ch; the walk that counts them is paid for by their insertion."""
    gone = q.left
    if gone is not None:
        q.left = None
        ch.n -= _unlink(gone)


def _cut_right(ch, q):
    gone = q.right
    if gone is not None:
        q.right = None
        ch.n -= _unlink(gone)


def _hang_left(ch, q, qx, qy, vx, vy, handle):
    """Hang a new vertex v at (vx, vy) as q's empty left child, so it comes
    right before q in order."""
    w = _Node(vx - qx, vy - qy, handle)
    w.ex, w.ey = qx - vx, qy - vy
    w.par = q
    q.left = w
    ch.n += 1


def _union_insert(ch, vx, vy, handle, sign):
    """Insert one vertex into a chain hull, excising what it dominates.
    sign +1 keeps the lower hull, -1 the upper. No-op when dominated."""

    # Both predicates read the side of v against the line of a node's
    # outgoing edge: a node keeps a convex turn toward v, or v cuts it away.
    # The edgeless last node satisfies both.
    def keeps(n, x, y):
        return n.ex is None or sign * (n.ex * (vy - y) - n.ey * (vx - x)) > 0

    def cuts(n, x, y):
        return n.ex is None or sign * (n.ex * (vy - y) - n.ey * (vx - x)) <= 0

    pred, ppx, ppy, succ, ssx, ssy = _locate(ch, vx, vy)
    if succ is not None and ssx == vx and ssy == vy:
        return  # coincident vertex: keep the existing witness
    if pred is None:
        # new first vertex: it links to the first node that keeps
        q, qx, qy = _first(ch.root, 0, 0, keeps)
        _splay(ch, q)
        _cut_left(ch, q)
        _hang_left(ch, q, qx, qy, vx, vy, handle)
        return
    if succ is None:
        # new last vertex: cut from the first node that v cuts
        q, qx, qy = _first(ch.root, 0, 0, cuts)
        _splay(ch, q)
        _cut_right(ch, q)
        w = _Node(vx - qx, vy - qy, handle)
        q.ex, q.ey = vx - qx, vy - qy
        w.par = q
        q.right = w
        ch.n += 1
        return
    # bracketed: strict side test against the spanning edge
    c = (ssx - ppx) * (vy - ppy) - (ssy - ppy) * (vx - ppx)
    if sign * c >= 0:
        return  # above the lower chain / below the upper chain / collinear
    # The edges whose lines have v on the cut side form one contiguous block
    # around the bracketing edge. The cut-side predicate is only monotone on
    # either side of that edge, so anchor the tangent searches at pred.
    _splay(ch, pred)
    lt, ltx, lty = _first(pred.left, ppx, ppy, cuts)
    if lt is None:
        lt, ltx, lty = pred, ppx, ppy
    else:
        _splay(ch, lt)
    rt, rtx, rty = _first(lt.right, ltx, lty, keeps)
    _splay(ch, rt, until=lt)
    _cut_left(ch, rt)
    _hang_left(ch, rt, rtx, rty, vx, vy, handle)
    lt.ex, lt.ey = vx - ltx, vy - lty


def _sum_into(a, lo, up, track):
    """Minkowski sum of engine a and the polygon with lex-sorted (point,
    handle) chains lo and up, in place: costs O(log |a|) per edge of the
    added polygon. Returns a."""
    a.epoch += 1
    ep = a.epoch
    _mink_chain(a.lo, lo, 1, ep, track)
    _mink_chain(a.up, up, -1, ep, track)
    a.track = track
    return a


def _union_into(a, lo, up, track):
    """Hull of the union of engine a and the polygon with chains lo and up,
    in place, one vertex insertion each. Returns a."""
    for (x, y), h in lo:
        _union_insert(a.lo, x, y, h if track else None, 1)
    for (x, y), h in up:
        _union_insert(a.up, x, y, h if track else None, -1)
    a.track = track
    return a


# A merge whose operands' vertex counts are within this factor of each other
# goes through the plain kernel, costing at most (_RATIO + 1) times the
# smaller side; anything more lopsided goes to the engine.
_RATIO = 4


def _size(x):
    if isinstance(x, Polygon):
        return len(x)
    x._check()
    return x.count


def _tracks(x):
    return x.wit is not None if isinstance(x, Polygon) else x.track


def settle(x) -> Polygon:
    """Plain polygon of a merge operand or result. An engine is consumed,
    and its trees are freed on the spot."""
    if isinstance(x, Polygon):
        return x
    return _polygon(*x._consume(), x.track)


def combine_any(kind, a, b):
    """Merge two results that may each be a plain Polygon or an engine; the
    one place that picks between the kernel and the engine. kind: "+" for
    Minkowski sum, "u" for hull of union.

    Operands of comparable vertex count (within _RATIO) are merged by the
    kernel, reading out any engine; a lopsided pair is merged smaller-into-
    larger by the engine. Only the larger operand is promoted to an engine
    when it is a Polygon; the smaller one is read as its two chains, straight
    from a Polygon or by consuming an engine. So the work of every merge is
    charged to its smaller side, as in Carlson-Eppstein's subtree merges. An
    empty operand empties a sum and drops out of a union without touching
    the other side. Engine operands are consumed; Polygons are never
    changed. The result carries witnesses only when both operands do."""
    na, nb = _size(a), _size(b)
    if na == 0 or nb == 0:
        keep = EMPTY_POLYGON if kind == "+" else (b if na == 0 else a)
        for x in (a, b):
            if x is not keep and not isinstance(x, Polygon):
                x._consume()
        return keep
    if max(na, nb) <= _RATIO * min(na, nb):
        op = _kernel_minkowski if kind == "+" else _kernel_union
        return op(settle(a), settle(b))
    if na < nb:
        a, b = b, a
    track = _tracks(a) and _tracks(b)
    lo, up = _chains(b, track) if isinstance(b, Polygon) else b._consume()
    if isinstance(a, Polygon):
        a = SplayPolygon.from_polygon(a)
    return (_sum_into if kind == "+" else _union_into)(a, lo, up, track)
