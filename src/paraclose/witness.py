"""Shared witness DAG.

A witness names the lower set that a polygon vertex came from. Merges combine
witnesses of existing vertices thousands of times, so witnesses are kept as
nodes in a shared DAG (leaf = explicit id set, union = disjoint combination)
and only expanded to concrete id sets on demand.

A run of growing sets, such as the prefixes of a sequence, is one chain:
chain(handles) gives the unions of handles[:k] for every k, each one node over
the previous, so all of them together cost as many nodes as there are handles.
The semiorder's prefix hull and the width-2 solver's chain prefixes are built
this way.

A segment zonotope's vertex witnesses are the unions of four such chains
(see WZonotope), but most of a zonotope's vertices die in the next hull
union, so they are built only when first expanded. The zonotope keeps one
WZonotope record of its groups' ids, and each vertex the O(1) lazy handle
(record, j), a tuple. wunion and the merges hold lazy handles like any
other; expand_all builds a record's chains the first time its walk reaches
one of the record's handles, and a zonotope none of whose vertices survive
is never built.

All the handles of one polygon (or profile) are expanded together by
expand_all: one postorder walk over the DAG they share gives every id one bit
and every node the OR of its children's masks, each node computed once for
all handles. With N distinct ids that is one N-bit OR per DAG node and one
N-bit scan per handle, and the sorted id lists fall out of the bit order
without a sort per handle.

The canonical id order, the one every payload lists ids in, is id_key's:
by type name, then by value, so that int and str ids can share a list.
A witness read back from a payload (read_leaf) is usually in that order
already: a list of ints, or of strs, that strictly increases. Such a list
is kept as an ordered leaf, its ids a tuple in canonical order rather than
a set, and expand_all hands it back as it is, with no walk, rank or sort.
"""

from __future__ import annotations

from itertools import chain as _chain, compress, islice
from operator import lt


def id_key(x):
    """Sort key of the canonical id order: type name, then value."""
    return (x.__class__.__name__, x)


class WLeaf:
    """Leaf of explicit ids: a frozenset, or for an ordered leaf a tuple in
    canonical id order without repeats."""

    __slots__ = ("ids",)

    def __init__(self, ids):
        self.ids = ids


class WUnion:
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


EMPTY = WLeaf(frozenset())


def wleaf(ids) -> WLeaf:
    ids = frozenset(ids)
    return EMPTY if not ids else WLeaf(ids)


_ORDERED_TYPES = ({int}, {str})


def read_leaf(ids):
    """Leaf of a witness read from JSON, which must be a list of ids
    (TypeError otherwise, or for an unhashable id). A list of ints or of
    strs (bools do not count) that strictly increases is already in
    canonical order and becomes an ordered leaf; any other list a set."""
    if not isinstance(ids, (list, tuple)):
        raise TypeError("a witness must be a list of ids")
    if not ids:
        return EMPTY
    if set(map(type, ids)) in _ORDERED_TYPES and all(map(lt, ids, islice(ids, 1, None))):
        return WLeaf(tuple(ids))
    return wleaf(ids)


def _is_ordered_leaf(h):
    return type(h) is WLeaf and type(h.ids) is tuple


def wunion(a, b):
    """Combine two witness handles. None (tracking disabled) passes through."""
    if a is None:
        return b
    if b is None:
        return a
    if a is EMPTY:
        return b
    if b is EMPTY:
        return a
    return WUnion(a, b)


def chain(handles) -> list:
    """Handles of the unions of handles[:k] for k = 0..len(handles), each
    one node over the one before: n + 1 handles in O(n) nodes rather than
    O(n^2) ids."""
    out = [EMPTY]
    for h in handles:
        out.append(wunion(out[-1], h))
    return out


class WZonotope:
    """The witnesses of one segment zonotope's 2m vertices, kept as its m
    parallel groups' ids until first expanded.

    A forward step over group j takes its kept generators K_j and drops its
    flipped ones F_j; a backward step does the reverse. So forward vertex j
    holds K_0..K_{j-1} and F_j..F_{m-1}, and backward vertex m + j holds
    K_j..K_{m-1} and F_0..F_{j-1}: one union of a prefix and a suffix
    chain each, O(m) nodes for all of them.
    """

    __slots__ = ("kept", "flip", "wits")

    def __init__(self, kept, flip):
        self.kept = kept  # per group, the ids of its kept generators
        self.flip = flip  # and of its flipped ones
        self.wits = None

    def handles(self) -> list:
        """The lazy handles (record, j) of the vertices, in vertex order."""
        n = 2 * len(self.kept) if self.wits is None else len(self.wits)
        return [(self, j) for j in range(n)]

    def build(self) -> list:
        """The vertices' witness nodes, built on the first call."""
        if self.wits is None:
            kept = [wleaf(k) for k in self.kept]
            flip = [wleaf(f) for f in self.flip]
            kpre, fpre = chain(kept), chain(flip)
            ksuf, fsuf = chain(reversed(kept))[::-1], chain(reversed(flip))[::-1]
            m = len(kept)
            wits = [wunion(a, b) for a, b in zip(kpre[:m], fsuf)]
            wits += [wunion(a, b) for a, b in zip(ksuf[:m], fpre)]
            self.wits = wits
            self.kept = self.flip = None  # the leaves hold the ids now
        return self.wits


def resolve(h):
    """The witness node a handle stands for: a lazy handle's built node,
    any other handle itself."""
    return h[0].build()[h[1]] if type(h) is tuple else h


def prefix_tags(items) -> list:
    """Handles of the prefixes items[:k] for k = 0..len(items)."""
    return chain(wleaf((x,)) for x in items)


# '0'/'1' digits of bin() to the 0/1 bytes that compress() selects on
_BITS = bytes.maketrans(b"01", b"\x00\x01")


def expand_all(handles, ordered=False):
    """Resolve witness handles to the id sets they denote, in one pass.

    Each handle comes back as a frozenset (ids need not be orderable), or
    with ordered=True as a list in canonical id order (id_key). None
    handles come back as None, and ordered leaves as their own ids, read
    through. The DAG under all other handles is walked once: every id gets
    one bit (in canonical order, or first-seen order if not ordered),
    every node the OR of its children's masks, and a node's mask is
    dropped as soon as the last node or handle that reads it has done so.
    Lazy zonotope handles are built as the walk reaches them, and a union
    over one is repointed at the built node, which denotes the same set.
    """
    handles = [resolve(h) for h in handles]
    # refs[id(node)]: parents in the DAG plus handle slots still to read it
    refs: dict[int, int] = {}
    post = []  # every node under the handles once, children before parents
    expanded = set()
    for h in handles:
        if h is None or _is_ordered_leaf(h):
            continue
        refs[id(h)] = refs.get(id(h), 0) + 1
        stack = [h]
        while stack:
            cur = stack.pop()
            if type(cur) is tuple:  # all of cur[0]'s children are in post
                post.append(cur[0])
                continue
            if id(cur) in expanded:
                continue
            expanded.add(id(cur))
            if type(cur) is WLeaf:
                post.append(cur)
                continue
            stack.append((cur,))
            if type(cur.left) is tuple:
                cur.left = resolve(cur.left)
            if type(cur.right) is tuple:
                cur.right = resolve(cur.right)
            for c in (cur.left, cur.right):
                refs[id(c)] = refs.get(id(c), 0) + 1
                # pushed again even if already waiting lower in the stack,
                # so that it is finished before cur
                if id(c) not in expanded:
                    stack.append(c)

    # ranked by id_key(x) == (type name, x), not by x: ids equal across
    # types (1, True, 1.0) must not share one rank
    leaf_keys = [[id_key(x) for x in n.ids] for n in post if type(n) is WLeaf]
    distinct = dict.fromkeys(_chain.from_iterable(leaf_keys))
    ranked = sorted(distinct) if ordered else list(distinct)
    rank = {k: i for i, k in enumerate(ranked)}
    ranked = [k[1] for k in ranked]

    masks: dict[int, int] = {}
    keys = iter(leaf_keys)
    for n in post:
        if type(n) is WLeaf:
            masks[id(n)] = _leaf_mask([rank[k] for k in next(keys)])
            continue
        masks[id(n)] = masks[id(n.left)] | masks[id(n.right)]
        for c in (id(n.left), id(n.right)):
            refs[c] -= 1
            if not refs[c]:
                del masks[c]

    convert = list if ordered else frozenset
    out = []
    for h in handles:
        if h is None:
            out.append(None)
            continue
        if _is_ordered_leaf(h):
            out.append(convert(h.ids))
            continue
        bits = bin(masks[id(h)])[:1:-1].encode().translate(_BITS)
        out.append(convert(compress(ranked, bits)))
        refs[id(h)] -= 1
        if not refs[id(h)]:
            del masks[id(h)]
    return out


def _leaf_mask(ranks):
    if len(ranks) == 1:
        return 1 << ranks[0]
    if not ranks:
        return 0
    digits = bytearray(b"0") * (max(ranks) + 1)
    for r in ranks:
        digits[r] = 49  # ord("1")
    return int(digits[::-1], 2)
