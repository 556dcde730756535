"""Series-parallel weighted orders solved by merging splay polygons.

A series composition puts every left element below every right element, so
its lower sets are the left lower sets plus "all of the left, then a right
lower set": hull of the union with the right polygon translated by the left
total weight. A parallel composition has independent sides: Minkowski sum.
Merges always feed the smaller polygon into the larger, which is what keeps
the whole build near-linear.

Decomposition trees here are strictly binary; n-ary input lists are folded
into right-leaning chains (both compositions are associative, so the result
does not depend on that choice).
"""

from __future__ import annotations

from .errors import InputFormatError
from .gcpause import gc_paused
from .polygon import Polygon
from .poset import Poset, _check_id, _check_list, _check_weight
from .splay import combine_any, settle
from .witness import EMPTY, wleaf, wunion

LEAF = "leaf"
SERIES = "series"
PARALLEL = "parallel"


class SPTree:
    """One node of a series-parallel decomposition tree. Leaves carry an
    element id and weight, the weight checked here (InputFormatError unless
    it is a pair of integers) and kept as a tuple; internal nodes cache
    subtree element count and total weight so series translation offsets
    are O(1)."""

    __slots__ = ("kind", "left", "right", "id", "weight", "count", "total")

    def __init__(self, kind, left=None, right=None, id=None, weight=None):
        self.kind = kind
        self.left = left
        self.right = right
        self.id = id
        if kind == LEAF:
            self.weight = self.total = _check_weight(weight, ("leaf", id))
            self.count = 1
        else:
            self.weight = weight
            self.count = left.count + right.count
            self.total = (left.total[0] + right.total[0],
                          left.total[1] + right.total[1])


def leaf(id, weight):
    return SPTree(LEAF, id=id, weight=weight)


def series(left, right):
    return SPTree(SERIES, left, right)


def parallel(left, right):
    return SPTree(PARALLEL, left, right)


def _fold_nary(kind, children):
    node = children[-1]
    for child in reversed(children[:-1]):
        node = SPTree(kind, child, node)
    return node


def parse_sp(data):
    """Read a decomposition tree from parsed JSON. Nodes are
    {"leaf": {"id":…, "weight":[a,b]}}, {"series":[…]} or {"parallel":[…]};
    composition lists may have any length >= 1."""
    seen = set()
    # iterative: JSON nesting may be deep for chain-shaped orders
    stack = [(data, None)]
    done = {}
    while stack:
        node, state = stack.pop()
        if not isinstance(node, dict) or len(node) != 1:
            raise InputFormatError(f"bad node: {node!r}")
        (key, val), = node.items()
        if key == LEAF:
            if not isinstance(val, dict) or "id" not in val or "weight" not in val:
                raise InputFormatError(f"bad leaf: {val!r}")
            _check_id(val["id"], "leaf")
            if val["id"] in seen:
                raise InputFormatError(f"duplicate element id {val['id']!r}")
            seen.add(val["id"])
            done[id(node)] = leaf(val["id"], val["weight"])
        elif key in (SERIES, PARALLEL):
            if not isinstance(val, list) or not val:
                raise InputFormatError(f'"{key}" needs a nonempty list')
            if state is None:
                stack.append((node, "ready"))
                for child in val:
                    stack.append((child, None))
            else:
                done[id(node)] = _fold_nary(key, [done[id(c)] for c in val])
        else:
            raise InputFormatError(f"unknown node kind {key!r}")
    return done[id(data)]


def sp_tree_to_json(t):
    if t.kind == LEAF:
        return {"leaf": {"id": t.id, "weight": list(t.weight)}}
    return {t.kind: [sp_tree_to_json(t.left), sp_tree_to_json(t.right)]}


def _postorder(t):
    out, stack = [], [t]
    while stack:
        node = stack.pop()
        out.append(node)
        if node.kind != LEAF:
            stack.append(node.left)
            stack.append(node.right)
    out.reverse()
    return out


def sp_to_poset(t) -> Poset:
    """Explicit poset with the same lower sets, for oracle cross-checks.
    Emits all left-below-right pairs of every series node: quadratic, fine
    at oracle scale."""
    ids, weights, pairs = [], [], []
    elems = {}
    for node in _postorder(t):
        if node.kind == LEAF:
            elems[id(node)] = [node.id]
            ids.append(node.id)
            weights.append(node.weight)
        else:
            l, r = elems[id(node.left)], elems[id(node.right)]
            if node.kind == SERIES:
                pairs.extend((u, v) for u in l for v in r)
            elems[id(node)] = l + r
    return Poset(ids, weights, pairs)


def _leaf_polygon(weight, wit):
    """Hull of {(0, 0), weight}: what hull_of_points gives for the empty
    set and the leaf's own set, built without the sort. wit is the leaf's
    witness handle, or None when tracking is off."""
    if weight == (0, 0):
        return Polygon(((0, 0),), None if wit is None else (EMPTY,))
    if weight > (0, 0):
        return Polygon(((0, 0), weight), None if wit is None else (EMPTY, wit))
    return Polygon((weight, (0, 0)), None if wit is None else (wit, EMPTY))


def solve_sp(t, track=True) -> Polygon:
    """polygon of the order: bottom-up over the decomposition tree. Each
    merge goes through combine_any: sides of comparable size meet in the
    plain kernel, and a much smaller side is merged into a splay engine
    holding the larger one.

    Automatic cyclic GC is paused for the build, for the sake of the live
    witness DAG alone: a tracked solve allocates a few objects per element
    that all stay alive, so each generation-2 collection would rescan the
    whole growing heap (next to the input tree) while finding nothing to
    free. The merges leave no garbage cycles behind, since the splay engine
    unlinks each tree it consumes or cuts away and reference counting frees
    it on the spot. GC is left as it was found (see gcpause.gc_paused).
    """
    with gc_paused():
        return _solve_sp(t, track)


def _solve_sp(t, track):
    # one (polygon, witness of the whole subtree) pair per finished subtree;
    # in postorder a node's children are the top two, the right one on top
    stack = []
    for node in _postorder(t):
        if node.kind == LEAF:
            wit = wleaf((node.id,)) if track else None
            stack.append((_leaf_polygon(node.weight, wit), wit))
            continue
        r, rw = stack.pop()
        l, lw = stack.pop()
        if node.kind == PARALLEL:
            poly = combine_any("+", l, r)
        else:
            poly = combine_any("u", l, r.translate(node.left.total, lw))
        stack.append((poly, wunion(lw, rw)))
    return settle(stack[0][0])


def tree_to_sp(data):
    """Rooted-tree order to SPTree: each vertex must be preceded by its
    parent, so lower sets are the subtrees containing the root. Input is
    {"root": {"id":…, "weight":[a,b]}, "edges": [{"parent":…, "child":…,
    "weight":[a,b]}...]} where a child's weight rides on its parent edge;
    the subtree at v becomes SERIES(leaf v, PARALLEL over child subtrees).
    """
    if not isinstance(data, dict) or "root" not in data:
        raise InputFormatError('expected an object with "root" and "edges"')
    root = data["root"]
    if not isinstance(root, dict) or "id" not in root:
        raise InputFormatError(f"bad root entry: {root!r}")
    children = {_check_id(root["id"], "root"): []}
    weights = {root["id"]: root.get("weight", [0, 0])}
    for e in _check_list(data, "edges"):
        if not isinstance(e, dict) or "parent" not in e or "child" not in e:
            raise InputFormatError(f"bad edge entry: {e!r}")
        _check_id(e["parent"], "edge parent")
        _check_id(e["child"], "edge child")
        if e["child"] in weights:
            raise InputFormatError(f"vertex {e['child']!r} has two parents")
        weights[e["child"]] = e.get("weight", [0, 0])
        children[e["child"]] = []
        children.setdefault(e["parent"], []).append(e["child"])
    for v in children:
        if v not in weights:
            raise InputFormatError(f"edge names unknown parent {v!r}")

    # post-order without recursion; child lists may be long chains
    built = {}
    stack = [(root["id"], False)]
    while stack:
        v, ready = stack.pop()
        if not ready:
            stack.append((v, True))
            stack.extend((c, False) for c in children[v])
        else:
            lf = leaf(v, weights[v])
            kids = [built[c] for c in children[v]]
            built[v] = lf if not kids else series(lf, _fold_nary(PARALLEL, kids))
    return built[root["id"]]
