"""Seeded workload inputs and the order models that check the outputs.

Nothing here imports paraclose: a change to the program cannot change a
workload's input, and the checks reason from the generator's own relations.
Each generator returns (input object, model). A model answers three
questions about its order, each computed its own way:

  weight(id)      the element's integer weight pair
  is_lower(ids)   whether a set of ids is closed downward
  best(dx, dy)    (value, (a, b)): the largest dx*a + dy*b over all lower
                  sets, and the projection (a, b) of one lower set reaching it

The random stream is seeded with a string, which Python hashes with SHA-512,
so the same seed gives byte-identical input files on every run.
"""

from __future__ import annotations

import json
import random
from itertools import accumulate

SPAN = 10**4

LEAF, SERIES, PARALLEL = 0, 1, 2


def _rng(name, seed):
    return random.Random(f"perfbench:{name}:{seed}")


def _weight(rng, span=SPAN):
    return (rng.randint(-span, span), rng.randint(-span, span))


def input_bytes(obj):
    return json.dumps(obj, separators=(",", ":")).encode()


class SPModel:
    """Binary decomposition tree stored in postorder. Node k covers the
    leaves lo[k]..hi[k]-1 in left-to-right order; a series node's left
    child covers lo[k]..mid[k]-1 and lies entirely below its right child."""

    def __init__(self, kind, left, right, leaf_ids, leaf_w):
        self.kind, self.left, self.right = kind, left, right
        self.leaf_ids = leaf_ids
        self.leaf_w = leaf_w  # by leaf position
        self.pos = {e: p for p, e in enumerate(leaf_ids)}
        n = len(kind)
        self.lo, self.mid, self.hi = [0] * n, [0] * n, [0] * n
        self.leaf_pos = [0] * n
        p = 0
        for k in range(n):
            if kind[k] == LEAF:
                self.leaf_pos[k] = p
                self.lo[k], self.hi[k] = p, p + 1
                p += 1
            else:
                self.lo[k] = self.lo[left[k]]
                self.mid[k] = self.hi[left[k]]
                self.hi[k] = self.hi[right[k]]
        self.series = [k for k in range(n) if kind[k] == SERIES]

    def __len__(self):
        return len(self.leaf_ids)

    def weight(self, e):
        return self.leaf_w[self.pos[e]]

    def is_lower(self, ids):
        inside = bytearray(len(self.leaf_ids))
        for e in ids:
            inside[self.pos[e]] = 1
        pref = list(accumulate(inside, initial=0))
        lo, mid, hi = self.lo, self.mid, self.hi
        for k in self.series:
            # any of the right side taken forces all of the left side
            if pref[hi[k]] > pref[mid[k]] and pref[mid[k]] - pref[lo[k]] != mid[k] - lo[k]:
                return False
        return True

    def best(self, dx, dy):
        kind, left, right = self.kind, self.left, self.right
        n = len(kind)
        val, tot = [0] * n, [0] * n
        take = [False] * n  # leaf: taken; series: right side used
        for k in range(n):
            kk = kind[k]
            if kk == LEAF:
                a, b = self.leaf_w[self.leaf_pos[k]]
                t = dx * a + dy * b
                tot[k] = t
                take[k] = t > 0
                val[k] = t if t > 0 else 0
            else:
                l, r = left[k], right[k]
                tot[k] = tot[l] + tot[r]
                if kk == PARALLEL:
                    val[k] = val[l] + val[r]
                else:
                    with_right = tot[l] + val[r]
                    take[k] = with_right > val[l]
                    val[k] = with_right if take[k] else val[l]
        # walk down the choices; whole marks a subtree taken entirely
        a = b = 0
        stack = [(n - 1, False)]
        while stack:
            k, whole = stack.pop()
            kk = kind[k]
            if kk == LEAF:
                if whole or take[k]:
                    wa, wb = self.leaf_w[self.leaf_pos[k]]
                    a += wa
                    b += wb
            elif whole or kk == PARALLEL:
                stack.append((left[k], whole))
                stack.append((right[k], whole))
            elif take[k]:
                stack.append((left[k], True))
                stack.append((right[k], False))
            else:
                stack.append((left[k], False))
        return val[n - 1], (a, b)


def _random_tree(rng, n, kind, left, right, leaf_ids, leaf_w):
    """Append a random decomposition tree over n new leaves, in postorder;
    each internal node splits its leaves uniformly and is series or
    parallel with equal odds. Returns the root's index."""
    done = []
    tasks = [("build", n)]
    while tasks:
        op, arg = tasks.pop()
        if op == "build":
            if arg == 1:
                leaf_ids.append(f"e{len(leaf_ids)}")
                leaf_w.append(_weight(rng))
                kind.append(LEAF)
                left.append(-1)
                right.append(-1)
                done.append(len(kind) - 1)
            else:
                m = rng.randint(1, arg - 1)
                tasks.append(("join", SERIES if rng.random() < 0.5 else PARALLEL))
                tasks.append(("build", arg - m))
                tasks.append(("build", m))
        else:
            r = done.pop()
            l = done.pop()
            kind.append(arg)
            left.append(l)
            right.append(r)
            done.append(len(kind) - 1)
    return done[0]


def sp_witness(seed, n=1024, parts=128):
    """Parallel composition of `parts` independent random trees of n/parts
    leaves each, written as one n-ary "parallel" list. A single random tree
    varies several-fold from seed to seed in hull size and witness size,
    since its top few splits decide both; the Minkowski sum of many
    independent parts averages out (payload size: standard deviation 3% of
    the median over 30 seeds, against 4% with 64 parts)."""
    rng = _rng("sp-witness", seed)
    kind, left, right, leaf_ids, leaf_w = [], [], [], [], []
    roots = [
        _random_tree(rng, n // parts, kind, left, right, leaf_ids, leaf_w)
        for _ in range(parts)
    ]
    node = roots[-1]
    for r in reversed(roots[:-1]):
        kind.append(PARALLEL)
        left.append(r)
        right.append(node)
        node = len(kind) - 1
    model = SPModel(kind, left, right, leaf_ids, leaf_w)
    objs = _sp_objects(model)
    return {"parallel": [objs[r] for r in roots]}, model


def _sp_objects(m):
    objs = []
    for k, kk in enumerate(m.kind):
        if kk == LEAF:
            p = m.leaf_pos[k]
            objs.append({"leaf": {"id": m.leaf_ids[p], "weight": list(m.leaf_w[p])}})
        else:
            name = "series" if kk == SERIES else "parallel"
            objs.append({name: [objs[m.left[k]], objs[m.right[k]]]})
    return objs


class TreeModel:
    """Rooted tree, parent before child: lower sets are the empty set and
    the subtrees that contain the root. Vertex k's parent is par[k] < k."""

    def __init__(self, ids, par, w):
        self.ids, self.par, self.w = ids, par, w
        self.index = {e: k for k, e in enumerate(ids)}

    def __len__(self):
        return len(self.ids)

    def weight(self, e):
        return self.w[self.index[e]]

    def is_lower(self, ids):
        ks = {self.index[e] for e in ids}
        return all(k == 0 or self.par[k] in ks for k in ks)

    def best(self, dx, dy):
        par = self.par
        val = [dx * a + dy * b for a, b in self.w]
        for k in range(len(val) - 1, 0, -1):
            if val[k] > 0:
                val[par[k]] += val[k]
        if val[0] <= 0:
            return 0, (0, 0)
        a = b = 0
        taken = [False] * len(val)
        for k in range(len(val)):
            if k == 0 or (taken[par[k]] and val[k] > 0):
                taken[k] = True
                a += self.w[k][0]
                b += self.w[k][1]
        return val[0], (a, b)


def sp_caterpillar(seed, n=20000):
    """Spine s0 -> s1 -> ... where every spine vertex also has one leaf
    child; tree_to_sp turns it into an alternating series/parallel spine."""
    rng = _rng("sp-caterpillar", seed)
    ids, par, w = [], [], []
    for i in range(n // 2):
        ids.append(f"s{i}")
        par.append(-1 if i == 0 else 2 * i - 2)
        w.append(_weight(rng))
        ids.append(f"l{i}")
        par.append(2 * i)
        w.append(_weight(rng))
    edges = [
        {"parent": ids[par[k]], "child": ids[k], "weight": list(w[k])}
        for k in range(1, len(ids))
    ]
    data = {"root": {"id": ids[0], "weight": list(w[0])}, "edges": edges}
    return data, TreeModel(ids, par, w)


class SemiorderModel:
    """Items sorted by utility num/DENOM; x is below y exactly when
    u(x) < u(y) - 1, i.e. num(x) < num(y) - DENOM."""

    DENOM = 16

    def __init__(self, ids, num, w):
        order = sorted(range(len(ids)), key=lambda k: num[k])
        self.ids = [ids[k] for k in order]
        self.num = [num[k] for k in order]
        self.w = [w[k] for k in order]
        self.index = {e: k for k, e in enumerate(self.ids)}

    def __len__(self):
        return len(self.ids)

    def weight(self, e):
        return self.w[self.index[e]]

    def is_lower(self, ids):
        ks = {self.index[e] for e in ids}
        if not ks or len(ks) == len(self.ids):
            return True
        top = max(self.num[k] for k in ks)
        missing = min(self.num[k] for k in range(len(self.ids)) if k not in ks)
        return top - self.DENOM <= missing

    def best(self, dx, dy):
        """A lower set with top item q (in sorted order) holds every item
        more than one unit below q and any items of the band within one
        unit below it that precede q; take the band's positive ones."""
        num, w = self.num, self.w
        vals = [dx * a + dy * b for a, b in w]
        forced = 0  # total of items [0, lo)
        band = 0    # positive part total of items [lo, q)
        lo = 0
        best, arg = 0, None
        for q in range(len(num)):
            while num[lo] < num[q] - self.DENOM:
                forced += vals[lo]
                if vals[lo] > 0:
                    band -= vals[lo]
                lo += 1
            v = forced + vals[q] + band
            if v > best:
                best, arg = v, (lo, q)
            if vals[q] > 0:
                band += vals[q]
        if arg is None:
            return 0, (0, 0)
        lo, q = arg
        take = list(range(lo)) + [q] + [k for k in range(lo, q) if vals[k] > 0]
        return best, (sum(w[k][0] for k in take), sum(w[k][1] for k in take))


def semiorder(seed, n=768, top=2):
    """Utilities k/16 for k uniform in [0, 16*top]; with top = 2 about three
    quarters of all pairs lie within the unit margin, incomparable, and the
    rest are ordered. Weights have a in [0, 10^4]
    and b in [-10^4, 10^4]: with symmetric weights the hull follows a
    driftless random walk of prefix sums, whose shape, and so the witness
    sizes and the payload size, vary several-fold from seed to seed."""
    rng = _rng("semiorder", seed)
    d = SemiorderModel.DENOM
    ids, num, w = [], [], []
    for i in range(n):
        ids.append(f"u{i}")
        num.append(rng.randint(0, d * top))
        w.append((rng.randint(0, SPAN), rng.randint(-SPAN, SPAN)))
    items = [
        {"id": e, "utility": f"{k}/{d}", "weight": list(x)}
        for e, k, x in zip(ids, num, w)
    ]
    return {"items": items}, SemiorderModel(ids, num, w)


class TwoChainModel:
    """Two chains, each listed bottom-up, plus cross relations. A lower set
    is a prefix of each chain, A[:i] and B[:j], with j >= need_b[i] and
    i >= need_a[j]: the prefix lengths that the cross relations force."""

    def __init__(self, chain_a, chain_b, cross, weights):
        self.a, self.b = chain_a, chain_b
        self.w = weights
        at_a = {e: k for k, e in enumerate(chain_a)}
        at_b = {e: k for k, e in enumerate(chain_b)}
        # need_b[i]: B-prefix the first i items of A force; direct cross
        # relations suffice, since B[k] < A[t] < B[k'] makes k < k'
        need_b = [0] * (len(chain_a) + 1)
        need_a = [0] * (len(chain_b) + 1)
        for u, v in cross:
            if u in at_b:
                t = at_a[v] + 1
                need_b[t] = max(need_b[t], at_b[u] + 1)
            else:
                t = at_b[v] + 1
                need_a[t] = max(need_a[t], at_a[u] + 1)
        self.need_b = list(accumulate(need_b, max))
        self.need_a = list(accumulate(need_a, max))

    def __len__(self):
        return len(self.w)

    def weight(self, e):
        return self.w[e]

    def _prefix(self, chain, ids):
        k = sum(1 for e in chain if e in ids)
        return k if all(e in ids for e in chain[:k]) else None

    def is_lower(self, ids):
        i, j = self._prefix(self.a, ids), self._prefix(self.b, ids)
        if i is None or j is None or i + j != len(ids):
            return False
        return j >= self.need_b[i] and i >= self.need_a[j]

    def best(self, dx, dy):
        """For each A-prefix i the feasible B-prefixes form a window
        [need_b[i], top(i)] with both ends nondecreasing in i: a sliding
        window maximum over the B-prefix values."""
        pa = list(accumulate((dx * self.w[e][0] + dy * self.w[e][1] for e in self.a), initial=0))
        pb = list(accumulate((dx * self.w[e][0] + dy * self.w[e][1] for e in self.b), initial=0))
        nb = len(self.b)
        best, arg = None, None
        window = []  # B-prefix lengths, values decreasing
        head = 0
        top = -1
        for i in range(len(self.a) + 1):
            while top < nb and self.need_a[top + 1] <= i:
                top += 1
                while len(window) > head and pb[window[-1]] <= pb[top]:
                    window.pop()
                window.append(top)
            while head < len(window) and window[head] < self.need_b[i]:
                head += 1
            if head < len(window):
                j = window[head]
                v = pa[i] + pb[j]
                if best is None or v > best:
                    best, arg = v, (i, j)
        i, j = arg
        taken = self.a[:i] + self.b[:j]
        return best, (sum(self.w[e][0] for e in taken), sum(self.w[e][1] for e in taken))


def width2(seed, n=800, cross=800):
    """Two chains of n/2 random members each, ordered by a random height, plus
    `cross` relations between the chains oriented by height. Elements and
    relations are listed in random order.

    Weights are positive multiples r*(p, q) of one direction, r in
    [1, 1000], so the hull is the segment from the empty set to the whole
    order. With general weights a width-2 hull follows a random walk of
    chain prefix sums: about 20 vertices whose witness sizes, and so the
    payload size, vary by a third from seed to seed. This workload is about
    the chain partition and the order's closure instead."""
    rng = _rng("width2", seed)
    ids = [f"x{i}" for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    height = dict(zip(ids, order))
    in_a = set(rng.sample(ids, n // 2))
    by_height = sorted(ids, key=height.__getitem__)
    chain_a = [e for e in by_height if e in in_a]
    chain_b = [e for e in by_height if e not in in_a]
    p, q = rng.randint(1, 9), rng.randint(-9, 9)
    w = {e: (r * p, r * q) for e in ids for r in [rng.randint(1, 1000)]}
    rel = [[c[t], c[t + 1]] for c in (chain_a, chain_b) for t in range(len(c) - 1)]
    pairs = []
    if chain_a and chain_b:
        for _ in range(cross):
            u, v = rng.choice(chain_a), rng.choice(chain_b)
            pairs.append([u, v] if height[u] < height[v] else [v, u])
    rel += pairs
    rng.shuffle(rel)
    order = ids[:]
    rng.shuffle(order)
    data = {
        "elements": [{"id": e, "weight": list(w[e])} for e in order],
        "relations": rel,
    }
    return data, TwoChainModel(chain_a, chain_b, pairs, w)
