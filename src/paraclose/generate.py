"""Seeded random instance generators.

Everything is driven by a caller-supplied random.Random so a fixed seed
reproduces instances byte for byte. Generators return the JSON-ready dict
of the owning module's file format (the SP generator returns the tree
object; serialize with sp_tree_to_json).
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .parametric import rat_str
from .series_parallel import PARALLEL, SERIES, SPTree, leaf


def _w(rng, span):
    return [rng.randint(-span, span), rng.randint(-span, span)]


def random_sp_tree(rng, n, span=9):
    """Uniformly split decomposition tree with n leaves; explicit stack so
    chain-shaped splits cannot overflow the recursion limit."""
    ids = iter(range(n))
    tasks = [("build", n)]
    vals = []
    while tasks:
        op, arg = tasks.pop()
        if op == "build":
            if arg == 1:
                i = next(ids)
                vals.append(leaf(f"x{i}", tuple(_w(rng, span))))
            else:
                m = rng.randint(1, arg - 1)
                kind = SERIES if rng.random() < 0.5 else PARALLEL
                tasks.append(("join", kind))
                tasks.append(("build", arg - m))
                tasks.append(("build", m))
        else:
            r = vals.pop()
            l = vals.pop()
            vals.append(SPTree(arg, l, r))
    return vals[0]


def random_tree_order(rng, n, span=9):
    """Random rooted tree in the edge-list format of tree_to_sp."""
    edges = [
        {"parent": f"x{rng.randrange(i)}", "child": f"x{i}", "weight": _w(rng, span)}
        for i in range(1, n)
    ]
    return {"root": {"id": "x0", "weight": _w(rng, span)}, "edges": edges}


def random_semiorder(rng, n, span=9, utility_max=3):
    """Items with utilities in eighths from 0 to utility_max."""
    items = [
        {
            "id": f"x{i}",
            "utility": rat_str(Fraction(rng.randint(0, utility_max * 8), 8)),
            "weight": _w(rng, span),
        }
        for i in range(n)
    ]
    return {"items": items}


def random_width2_poset(rng, n, span=9):
    """Two chains plus random height-respecting cross relations; heights
    give a linear extension, so the result is acyclic and has width <= 2."""
    height = {f"x{i}": (rng.random(), i) for i in range(n)}
    split = rng.randint(0, n)
    members = sorted(height, key=lambda e: height[e])
    chain1 = [e for e in members if int(e[1:]) < split]
    chain2 = [e for e in members if int(e[1:]) >= split]
    relations = [[c[i], c[i + 1]] for c in (chain1, chain2) for i in range(len(c) - 1)]
    for _ in range(rng.randint(0, 2 * n)):
        if not chain1 or not chain2:
            break
        u = rng.choice(chain1)
        v = rng.choice(chain2)
        if height[u] < height[v]:
            relations.append([u, v])
        else:
            relations.append([v, u])
    elements = [{"id": f"x{i}", "weight": _w(rng, span)} for i in range(n)]
    return {"elements": elements, "relations": relations}


def random_treewidth_poset(rng, n, width=3, span=9):
    """Reachability order of a random partial k-tree DAG (k = width),
    oriented low-to-high, each k-tree edge kept with probability 0.7, so
    the underlying treewidth is at most `width`."""
    k = min(width + 1, n)
    edges = {(i, j) for i in range(k) for j in range(i + 1, k)}
    cliques = [tuple(range(k))]
    for v in range(k, n):
        base = list(rng.choice(cliques))
        base.remove(rng.choice(base))
        edges.update((u, v) for u in base)
        cliques.append(tuple(sorted(base + [v])))
    relations = [
        [f"x{u}", f"x{v}"] for u, v in sorted(edges) if rng.random() < 0.7
    ]
    elements = [{"id": f"x{i}", "weight": _w(rng, span)} for i in range(n)]
    return {"elements": elements, "relations": relations}


def random_incidence_graph(rng, nv, ne, span=9):
    """Simple graph on nv vertices with ne distinct random edges. The edges
    are ne distinct indices drawn from the nv(nv-1)/2 vertex pairs, so memory
    stays linear in nv + ne; index t is the pair (i, j), i < j, with
    t = j(j-1)/2 + i."""
    vertices = [{"id": f"v{i}", "weight": _w(rng, span)} for i in range(nv)]
    edges = []
    for k, t in enumerate(rng.sample(range(nv * (nv - 1) // 2), ne)):
        j = (1 + isqrt(8 * t + 1)) // 2
        i = t - j * (j - 1) // 2
        edges.append({"id": f"e{k}", "ends": [f"v{i}", f"v{j}"], "weight": _w(rng, span)})
    return {"vertices": vertices, "edges": edges}
