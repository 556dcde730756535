"""The paraclose CLI run in-process, for set-up timing and tracing.

    python3 perfbench/inproc.py setup SUBCOMMAND INPUT
    python3 perfbench/inproc.py trace SUBCOMMAND INPUT OUTPUT [--no-witness]

Both modes call `paraclose.cli.run`, the CLI's own entry point, with the
arguments of `paraclose SUBCOMMAND INPUT --out OUTPUT`. `setup` stops it
where it calls its solver, so it covers the import, the read of INPUT and
the build of the instance object: all a CLI run does before its solve.
`trace` runs it to its end and prints one JSON object of per-layer spans
and counts as its last line. Spans come from wrappers put on the module
and class attributes the program looks up at call time; the program itself
is not edited. Times include nested layers: series_parallel.solve_s
contains splay.merge_s, and semiorder.solve_s contains the zonotope and
merge spans.

Needs `src` on PYTHONPATH; run.py sets it.
"""

from __future__ import annotations

import gc
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

from paraclose import cli, polygon, poset, semiorder, series_parallel, splay, width2

# The keys a traced step reports, in BENCHMARK.json order; a layer the
# step does not call reads 0.
LAYER_KEYS = (
    "cli.load_s", "cli.emit_s",
    "series_parallel.build_s", "series_parallel.solve_s",
    "semiorder.parse_s", "semiorder.to_poset_s", "semiorder.solve_s",
    "poset.closure_s",
    "width2.partition_s", "width2.solve_s",
    "splay.rotations", "splay.merges", "splay.engine_merges",
    "splay.kernel_merges", "splay.merge_s",
    "polygon.zonotope_calls", "polygon.zonotope_generators",
    "polygon.zonotope_s", "polygon.hull_vertices",
    "witness.expand_s", "witness.sort_s", "witness.ids_out",
    "parametric.read_s", "parametric.profile_s",
    "gc.gen2_collections", "gc.pause_s",
)

# The solver each subcommand calls, as the CLI module names it.
SOLVERS = {"sp": "solve_sp", "semiorder": "solve_semiorder", "width2": "solve_width2"}


class _Stop(BaseException):
    """Raised in place of the solve; a BaseException, so the CLI's error
    handling lets it through."""


def wrap(owner, name, before=None, after=None):
    """Replace owner.name by a function that calls before() first and
    after(args, result, seconds) once it returns."""
    fn = getattr(owner, name)

    def wrapper(*args, **kw):
        if before is not None:
            before()
        t = perf_counter()
        res = fn(*args, **kw)
        if after is not None:
            after(args, res, perf_counter() - t)
        return res

    # getattr gave the bound form of a class's static or class method
    raw = vars(owner).get(name) if isinstance(owner, type) else None
    if isinstance(raw, (staticmethod, classmethod)):
        wrapper = staticmethod(wrapper)
    setattr(owner, name, wrapper)


class Tracer:
    def __init__(self):
        self.m = defaultdict(float)
        self._gc_start = None
        self._expand_before = []

    def timer(self, key):
        def after(args, res, dt):
            self.m[key] += dt
        return after

    def _merge(self, args, res, dt):
        self.m["splay.merge_s"] += dt
        self.m["splay.merges"] += 1
        if isinstance(res, splay.SplayPolygon):
            self.m["splay.engine_merges"] += 1
        elif isinstance(res, polygon.Polygon):
            self.m["splay.kernel_merges"] += 1

    def _zonotope(self, args, res, dt):
        self.m["polygon.zonotope_s"] += dt
        self.m["polygon.zonotope_calls"] += 1
        self.m["polygon.zonotope_generators"] += len(args[0])

    def _to_json_start(self):
        self._expand_before.append(self.m["witness.expand_s"])

    def _to_json(self, args, res, dt):
        # the part of to_json that is not witness_sets: id sorting, lists
        expanded = self.m["witness.expand_s"] - self._expand_before.pop()
        self.m["witness.sort_s"] += dt - expanded
        self.m["polygon.hull_vertices"] += len(args[0].vertices)
        self.m["witness.ids_out"] += sum(len(w) for w in res.get("witnesses", ()))

    def _profile_json(self, args, res, dt):
        self.m["parametric.profile_s"] += dt
        self.m["witness.ids_out"] += sum(len(p.get("witness", ())) for p in res["pieces"])

    def _gc(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter()
        elif self._gc_start is not None:
            self.m["gc.pause_s"] += perf_counter() - self._gc_start
            self._gc_start = None
            if info["generation"] == 2:
                self.m["gc.gen2_collections"] += 1

    def install(self):
        t = self.timer
        wrap(cli, "_load", after=t("cli.load_s"))
        wrap(cli, "_emit_json", after=t("cli.emit_s"))
        wrap(cli, "parse_sp", after=t("series_parallel.build_s"))
        wrap(cli, "tree_to_sp", after=t("series_parallel.build_s"))
        wrap(cli, "solve_sp", after=t("series_parallel.solve_s"))
        wrap(semiorder.Semiorder, "from_json", after=t("semiorder.parse_s"))
        wrap(semiorder.Semiorder, "to_poset", after=t("semiorder.to_poset_s"))
        wrap(cli, "solve_semiorder", after=t("semiorder.solve_s"))
        wrap(poset.Poset, "from_json", after=t("poset.closure_s"))
        wrap(width2, "chain_partition_width2", after=t("width2.partition_s"))
        wrap(width2, "solve_width2_chains", after=t("width2.solve_s"))
        for mod in (series_parallel, semiorder):
            wrap(mod, "combine_any", after=self._merge)
        wrap(semiorder, "segment_zonotope", after=self._zonotope)
        wrap(polygon.Polygon, "witness_sets", after=t("witness.expand_s"))
        wrap(polygon.Polygon, "to_json", before=self._to_json_start, after=self._to_json)
        wrap(polygon.Polygon, "from_json", after=t("parametric.read_s"))
        wrap(cli, "profile", after=t("parametric.profile_s"))
        wrap(cli, "profile_to_json", after=self._profile_json)
        gc.callbacks.append(self._gc)
        splay.reset_splay_steps()

    def report(self):
        self.m["splay.rotations"] = splay.splay_steps()
        return {k: self.m[k] for k in LAYER_KEYS}


def stop(*args, **kw):
    raise _Stop


def main(argv):
    mode, sub, src = argv[:3]
    if mode == "setup":
        setattr(cli, SOLVERS[sub], stop)
        try:
            cli.run([sub, src, "--out", os.devnull])
        except _Stop:
            return 0
        print(f"inproc: `{sub}` returned before its solve", file=sys.stderr)
        return 1
    tracer = Tracer()
    tracer.install()
    dst, flags = argv[3], argv[4:]
    rc = cli.run([sub, src, "--out", dst, *flags])
    if rc == 0:
        print(json.dumps(tracer.report()))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
