"""Tests of the in-process runs: python3 -m pytest perfbench

The traced run must write the same bytes as the CLI process, report every
per-layer key of BENCHMARK.json, and put time on the layers each workload
is meant to load; the set-up run must reach the solver and stop there.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
INPROC = str(Path(__file__).resolve().parent / "inproc.py")
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

# name: (generator, subcommand, flags, layers that must read above 0)
SMALL = {
    "sp-witness": (lambda: inputs.sp_witness(1, n=64, parts=4), "sp", [],
                   ["series_parallel.build_s", "series_parallel.solve_s", "splay.merges",
                    "witness.expand_s", "witness.ids_out"]),
    "semiorder": (lambda: inputs.semiorder(1, n=64), "semiorder", [],
                  ["semiorder.parse_s", "semiorder.to_poset_s", "semiorder.solve_s",
                   "polygon.zonotope_calls", "splay.merges", "witness.ids_out"]),
    "sp-caterpillar": (lambda: inputs.sp_caterpillar(1, n=300), "sp", ["--no-witness"],
                       ["series_parallel.build_s", "series_parallel.solve_s",
                        "splay.engine_merges", "splay.rotations"]),
    "width2": (lambda: inputs.width2(1, n=64, cross=20), "width2", [],
               ["poset.closure_s", "width2.partition_s", "width2.solve_s", "witness.ids_out"]),
}


def layer_keys():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in bench["per_layer"]} - {"trace.wall_s", "trace.overhead"}


def run(*argv):
    return subprocess.run([sys.executable, *argv], env=ENV, capture_output=True, text=True)


def traced(tmp_path, sub, src, flags):
    """(CLI payload, traced payload, layer metrics) for one step."""
    want, got = tmp_path / f"{sub}.cli.json", tmp_path / f"{sub}.traced.json"
    assert run("-m", "paraclose.cli", sub, str(src), "--out", str(want), *flags).returncode == 0
    p = run(INPROC, "trace", sub, str(src), str(got), *flags)
    assert p.returncode == 0, p.stderr
    return want.read_bytes(), got.read_bytes(), json.loads(p.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_matches_cli(tmp_path, name):
    gen, sub, flags, loaded = SMALL[name]
    src = tmp_path / "input.json"
    src.write_bytes(inputs.input_bytes(gen()[0]))
    want, got, layers = traced(tmp_path, sub, src, flags)
    assert got == want
    assert set(layers) == layer_keys()
    assert all(layers[k] > 0 for k in loaded + ["cli.load_s", "cli.emit_s",
                                                "polygon.hull_vertices"])
    if name == "sp-witness":
        poly = tmp_path / "polygon.json"
        poly.write_bytes(want)
        want, got, layers = traced(tmp_path, "profile", poly, [])
        assert got == want
        assert layers["parametric.read_s"] > 0 and layers["parametric.profile_s"] > 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_setup_stops_at_the_solve(tmp_path, name):
    gen, sub, _, _ = SMALL[name]
    src = tmp_path / "input.json"
    src.write_bytes(inputs.input_bytes(gen()[0]))
    p = run(INPROC, "setup", sub, str(src))
    assert p.returncode == 0, p.stderr


def test_setup_fails_on_bad_input(tmp_path):
    src = tmp_path / "input.json"
    src.write_text('{"nothing": []}')
    p = run(INPROC, "setup", "semiorder", str(src))
    assert p.returncode != 0
