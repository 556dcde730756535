"""End-to-end benchmark of the paraclose CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src` directory, nothing needs installing. The workload's input is made from
the seed by inputs.py. Whole rounds of the workload's CLI invocations then
run back to back, each in a fresh process timed from outside, until S
seconds have passed; each round starts with a cold set-up, timed in a fresh
interpreter. The payloads are then checked by checks.py, outside the timed
part. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (medians over rounds).
With --trace 1 each round runs the CLI once untraced and once through
inproc.py, which runs the CLI's entry point in-process with per-layer spans
and counts; the metrics are the per-layer medians, the traced wall time and
its ratio to the untraced one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402

# Each support or vertex check solves the order once, in time linear in
# its size; hulls with more edges than CHECK_WORK / size have a sample of
# that many (at least 48) edges and vertices checked.
CHECK_WORK = 500_000


@dataclass(frozen=True)
class Workload:
    generate: Callable  # seed -> (input object, order model)
    solver: str
    witnesses: bool
    profile: bool = False

    def steps(self):
        """(subcommand, input, output, flags) per CLI invocation of a round."""
        flags = [] if self.witnesses else ["--no-witness"]
        out = [(self.solver, "input.json", "polygon.json", flags)]
        if self.profile:
            out.append(("profile", "polygon.json", "profile.json", []))
        return out


WORKLOADS = {
    "sp-witness": Workload(inputs.sp_witness, "sp", witnesses=True, profile=True),
    "semiorder": Workload(inputs.semiorder, "semiorder", witnesses=True),
    "sp-caterpillar": Workload(inputs.sp_caterpillar, "sp", witnesses=False),
    "width2": Workload(inputs.width2, "width2", witnesses=True),
}


class Runner:
    def __init__(self, root, work):
        self.work = work
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.env = env

    def spawn(self, argv, stdout=None):
        """Run one child to its end: (exit code, wall seconds, peak RSS MB).
        The RSS is the child's own, from wait4."""
        with open(self.work / "stderr.txt", "wb") as err, \
                open(stdout or os.devnull, "wb") as out:
            t = perf_counter()
            p = subprocess.Popen(argv, env=self.env, stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(p.pid, 0)
            except BaseException:
                p.kill()
                p.wait()
                raise
            wall = perf_counter() - t
        p.returncode = os.waitstatus_to_exitcode(status)
        if p.returncode != 0:
            tail = (self.work / "stderr.txt").read_text(errors="replace")[-2000:]
            print(f"{' '.join(argv[1:])}: exit {p.returncode}\n{tail}", file=sys.stderr)
        return p.returncode, wall, usage.ru_maxrss / 1024

    def cli(self, sub, src, dst, flags):
        return *self.spawn(
            [sys.executable, "-m", "paraclose.cli", sub, str(self.work / src),
             "--out", str(self.work / dst), *flags]
        ), None

    def traced(self, sub, src, dst, flags):
        """The step through inproc.py; adds its per-layer metrics."""
        out = self.work / "trace.txt"
        rc, wall, rss = self.spawn(
            [sys.executable, str(HERE / "inproc.py"), "trace", sub,
             str(self.work / src), str(self.work / dst), *flags],
            stdout=out,
        )
        layers = json.loads(out.read_text().splitlines()[-1]) if rc == 0 else None
        return rc, wall, rss, layers


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_payloads(wl, work, model, rng):
    limit = max(48, CHECK_WORK // len(model))
    poly = json.loads((work / "polygon.json").read_text())
    verts = checks.check_polygon(poly, model, rng, wl.witnesses, limit)
    if wl.profile:
        prof = json.loads((work / "profile.json").read_text())
        checks.check_profile(prof, verts, poly.get("witnesses"), model, rng, limit)


def _terminate(signum, frame):
    # unwind, so that a running child is killed and waited for, and the
    # working files are removed
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "paraclose" / "cli.py").is_file():
        print("perfbench: run from the root of a paraclose checkout "
              "(no src/paraclose/cli.py here)", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = root / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, wl, Runner(root, work), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, wl, run, work):
    data, model = wl.generate(args.seed)
    (work / "input.json").write_bytes(inputs.input_bytes(data))
    steps = wl.steps()
    outputs = [work / dst for _, _, dst, _ in steps]

    attempted = failed = 0
    rounds = []      # per round run to its end: (wall, peak rss)
    traced = []      # per traced round run to its end: (wall, layer totals)
    setups = []      # per round: seconds of one cold set-up
    digests = set()  # payloads of every round, CLI and traced alike

    t0 = perf_counter()
    while True:
        if not args.trace:
            rc, setup_s, _ = run.spawn([sys.executable, str(HERE / "inproc.py"), "setup",
                                        steps[0][0], str(work / "input.json")])
            if rc != 0:
                return 1
            setups.append(setup_s)
        for in_trace in (False, True) if args.trace else (False,):
            call = run.traced if in_trace else run.cli
            res = [call(*step) for step in steps]  # (exit code, wall, rss, layers)
            attempted += len(res)
            bad = sum(r[0] != 0 for r in res)
            failed += bad
            if bad:
                continue
            digests.add(tuple(digest(p) for p in outputs))
            wall = sum(r[1] for r in res)
            if in_trace:
                traced.append((wall, {k: sum(r[3][k] for r in res) for k in res[0][3]}))
            else:
                rounds.append((wall, max(r[2] for r in res)))
        if perf_counter() - t0 >= args.seconds:
            break
    if not rounds or (args.trace and not traced):
        print("perfbench: no round ran to its end", file=sys.stderr)
        return 1

    consistent = len(digests) == 1
    correct = consistent
    if not consistent:
        print("perfbench: payloads differ between rounds (or traced and untraced)",
              file=sys.stderr)
    try:
        check_payloads(wl, work, model, random.Random(f"perfbench-check:{args.seed}"))
    except (checks.CheckError, ValueError, TypeError, KeyError, AttributeError) as e:
        # a payload of the wrong shape (not JSON, wrong types) fails too
        print(f"perfbench: check failed: {type(e).__name__}: {e}", file=sys.stderr)
        correct = False

    if args.trace:
        wall = statistics.median(w for w, _ in traced)
        metrics = {
            k: {"value": statistics.median(t[k] for _, t in traced),
                "unit": "s" if k.endswith("_s") else "count"}
            for k in traced[0][1]
        }
        metrics["trace.wall_s"] = {"value": wall, "unit": "s"}
        metrics["trace.overhead"] = {
            "value": wall / statistics.median(w for w, _ in rounds), "unit": "x"}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(w for w, _ in rounds), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r for _, r in rounds), "unit": "MB"},
            "output_bytes": {"value": sum(p.stat().st_size for p in outputs), "unit": "bytes"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
