"""Benchmark of the tcmap command line, end to end and layer by layer.

    python3 bench/run.py --workload basin-ideal --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; tcmap is imported from ./src, not
installed.  Each workload is a fixed list of `tcmap` commands.  A pass runs
them one after another as child processes of this process (a closed loop:
each command starts when the previous one has ended) and checks every output
against the references in checks.py.  Passes are whole, and a run starts
another only while it would still end within --seconds of the run's start.
The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics".

--trace 0 reports the end-to-end metrics, built from each command's median
time over the run's passes.
--trace 1 runs the same commands in this process instead, once untraced and
once with spans around every layer (tracing.py), and reports the per-layer
metrics of the traced pass plus trace.overhead_s.  It also writes the spans
to bench/.work/spans-<workload>.json.
"""

from __future__ import annotations

import os

NPROC = len(os.sched_getaffinity(0))
# BLAS threads stay at or below the cores this process may use; set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse
import json
import math
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / ".work"
SETUP_REPEATS = 3  # set-up samples before the first pass; each probe set takes one more
COMMAND_TIMEOUT_S = 150
BASIN_SAMPLES = 1000  # seeded cells re-classified per basin command
SWEEP_SAMPLES = 8  # seeded angles whose critical orbits are re-derived per sweep command
REGION = (-2.0, 2.0, -2.0, 2.0)

# end-to-end throughput metric of each kind of command: (name, unit)
THROUGHPUT = {
    "basin": ("basin_cells_per_s", "cells/s"),
    "sweep": ("sweep_angles_per_s", "angles/s"),
    "operator": ("operators_per_s", "operators/s"),
    "discriminate": ("sample_steps_per_s", "sample-steps/s"),
}


@dataclass(eq=False)
class Op:
    """One tcmap command and the check of its output."""

    kind: str  # key of THROUGHPUT
    args: list[str]
    work: int  # cells, angles, operators or sample-steps
    check: Callable[[], None]


# a child that only imports tcmap.cli: the set-up every command pays before its work
SETUP = Op("setup", ["-c", "import tcmap.cli"], 0, lambda: None)


class References:
    """Per-run state of the checks: the seeded sampler and the dense operators."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self._dense: dict[float, np.ndarray] = {}
        self.ladder: list[float] = []  # ||M - P_ideal|| of this pass's exact-op ladder so far
        self.ties = 0

    def new_pass(self) -> None:
        self.ladder.clear()

    def dense(self, nbar: float) -> np.ndarray:
        if nbar not in self._dense:
            self._dense[nbar] = checks.dense_step_operator(nbar)
        return self._dense[nbar]


def angle(text: str) -> float:
    return float(text[:-2]) * math.pi if text.endswith("pi") else float(text)


# --- the workloads' commands -------------------------------------------------------


def basin_op(refs, varphi: str, res: int, csv: bool) -> Op:
    ppm = WORK / f"basin-{varphi}-{res}.ppm"
    csv_path = WORK / f"basin-{varphi}-{res}.csv" if csv else None
    args = ["basin", "--varphi", varphi, "--res", f"{res}x{res}", "--out", str(ppm)]
    if csv:
        args += ["--csv", str(csv_path)]
    ideal = checks.IdealMap(angle(varphi))
    cycles = [pts for pts, _ in ideal.attracting_cycles()]

    def check():
        refs.ties += checks.check_basin(ppm, checks.BasinSpec(REGION, res, res), ideal.step, cycles,
                                        refs.rng, BASIN_SAMPLES, csv_path=csv_path)

    return Op("basin", args, res * res, check)


def exact_basin_op(refs, varphi: str, nbar: float, res: int, op_file: Path) -> Op:
    ppm = WORK / f"exact-basin-{varphi}-{res}.ppm"
    args = ["exact-basin", "--varphi", varphi, "--nbar", f"{nbar:g}", "--res", f"{res}x{res}",
            "--op-file", str(op_file), "--out", str(ppm)]
    cycles = [pts for pts, _ in checks.IdealMap(angle(varphi)).attracting_cycles()]

    def check():
        step = checks.ExactMap(angle(varphi), refs.dense(nbar)).step
        # the exact step is not odd in z, so its basin has no mirror symmetry to check
        refs.ties += checks.check_basin(ppm, checks.BasinSpec(REGION, res, res), step, cycles,
                                        refs.rng, BASIN_SAMPLES, symmetric=False)

    return Op("basin", args, res * res, check)


def sweep_op(refs, grid: int) -> Op:
    out = WORK / f"sweep-{grid}.csv"

    def check():
        checks.check_sweep(out, grid, refs.rng, SWEEP_SAMPLES)

    return Op("sweep", ["sweep", "--grid", str(grid), "--out", str(out)], grid, check)


def operator_op(refs, nbar: float, ladder: bool) -> Op:
    out = WORK / f"op-{nbar:g}.csv"

    def check():
        prev = refs.ladder[-1] if ladder and refs.ladder else None
        # the dense reference takes under a second up to nbar 100
        dist = checks.check_operator(out, refs.dense(nbar) if nbar <= 100 else None, prev)
        if ladder:
            refs.ladder.append(dist)

    return Op("operator", ["exact-op", "--nbar", f"{nbar:g}", "--out", str(out)], 1, check)


def discriminate_op(refs, seed: int, samples: int, nbar: float | None) -> Op:
    out = WORK / f"discriminate-{'ideal' if nbar is None else f'exact-{nbar:g}'}.csv"
    steps, sigma = 7, 0.03
    args = ["discriminate", "--sigma", str(sigma), "--samples", str(samples), "--steps", str(steps),
            "--seed", str(seed), "--out", str(out)]
    if nbar is not None:
        args += ["--map-kind", "exact", "--nbar", f"{nbar:g}"]

    def check():
        matrix = None if nbar is None else refs.dense(nbar)
        checks.check_discrimination(out, -0.2, 0.2, sigma, samples, steps, seed, 0.0, matrix)

    return Op("discriminate", args, samples * steps, check)


# exact-op ladder; it stops below nbar ~ 1490, where the coherent amplitudes underflow
LADDER = (10.0, 100.0, 1000.0, 1400.0)


def probes(refs: References, seed: int, kinds: tuple[str, ...]) -> list[Op]:
    """A set of small commands, one per kind the workload does not centre on.

    Every run reports every end-to-end metric, so each workload carries small
    probes of the kinds of command it lacks.  The set is placed several times
    in a pass, between the heavy commands, so its few seconds of timings are
    spread over the run.  It starts with a set-up sample (setup_s).
    """
    make = {
        "basin": lambda: basin_op(refs, "0.2375pi", 200, csv=False),
        "sweep": lambda: sweep_op(refs, 16),
        "operator": lambda: operator_op(refs, 100.0, ladder=False),
        "discriminate": lambda: discriminate_op(refs, seed, 100_000, None),
    }
    return [SETUP] + [make[kind]() for kind in kinds]


def workload_ops(name: str, refs: References, seed: int) -> list[Op]:
    """The commands of one pass, heavy commands and probe sets interleaved."""
    if name == "basin-ideal":
        p = probes(refs, seed, ("sweep", "operator", "discriminate"))
        return p + [basin_op(refs, "0.2375pi", 800, csv=True)] + p + [basin_op(refs, "0.251953125pi", 400, csv=False)]
    if name == "sweep":
        p = probes(refs, seed, ("basin", "operator", "discriminate"))
        return p + [sweep_op(refs, 512)] + p
    if name == "exact-protocol":
        p = probes(refs, seed, ("sweep",))
        ladder = [operator_op(refs, n, ladder=True) for n in LADDER]
        return (ladder + p + [exact_basin_op(refs, "0.2375pi", 10.0, 400, WORK / "op-10.csv")]
                + p + [discriminate_op(refs, seed, 1_000_000, 100.0)] + p)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("basin-ideal", "sweep", "exact-protocol")


# --- running -------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("TCMAP_SEED", None)
    return env


def run_child(argv: list[str], env: dict) -> tuple[float, float, int, str]:
    """(wall s, peak RSS MB, exit code, stderr) of one child process."""
    err_path = WORK / "stderr.txt"
    with open(err_path, "wb") as err_fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err_fh)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            # wait4 rather than Popen.wait: it also returns the child's own rusage
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, err_path.read_text(errors="replace")


class Outcome:
    """Operations attempted and failed; a wrong output also clears `correct`."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def record(self, op: Op, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            print(f"FAILED tcmap {' '.join(op.args)}: {error}", file=sys.stderr)
            return
        try:
            op.check()
        except checks.CheckError as exc:
            self.failed += 1
            self.correct = False
            print(f"WRONG OUTPUT tcmap {' '.join(op.args)}: {exc}", file=sys.stderr)


class Totals:
    """What a run's passes measured.

    Each command's time is the median over its runs, so one stalled run of a
    short probe does not move the figures; a pass is then the sum of these
    typical times, each command counted as often as it runs in one pass.
    """

    def __init__(self, ops: list[Op]):
        self.per_pass = Counter(op for op in ops if op is not SETUP)
        self.walls: dict[Op, list[float]] = {op: [] for op in self.per_pass}
        self.setup: list[float] = []
        self.rss: list[float] = []

    def sample_setup(self, env: dict) -> None:
        wall, _, code, err = run_child([sys.executable, "-c", "import tcmap.cli"], env)
        if code != 0:
            raise SystemExit(f"bench: cannot import tcmap.cli from {SRC}:\n{err}")
        self.setup.append(wall)

    def typical(self, op: Op) -> float:
        return statistics.median(self.walls[op]) * self.per_pass[op]

    def metrics(self) -> dict:
        out = {
            "setup_s": (statistics.median(self.setup), "s"),
            "wall_s": (sum(self.typical(op) for op in self.per_pass), "s"),
            "peak_rss_mb": (statistics.median(self.rss), "MB"),
        }
        for kind, (name, unit) in THROUGHPUT.items():
            ops = [op for op in self.per_pass if op.kind == kind]
            work = sum(op.work * self.per_pass[op] for op in ops)
            out[name] = (work / sum(self.typical(op) for op in ops), unit)
        return out


def run_pass(ops: list[Op], env: dict, outcome: Outcome, totals: Totals) -> None:
    """One pass through the commands as child processes."""
    rss = 0.0
    for op in ops:
        if op is SETUP:
            totals.sample_setup(env)
            continue
        wall, peak, code, err = run_child([sys.executable, "-m", "tcmap.cli", *op.args], env)
        totals.walls[op].append(wall)
        rss = max(rss, peak)
        outcome.record(op, None if code == 0 else f"exit {code}: {err.strip()[-2000:]}")
    totals.rss.append(rss)


def run_in_process(ops: list[Op], cli, outcome: Outcome) -> float:
    """One pass through the commands by calling cli.main here; its wall time."""
    total = 0.0
    for op in ops:
        if op is SETUP:
            continue
        start = time.perf_counter()
        try:
            code = cli.main(list(op.args))
        except (Exception, SystemExit):  # a crash is a failed operation, not the end of the run
            code = traceback.format_exc()
        total += time.perf_counter() - start
        outcome.record(op, None if code == 0 else f"returned {code}")
    return total


def end_to_end(name: str, seed: int, seconds: float, outcome: Outcome) -> dict:
    start = time.perf_counter()
    env = child_env()
    refs = References(seed)
    ops = workload_ops(name, refs, seed)
    totals = Totals(ops)
    for _ in range(SETUP_REPEATS):
        totals.sample_setup(env)
    passes, longest = 0, 0.0
    # whole passes only, and only while one more, as long as the longest so far, ends within `seconds`
    while not passes or time.perf_counter() - start + longest <= seconds:
        refs.new_pass()
        began = time.perf_counter()
        run_pass(ops, env, outcome, totals)
        passes += 1
        longest = max(longest, time.perf_counter() - began)
    print(f"# {name}: {passes} passes, {refs.ties} rounding ties in sampled basin cells")
    for op, walls in totals.walls.items():
        print(f"# tcmap {' '.join(op.args[:3])} ({op.work} units): {len(walls)} runs, median {statistics.median(walls):.3f} s")
    return {key: {"value": value, "unit": unit} for key, (value, unit) in totals.metrics().items()}


def traced(name: str, seed: int, outcome: Outcome) -> dict:
    sys.path.insert(0, str(SRC))
    import tcmap.cli
    import tracing

    refs = References(seed)
    ops = workload_ops(name, refs, seed)
    refs.new_pass()
    untraced_s = run_in_process(ops, tcmap.cli, outcome)
    tracer = tracing.Tracer()
    tracing.install(tracer, tcmap)
    try:
        refs.new_pass()
        traced_s = run_in_process(ops, tcmap.cli, outcome)
    finally:
        tracer.restore()
    tracer.dump(WORK / f"spans-{name}.json")
    metrics = {key: {"value": value, "unit": unit} for key, (value, unit) in tracing.layer_metrics(tracer).items()}
    metrics["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tcmap" / "cli.py").is_file():
        print(f"bench: no tcmap sources at {SRC}; run from the root of a tcmap checkout", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    outcome = Outcome()
    if args.trace:
        metrics = traced(args.workload, args.seed, outcome)
    else:
        metrics = end_to_end(args.workload, args.seed, args.seconds, outcome)
    for key, m in metrics.items():
        print(f"# {key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": outcome.correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
