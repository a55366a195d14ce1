"""chbsim benchmark: one client driving one simulation run after another.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from `src/` as it
stands, nothing is installed.  BLAS and OpenMP are capped at one thread and
runs are strictly sequential (a closed loop with a single caller).

--trace 0  measures the end-to-end metrics: set-up time (median of fresh
           processes timed from their start to the first step), then
           repeated solutions to the workload's fixed horizon for S seconds
           (at least the workload's minimum number), with one clock reading
           per step.  Solution and step times are medians over the run.
--trace 1  runs untraced solutions for part of the time and at least two
           traced ones, and reports the per-layer metrics; the spans are
           written to .bench_out/ when the run ends.

Every reported time is scaled to a reference host speed by a fixed kernel
timed before and after each measurement (hostspeed.py); the raw times are
printed above the result line.

Every solution's outputs are checked (convergence, mass ledgers, energy
decay, budget residual, the recorded reference, exact repeats of iteration
counts and final fields).  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 9
TRACE_UNTRACED_SHARE = 0.4   # of --seconds, in --trace 1 runs


def _load_program():
    """Cap threads, then import numpy and the package from src/."""
    for key in THREAD_CAPS:
        os.environ[key] = "1"
    src = ROOT / "src"
    if not (src / "chbsim" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no chbsim package under {src}")
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    import chbsim  # noqa: F401


def environment(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    commit = "none: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "chbsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "nproc": len(os.sched_getaffinity(0)),
            "thread_caps": {k: os.environ.get(k) for k in THREAD_CAPS},
            "seed": seed, "git_commit": commit, "src_sha256": digest.hexdigest()[:16],
            "machine": platform.machine()}


# ---------------------------------------------------------------------------
# Set-up time: fresh processes, timed from their start to the first step
# ---------------------------------------------------------------------------

class _FirstStep(Exception):
    pass


def probe_child(wl, inputs_path: Path, workdir: Path) -> int:
    import numpy as np
    from spans import patched

    with np.load(inputs_path) as data:
        inputs = {k: data[k] for k in data.files}

    def stop(fn):
        def first_step(*args, **kwargs):
            raise _FirstStep
        return first_step

    prepared = wl.setup(inputs)
    with patched({wl.step_hook: stop}):
        try:
            wl.solve(prepared, workdir)
        except _FirstStep:
            print("ready", flush=True)
            return 0
    return 1


def setup_seconds(wl, inputs_path: Path, workdir: Path):
    """Raw set-up times of fresh processes, and the host-speed gauge
    sampled before the first and after each."""
    from hostspeed import Gauge

    gauge = Gauge()
    gauge.sample()
    times = []
    for i in range(SETUP_PROBES):
        probe_dir = workdir / f"probe{i}"
        probe_dir.mkdir()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
               "--workload", wl.name, "--inputs", str(inputs_path),
               "--workdir", str(probe_dir)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe {i} failed (exit {proc.returncode})")
        times.append(t1 - t0)
        gauge.sample()
    return times, gauge


# ---------------------------------------------------------------------------
# Solutions
# ---------------------------------------------------------------------------

class Tally:
    """Attempted and failed operations, the failure messages and the exact
    counts every repeat has to reproduce."""

    def __init__(self, wl, variant: int) -> None:
        self.wl, self.variant = wl, variant
        self.attempted = self.failed = 0
        self.messages: list[str] = []
        self.first: dict[str, object] = {}

    def record(self, outcome, counts=None) -> None:
        wl = self.wl
        self.attempted += wl.ops_per_solution()
        checked = wl.check(outcome, self.variant)
        failed, msgs = checked.failed, list(checked.messages)
        for kind, seen in (("iteration counts and final fields", wl.fingerprint(outcome)),
                           ("traced call and iteration counts", counts)):
            if seen is not None and self.first.setdefault(kind, seen) != seen:
                failed += 1
                msgs.append(f"{kind} did not repeat exactly")
        self.failed += min(failed, wl.ops_per_solution())
        self.messages += msgs

    def crashed(self) -> None:
        self.attempted += self.wl.ops_per_solution()
        self.failed += self.wl.ops_per_solution()
        self.messages.append(traceback.format_exc().strip().splitlines()[-1])
        traceback.print_exc(file=sys.stderr)


def solve_once(wl, prepared, workdir: Path, index: int):
    sol_dir = workdir / f"sol{index}"
    sol_dir.mkdir()
    t0 = time.perf_counter()
    outcome = wl.solve(prepared, sol_dir)
    return outcome, time.perf_counter() - t0, sol_dir


def untraced(wl, prepared, workdir: Path, tally: Tally, seconds: float, min_reps: int):
    """Solutions until `seconds` are used, with per-step clock readings.

    Returns each solution's wall time, the times of its stages (the calls
    of the workload's step hook) in milliseconds, both without the
    host-speed samples taken inside the solution, the scale factor of each
    solution and the host-speed gauge."""
    from hostspeed import Gauge
    from spans import Stamps, patched

    gauge = Gauge()
    gauge.sample()
    stamps = Stamps(gauge.pause)
    walls: list[float] = []
    stages_ms: list[list[float]] = []
    factors: list[float] = []
    start = time.perf_counter()
    with patched({wl.step_hook: stamps.entry, wl.exit_hook: stamps.exit}):
        while True:
            n_in, n_out = len(stamps.entries), len(stamps.exits)
            first = len(gauge.samples) - 1
            try:
                outcome, wall, sol_dir = solve_once(wl, prepared, workdir, len(walls))
            except Exception:
                tally.crashed()
                break
            gauge.sample()
            factors.append(gauge.factor(first, len(gauge.samples) - 1))
            pauses = stamps.pauses[n_in:]
            walls.append(wall - sum(pauses))
            points = stamps.entries[n_in:] + stamps.exits[n_out:n_out + 1]
            # The pause after an entry reading falls inside that stage.
            stages = [1e3 * (b - a - p) for a, b, p in zip(points, points[1:], pauses)]
            stages_ms.append(stages[:wl.horizon * wl.stages_per_step])
            tally.record(outcome)
            shutil.rmtree(sol_dir)
            elapsed = time.perf_counter() - start
            if len(walls) >= min_reps and elapsed + statistics.median(walls) > seconds:
                break
    return walls, stages_ms, factors, gauge


def traced(wl, prepared, workdir: Path, tally: Tally, seconds: float):
    """At least two traced solutions; per-layer metrics from each, with
    times scaled to the reference host speed."""
    from hostspeed import Gauge
    from spans import Tracer, layer_metrics

    gauge = Gauge()
    gauge.sample()
    walls, per_solution, tracers = [], [], []
    start = time.perf_counter()
    while True:
        tracer = Tracer()
        try:
            with tracer.active():
                outcome, wall, sol_dir = solve_once(wl, prepared, workdir,
                                                    1000 + len(walls))
        except Exception:
            tally.crashed()
            break
        gauge.sample()
        f = gauge.factor(len(walls), len(walls) + 1)
        walls.append(wall * f)
        tracers.append(tracer)
        tally.record(outcome, tracer.counts())
        per_solution.append({name: (value * f if unit in TIME_UNITS else value, unit)
                             for name, (value, unit) in
                             layer_metrics(tracer, wl.horizon).items()})
        shutil.rmtree(sol_dir)
        elapsed = time.perf_counter() - start
        if len(walls) >= 2 and elapsed * (1 + 1 / len(walls)) > seconds:
            break
    return walls, per_solution, tracers


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

TIME_UNITS = ("s", "ms", "us")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write_trace(wl, seed: int, env: dict, tracers, metrics: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{wl.name}-seed{seed}.json"
    doc = {"workload": wl.name, "environment": env, "metrics": metrics,
           "solutions": [{"solution": i, "layers": t.table(), "counts": t.counts()}
                         for i, t in enumerate(tracers)],
           "spans_of_solution_0": tracers[0].spans}
    path.write_text(json.dumps(doc))
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=22.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--inputs", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _load_program()
    import numpy as np
    from workloads import VARIANTS, WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    if args.probe_setup:
        return probe_child(wl, args.inputs, args.workdir)

    variant = args.seed % VARIANTS
    env = environment(args.seed)
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{wl.name}-{os.getpid()}"
    workdir.mkdir()
    tally = Tally(wl, variant)
    metrics: dict[str, dict] = {}
    notes: list[str] = []
    try:
        inputs = wl.inputs(variant)
        prepared = wl.setup(inputs)
        if args.trace == 0:
            inputs_path = workdir / "inputs.npz"
            np.savez(inputs_path, **inputs)
            setups, setup_gauge = setup_seconds(wl, inputs_path, workdir)
            walls, stages_ms, factors, gauge = untraced(wl, prepared, workdir, tally,
                                                        args.seconds, wl.min_reps)
            if not walls:
                raise RuntimeError("no solution completed")
            spp = wl.stages_per_step
            steps = [f * sum(stages[k * spp:(k + 1) * spp])
                     for f, stages in zip(factors, stages_ms) for k in range(wl.horizon)]
            pct = wl.tail_pct
            metrics = {
                "setup_s": {"value": statistics.median(
                    t * setup_gauge.factor(i, i + 1) for i, t in enumerate(setups)),
                    "unit": "s"},
                "wall_s": {"value": statistics.median(
                    w * f for w, f in zip(walls, factors)), "unit": "s"},
                "step_ms_p50": {"value": statistics.median(steps), "unit": "ms"},
                "step_ms_tail": {"value": statistics.quantiles(
                    steps, n=100, method="inclusive")[pct - 1], "unit": "ms"},
                "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            }
            notes.append(f"setup_s: median of {len(setups)} fresh processes, raw "
                         f"{[round(s, 4) for s in setups]}")
            notes.append(f"wall_s: median of {len(walls)} solutions of {wl.horizon} steps, "
                         f"raw {[round(w, 4) for w in walls]}")
            notes.append(f"step_ms_p50, step_ms_tail: median and p{pct} of {len(steps)} steps")
            notes.append(f"host-speed kernel, ms: set-up "
                         f"{[round(1e3 * k, 3) for k in setup_gauge.samples]}; solutions: "
                         f"{len(gauge.samples)} samples, median "
                         f"{1e3 * statistics.median(gauge.samples):.3f}, range "
                         f"{1e3 * min(gauge.samples):.3f}..{1e3 * max(gauge.samples):.3f}; "
                         f"scale factors {[round(f, 4) for f in factors]}")
        else:
            walls_u, _, factors, _ = untraced(wl, prepared, workdir, tally,
                                              TRACE_UNTRACED_SHARE * args.seconds, 2)
            # The process's first solution warms lazy imports and caches, and
            # every traced solution comes after it: leave it out of the base.
            walls_u = [w * f for w, f in zip(walls_u, factors)][1:]
            walls_t, per_solution, tracers = traced(
                wl, prepared, workdir, tally, (1.0 - TRACE_UNTRACED_SHARE) * args.seconds)
            if not walls_u or not per_solution:
                raise RuntimeError("no solution completed")
            for name in per_solution[0]:
                unit = per_solution[0][name][1]
                metrics[name] = {"value": statistics.median(m[name][0] for m in per_solution),
                                 "unit": unit}
            metrics["trace.overhead_s"] = {
                "value": statistics.median(walls_t) - statistics.median(walls_u), "unit": "s"}
            path = write_trace(wl, args.seed, env, tracers, metrics)
            notes.append(f"{len(walls_u)} untraced and {len(walls_t)} traced solutions; "
                         f"spans in {path.relative_to(ROOT)}")
    except Exception:
        tally.crashed()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {wl.name} (variant {variant}): {wl.why}")
    print("environment " + json.dumps(env, sort_keys=True))
    for note in notes:
        print(note)
    for msg in tally.messages[:20]:
        print("CHECK FAILED: " + msg)
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    correct = tally.failed == 0 and tally.attempted > 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": max(tally.attempted, 1),
                      "failed": tally.failed if tally.attempted else 1,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
