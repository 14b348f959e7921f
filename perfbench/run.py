#!/usr/bin/env python3
"""The mgnt benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload impact-8 --seed 1 --seconds 30 --trace 0

Each run generates its dataset from ``--seed`` and walks the path a user
takes: oracle -> container write/read -> prepare_trajectory -> train.fit
(with a checkpoint) -> rollout.rollout -> rollout.evaluate.  The load is a
closed loop with one single-process caller.  The phases run in child
processes started here, with the BLAS thread count pinned before numpy
loads:

1. one ``gen`` process generates the dataset (``gen_traj_s``);
2. one ``main`` process runs set-up, training, rollout and evaluation, each
   repeated in separate time windows with dataset generation in between,
   and checks the outputs;
3. ``setup`` processes, one before ``main`` and more after it until
   ``--seconds`` have passed since the run began, repeat the set-up alone,
   so ``setup_s`` is a median over processes, imports included.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs the same path with spans recorded around the program's public names
and prints the per-layer metrics instead.  ``--smoke`` shrinks every phase
to a few seconds for the benchmark's own tests.  The last stdout line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Exit codes: 0 success; 1 a check or an operation failed; 2 the program
under test is not present; 3 a phase crashed or ran out of time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_build", "perfbench")

sys.path.insert(0, HERE)
from spans import merge, per_layer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
DEADLINE_S = 170.0
MIN_SETUPS, MAX_SETUPS = 3, 9
# The tail is the highest of these percentiles with at least TAIL_MIN_BEYOND
# samples above it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10
# Printed but not in BENCHMARK.json: its run-to-run spread on chain-400 was
# wider than the largest bound the benchmark may declare.
UNGATED_UNITS = {"gen_traj_s": "s"}


class PhaseFailed(Exception):
    """A child process crashed or outlived the deadline."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MGNT_SEED", None)
    for var in THREAD_VARS:
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def run_phase(phase: str, args, work: str, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), phase,
           "--workload", args.workload, "--seed", str(args.seed), "--dir", work,
           "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    env = child_env()
    env["PERFBENCH_SPAWN_T"] = repr(time.monotonic())
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise PhaseFailed(f"{phase} phase passed the {DEADLINE_S:.0f} s deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PhaseFailed(f"{phase} phase exited with code {proc.returncode}")
    return json.loads(lines[-1])


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def tail_percentile(n: int) -> float:
    """Highest percentile of the ladder with at least TAIL_MIN_BEYOND of n
    samples above it; 50 if none qualifies."""
    for p in TAIL_LADDER:
        if n - math.ceil(n * p / 100.0) >= TAIL_MIN_BEYOND:
            return p
    return 50.0


def source_digest() -> str:
    """Digest of the program and benchmark sources; keys the fingerprint cache."""
    h = hashlib.sha256()
    for base in (SRC, HERE):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith((".py", ".json")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def check_fingerprint(key: str, fingerprint: str) -> str:
    """Compare with the fingerprint an earlier run of the same code and seed
    stored in this checkout; store it if it is new."""
    path = os.path.join(OUT, "fingerprints.json")
    known = {}
    if os.path.exists(path):
        with open(path) as f:
            known = json.load(f)
    if key in known:
        return "matches" if known[key] == fingerprint else f"MISMATCH (was {known[key]})"
    known[key] = fingerprint
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return "new"


def per_step_median(repeats: list[list[float]]) -> list[float]:
    """Per position, the median over repeats of the same deterministic work
    run in separate time windows."""
    return [statistics.median(times) for times in zip(*repeats)]


def end_to_end(gens: list[list[float]], main: dict, setups: list[float],
               batch: int) -> tuple[dict, dict]:
    """Metric values and a note on each one's samples."""
    values, notes = {}, {}
    values["setup_s"] = statistics.median(setups)
    notes["setup_s"] = f"median of {len(setups)} processes"
    traj = per_step_median(gens)
    values["gen_traj_s"] = statistics.median(traj)
    notes["gen_traj_s"] = (f"median of {len(traj)} trajectories, each the median of "
                           f"{len(gens)} generations")
    steps = per_step_median(main["train_step_s"])
    values["train_samples_per_s"] = batch * len(steps) / sum(steps)
    notes["train_samples_per_s"] = (f"batch {batch} x {len(steps)} steps, checkpoint included, "
                                    f"median of {len(main['train_step_s'])} fits per step")
    for family, repeats in (("train_step_ms", main["train_step_s"]),
                            ("rollout_step_ms", main["rollout_step_s"])):
        ms = [1000.0 * s for s in per_step_median(repeats)]
        tail = tail_percentile(len(ms))
        values[f"{family}.p50"] = percentile(ms, 50.0)
        values[f"{family}.p75"] = percentile(ms, 75.0)
        notes[f"{family}.p50"] = f"n={len(ms)}, median of {len(repeats)} repeats per step"
        notes[f"{family}.p75"] = f"n={len(ms)}, tail rule gives p{tail:g}"
    values["eval_s"] = statistics.median(main["eval_s"])
    notes["eval_s"] = f"median of {len(main['eval_s'])} evaluate calls on the test split"
    values["peak_rss_mb"] = main["peak_rss_mb"]
    notes["peak_rss_mb"] = "main process"
    return values, notes


def collect(args, work: str, start: float) -> tuple[dict, dict, list[float]]:
    """Run the phases: gen, setup, main, then setups until ``--seconds`` have
    passed since the run began (at least two).  Traced runs skip the setups."""
    deadline = start + DEADLINE_S
    gen = run_phase("gen", args, work, deadline)
    setups: list[float] = []
    if not args.trace:
        setups.append(run_phase("setup", args, work, deadline).get("setup_s"))
    main_out = run_phase("main", args, work, deadline)
    setups.append(main_out.get("setup_s"))
    if not args.trace and "fingerprint" in main_out:
        while len(setups) < MIN_SETUPS or (
                len(setups) < MAX_SETUPS and time.monotonic() - start < args.seconds):
            setups.append(run_phase("setup", args, work, deadline).get("setup_s"))
    return gen, main_out, [s for s in setups if s is not None]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="few steps and frames; for the benchmark's own tests")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "mgnt", "__init__.py")):
        print(f"perfbench: the mgnt sources are not at {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    start = time.monotonic()
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    try:
        gen, main_out, setups = collect(args, work, start)
    except PhaseFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    errors = gen["ops"]["errors"] + main_out["ops"]["errors"]
    fingerprint = main_out.get("fingerprint")
    checks = {}
    if fingerprint is not None:
        key = f"{args.workload}:{args.seed}:{'smoke' if args.smoke else 'full'}:{source_digest()}"
        status = check_fingerprint(key, fingerprint)
        checks["fingerprint_repeats"] = not status.startswith("MISMATCH")
    attempted = gen["ops"]["attempted"] + main_out["ops"]["attempted"] + len(checks)
    failed = (gen["ops"]["failed"] + main_out["ops"]["failed"]
              + sum(not ok for ok in checks.values()))
    checks.update(main_out["ops"]["checks"])
    correct = failed == 0 and fingerprint is not None

    wl = WORKLOADS[args.workload]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}")
    env = main_out.get("env", {})
    print(f"env: python {env.get('python')}, numpy {env.get('numpy')}, "
          f"blas {env.get('blas')} [{env.get('blas_config')}], "
          f"blas threads {env.get('blas_threads')} (pinned), nproc {os.cpu_count()}")
    metrics: dict = {}
    if errors:
        for e in errors:
            print(f"failed op: {e}")
    elif args.trace:
        trace = merge([gen["trace"], main_out["trace"]])
        steps = main_out["trace_steps"]
        values = per_layer(trace, steps["walls"], steps["traced"], main_out["blas_ref_gflops"])
        n_traced = sum(steps["traced"])
        print(f"per-layer metrics; per-step values average {n_traced} traced train steps "
              f"of {len(steps['walls'])} (odd steps run untraced)")
        for name in units:
            metrics[name] = {"value": values[name], "unit": units[name]}
            print(f"  {name:34s} {values[name]:14.6g} {units[name]}")
    else:
        values, notes = end_to_end([gen["gen_traj_s"]] + main_out["gen_traj_s"], main_out,
                                   setups, wl["batch_size"])
        for name in units:
            metrics[name] = {"value": values[name], "unit": units[name]}
            print(f"  {name:22s} {values[name]:12.6g} {units[name]:12s} {notes[name]}")
        for name, unit in UNGATED_UNITS.items():
            print(f"  {name:22s} {values[name]:12.6g} {unit:12s} {notes[name]} (not gated)")
    for name, ok in checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    if not checks.get("census_matches_table", True):
        print(f"census (scope: [records, flops]): {json.dumps(main_out['census'])}")
    if fingerprint is not None:
        print(f"fingerprint {fingerprint} ({status})")
    print(f"ops: {failed} failed of {attempted} attempted")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
