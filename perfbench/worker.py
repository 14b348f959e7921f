"""One process of a benchmark run: the ``gen``, ``setup`` or ``main`` phase.

Started by ``perfbench/run.py`` with the BLAS thread count pinned in the
environment and ``src`` on ``PYTHONPATH``; it is not meant to be run by hand.
Human-readable notes go to stderr; the last stdout line is one JSON object
for run.py.

* ``gen``    generates the workload's dataset (oracle, then ``Trajectory.save``).
* ``setup``  runs the train path from process start up to the first train
             step, then stops.
* ``main``   runs the whole user path: read containers, ``prepare_trajectory``,
             ``train.fit`` with a checkpoint, reload the checkpoint,
             ``rollout.rollout`` and ``rollout.evaluate``; untraced runs
             repeat the deterministic parts in separate time windows.  Then
             the correctness checks.

An ``MgntError`` raised by the program is counted as a failed operation and
reported, not raised.
"""

from __future__ import annotations

import argparse
import filecmp
import hashlib
import json
import math
import os
import platform
import resource
import struct
import sys
import time
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np

from mgnt import data, model, oracle, rollout, tensor, train
from mgnt.errors import MgntError

import spans
from workloads import SMOKE_FRAMES, SMOKE_STEPS, TRAIN_STEPS, WORKLOADS

clock = time.monotonic


class SetupDone(Exception):
    """Raised at the first train step of a ``setup`` process."""


class FitRecorder:
    """Step boundaries of one ``train.fit`` call, plus what its first step saw.

    Step boundaries are the calls into ``train.make_batch``.  The first step's
    batch, the state of the rng its forward pass drew Gumbel noise from, and
    the parameters it produced are kept for the first-step check.  On traced
    runs even-numbered steps carry the step patch set.
    """

    def __init__(self, tracer=None, stop_at_first: bool = False):
        self.tracer = tracer
        self.stop_at_first = stop_at_first
        self.starts: list[float] = []
        self.end = 0.0
        self.batch = None
        self.rng_state = None
        self.live_params = None   # fit's parameter dict, updated in place
        self.params_after = None
        self._step_patches = spans.Patches()
        self._step_span = None

    def boundary(self, fn):
        def wrapper(*a, **k):
            self.starts.append(clock())
            if self.stop_at_first:
                raise SetupDone
            if len(self.starts) == 2:
                self.params_after = dict(self.live_params)
            if self.tracer is None:
                out = fn(*a, **k)
            else:
                self._close_step()
                if len(self.starts) % 2 == 1:
                    spans.install_step_patches(self.tracer, self._step_patches)
                    self._step_span = self.tracer.open("train.step")
                    out = self.tracer.timed("train.make_batch", fn)(*a, **k)
                else:
                    out = fn(*a, **k)
            if len(self.starts) == 1:
                self.batch = out
                self.rng_state = k["rng"].bit_generator.state
            return out
        return wrapper

    def capture_params(self, fn):
        def wrapper(sample, params, *a, **k):
            self.live_params = params
            return fn(sample, params, *a, **k)
        return wrapper

    def _close_step(self) -> None:
        if self._step_span is not None:
            self.tracer.close(self._step_span)
            self._step_span = None
        self._step_patches.undo()

    def fit(self, ctx, run_dir: str):
        patches = spans.Patches()
        patches.wrap(train, "make_batch", self.boundary)
        patches.wrap(train, "forward", self.capture_params)
        try:
            return train.fit(ctx.preps, ctx.mcfg, ctx.tcfg, out_dir=run_dir,
                             extra_meta={"graph_config": asdict(ctx.gcfg)})
        finally:
            self.end = clock()
            if self.tracer is not None:
                self._close_step()
            patches.undo()

    def walls(self) -> list[float]:
        return [b - a for a, b in zip(self.starts, self.starts[1:] + [self.end])]


class Ops:
    """Operations attempted and failed, and the outcome of each check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, bool] = {}
        self.errors: list[str] = []

    def add(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, name: str, ok: bool) -> None:
        self.add(1, 0 if ok else 1)
        self.checks[name] = bool(ok)

    def error(self, where: str, exc: MgntError) -> None:
        self.add(1, 1)
        self.errors.append(f"{where}: {type(exc).__name__}: {exc}")

    def to_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "checks": self.checks, "errors": self.errors}


def note(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def dataset_dir(args) -> str:
    return os.path.join(args.dir, "data")


def generate(args, wl: dict, out_dir: str) -> list[float]:
    """Generate the workload's train and test split into ``out_dir``; return
    the seconds of oracle plus ``Trajectory.save`` per trajectory."""
    patches = spans.Patches()
    starts: list[float] = []
    seconds: list[float] = []

    def simulate(fn):
        def wrapper(cfg):
            starts.append(clock())
            return fn(cfg)
        return wrapper

    def save(fn):
        def wrapper(traj, path):
            fn(traj, path)
            seconds.append(clock() - starts[len(seconds)])
        return wrapper

    # Outermost wrappers, so the traced spans sit inside the timed interval.
    patches.wrap(oracle, "simulate_impact", simulate)
    patches.wrap(oracle, "simulate_chain", simulate)
    patches.wrap(data.Trajectory, "save", save)
    frames = SMOKE_FRAMES if args.smoke else wl["frames"]
    try:
        if wl["kind"] == "impact":
            cfg = oracle.OracleConfig(rows=wl["rows"], cols=wl["cols"], frames=frames)
            oracle.gen_dataset(wl["n_train"], wl["n_test"], cfg, args.seed, out_dir)
        else:
            cfg = oracle.ChainConfig(n_nodes=wl["n_nodes"], frames=frames)
            oracle.gen_chain_dataset(wl["n_train"], wl["n_test"], cfg, args.seed, out_dir)
    finally:
        patches.undo()
    return seconds


def gen_phase(args, wl: dict, ops: Ops) -> dict:
    try:
        seconds = generate(args, wl, dataset_dir(args))
    except MgntError as exc:
        ops.error("gen-data", exc)
        return {}
    ops.add(len(seconds))
    return {"gen_traj_s": seconds}


def graph_config(wl: dict) -> data.GraphConfig:
    return data.GraphConfig(use_contact=wl["use_contact"])


def train_phase(args, wl: dict, ops: Ops, tracer) -> dict:
    """``setup``, or the whole user path of ``main``."""
    spawn_t = float(os.environ["PERFBENCH_SPAWN_T"])
    out: dict = {}
    try:
        schema, split, _ = data.load_split(os.path.join(dataset_dir(args), "manifest.json"))
        gcfg = graph_config(wl)
        ctx = SimpleNamespace(
            gcfg=gcfg,
            preps=[data.prepare_trajectory(t, schema, gcfg) for t in split["train"]],
            tests=[data.prepare_trajectory(t, schema, gcfg) for t in split["test"]],
            mcfg=model.ModelConfig(**data.feature_dims(schema, gcfg)),
            tcfg=train.TrainConfig(steps=SMOKE_STEPS if args.smoke else TRAIN_STEPS,
                                   batch_size=wl["batch_size"], seed=args.seed,
                                   target_mode=wl["target_mode"],
                                   lr_min=train.TrainConfig.lr))
        first = FitRecorder(tracer, stop_at_first=args.phase == "setup")
        run_dir = os.path.join(args.dir, f"run-{os.getpid()}-1")
        os.makedirs(run_dir, exist_ok=True)
        try:
            result = first.fit(ctx, run_dir)
        except SetupDone:
            return {"setup_s": first.starts[0] - spawn_t}
        except MgntError as exc:
            ops.add(max(len(first.starts) - 1, 0))
            ops.error("train", exc)
            return out
        ops.add(len(first.starts))
        out["setup_s"] = first.starts[0] - spawn_t
        out["train_step_s"] = [first.walls()]
        if tracer is not None:
            walls = first.walls()
            out["trace_steps"] = {"walls": walls,
                                  "traced": [i % 2 == 0 for i in range(len(walls))]}
        after_training(args, wl, ops, ctx, result, first, run_dir, out)
    except MgntError as exc:
        ops.error("main", exc)
    return out


def tape_census(prep, mcfg, normalizer, batch_size: int, target_mode: str) -> dict:
    """Per-scope [records, flops] of one train-mode step on frame 0, repeated
    ``batch_size`` times.  Frame 0 holds no contact edge on any workload, so
    the census depends on the mesh and the batch size only."""
    sample, target, mask = train.make_batch(prep, [0] * batch_size, target_mode)
    sample = normalizer.normalize_sample(sample)
    target = normalizer.normalize_targets(target)
    with tensor.Tape() as tape:
        pred, _ = model.forward(sample, model.init_params(mcfg, 0), mcfg, train_mode=True,
                                rng=np.random.default_rng(0))
        train.compute_loss(pred, target, mask, sample.sample_ranges)
        census = tape.census()
    return {scope: [sum(c for c, _ in ops.values()), sum(f for _, f in ops.values())]
            for scope, ops in sorted(census.items())}


def step_zero_loss(params, ctx, normalizer, rec: FitRecorder) -> float:
    """Train-mode loss of the step-0 batch with the step-0 Gumbel draw."""
    sample, target, mask = rec.batch
    rng = np.random.default_rng()
    rng.bit_generator.state = rec.rng_state
    sample = normalizer.normalize_sample(sample)
    pred, _ = model.forward(sample, params, ctx.mcfg, train_mode=True, rng=rng)
    return train.compute_loss(pred, normalizer.normalize_targets(target), mask,
                              sample.sample_ranges).item()


def all_finite(obj) -> bool:
    if isinstance(obj, dict):
        return all(all_finite(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return all(all_finite(v) for v in obj)
    if isinstance(obj, np.ndarray):
        return bool(np.isfinite(obj).all())
    if isinstance(obj, float):
        return math.isfinite(obj)
    return True


def after_training(args, wl, ops: Ops, ctx, result, first: FitRecorder,
                   run_dir: str, out: dict) -> None:
    """Check the training, then roll out and evaluate from the reloaded
    checkpoint.  Untraced runs repeat the deterministic work in separate time
    windows (two fits, four rollouts, two evaluations, and four more dataset
    generations in between): every repeat must agree bit for bit, and run.py
    takes each step's median over the repeats.
    Results go into ``out``."""
    history = result.history
    ops.check("loss_finite", bool(np.isfinite(history[:, 1]).all()))
    # Forty steps need not lower the loss of any one batch (on chain-400 the
    # batch losses swing with the drive increment), but the first Adam step
    # must lower the loss of the batch and Gumbel draw it was computed on.
    loss0 = step_zero_loss(model.init_params(ctx.mcfg, ctx.tcfg.seed), ctx,
                           result.normalizer, first)
    loss1 = step_zero_loss(first.params_after, ctx, result.normalizer, first)
    ops.check("step0_loss_reproduces", loss0 == history[0, 1])
    ops.check("first_step_descends", loss1 < loss0)
    note(f"step-0 batch loss {loss0:.6g} -> {loss1:.6g} after one step; "
         f"train loss {history[0, 1]:.6g} at step 0, {history[-1, 1]:.6g} at the end")

    census = tape_census(ctx.preps[0], ctx.mcfg, result.normalizer, wl["batch_size"],
                         ctx.tcfg.target_mode)
    out["census"] = census
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "census.json")) as f:
        expected = json.load(f).get(args.workload)
    ops.check("census_matches_table", census == expected)

    checkpoint = os.path.join(run_dir, "checkpoint.mgnt")
    state = train.load_checkpoint(checkpoint)
    params, normalizer = state["params"], state["normalizer"]
    ops.check("checkpoint_roundtrip",
              params.keys() == result.params.keys()
              and all(np.array_equal(params[k].data, result.params[k].data) for k in params))

    rollouts, reports = [], []
    out["rollout_step_s"], out["eval_s"], out["gen_traj_s"] = [], [], []
    regenerated_same: list[bool] = []
    refit_same: list[bool] = []

    def roll():
        res, steps = timed_rollout(params, ctx.mcfg, normalizer, ctx.tests[0],
                                   ctx.tcfg.target_mode)
        ops.add(len(steps))
        rollouts.append(res.frames)
        out["rollout_step_s"].append(steps)

    def evaluate():
        t0 = clock()
        reports.append(rollout.evaluate(params, ctx.mcfg, normalizer, ctx.tests,
                                        ctx.tcfg.target_mode))
        out["eval_s"].append(clock() - t0)
        ops.add(1)

    def refit():
        again = FitRecorder()
        rerun_dir = os.path.join(args.dir, f"run-{os.getpid()}-{len(out['train_step_s']) + 1}")
        os.makedirs(rerun_dir, exist_ok=True)
        again.fit(ctx, rerun_dir)
        ops.add(len(again.starts))
        out["train_step_s"].append(again.walls())
        refit_same.append(filecmp.cmp(
            checkpoint, os.path.join(rerun_dir, "checkpoint.mgnt"), shallow=False))

    def regen():
        regen_dir = os.path.join(args.dir, f"regen-{len(out['gen_traj_s'])}")
        out["gen_traj_s"].append(generate(args, wl, regen_dir))
        ops.add(len(out["gen_traj_s"][-1]))
        regenerated_same.append(same_files(dataset_dir(args), regen_dir))

    plan = [roll, evaluate] if args.trace else [
        roll, regen, evaluate, regen, roll, refit, regen, roll, evaluate, regen, roll]
    try:
        for phase in plan:
            phase()
    except MgntError as exc:
        ops.error(phase.__name__, exc)
        return
    ops.check("rollout_finite", all_finite(rollouts[0]))
    ops.check("eval_report_finite", all_finite(reports[0]))
    ops.check("rollout_repeats", all(
        np.array_equal(a[k], b[k]) for other in rollouts[1:]
        for a, b in zip(rollouts[0], other) for k in a))
    ops.check("eval_repeats", all(json.dumps(r) == json.dumps(reports[0]) for r in reports))
    if refit_same:
        ops.check("train_repeats", all(refit_same))
        ops.check("gen_repeats", all(regenerated_same))

    last = rollouts[0][-1]
    digest = hashlib.sha256(struct.pack("<d", float(history[-1, 1])))
    for key in sorted(last):
        digest.update(key.encode())
        digest.update(np.ascontiguousarray(last[key], dtype="<f8").tobytes())
    out["fingerprint"] = digest.hexdigest()[:32]


def same_files(a: str, b: str) -> bool:
    """True if two dataset directories hold byte-identical files."""
    names = sorted(os.listdir(a))
    return names == sorted(os.listdir(b)) and all(
        filecmp.cmp(os.path.join(a, n), os.path.join(b, n), shallow=False) for n in names)


def timed_rollout(params, mcfg, normalizer, prep, target_mode):
    """Full-horizon rollout; step boundaries are the calls into
    ``PreparedTrajectory.sample_from_frame``, one per autoregressive step."""
    starts: list[float] = []

    def boundary(fn):
        def wrapper(self, frame):
            starts.append(clock())
            return fn(self, frame)
        return wrapper

    patches = spans.Patches()
    patches.wrap(data.PreparedTrajectory, "sample_from_frame", boundary)
    try:
        res = rollout.rollout(params, mcfg, normalizer, prep, prep.n_transitions, target_mode)
        end = clock()
    finally:
        patches.undo()
    return res, [b - a for a, b in zip(starts, starts[1:] + [end])]


def blas_reference_gflops(repeats: int = 7) -> float:
    """Rate of one plain [2264 x 336] . [336 x 112] matmul, median of a few."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((2264, 336))
    b = rng.standard_normal((336, 112))
    times = []
    for _ in range(repeats):
        t0 = clock()
        a @ b
        times.append(clock() - t0)
    return 2.0 * 2264 * 336 * 112 / sorted(times)[len(times) // 2] / 1e9


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("phase", choices=("gen", "setup", "main"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]
    ops = Ops()
    tracer = spans.Tracer() if args.trace else None
    phase_patches = spans.Patches()
    if tracer is not None:
        spans.install_phase_patches(tracer, phase_patches)
    if args.phase == "gen":
        out = gen_phase(args, wl, ops)
    else:
        out = train_phase(args, wl, ops, tracer)
    phase_patches.undo()
    if args.phase == "main":
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["env"] = environment()
        if tracer is not None:
            out["blas_ref_gflops"] = blas_reference_gflops()
    if tracer is not None:
        out["trace"] = tracer.reduce()
    out["ops"] = ops.to_dict()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
