"""Print the memory of each ``fit`` step as tracemalloc counts it.

tracemalloc counts numpy's buffers, so the numbers do not depend on the host
or on the allocator.  The probe simulates one trajectory, runs ``fit`` on it
with the default model and prints one row per step:

- ``start``: live when the step's ``make_batch`` is entered: the parameters
  and Adam moments, plus whatever the previous step left behind (the
  trajectory is prepared before tracing starts and is not counted);
- ``fwd end``: live when ``forward`` returns, with everything the backward
  pass will read;
- ``fwd peak``, ``bwd peak``: the peaks inside ``forward`` and inside
  ``Tape.gradients``;
- ``step peak``: the peak over the whole step, batch assembly and Adam
  included.

Steps after the first show the steady state.  The name keeps pytest from
collecting this file::

    PYTHONPATH=src python tests/memory_probe.py --lattice 8 --batch 4 --frames 50
    PYTHONPATH=src python tests/memory_probe.py --chain 400 --batch 2 --frames 41
    PYTHONPATH=src python tests/memory_probe.py --lattice 32 --batch 4
"""

from __future__ import annotations

import argparse
import time
import tracemalloc

from mgnt import train
from mgnt.data import GraphConfig, feature_dims, get_schema, prepare_trajectory
from mgnt.model import ModelConfig
from mgnt.oracle import ChainConfig, OracleConfig, simulate_chain, simulate_impact
from mgnt.tensor import Tape

MB = 2.0 ** 20
PHASES = ("batch", "forward", "loss", "backward", "adam")


class StepMemory:
    """One row per ``fit`` step: the live memory where each phase begins
    and the tracemalloc peak of each phase."""

    def __init__(self):
        self.steps: list[dict[str, float]] = []
        self.phase: str | None = None

    def begin(self, phase: str | None) -> None:
        """End the running phase with its peak and begin ``phase``."""
        live, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        if self.phase is not None:
            self.steps[-1][f"{self.phase} peak"] = peak / MB
        if phase == "batch":
            self.steps.append({})
        if phase is not None:
            self.steps[-1][f"{phase} begin"] = live / MB
        self.phase = phase

    def trace(self, owner, name: str, phase: str, then: str | None = None) -> None:
        """Begin ``phase`` when ``owner.name`` is called, ``then`` when it returns."""
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            self.begin(phase)
            out = fn(*args, **kwargs)
            if then is not None:
                self.begin(then)
            return out

        setattr(owner, name, wrapper)


def trajectory(args):
    if args.chain:
        traj = simulate_chain(ChainConfig(n_nodes=args.chain, frames=args.frames))
        return traj, get_schema("chain"), GraphConfig(use_contact=False), "delta"
    traj = simulate_impact(OracleConfig(rows=args.lattice, cols=args.lattice,
                                        frames=args.frames))
    return traj, get_schema("impact"), GraphConfig(), "absolute"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    size = parser.add_mutually_exclusive_group()
    size.add_argument("--lattice", type=int, default=8, help="impact lattice side")
    size.add_argument("--chain", type=int, help="driven chain of this many nodes")
    parser.add_argument("--batch", type=int, default=4)
    parser.add_argument("--frames", type=int, default=12)
    parser.add_argument("--steps", type=int, default=3)
    parser.add_argument("--dtype", choices=("float32", "float64"), default="float32")
    args = parser.parse_args()

    traj, schema, gcfg, target_mode = trajectory(args)
    prep = prepare_trajectory(traj, schema, gcfg)
    mcfg = ModelConfig(**feature_dims(schema, gcfg), dtype=args.dtype)
    tcfg = train.TrainConfig(steps=args.steps, batch_size=args.batch,
                             target_mode=target_mode)
    probe = StepMemory()
    # fit looks make_batch and forward up in its module at each step
    probe.trace(train, "make_batch", "batch")
    probe.trace(train, "forward", "forward", then="loss")
    probe.trace(Tape, "gradients", "backward", then="adam")
    what = f"chain {args.chain}" if args.chain else f"{args.lattice}x{args.lattice} lattice"
    print(f"{what}, {prep.traj.n_nodes} nodes, {len(prep.graph.mesh_edges)} mesh edges, "
          f"batch {args.batch}, {args.dtype}; MB")
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        train.fit([prep], mcfg, tcfg)
        seconds = time.perf_counter() - t0
        probe.begin(None)
    finally:
        tracemalloc.stop()
    print(f"{'step':>4} {'start':>8} {'fwd end':>8} {'fwd peak':>9} {'bwd peak':>9} "
          f"{'step peak':>10}")
    for i, row in enumerate(probe.steps):
        step_peak = max(row[f"{phase} peak"] for phase in PHASES)
        print(f"{i:>4} {row['batch begin']:8.1f} {row['loss begin']:8.1f} "
              f"{row['forward peak']:9.1f} {row['backward peak']:9.1f} {step_peak:10.1f}")
    print(f"fit: {seconds:.2f} s for {args.steps} steps (under tracemalloc)")


if __name__ == "__main__":
    main()
