"""Outside-in tracing for the mgnt benchmark.

Spans are recorded by rebinding public names of the mgnt modules inside the
benchmark's own process; nothing under ``src/`` is edited.  A span is
``[name, start, end, parent]`` with ``parent`` the index of the span that was
open when it started (-1 at top level).  Spans stay in memory and are reduced
to per-layer metrics when the process ends.

Two patch sets exist.  The *phase* set (contact search, sample assembly,
containers, oracle, rollout) stays installed for the whole traced process.
The *step* set (tensor ops, tape backward, model stages, loss and
normalization) is installed on even-numbered train steps only, so odd steps
run untraced and the difference of the two medians is the tracing overhead.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import defaultdict

clock = time.monotonic

FWD_OPS = ("matmul", "segment_sum", "gather_rows", "concat", "layer_norm", "add")
BWD_OPS = ("matmul", "gather_rows", "segment_sum", "layer_norm", "concat")
# The seven labelled network stages, plus "main": tape records made outside
# them (block projections, residuals, block layer norm and FFN, and the loss).
SCOPES = ("encode", "mpnn_pre", "slice", "token_attention", "deslice",
          "mpnn_refine", "decode", "main")


class Patches:
    """Rebind attributes of modules or classes; ``undo`` restores them in
    reverse order."""

    def __init__(self):
        self._saved: list[tuple] = []

    def wrap(self, owner, name: str, make) -> None:
        """Replace ``owner.name`` with ``make(original function)``."""
        raw = vars(owner)[name]
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._saved.append((owner, name, raw))
        setattr(owner, name, new)

    def undo(self) -> None:
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)


class Tracer:
    """In-memory span log plus named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, clock(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = clock()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]!r} closed out of order")

    def timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return wrapper

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] += value

    def reduce(self) -> dict:
        """Totals (seconds) and counts by span name, and by (name, parent name).
        ``child`` holds, per span name, the time covered by its direct children."""
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child: dict[str, float] = defaultdict(float)
        pair_total: dict[str, float] = defaultdict(float)
        pair_calls: dict[str, int] = defaultdict(int)
        for name, start, end, parent in self.spans:
            d = end - start
            total[name] += d
            calls[name] += 1
            pname = self.spans[parent][0] if parent >= 0 else ""
            child[pname] += d
            pair_total[f"{name}<{pname}"] += d
            pair_calls[f"{name}<{pname}"] += 1
        return {"total": dict(total), "calls": dict(calls), "child": dict(child),
                "pair_total": dict(pair_total), "pair_calls": dict(pair_calls),
                "counters": dict(self.counters)}


def install_phase_patches(tracer: Tracer, patches: Patches) -> None:
    """Spans around contact search, sample assembly, preparation, normalizer
    fitting, checkpoints, containers, the oracles and the rollout path."""
    from mgnt import data, mesh, oracle, rollout, train

    def contact(fn):
        timed = tracer.timed("mesh.detect_contact_edges", fn)

        def wrapper(*args, **kwargs):
            edges = timed(*args, **kwargs)
            tracer.count("mesh.contact_edges", edges.shape[0])
            return edges
        return wrapper

    def container_write(fn):
        timed = tracer.timed("container.write", fn)

        def wrapper(path, *args, **kwargs):
            timed(path, *args, **kwargs)
            tracer.count("container.bytes", os.path.getsize(path))
        return wrapper

    def container_read(fn):
        timed = tracer.timed("container.read", fn)

        def wrapper(path, *args, **kwargs):
            tracer.count("container.bytes", os.path.getsize(path))
            return timed(path, *args, **kwargs)
        return wrapper

    def span(name):
        return lambda fn: tracer.timed(name, fn)

    patches.wrap(mesh, "detect_contact_edges", contact)
    patches.wrap(data.PreparedTrajectory, "sample_from_frame", span("data.sample_from_frame"))
    patches.wrap(data, "prepare_trajectory", span("data.prepare_trajectory"))
    patches.wrap(train.Normalizer, "fit", span("train.normalizer_fit"))
    patches.wrap(train, "save_checkpoint", span("train.save_checkpoint"))
    for module in (data, train):
        patches.wrap(module, "write_arrays", container_write)
        patches.wrap(module, "read_arrays", container_read)
    patches.wrap(oracle, "simulate_impact", span("oracle.simulate"))
    patches.wrap(oracle, "simulate_chain", span("oracle.simulate"))
    patches.wrap(rollout, "rollout", span("rollout.rollout"))
    patches.wrap(rollout, "forward", span("rollout.forward"))
    patches.wrap(rollout, "rmse_1", span("rollout.rmse_1"))
    for schema in (data.ImpactSchema, data.ChainSchema):
        patches.wrap(schema, "advance", span("rollout.advance"))


def install_step_patches(tracer: Tracer, patches: Patches) -> None:
    """Spans for one train step: tensor ops, every backward closure keyed by
    op and by the scope its tape record carries, model stages, loss and
    normalization."""
    from mgnt import model, tensor, train

    for op in FWD_OPS:
        patches.wrap(tensor, op, lambda fn, op=op: tracer.timed(f"fwd:{op}", fn))

    def gradients(fn):
        timed = tracer.timed("tensor.gradients", fn)

        def wrapper(tape, root, wrt):
            records = tape.records
            for i, (out, inputs, backward, name, scope, flops) in enumerate(records):
                records[i] = (out, inputs, tracer.timed(f"bwd:{name}:{scope}", backward),
                              name, scope, flops)
            tracer.count("tensor.records", len(records))
            for scope, ops in tape.counts.items():
                tracer.count(f"model.records.{scope}", sum(c for c, _ in ops.values()))
                tracer.count(f"model.flops.{scope}", sum(f for _, f in ops.values()))
            return timed(tape, root, wrt)
        return wrapper

    def mpnn(fn):
        pre = tracer.timed("model.mpnn_pre", fn)
        refine = tracer.timed("model.mpnn_refine", fn)

        def wrapper(lat, sample, params, index, cfg):
            return (pre if index < cfg.mpnn_pre else refine)(lat, sample, params, index, cfg)
        return wrapper

    def span(name):
        return lambda fn: tracer.timed(name, fn)

    patches.wrap(tensor.Tape, "gradients", gradients)
    patches.wrap(model, "encode", span("model.encode"))
    patches.wrap(model, "mpnn_iteration", mpnn)
    patches.wrap(model, "transformer_block", span("model.transformer_block"))
    patches.wrap(model, "slice_tokens", span("model.slice"))
    patches.wrap(model, "token_attention", span("model.token_attention"))
    patches.wrap(model, "deslice", span("model.deslice"))
    patches.wrap(train, "forward", span("train.forward"))
    patches.wrap(train, "compute_loss", span("train.compute_loss"))
    patches.wrap(train.Normalizer, "normalize_sample", span("train.normalize"))
    patches.wrap(train.Normalizer, "normalize_targets", span("train.normalize"))


def merge(reductions: list[dict]) -> dict:
    """Sum the reductions of several processes."""
    out: dict = {}
    for red in reductions:
        for key, table in red.items():
            dst = out.setdefault(key, defaultdict(float))
            for name, value in table.items():
                dst[name] += value
    return out


def per_layer(red: dict, step_walls: list[float], traced: list[bool],
              ref_gflops: float) -> dict[str, float]:
    """Per-layer metrics from the merged reductions.  ``*_ms`` values are per
    traced train step unless the name says per call."""
    total, calls, child = red["total"], red["calls"], red["child"]
    pair_total, pair_calls = red["pair_total"], red["pair_calls"]
    counters = red["counters"]
    g = lambda table, key: table.get(key, 0.0)  # noqa: E731
    n = g(calls, "tensor.gradients")
    if n == 0:
        raise ValueError("no traced train step")
    per_step = lambda seconds: 1000.0 * seconds / n  # noqa: E731

    def per_call(name, table_total=total, table_calls=calls):
        c = g(table_calls, name)
        return 1000.0 * g(table_total, name) / c if c else 0.0

    m: dict[str, float] = {}
    m["tensor.bwd_accumulate_ms"] = per_step(
        g(total, "tensor.gradients") - g(child, "tensor.gradients"))
    for op in FWD_OPS:
        m[f"tensor.fwd_ms.{op}"] = per_step(g(total, f"fwd:{op}"))
    bwd_op = defaultdict(float)
    bwd_scope = defaultdict(float)
    for name, seconds in total.items():
        if name.startswith("bwd:"):
            _, op, scope = name.split(":", 2)
            bwd_op[op] += seconds
            bwd_scope[scope] += seconds
    for op in BWD_OPS:
        m[f"tensor.bwd_ms.{op}"] = per_step(bwd_op[op])
    m["tensor.records"] = g(counters, "tensor.records") / n
    m["blas.ref_gflops"] = ref_gflops

    block = g(total, "model.transformer_block")
    inner = sum(g(total, f"model.{s}") for s in ("slice", "token_attention", "deslice"))
    fwd = {s: g(total, f"model.{s}") for s in SCOPES}
    fwd["main"] = block - inner + g(total, "train.compute_loss")
    fwd["decode"] = (g(total, "train.forward") - fwd["encode"] - fwd["mpnn_pre"]
                     - fwd["mpnn_refine"] - block)
    for s in SCOPES:
        fwd_ms = per_step(fwd[s])
        flops = g(counters, f"model.flops.{s}") / n
        m[f"model.fwd_ms.{s}"] = fwd_ms
        m[f"model.bwd_ms.{s}"] = per_step(bwd_scope[s])
        m[f"model.records.{s}"] = g(counters, f"model.records.{s}") / n
        m[f"model.flops.{s}"] = flops
        m[f"model.gflops.{s}"] = flops / fwd_ms / 1e6 if fwd_ms > 0 else 0.0

    contact_calls = g(calls, "mesh.detect_contact_edges")
    m["mesh.contact_ms"] = per_call("mesh.detect_contact_edges")
    m["mesh.contact_calls"] = contact_calls
    m["mesh.contact_edges"] = (g(counters, "mesh.contact_edges") / contact_calls
                               if contact_calls else 0.0)

    m["data.prepare_ms"] = per_call("data.prepare_trajectory")
    m["data.sample_ms"] = per_call("data.sample_from_frame")

    m["train.normalizer_fit_ms"] = per_call("train.normalizer_fit")
    m["train.batch_ms"] = per_step(g(total, "train.make_batch"))
    m["train.normalize_ms"] = per_step(g(total, "train.normalize"))
    m["train.loss_ms"] = per_step(g(total, "train.compute_loss"))
    m["train.checkpoint_ms"] = per_call("train.save_checkpoint")
    # Adam runs inline in fit: whatever a traced step spends outside its
    # timed child spans.
    m["train.adam_ms.derived"] = per_step(g(total, "train.step") - g(child, "train.step"))

    m["container.read_ms"] = 1000.0 * g(total, "container.read")
    m["container.write_ms"] = 1000.0 * g(total, "container.write")
    m["container.bytes"] = g(counters, "container.bytes")

    m["oracle.simulate_ms"] = per_call("oracle.simulate")

    m["rollout.sample_ms"] = per_call("data.sample_from_frame<rollout.rollout",
                                      pair_total, pair_calls)
    m["rollout.forward_ms"] = per_call("rollout.forward<rollout.rollout",
                                       pair_total, pair_calls)
    m["rollout.advance_ms"] = per_call("rollout.advance<rollout.rollout",
                                       pair_total, pair_calls)
    m["rollout.rmse1_ms"] = per_call("rollout.rmse_1")

    on = sorted(w for w, t in zip(step_walls, traced) if t)
    off = sorted(w for w, t in zip(step_walls, traced) if not t)
    m["trace.overhead_ms"] = (1000.0 * (statistics.median(on) - statistics.median(off))
                              if on and off else 0.0)
    return m

