"""Fast self-verification suite: gradient checks against finite differences,
normalization contracts, symmetry invariants, contact-search equivalence and
a negative control with a deliberately wrong gradient rule.  The whole suite
is sized to finish in well under a minute."""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from . import tensor as T
from .data import GraphConfig, Trajectory, feature_dims, get_schema, prepare_trajectory
from .mesh import detect_contact_edges, detect_contact_edges_bruteforce, permute_sample
from .model import ModelConfig, forward, init_params
from .oracle import OracleConfig, simulate_impact
from .tensor import Tensor, grad_check


def _sabotaged_square(x: Tensor) -> Tensor:
    """Elementwise square whose registered gradient rule is wrong on purpose."""
    out = Tensor(x.data * x.data)
    tape = T.Tape._active
    if tape is not None:
        tape.record(out, (x,), lambda g: [g], "sabotaged_square", x.size)
    return out


def _tiny_setup():
    cfg = OracleConfig(rows=3, cols=3, frames=3, substeps=4, drop_height=0.05,
                       initial_velocity=-1.0)
    traj = simulate_impact(cfg)
    schema = get_schema("impact")
    gcfg = GraphConfig(n_frequencies=2)
    prep = prepare_trajectory(traj, schema, gcfg)
    dims = feature_dims(schema, gcfg)
    # float64 compute, so finite differences and the 1e-8 invariances hold
    mcfg = ModelConfig(latent_dim=12, n_tokens=4, n_heads=2,
                       transformer_dims=(12, 8, 12), dtype="float64", **dims)
    params = init_params(mcfg, seed=0)
    return prep, mcfg, params


def run_checks() -> list[tuple[str, bool, str]]:
    results: list[tuple[str, bool, str]] = []
    rng = np.random.default_rng(2024)

    def check(name, passed, detail=""):
        results.append((name, bool(passed), detail))

    # primitive gradients
    worst = 0.0
    for _ in range(3):
        a = Tensor(rng.standard_normal((3, 4)))
        b = Tensor(rng.standard_normal((4, 3)))
        worst = max(worst, grad_check(lambda u, w: T.sum_all(T.matmul(u, w)), [a, b]))
        x = Tensor(rng.standard_normal((4, 5)))
        worst = max(worst, grad_check(lambda u: T.sum_all(T.mul(T.softmax(u, axis=1),
                                                                T.leaky_relu(u))), [x]))
        g = Tensor(rng.standard_normal(5))
        bb = Tensor(rng.standard_normal(5))
        worst = max(worst, grad_check(
            lambda u, gg, cc: T.sum_all(T.mul(T.layer_norm(u, gg, cc), u)), [x, g, bb]))
        vals = Tensor(rng.standard_normal((6, 3)))
        ids = rng.integers(0, 4, size=6)
        worst = max(worst, grad_check(
            lambda u: T.sum_all(T.mul(T.segment_sum(u, ids, 4),
                                      T.segment_sum(u, ids, 4))), [vals]))
    check("primitive gradients vs finite differences", worst < 1e-5, f"max rel err {worst:.2e}")

    # composite gradient through the full network + loss
    from .train import Normalizer, compute_loss, make_batch
    prep, mcfg, params = _tiny_setup()
    normalizer = Normalizer.fit([prep], "absolute")
    sample, target, mask = make_batch(prep, [0], "absolute")
    normed = normalizer.normalize_sample(sample)
    ntarget = normalizer.normalize_targets(target)
    names = sorted(params)[:6]

    def composite(*tensors):
        trial = dict(params)
        for nm, tens in zip(names, tensors):
            trial[nm] = tens
        pred, _ = forward(normed, trial, mcfg, train_mode=False)
        return compute_loss(pred, ntarget, mask, normed.sample_ranges)

    err = grad_check(composite, [params[nm] for nm in names])
    check("composite loss gradient", err < 1e-4, f"max rel err {err:.2e}")

    # negative control
    bad = grad_check(lambda u: T.sum_all(_sabotaged_square(u)),
                     [Tensor(rng.standard_normal((3, 3)))])
    check("negative control flags wrong gradient", bad > 1e-2, f"reported err {bad:.2e}")

    # softmax contract
    x = Tensor(rng.standard_normal((64, 9)) * 5)
    y = T.softmax(x, axis=1).data
    ok = (y > 0).all() and np.abs(y.sum(axis=1) - 1.0).max() < 1e-12
    check("softmax rows positive and sum to 1", ok)

    # slice weight contract on random latents
    from .model import slice_tokens
    h = Tensor(rng.standard_normal((200, mcfg.transformer_dims[0])))
    _, w = slice_tokens(h, params, 0, mcfg, None)
    ok = (w.data > 0).all() and np.abs(w.data.sum(axis=1) - 1.0).max() < 1e-9
    check("slice weights positive and normalized", ok)

    # permutation equivariance and translation invariance
    sample0 = normalizer.normalize_sample(prep.sample(1))
    y0, _ = forward(sample0, params, mcfg, train_mode=False)
    perm = rng.permutation(sample0.n_nodes)
    y_perm, _ = forward(permute_sample(sample0, perm), params, mcfg, train_mode=False)
    # permute_sample places old node i at new index perm[i]
    dev = np.abs(y_perm.data[perm] - y0.data).max()
    check("permutation equivariance", dev < 1e-8, f"max dev {dev:.2e}")

    shifted = Trajectory(arrays={**prep.traj.arrays,
                                 "X": prep.traj.arrays["X"] + 3.7,
                                 "x": prep.traj.arrays["x"] + 3.7},
                         meta=prep.traj.meta)
    prep_shift = prepare_trajectory(shifted, prep.schema, prep.graph_cfg)
    y_shift, _ = forward(normalizer.normalize_sample(prep_shift.sample(1)),
                         params, mcfg, train_mode=False)
    dev = np.abs(y_shift.data - y0.data).max()
    check("translation invariance", dev < 1e-8, f"max dev {dev:.2e}")

    # contact search vs brute force, frame by frame and over 3 frames at once
    mismatches = 0
    for _ in range(20):
        frames = rng.uniform(-1, 1, size=(3, 40, 2))
        stacked = detect_contact_edges(frames, 0.3, ())  # rows f * 40 + i
        for t, pts in enumerate(frames):
            slow = detect_contact_edges_bruteforce(pts, 0.3, ())
            mismatches += not (np.array_equal(detect_contact_edges(pts, 0.3, ()), slow)
                               and np.array_equal(stacked[stacked[:, 0] // 40 == t] - t * 40,
                                                  slow))
    check("contact search equals brute force", mismatches == 0,
          f"{mismatches} mismatching frames of 60")

    # deterministic forward
    y1, _ = forward(sample0, params, mcfg, train_mode=False)
    check("eval forward deterministic", np.array_equal(y0.data, y1.data))

    # float32 compute tracks float64 on the same float64 weights
    y32, _ = forward(sample0, params, replace(mcfg, dtype="float32"), train_mode=False)
    dev = np.abs(y32.data - y0.data).max()
    bound = 1e-4 * np.abs(y0.data).max()
    check("float32 eval forward matches float64", y32.data.dtype == np.float32 and dev <= bound,
          f"max dev {dev:.2e} (bound {bound:.2e})")

    return results


def main_verify() -> int:
    start = time.time()
    results = run_checks()
    width = max(len(name) for name, _, _ in results)
    all_ok = True
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        all_ok &= ok
        print(f"{name:<{width}}  {status}  {detail}")
    print(f"\n{len(results)} checks in {time.time() - start:.1f}s")
    if not all_ok:
        failed = [name for name, ok, _ in results if not ok]
        print("failed: " + ", ".join(failed))
    return 0 if all_ok else 1
