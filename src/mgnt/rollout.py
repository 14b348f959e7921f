"""Autoregressive rollout and every reported error / consistency metric.

Rollout feeds each prediction back as the next input: contact edges are
rebuilt from the predicted positions every step, deformable nodes take the
denormalized network output, and non-deformable nodes replay their stored
ground-truth kinematics verbatim.

Metrics: RMSE over one-step predictions (always restarted from ground
truth), RMSE over full rollouts, relative RMSE normalized per trajectory by
the ground-truth infinity norm, the per-step hardening sum with its
monotonicity violation count, and the kinetic proxy (sum over nodes of the
squared velocity norm).  In both RMSEs the non-deformable nodes carry ground
truth, so they add zero residuals to the mean.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import PreparedTrajectory, Trajectory
from .errors import RolloutAbort, ValidationError
from .model import ModelConfig, cast_params, forward
from .train import Normalizer, make_batch

@dataclass
class RolloutResult:
    frames: list[dict]                      # state arrays per step, index 0 = initial
    contact_counts: np.ndarray              # [horizon] contact edges per predicted step
    slice_weights: list[list[np.ndarray]] = field(default_factory=list)


def horizon_arrays(traj: Trajectory, schema, horizon: int,
                   frames: list[dict] | None = None) -> dict[str, np.ndarray]:
    """The trajectory's arrays with each of the schema's series cut to its
    first ``horizon + 1`` frames or, given rollout frames, replaced by their
    stack; every static array is kept as stored."""
    arrays = dict(traj.arrays)
    for k in schema.series:
        arrays[k] = (arrays[k][: horizon + 1] if frames is None
                     else np.stack([f[k] for f in frames]))
    return arrays


def rollout(params, model_cfg: ModelConfig, normalizer: Normalizer,
            prep: PreparedTrajectory, horizon: int, target_mode: str,
            collect_weights: bool = False) -> RolloutResult:
    """Integrate ``horizon`` steps from the trajectory's initial frame; the
    stored frame t supplies the non-deformable rows and control features of
    step t."""
    if horizon < 1:
        raise ValidationError("rollout horizon must be >= 1")
    if horizon > prep.n_transitions:
        raise ValidationError(
            f"horizon {horizon} exceeds stored ground truth "
            f"({prep.n_transitions} transitions)")
    schema = prep.schema
    deform = prep.deformable
    X = prep.graph.mesh.reference_positions
    params = cast_params(params, model_cfg)   # once, not once per step

    frame = prep.frame(0)
    frames = [frame]
    counts = np.zeros(horizon, dtype=np.int64)
    weights: list[list[np.ndarray]] = []
    for t in range(horizon):
        sample = prep.sample_from_frame(frame)
        counts[t] = sample.contact_edges.shape[0]
        normed = normalizer.normalize_sample(sample)
        pred, aux = forward(normed, params, model_cfg, train_mode=False,
                            collect_weights=collect_weights)
        if not np.isfinite(pred.data).all():
            raise RolloutAbort(
                f"non-finite prediction at rollout step {t} "
                f"(nodes affected: {int((~np.isfinite(pred.data).all(axis=1)).sum())})")
        if collect_weights:
            weights.append(aux["slice_weights"])
        state = normalizer.denormalize_targets(pred.data)
        if target_mode == "delta":
            state = schema.state_vector(frame, X) + state
        frame = schema.advance(state, X, prep.frame(t + 1), deform)
        frames.append(frame)
    return RolloutResult(frames=frames, contact_counts=counts, slice_weights=weights)


# ---------------------------------------------------------------------------
# error metrics

def metric_series(arrays: dict, schema) -> dict[str, np.ndarray]:
    """Per-variable [T, N, k] error series: the trajectory's state in target
    layout, split by the schema's variable groups."""
    state = schema.state_vector(arrays, arrays["X"])
    return {name: state[..., lo:hi] for name, (lo, hi) in schema.variable_groups.items()}


def rmse(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        raise ValidationError(f"metric shapes differ: {a.shape} vs {b.shape}")
    d = a - b
    return float(np.sqrt(np.mean(d * d)))


def _aggregate(values: list[float]) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    out = {"mean": float(arr.mean()), "per_trajectory": arr.tolist()}
    if arr.size >= 2:
        out["se"] = float(arr.std(ddof=1) / np.sqrt(arr.size))
    return out


def rmse_all(pred_trajs: list[dict], gt_trajs: list[dict], schema) -> dict[str, dict]:
    """Pooled root-mean-square error per variable group; the mean/SE are taken
    across per-trajectory values.  Predicted steps only (frame 0 is shared)."""
    per_var: dict[str, list[float]] = {}
    for pred, gt in zip(pred_trajs, gt_trajs):
        ps = metric_series(pred, schema)
        gs = metric_series(gt, schema)
        for name in ps:
            per_var.setdefault(name, []).append(rmse(ps[name][1:], gs[name][1:]))
    return {name: _aggregate(vals) for name, vals in per_var.items()}


def rmse_1(params, model_cfg: ModelConfig, normalizer: Normalizer,
           preps: list[PreparedTrajectory], target_mode: str) -> dict[str, dict]:
    """One forward step from every ground-truth frame; same reduction as
    rmse_all over the one-step residuals, in denormalized target units.
    Non-deformable rows take ground truth, as in a rollout, so their
    residual is zero."""
    schema = preps[0].schema
    params = cast_params(params, model_cfg)
    per_var: dict[str, list[float]] = {name: [] for name in schema.variable_groups}
    for prep in preps:
        sq_sums = {name: 0.0 for name in schema.variable_groups}
        counts = {name: 0 for name in schema.variable_groups}
        deform = prep.deformable
        for t in range(prep.n_transitions):
            sample, target, _ = make_batch(prep, [t], target_mode)
            normed = normalizer.normalize_sample(sample)
            pred, _ = forward(normed, params, model_cfg, train_mode=False)
            resid = normalizer.denormalize_targets(pred.data) - target
            resid[~deform] = 0.0
            for name, (lo, hi) in schema.variable_groups.items():
                block = resid[:, lo:hi]
                sq_sums[name] += float((block * block).sum())
                counts[name] += block.size
        for name in per_var:
            per_var[name].append(float(np.sqrt(sq_sums[name] / counts[name])))
    return {name: _aggregate(vals) for name, vals in per_var.items()}


def r_rmse(pred_trajs: list[dict], gt_trajs: list[dict], schema) -> dict[str, dict]:
    """RMSE normalized per trajectory by the ground-truth infinity norm of the
    variable, in percent.  Variables with zero norm are flagged undefined."""
    per_var: dict[str, list[float]] = {}
    undefined: dict[str, int] = {}
    for pred, gt in zip(pred_trajs, gt_trajs):
        ps = metric_series(pred, schema)
        gs = metric_series(gt, schema)
        for name in ps:
            inf_norm = float(np.abs(gs[name]).max())
            if inf_norm == 0.0:
                undefined[name] = undefined.get(name, 0) + 1
                continue
            per_var.setdefault(name, []).append(
                100.0 * rmse(ps[name][1:], gs[name][1:]) / inf_norm)
    out = {name: _aggregate(vals) for name, vals in per_var.items()}
    for name, n in undefined.items():
        out.setdefault(name, {})["undefined_trajectories"] = n
    return out


# ---------------------------------------------------------------------------
# physical consistency

def hardening_monotonicity(alpha: np.ndarray) -> tuple[np.ndarray, int]:
    """Per-step hardening sums and the count of decreases by more than 1e-9
    of the largest sum."""
    sums = alpha.sum(axis=1)
    tol = 1e-9 * max(float(sums.max()), 1e-30)
    drops = sums[1:] < sums[:-1] - tol
    return sums, int(drops.sum())


def kinetic_proxy(v: np.ndarray) -> np.ndarray:
    """Per-step sum over nodes of |v|^2 (energy-like proxy)."""
    return (v * v).sum(axis=-1).sum(axis=1)


def export_attention(params, model_cfg: ModelConfig, normalizer: Normalizer,
                     prep: PreparedTrajectory, t: int, block: int
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Slice-weight field of one block at one frame (eval mode), with node
    positions for plotting: returns (positions [N,d], weights [N,P])."""
    if not 0 <= block < model_cfg.n_transformer_blocks:
        raise ValidationError(
            f"block index {block} out of range "
            f"[0, {model_cfg.n_transformer_blocks})")
    frame = prep.frame(t)
    sample = prep.sample_from_frame(frame)
    normed = normalizer.normalize_sample(sample)
    _, aux = forward(normed, params, model_cfg, train_mode=False, collect_weights=True)
    return frame["x"].copy(), aux["slice_weights"][block]


# ---------------------------------------------------------------------------
# report assembly

def evaluate(params, model_cfg: ModelConfig, normalizer: Normalizer,
             preps: list[PreparedTrajectory], target_mode: str,
             horizon: int | None = None) -> dict:
    """Roll out every trajectory and assemble the full metrics report."""
    schema = preps[0].schema
    pred_trajs, gt_trajs = [], []
    consistency = []
    for prep in preps:
        h = horizon if horizon is not None else prep.n_transitions
        result = rollout(params, model_cfg, normalizer, prep, h, target_mode)
        pred = horizon_arrays(prep.traj, schema, h, result.frames)
        gt = horizon_arrays(prep.traj, schema, h)
        pred_trajs.append(pred)
        gt_trajs.append(gt)
        entry = {"contact_counts": result.contact_counts.tolist()}
        if "alpha" in pred:
            s_pred, viol_pred = hardening_monotonicity(pred["alpha"])
            s_gt, viol_gt = hardening_monotonicity(gt["alpha"])
            entry.update({
                "hardening_sum_pred": s_pred.tolist(),
                "hardening_sum_gt": s_gt.tolist(),
                "hardening_violations_pred": viol_pred,
                "hardening_violations_gt": viol_gt,
            })
        if "v" in pred:
            entry["kinetic_pred"] = kinetic_proxy(pred["v"]).tolist()
            entry["kinetic_gt"] = kinetic_proxy(gt["v"]).tolist()
        consistency.append(entry)
    report = {
        "n_trajectories": len(preps),
        "rmse_all": rmse_all(pred_trajs, gt_trajs, schema),
        "r_rmse": r_rmse(pred_trajs, gt_trajs, schema),
        "rmse_1": rmse_1(params, model_cfg, normalizer, preps, target_mode),
        "consistency": consistency,
    }
    return report
