"""Autoregressive rollout and every reported error / consistency metric.

Rollout feeds each prediction back as the next input: contact edges are
rebuilt from the predicted positions every step, deformable nodes take the
denormalized network output, and non-deformable nodes replay their stored
ground-truth kinematics verbatim.

Metrics: RMSE over one-step predictions (always restarted from ground
truth), RMSE over full rollouts, relative RMSE normalized per trajectory by
the ground-truth infinity norm, and the per-step hardening sum with its
monotonicity violation count.  In both RMSEs the non-deformable nodes carry
ground truth, so they add zero residuals to the mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PreparedTrajectory, Trajectory
from .errors import RolloutAbort, ValidationError
from .model import ModelConfig, cast_params, forward
from .train import Normalizer

@dataclass
class RolloutResult:
    frames: list[dict]                      # state arrays per step, index 0 = initial
    contact_counts: np.ndarray              # [horizon] contact edges per predicted step


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


def _step(params, model_cfg: ModelConfig, normalizer: Normalizer,
          prep: PreparedTrajectory, frame: dict, t: int, target_mode: str) -> tuple[dict, int]:
    """Predict frame t + 1 from ``frame``, which stands at step t: the next
    frame and the step's contact-edge count.  Deformable rows take the
    denormalized network output (added to the state in delta mode); the
    stored frame t + 1 supplies every other row."""
    sample = prep.sample_from_frame(frame)
    normed = normalizer.normalize_sample(sample)
    pred, _ = forward(normed, params, model_cfg, train_mode=False)
    if not np.isfinite(pred.data).all():
        raise RolloutAbort(
            f"non-finite prediction at step {t} "
            f"(nodes affected: {int((~np.isfinite(pred.data).all(axis=1)).sum())})")
    state = normalizer.denormalize_targets(pred.data)
    X = prep.traj.arrays["X"]
    if target_mode == "delta":
        state = prep.schema.state_vector(frame, X) + state
    nxt = prep.schema.advance(state, X, prep.frame(t + 1), prep.deformable)
    return nxt, sample.contact_edges.shape[0]


def rollout(params, model_cfg: ModelConfig, normalizer: Normalizer,
            prep: PreparedTrajectory, horizon: int, target_mode: str) -> RolloutResult:
    """Integrate ``horizon`` steps from the trajectory's initial frame, each
    step's prediction the next step's input."""
    if horizon < 1:
        raise ValidationError("rollout horizon must be >= 1")
    if horizon > prep.n_transitions:
        raise ValidationError(
            f"horizon {horizon} exceeds stored ground truth "
            f"({prep.n_transitions} transitions)")
    params = cast_params(params, model_cfg)   # once, not once per step
    frames = [prep.frame(0)]
    counts = np.zeros(horizon, dtype=np.int64)
    for t in range(horizon):
        frame, counts[t] = _step(params, model_cfg, normalizer, prep, frames[-1], t, target_mode)
        frames.append(frame)
    return RolloutResult(frames=frames, contact_counts=counts)


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


def _per_trajectory(pred_trajs: list[dict], gt_trajs: list[dict],
                    schema) -> dict[str, list[tuple[float, float]]]:
    """Per variable group, each trajectory's RMSE over the predicted steps
    (frame 0 is shared) and the infinity norm of its ground truth."""
    out: dict[str, list[tuple[float, float]]] = {}
    for pred, gt in zip(pred_trajs, gt_trajs):
        ps, gs = metric_series(pred, schema), metric_series(gt, schema)
        for name in ps:
            out.setdefault(name, []).append(
                (rmse(ps[name][1:], gs[name][1:]), float(np.abs(gs[name]).max())))
    return out


def rmse_all(pred_trajs: list[dict], gt_trajs: list[dict], schema) -> dict[str, dict]:
    """Pooled root-mean-square error per variable group; the mean/SE are taken
    across per-trajectory values.  Predicted steps only (frame 0 is shared)."""
    return {name: _aggregate([err for err, _ in pairs])
            for name, pairs in _per_trajectory(pred_trajs, gt_trajs, schema).items()}


def rmse_1(params, model_cfg: ModelConfig, normalizer: Normalizer,
           preps: list[PreparedTrajectory], target_mode: str) -> dict[str, dict]:
    """``rmse_all`` over one-step predictions: each frame t + 1 is predicted
    from the stored frame t, as the rollout's own step would."""
    schema = preps[0].schema
    params = cast_params(params, model_cfg)
    pred_trajs, gt_trajs = [], []
    for prep in preps:
        h = prep.n_transitions
        frames = [prep.frame(0)] + [
            _step(params, model_cfg, normalizer, prep, prep.frame(t), t, target_mode)[0]
            for t in range(h)]
        pred_trajs.append(horizon_arrays(prep.traj, schema, h, frames))
        gt_trajs.append(horizon_arrays(prep.traj, schema, h))
    return rmse_all(pred_trajs, gt_trajs, schema)


def r_rmse(pred_trajs: list[dict], gt_trajs: list[dict], schema) -> dict[str, dict]:
    """RMSE normalized per trajectory by the ground-truth infinity norm of the
    variable, in percent.  Variables with zero norm are flagged undefined."""
    out: dict[str, dict] = {}
    for name, pairs in _per_trajectory(pred_trajs, gt_trajs, schema).items():
        defined = [100.0 * err / norm for err, norm in pairs if norm != 0.0]
        out[name] = _aggregate(defined) if defined else {}
        if len(defined) < len(pairs):
            out[name]["undefined_trajectories"] = len(pairs) - len(defined)
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
    _, aux = forward(normed, params, model_cfg, train_mode=False)
    return frame["x"], aux["slice_weights"][block]


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
        consistency.append(entry)
    report = {
        "n_trajectories": len(preps),
        "rmse_all": rmse_all(pred_trajs, gt_trajs, schema),
        "r_rmse": r_rmse(pred_trajs, gt_trajs, schema),
        "rmse_1": rmse_1(params, model_cfg, normalizer, preps, target_mode),
        "consistency": consistency,
    }
    return report
