"""Teacher-forced one-step training.

A batch stacks snapshots of a single trajectory into one disjoint-union
graph, built as one frame's is (the token-attention stage still treats each
snapshot separately).  Inputs and targets are whitened with statistics of
one streaming pass over the training split, one such graph per run of
frames; the loss is the batch mean of the per-sample mean squared residual
over deformable nodes only.  The optimizer is Adam with an exponential
learning-rate decay.  Every random draw comes from a generator seeded by
(run seed, step), so runs are reproducible and a resumed run continues
bit-for-bit.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import data
from . import tensor as T
from .container import read_arrays, write_arrays
from .data import GraphConfig, PreparedTrajectory, feature_dims, get_schema
from .errors import (ConfigError, SchemaFormatError, TrainingAbort, ValidationError,
                     check_settings, setting)
from .mesh import GraphSample
from .model import ModelConfig, forward, init_params, param_shapes
from .tensor import Tape, Tensor

CHECKPOINT_FORMAT = "mgnt-checkpoint"
CHECKPOINT_VERSION = 5

_STD_FLOOR = 1e-8

# Adam's moment decay rates and denominator guard.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# The only train_config fields a resumed run may change.
_RESUMABLE_FIELDS = ("steps", "checkpoint_every", "log_every")

# Each normalizer group and the model-config width of the features it whitens.
_NORM_WIDTHS = (("node", "node_feat_dim"), ("mesh", "mesh_edge_feat_dim"),
                ("contact", "contact_edge_feat_dim"), ("target", "output_dim"))


@dataclass(frozen=True)
class TrainConfig:
    steps: int = setting(2000, ge=1)
    batch_size: int = setting(4, ge=1)
    lr: float = setting(1e-4, gt=0)        # unreported upstream; MGN-lineage default
    lr_min: float = setting(1e-6, gt=0)
    noise_scale: float = setting(0.003, ge=0)  # input noise, in units of feature std
    seed: int = setting(0, ge=0)
    target_mode: str = "absolute"   # "delta" retrains on state increments
    checkpoint_every: int = setting(500, ge=1)
    log_every: int = setting(50, ge=1)

    def __post_init__(self):
        check_settings(self, "train")
        if self.target_mode not in ("absolute", "delta"):
            raise ConfigError(f"unknown target mode {self.target_mode!r}")


@dataclass
class Normalizer:
    """Per-feature whitening statistics for inputs and targets."""

    node_mean: np.ndarray
    node_std: np.ndarray
    mesh_mean: np.ndarray
    mesh_std: np.ndarray
    contact_mean: np.ndarray
    contact_std: np.ndarray
    target_mean: np.ndarray
    target_std: np.ndarray

    @classmethod
    def fit(cls, trajs: list[PreparedTrajectory], target_mode: str) -> "Normalizer":
        """One pass per trajectory, one sample per run of at most
        ``data._RUN_NODE_FRAMES`` nodes times frames: each frame's column
        sums enter the running sums in frame order, as a pass over
        ``prep.sample(t)`` and ``prep.target(t)`` would add them."""
        dims = feature_dims(trajs[0].schema, trajs[0].graph_cfg)
        sums = {key: [np.zeros(dims[dim]), np.zeros(dims[dim]), 0] for key, dim in _NORM_WIDTHS}

        def add(key, block):  # block [frames, rows, F]
            s = sums[key]
            for col, sq in zip(block.sum(axis=1), (block * block).sum(axis=1)):
                s[0] += col
                s[1] += sq
            s[2] += block.shape[0] * block.shape[1]

        for prep in trajs:
            a, n = prep.traj.arrays, prep.traj.n_nodes
            run = max(data._RUN_NODE_FRAMES // n, 1)
            for start in range(0, prep.traj.n_frames, run):
                sample = prep.sample_from_frame(
                    {k: a[k][start:start + run] for k in prep.schema.series})
                frames = len(sample.sample_ranges)
                add("node", sample.node_features.reshape(frames, n, -1))
                mesh = sample.mesh_edge_features
                add("mesh", mesh.reshape(frames, -1, mesh.shape[1]))
                frame = sample.contact_edges[:, 0] // n
                for rows in np.split(sample.contact_edge_features,
                                     np.flatnonzero(np.diff(frame)) + 1):
                    add("contact", rows[None])
                for t in range(start, min(start + run, prep.n_transitions)):
                    add("target", prep.target(t, target_mode)[None])

        def stats(key):
            s, sq, n = sums[key]
            if n == 0:
                return np.zeros_like(s), np.ones_like(s)
            mean = s / n
            var = np.maximum(sq / n - mean * mean, 0.0)
            return mean, np.maximum(np.sqrt(var), _STD_FLOOR)

        return cls(*stats("node"), *stats("mesh"), *stats("contact"), *stats("target"))

    def normalize_sample(self, sample: GraphSample) -> GraphSample:
        """Whitened copy of a sample (positional encodings left untouched)."""
        return replace(
            sample,
            node_features=(sample.node_features - self.node_mean) / self.node_std,
            mesh_edge_features=(sample.mesh_edge_features - self.mesh_mean) / self.mesh_std,
            contact_edge_features=(sample.contact_edge_features - self.contact_mean)
            / self.contact_std)

    def normalize_targets(self, y: np.ndarray) -> np.ndarray:
        return (y - self.target_mean) / self.target_std

    def denormalize_targets(self, y: np.ndarray) -> np.ndarray:
        return y * self.target_std + self.target_mean

    def to_arrays(self) -> dict[str, np.ndarray]:
        return {f"norm.{k}": np.asarray(v) for k, v in asdict(self).items()}

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "Normalizer":
        fields = {k.split(".", 1)[1]: arrays[k] for k in arrays if k.startswith("norm.")}
        return cls(**fields)


def compute_loss(pred: Tensor, target: np.ndarray, deformable: np.ndarray,
                 sample_ranges: tuple[tuple[int, int], ...]) -> Tensor:
    """Mean over samples of the per-sample masked mean squared residual norm."""
    if pred.shape != target.shape:
        raise ValidationError(f"prediction {pred.shape} vs target {target.shape}")
    diff = T.add(pred, -target)   # the target takes the prediction's dtype
    sq = T.mul(diff, diff)
    n_samples = len(sample_ranges)
    acc = None
    for start, stop in sample_ranges:
        idx = start + np.where(deformable[start:stop])[0]
        if idx.size == 0:
            raise ConfigError("loss mask selects no deformable nodes")
        term = T.mul(T.sum_all(T.gather_rows(sq, idx)), 1.0 / (n_samples * idx.size))
        acc = term if acc is None else T.add(acc, term)
    return acc


def make_batch(prep: PreparedTrajectory, step_indices, target_mode: str,
               normalizer: Normalizer | None = None, noise_scale: float = 0.0,
               rng: np.random.Generator | None = None
               ) -> tuple[GraphSample, np.ndarray, np.ndarray]:
    """Disjoint-union sample + stacked targets + deformable mask for one batch.

    Inputs come from ground-truth frames (teacher forcing), optionally
    perturbed with input noise frame by frame; the frames are then stacked
    into one ``sample_from_frame`` call.  Targets always come from the clean
    successor frame.  All snapshots share the trajectory's mesh.
    """
    if noise_scale > 0.0 and (normalizer is None or rng is None):
        raise ValidationError("input noise needs a fitted normalizer and an rng")
    frames, targets = [], []
    deform = prep.deformable
    stds = prep.schema.noise_stds(normalizer) if noise_scale > 0.0 else None
    for t in step_indices:
        # target first: its step bound is the tighter one, so it reports any bad t
        targets.append(prep.target(t, target_mode))
        frame = prep.frame(t)
        if noise_scale > 0.0:
            frame = prep.schema.inject_noise(frame, noise_scale, stds, rng, deform)
        frames.append(frame)
    stacked = {k: np.stack([frame[k] for frame in frames]) for k in prep.schema.series}
    mask = np.concatenate([deform] * len(frames))
    return prep.sample_from_frame(stacked), np.concatenate(targets), mask


def _step_rng(seed: int, step: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), 0x5EED, int(step), 0])


@dataclass
class FitResult:
    params: dict[str, Tensor]
    normalizer: Normalizer
    history: np.ndarray   # columns: step, loss, lr, grad_norm


def fit(trajs: list[PreparedTrajectory], model_cfg: ModelConfig, train_cfg: TrainConfig,
        out_dir: str | None = None, resume: bool = False,
        progress: bool = False, extra_meta: dict | None = None) -> FitResult:
    """Run the optimizer loop; optionally checkpoint into out_dir, with the
    run's schema, graph config and training data digests plus ``extra_meta``,
    which may not change them."""
    if not trajs:
        raise ValidationError("need at least one training trajectory")
    ckpt_path = os.path.join(out_dir, "checkpoint.mgnt") if out_dir else None
    run_meta = {"schema": trajs[0].schema.name, "graph_config": asdict(trajs[0].graph_cfg),
                "data": [prep.traj.digest() for prep in trajs]}
    for key, value in (extra_meta or {}).items():
        if run_meta.setdefault(key, value) != value:
            raise ValidationError(f"extra_meta {key!r} is {value!r}, not this run's own")
    if resume:
        if not (ckpt_path and os.path.exists(ckpt_path)):
            raise ValidationError("resume requested but no checkpoint found")
        state = load_checkpoint(ckpt_path)
        _check_same_run(state["meta"], model_cfg, train_cfg, run_meta)
        params = state["params"]
        normalizer = state["normalizer"]
        adam_m = state["adam_m"]
        adam_v = state["adam_v"]
        start_step = state["meta"]["step"]
        history_rows: list[list[float]] = state["history"].tolist()
    else:
        normalizer = Normalizer.fit(trajs, train_cfg.target_mode)
        params = init_params(model_cfg, train_cfg.seed)
        adam_m = {k: np.zeros(p.shape) for k, p in params.items()}
        adam_v = {k: np.zeros(p.shape) for k, p in params.items()}
        start_step = 0
        history_rows = []
    names = list(params)

    lr0, lr1 = train_cfg.lr, train_cfg.lr_min
    total = max(train_cfg.steps - 1, 1)
    n_traj = len(trajs)
    grad_norm = 0.0

    for step in range(start_step, train_cfg.steps):
        rng = _step_rng(train_cfg.seed, step)
        prep = trajs[int(rng.integers(n_traj))]
        n_avail = prep.n_transitions
        k = min(train_cfg.batch_size, n_avail)
        picks = rng.choice(n_avail, size=k, replace=False)
        sample, target, mask = make_batch(
            prep, picks.tolist(), train_cfg.target_mode, normalizer=normalizer,
            noise_scale=train_cfg.noise_scale, rng=rng)
        sample = normalizer.normalize_sample(sample)
        target = normalizer.normalize_targets(target)

        lr = lr0 * (lr1 / lr0) ** (step / total)
        with Tape() as tape:
            # [0]: the slice weights are not held through the backward pass
            pred = forward(sample, params, model_cfg, train_mode=True, rng=rng)[0]
            loss = compute_loss(pred, target, mask, sample.sample_ranges)
            loss_val = loss.item()
            if not np.isfinite(loss_val):
                raise TrainingAbort(
                    f"non-finite loss at step {step} (lr={lr:.3e}, "
                    f"last grad norm={grad_norm:.3e})")
            grads = tape.gradients(loss, [params[k_] for k_ in names])
        # gradients come in the compute dtype; the norm and Adam run in float64
        grads = [g.astype(np.float64, copy=False) for g in grads]

        grad_norm = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
        b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
        c1, c2 = 1 - b1 ** (step + 1), 1 - b2 ** (step + 1)
        # moments update in place, each operation as in
        # p - lr * (m / c1) / (sqrt(v / c2) + eps); the parameters are new
        # arrays, since callers may hold the previous step's
        with np.errstate(over="ignore", invalid="ignore"):  # the check below reports it
            for name, g in zip(names, grads):
                m, v = adam_m[name], adam_v[name]
                m *= b1
                m += (1 - b1) * g
                v *= b2
                v += (1 - b2) * g * g
                update = np.divide(m, c1)
                update *= lr
                v_hat = np.divide(v, c2)
                np.sqrt(v_hat, out=v_hat)
                v_hat += eps
                update /= v_hat
                params[name] = Tensor(params[name].data - update)
        # a finite grad norm keeps both moments finite; checked before any save
        if not (np.isfinite(grad_norm) and all(np.isfinite(params[n].data).all() for n in names)):
            raise TrainingAbort(f"non-finite parameters or gradient norm at step {step} "
                                f"(lr={lr:.3e}, grad norm={grad_norm:.3e})")

        history_rows.append([float(step), loss_val, lr, grad_norm])
        if progress and (step % train_cfg.log_every == 0 or step == train_cfg.steps - 1):
            print(f"step {step:6d}  loss {loss_val:.6e}  lr {lr:.3e}  |g| {grad_norm:.3e}")
        if ckpt_path and ((step + 1) % train_cfg.checkpoint_every == 0
                          or step == train_cfg.steps - 1):
            save_checkpoint(ckpt_path, params, model_cfg, normalizer, train_cfg,
                            adam_m=adam_m, adam_v=adam_v, step=step + 1,
                            history=np.array(history_rows), run_meta=run_meta)

    history = np.array(history_rows).reshape(-1, 4)
    return FitResult(params=params, normalizer=normalizer, history=history)


def _check_same_run(saved: dict, model_cfg: ModelConfig, train_cfg: TrainConfig,
                    run_meta: dict) -> None:
    """Refuse to resume a checkpoint that another configuration or other
    training data wrote: only the step budget and the checkpoint and log
    cadence may change."""
    want = json.loads(json.dumps({"model_config": asdict(model_cfg),
                                  "train_config": asdict(train_cfg), **run_meta}))
    for key in sorted((want.keys() | saved.keys()) - {"format", "version", "step"}):
        have, asked = saved.get(key), want.get(key)
        if key == "data" and have != asked:
            if len(have) != len(asked):
                raise ConfigError(f"cannot resume: the checkpoint's run trained on "
                                  f"{len(have)} trajectories, this run on {len(asked)}")
            i = next(i for i, (a, b) in enumerate(zip(have, asked)) if a != b)
            raise ConfigError(f"cannot resume: train trajectory {i} is not the one the "
                              f"checkpoint's run trained on (data digest {asked[i][:12]}, "
                              f"not {have[i][:12]})")
        if isinstance(have, dict) and isinstance(asked, dict):
            skip = _RESUMABLE_FIELDS if key == "train_config" else ()
            pairs = [(f"{key}.{k}", have.get(k), asked.get(k))
                     for k in sorted(have.keys() | asked.keys()) if k not in skip]
        else:
            pairs = [(key, have, asked)]
        for name, old, new in pairs:
            if old != new:
                raise ConfigError(f"cannot resume: {name} is {old!r} in the checkpoint "
                                  f"but {new!r} in this run")


def write_history_csv(path: str, history: np.ndarray) -> None:
    with open(path, "w") as f:
        f.write("step,loss,lr,grad_norm\n")
        for row in history:
            f.write(f"{int(row[0])},{row[1]!r},{row[2]!r},{row[3]!r}\n")


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(path: str, params: dict[str, Tensor], model_cfg: ModelConfig,
                    normalizer: Normalizer, train_cfg: TrainConfig, adam_m: dict,
                    adam_v: dict, step: int, history: np.ndarray, run_meta: dict) -> None:
    """Write every part that ``load_checkpoint`` requires: parameter, Adam
    moment, normalizer and history arrays; format, step, model and train
    configs, then ``run_meta`` (schema, graph config and data digests) in
    the meta block."""
    arrays = {f"param.{name}": tensor.data for name, tensor in params.items()}
    arrays.update({f"adam_m.{name}": v for name, v in adam_m.items()})
    arrays.update({f"adam_v.{name}": v for name, v in adam_v.items()})
    arrays.update(normalizer.to_arrays())
    arrays["history"] = history
    meta = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "step": int(step),
        "model_config": asdict(model_cfg),
        "train_config": asdict(train_cfg),
        **run_meta,
    }
    write_arrays(path, arrays, meta=meta)


def config_from_meta(path: str, meta: dict, key: str, cls):
    """``cls(**meta[key])`` for a checkpoint meta entry.  A missing entry, a
    non-object, an unknown or missing field or a rejected value raises
    SchemaFormatError naming the entry and the field."""
    entry = meta.get(key)
    if not isinstance(entry, dict):
        raise SchemaFormatError(f"{path}: checkpoint meta {key!r} is missing or not an object")
    names = {f.name for f in fields(cls)}
    for problem, keys in (("unknown", set(entry) - names), ("missing", names - set(entry))):
        if keys:
            raise SchemaFormatError(
                f"{path}: {problem} key {min(keys)!r} in checkpoint meta {key!r}")
    try:
        return cls(**entry)
    except (TypeError, ValueError, ConfigError) as exc:
        raise SchemaFormatError(f"{path}: checkpoint meta {key!r}: {exc}") from exc


def _checked_arrays(path: str, arrays: dict, prefix: str,
                    shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """The arrays named ``prefix + name``, keyed by name: exactly the names
    and shapes of ``shapes``, or SchemaFormatError."""
    found = {k[len(prefix):]: v for k, v in arrays.items() if k.startswith(prefix)}
    for name in sorted(found.keys() | shapes.keys()):
        if name not in found:
            raise SchemaFormatError(f"{path}: checkpoint has no {prefix}{name} array")
        if name not in shapes:
            raise SchemaFormatError(f"{path}: checkpoint array {prefix}{name} is not one "
                                    "its model config has")
        if found[name].shape != tuple(shapes[name]):
            raise SchemaFormatError(f"{path}: checkpoint array {prefix}{name} has shape "
                                    f"{list(found[name].shape)}, not {list(shapes[name])}")
    return found


def load_checkpoint(path: str) -> dict:
    """A checkpoint's parameters, normalizer, optimizer state, configs and
    history.  Every part is required: parameters, both Adam moments and the
    eight normalizer arrays must have the names and shapes the model config
    implies, the history must be ``[K, 4]``, and the meta must hold the step,
    schema, whole model, graph and train configs, the model's feature
    widths those of the schema and graph config, and the training data's
    digests (``Trajectory.digest``); every array must be finite; otherwise
    SchemaFormatError."""
    arrays, meta = read_arrays(path)
    if meta.get("format") != CHECKPOINT_FORMAT:
        raise SchemaFormatError(f"{path}: not a checkpoint (format tag {meta.get('format')!r})")
    if meta.get("version") != CHECKPOINT_VERSION:
        raise SchemaFormatError(f"{path}: checkpoint format version {meta.get('version')!r}; "
                                f"this version of mgnt reads version {CHECKPOINT_VERSION}")
    if type(meta.get("step")) is not int or meta["step"] < 0:
        raise SchemaFormatError(f"{path}: checkpoint meta 'step' is {meta.get('step')!r}, "
                                "not a step count")
    model_cfg = config_from_meta(path, meta, "model_config", ModelConfig)
    try:
        schema = get_schema(meta.get("schema"))
    except ValidationError as exc:
        raise SchemaFormatError(f"{path}: checkpoint meta 'schema': {exc}") from exc
    graph_cfg = config_from_meta(path, meta, "graph_config", GraphConfig)
    for name, width in feature_dims(schema, graph_cfg).items():
        if getattr(model_cfg, name) != width:
            raise SchemaFormatError(f"{path}: checkpoint meta 'model_config' has {name} "
                                    f"{getattr(model_cfg, name)}, where its schema and "
                                    f"graph_config give {width}")
    digests = meta.get("data")
    if not (isinstance(digests, list) and digests
            and all(isinstance(d, str) and len(d) == 64 for d in digests)):
        raise SchemaFormatError(f"{path}: checkpoint meta 'data' is missing or not a "
                                "list of trajectory digests")
    shapes = param_shapes(model_cfg)
    params = {k: Tensor(v) for k, v in _checked_arrays(path, arrays, "param.", shapes).items()}
    adam_m, adam_v = (_checked_arrays(path, arrays, f"{key}.", shapes)
                      for key in ("adam_m", "adam_v"))
    _checked_arrays(path, arrays, "norm.", {f"{key}_{stat}": (getattr(model_cfg, dim),)
                                             for key, dim in _NORM_WIDTHS
                                             for stat in ("mean", "std")})
    if "history" not in arrays:
        raise SchemaFormatError(f"{path}: checkpoint has no history array")
    history = arrays["history"]
    if history.ndim != 2 or history.shape[1] != 4:
        raise SchemaFormatError(f"{path}: checkpoint array history has shape "
                                f"{list(history.shape)}, not [K, 4]")
    for name, array in arrays.items():  # fit never saves a non-finite one
        if not np.isfinite(array).all():
            raise SchemaFormatError(f"{path}: checkpoint array {name} has a non-finite value")
    return {
        "params": params,
        "adam_m": adam_m,
        "adam_v": adam_v,
        "normalizer": Normalizer.from_arrays(arrays),
        "model_config": model_cfg,
        "schema": schema,
        "graph_config": graph_cfg,
        "train_config": config_from_meta(path, meta, "train_config", TrainConfig),
        "history": history,
        "meta": meta,
    }
