"""Plain-text key-value run configuration with a fixed, documented schema.

Files contain ``key = value`` lines (``#`` starts a comment).  A key
``section.name`` stands for the field ``name`` of its section's config class
(``data`` -> ``OracleConfig``, ``chain`` -> ``ChainConfig``, ``graph`` ->
``GraphConfig``, ``model`` -> ``ModelConfig``, ``train`` -> ``TrainConfig``)
and takes its default, its value type and its domain from that field;
``SCHEMA`` adds the order, a provenance note distinguishing values taken from
the reference experiment tables from package defaults, and a help line.
Unknown keys are rejected; a value the config class rejects raises
``ConfigError`` (exit 2) when the command builds that section.  The CLI's
``--seed N`` overrides every seed key.  The resolved configuration is echoed
verbatim next to every command's outputs so runs can be reproduced from
their artifacts alone.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from .errors import ConfigError
from .mesh import GraphConfig
from .model import ModelConfig
from .oracle import ChainConfig, OracleConfig
from .train import TrainConfig

SECTIONS = {"data": OracleConfig, "chain": ChainConfig, "graph": GraphConfig,
            "model": ModelConfig, "train": TrainConfig}


@dataclass(frozen=True)
class Key:
    provenance: str            # "paper" or "default"
    help: str
    default: object = None     # set only where the class field is absent or differs
    field: str | None = None   # set only where the field name differs from the key's


SCHEMA: dict[str, Key] = {
    # dataset generation: elastoplastic impact lattice
    "data.kind": Key("default", "dataset family: impact or chain", default="impact"),
    "data.n_train": Key("paper", "training trajectories", default=18),
    "data.n_test": Key("paper", "test trajectories", default=10),
    "data.rows": Key("default", "lattice rows (desk scale)"),
    "data.cols": Key("default", "lattice cols (desk scale)"),
    "data.frames": Key("default", "stored frames per trajectory"),
    "data.substeps": Key("default", "fine integrator steps per stored frame"),
    "data.drop_height": Key("default", "initial gap above the wall"),
    "data.initial_velocity": Key("default", "initial vertical velocity"),
    "data.seed": Key("default", "dataset seed", default=1234),
    # dataset generation: long-range chain
    "chain.n_nodes": Key("default", "chain length"),
    "chain.frames": Key("default", "stored frames per trajectory"),
    "chain.n_train": Key("default", "training trajectories", default=6),
    "chain.n_test": Key("default", "test trajectories", default=2),
    "chain.seed": Key("default", "chain dataset seed", default=99),
    # graph construction
    "graph.tied_k": Key("default", "tied-edge nearest neighbors"),
    "graph.tied_cutoff_factor": Key("default", "tied interface cutoff, x median edge"),
    "graph.contact_radius_factor": Key("default", "contact radius as multiple of median edge"),
    "graph.n_frequencies": Key("default", "positional encoding frequencies"),
    "graph.use_contact": Key("default", "detect contact edges"),
    # model
    "model.latent_dim": Key("default", "node/edge latent width (sized to the 0.5M budget)"),
    "model.mpnn_pre": Key("paper", "pre-processing message-passing iterations"),
    "model.mpnn_refine": Key("paper", "refinement message-passing iterations"),
    "model.blocks": Key("paper", "token-attention blocks", field="n_transformer_blocks"),
    "model.heads": Key("paper", "attention heads", field="n_heads"),
    "model.tokens": Key("paper", "slice token count", field="n_tokens"),
    "model.dims": Key("paper", "block width, attention width, feed-forward width",
                      field="transformer_dims"),
    "model.dtype": Key("default", "compute precision, float32 or float64 (weights stay float64)"),
    # training
    "train.steps": Key("default", "optimizer steps"),
    "train.batch_size": Key("default", "snapshots per batch (one trajectory)"),
    "train.lr": Key("default", "initial learning rate"),
    "train.lr_min": Key("default", "final learning rate (exp decay)"),
    "train.noise_scale": Key("default", "input noise in feature-std units"),
    "train.seed": Key("default", "training seed"),
    "train.target_mode": Key("default", "absolute next-step states, or delta for increments"),
    "train.checkpoint_every": Key("default", "steps between checkpoints"),
    "train.log_every": Key("default", "steps between log lines"),
    # evaluation / rollout
    "eval.horizon": Key("default", "rollout horizon; 0 means full trajectory", default=0),
}

SEED_KEYS = ("data.seed", "chain.seed", "train.seed")


def _class_field(key: str):
    """The config-class field a key stands for, or None if no class carries it."""
    section, name = key.split(".", 1)
    by_name = {f.name: f for f in fields(SECTIONS[section])} if section in SECTIONS else {}
    return by_name.get(SCHEMA[key].field or name)


_FIELDS = {key: f.name for key in SCHEMA if (f := _class_field(key)) is not None}
_DEFAULTS = {key: _class_field(key).default if spec.default is None else spec.default
             for key, spec in SCHEMA.items()}


def _bool(raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError(raw)


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(p) for p in raw.replace(",", " ").split())


_PARSERS = {int: int, float: float, bool: _bool, str: str, tuple: _ints}


def _coerce(key: str, raw: str):
    parse = _PARSERS[type(_DEFAULTS[key])]
    try:
        return parse(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} "
                          f"(expected {parse.__name__.strip('_')})") from exc


def load_config(path: str | None = None, overrides: dict | None = None) -> dict:
    """Defaults, then file values, then explicit overrides."""
    resolved = dict(_DEFAULTS)
    if path is not None:
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                stripped = line.split("#", 1)[0].strip()
                if not stripped:
                    continue
                if "=" not in stripped:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, raw = (part.strip() for part in stripped.split("=", 1))
                if key not in SCHEMA:
                    raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
                resolved[key] = _coerce(key, raw)
    for key, value in (overrides or {}).items():
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        resolved[key] = value
    return resolved


def format_config(cfg: dict) -> str:
    """Render a resolved config as a reloadable key-value file."""
    lines = ["# resolved configuration (provenance after each value)"]
    for key in SCHEMA:
        value = cfg[key]
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}  # {SCHEMA[key].provenance}: {SCHEMA[key].help}")
    return "\n".join(lines) + "\n"


def write_resolved(cfg: dict, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "resolved_config.txt"), "w") as f:
        f.write(format_config(cfg))


def section(cfg: dict, name: str, **extra):
    """The config class of section ``name`` built from the resolved keys;
    ``extra`` supplies the fields no key carries (the model's feature
    dimensions)."""
    values = {_FIELDS[key]: cfg[key] for key in _FIELDS if key.startswith(name + ".")}
    return SECTIONS[name](**values, **extra)
