"""Plain-text key-value run configuration with a fixed, documented schema.

Files contain ``key = value`` lines (``#`` starts a comment).  Every key has
a typed default and a provenance note distinguishing values taken from the
reference experiment tables from package defaults.  Unknown keys are
rejected.  The environment variable ``MGNT_SEED`` overrides every seed key.
The resolved configuration is echoed verbatim next to every command's
outputs so runs can be reproduced from their artifacts alone.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .data import GraphConfig
from .errors import ConfigError
from .model import ModelConfig
from .oracle import ChainConfig, OracleConfig
from .train import TrainConfig


@dataclass(frozen=True)
class Key:
    default: object
    kind: str          # int | float | str | bool | ints
    provenance: str    # "paper" or "default"
    help: str


SCHEMA: dict[str, Key] = {
    # dataset generation: elastoplastic impact lattice
    "data.kind": Key("impact", "str", "default", "dataset family: impact or chain"),
    "data.n_train": Key(18, "int", "paper", "training trajectories"),
    "data.n_test": Key(10, "int", "paper", "test trajectories"),
    "data.rows": Key(8, "int", "default", "lattice rows (desk scale)"),
    "data.cols": Key(8, "int", "default", "lattice cols (desk scale)"),
    "data.spacing": Key(0.1, "float", "default", "lattice spacing"),
    "data.frames": Key(50, "int", "default", "stored frames per trajectory"),
    "data.substeps": Key(40, "int", "default", "fine integrator steps per stored frame"),
    "data.dt": Key(2.5e-4, "float", "default", "fine integrator step"),
    "data.mass": Key(1.0, "float", "default", "node mass"),
    "data.stiffness_base": Key(100000.0, "float", "default",
                               "spring stiffness at kappa=1"),
    "data.yield_strain": Key(0.05, "float", "default", "elastic strain at yield"),
    "data.hardening_ratio": Key(0.2, "float", "default", "hardening modulus / stiffness"),
    "data.damping": Key(1.2, "float", "default", "per-node viscous coefficient"),
    "data.gravity": Key(9.81, "float", "default", "gravitational acceleration"),
    "data.wall_stiffness": Key(200000.0, "float", "default", "wall penalty stiffness"),
    "data.drop_height": Key(0.2, "float", "default", "initial gap above the wall"),
    "data.initial_velocity": Key(-1.0, "float", "default", "initial vertical velocity"),
    "data.seed": Key(1234, "int", "default", "dataset seed"),
    # dataset generation: long-range chain
    "chain.n_nodes": Key(400, "int", "default", "chain length"),
    "chain.driven_nodes": Key(16, "int", "default", "rigid driven head segment size"),
    "chain.frames": Key(60, "int", "default", "stored frames per trajectory"),
    "chain.n_train": Key(6, "int", "default", "training trajectories"),
    "chain.n_test": Key(2, "int", "default", "test trajectories"),
    "chain.stiffness_base": Key(100.0, "float", "default", "chain stiffness at kappa=1"),
    "chain.load": Key(0.5, "float", "default", "constant axial load per node"),
    "chain.drive_std": Key(0.25, "float", "default", "std of per-frame drive increments"),
    "chain.relax_tol": Key(1e-10, "float", "default", "relaxation residual tolerance"),
    "chain.seed": Key(99, "int", "default", "chain dataset seed"),
    # graph construction
    "graph.tied_k": Key(3, "int", "default", "tied-edge nearest neighbors"),
    "graph.tied_cutoff_factor": Key(3.0, "float", "default",
                                    "tied interface cutoff, x median edge"),
    "graph.contact_radius": Key(0.0, "float", "default",
                                "contact radius; 0 means factor x median edge"),
    "graph.contact_radius_factor": Key(1.5, "float", "default",
                                       "contact radius as multiple of median edge"),
    "graph.n_frequencies": Key(8, "int", "default", "positional encoding frequencies"),
    "graph.use_contact": Key(True, "bool", "default", "detect contact edges"),
    # model
    "model.latent_dim": Key(112, "int", "default",
                            "node/edge latent width (sized to the 0.5M budget)"),
    "model.mpnn_pre": Key(2, "int", "paper", "pre-processing message-passing iterations"),
    "model.mpnn_refine": Key(2, "int", "paper", "refinement message-passing iterations"),
    "model.blocks": Key(2, "int", "paper", "token-attention blocks"),
    "model.heads": Key(4, "int", "paper", "attention heads"),
    "model.tokens": Key(32, "int", "paper", "slice token count"),
    "model.dims": Key((64, 32, 64), "ints", "paper",
                      "block width, attention width, feed-forward width"),
    "model.tau0": Key(0.5, "float", "default", "base slice temperature"),
    "model.tau_min": Key(0.01, "float", "default", "temperature clamp"),
    "model.leaky_slope": Key(0.01, "float", "default", "LeakyReLU negative slope"),
    # training
    "train.steps": Key(2000, "int", "default", "optimizer steps"),
    "train.batch_size": Key(4, "int", "default", "snapshots per batch (one trajectory)"),
    "train.lr": Key(1e-4, "float", "default", "initial learning rate"),
    "train.lr_min": Key(1e-6, "float", "default", "final learning rate (exp decay)"),
    "train.noise_scale": Key(0.003, "float", "default", "input noise in feature-std units"),
    "train.seed": Key(0, "int", "default", "training seed"),
    "train.target_mode": Key("absolute", "str", "default",
                             "absolute next-step states, or delta for increments"),
    "train.checkpoint_every": Key(500, "int", "default", "steps between checkpoints"),
    "train.log_every": Key(50, "int", "default", "steps between log lines"),
    # evaluation / rollout
    "eval.horizon": Key(0, "int", "default", "rollout horizon; 0 means full trajectory"),
}


def _coerce(key: str, raw: str):
    spec = SCHEMA[key]
    try:
        if spec.kind == "int":
            return int(raw)
        if spec.kind == "float":
            return float(raw)
        if spec.kind == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if spec.kind == "ints":
            return tuple(int(p) for p in raw.replace(",", " ").split())
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} (expected {spec.kind})") from exc


def load_config(path: str | None = None, overrides: dict | None = None) -> dict:
    """Defaults, then file values, then explicit overrides, then MGNT_SEED."""
    resolved = {k: spec.default for k, spec in SCHEMA.items()}
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
    env_seed = os.environ.get("MGNT_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"MGNT_SEED must be an integer, got {env_seed!r}") from exc
        for key in ("data.seed", "chain.seed", "train.seed"):
            resolved[key] = seed
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


# ---------------------------------------------------------------------------
# typed views

def oracle_config(cfg: dict) -> OracleConfig:
    return OracleConfig(
        rows=cfg["data.rows"], cols=cfg["data.cols"], spacing=cfg["data.spacing"],
        mass=cfg["data.mass"], stiffness_base=cfg["data.stiffness_base"],
        yield_strain=cfg["data.yield_strain"],
        hardening_ratio=cfg["data.hardening_ratio"], damping=cfg["data.damping"],
        gravity=cfg["data.gravity"], wall_stiffness=cfg["data.wall_stiffness"],
        drop_height=cfg["data.drop_height"],
        initial_velocity=cfg["data.initial_velocity"], dt=cfg["data.dt"],
        substeps=cfg["data.substeps"], frames=cfg["data.frames"],
        seed=cfg["data.seed"])


def chain_config(cfg: dict) -> ChainConfig:
    return ChainConfig(
        n_nodes=cfg["chain.n_nodes"], driven_nodes=cfg["chain.driven_nodes"],
        stiffness_base=cfg["chain.stiffness_base"],
        load=cfg["chain.load"], drive_std=cfg["chain.drive_std"],
        frames=cfg["chain.frames"], relax_tol=cfg["chain.relax_tol"],
        seed=cfg["chain.seed"])


def graph_config(cfg: dict) -> GraphConfig:
    radius = cfg["graph.contact_radius"]
    return GraphConfig(
        tied_k=cfg["graph.tied_k"],
        tied_cutoff_factor=cfg["graph.tied_cutoff_factor"],
        contact_radius=None if radius == 0.0 else radius,
        contact_radius_factor=cfg["graph.contact_radius_factor"],
        n_frequencies=cfg["graph.n_frequencies"],
        use_contact=cfg["graph.use_contact"])


def model_config(cfg: dict, dims: dict[str, int]) -> ModelConfig:
    return ModelConfig(
        latent_dim=cfg["model.latent_dim"], mpnn_pre=cfg["model.mpnn_pre"],
        mpnn_refine=cfg["model.mpnn_refine"],
        n_transformer_blocks=cfg["model.blocks"], n_heads=cfg["model.heads"],
        n_tokens=cfg["model.tokens"], transformer_dims=cfg["model.dims"],
        tau0=cfg["model.tau0"], tau_min=cfg["model.tau_min"],
        leaky_slope=cfg["model.leaky_slope"], **dims)


def train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(
        steps=cfg["train.steps"], batch_size=cfg["train.batch_size"],
        lr=cfg["train.lr"], lr_min=cfg["train.lr_min"],
        noise_scale=cfg["train.noise_scale"], seed=cfg["train.seed"],
        target_mode=cfg["train.target_mode"],
        checkpoint_every=cfg["train.checkpoint_every"],
        log_every=cfg["train.log_every"])
