"""Ground-truth generators: an elastoplastic lattice impact and a driven chain.

The impact oracle integrates a 2-D mass-spring lattice (axial springs with
1-D return-mapping plasticity and linear isotropic hardening) falling onto a
rigid wall, with a one-sided linear penalty plus critical normal damping for
wall contact and semi-implicit Euler at a fine internal dt.  Hardening is
accumulated per spring and split evenly onto both endpoints, so per-node
hardening is non-decreasing by construction.

The chain benchmark produces a quasi-static 1-D elastic chain whose driven
end receives a random displacement increment each stored frame; the rest of
the chain follows in global static equilibrium, so the response at the far
end depends on the driven end's state within a single frame.  The
equilibrium has a closed form (each free spring carries the load of every
free node beyond it); tests cross-check it against a dense direct solve.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from .data import Trajectory, write_manifest
from .errors import ConfigError, NumericError, check_settings, setting
from .mesh import NODE_ACTUATOR, NODE_DEFORMABLE, NODE_OBSTACLE

# Both generators draw each trajectory's stiffness scale kappa uniformly
# from this range.
KAPPA_RANGE = (0.1, 0.3)

# The impact wall is a row of static nodes at height WALL_Y that reaches
# WALL_MARGIN_NODES lattice spacings past the block on either side.
WALL_Y = 0.0
WALL_MARGIN_NODES = 4

# The impact lattice's fixed physics: node mass, per-node viscous damping,
# gravity, the wall's penalty stiffness, the elastic strain at yield and the
# hardening modulus as a fraction of the spring stiffness.
MASS = 1.0
DAMPING = 1.2
GRAVITY = 9.81
WALL_STIFFNESS = 200000.0
YIELD_STRAIN = 0.05
HARDENING_RATIO = 0.2

# Rest spacing of the chain's nodes, its stiffness at kappa = 1, the constant
# axial load per free node, the size of the rigid driven head segment and the
# std of the head's per-frame drive increment.
CHAIN_SPACING = 1.0
CHAIN_STIFFNESS = 100.0
CHAIN_LOAD = 0.5
DRIVEN_NODES = 16
DRIVE_STD = 0.25


# ---------------------------------------------------------------------------
# elastoplastic impact lattice

@dataclass(frozen=True)
class OracleConfig:
    rows: int = setting(8, ge=1)
    cols: int = setting(8, ge=1)
    spacing: float = setting(0.1, gt=0)
    stiffness_base: float = setting(100000.0, gt=0)  # spring stiffness = kappa * stiffness_base
    kappa: float = setting(0.2, gt=0)
    drop_height: float = setting(0.2, ge=0)          # the lattice starts above the wall
    initial_velocity: float = -1.0    # initial vertical velocity of the lattice
    dt: float = setting(2.5e-4, gt=0)
    substeps: int = setting(40, ge=1)
    frames: int = setting(50, ge=2)
    seed: int = setting(0, ge=0)

    def __post_init__(self):
        check_settings(self, "data")


def return_map_1d(k: float, hardening: float, yield_force, stretch, plastic, alpha):
    """Elastoplastic update for one spring, or elementwise for arrays of them.

    Given total stretch, prior plastic stretch and prior hardening, returns
    (force, new plastic stretch, new hardening, plastic increment).  The yield
    level grows linearly with hardening; excess trial force is returned to the
    (expanded) yield surface and the plastic increment is
    |trial excess| / (k + H).
    """
    trial = k * (stretch - plastic)
    excess = np.abs(trial) - (yield_force + hardening * alpha)
    dgamma = np.where(excess > 0.0, excess / (k + hardening), 0.0)
    plastic = plastic + dgamma * np.sign(trial)
    return k * (stretch - plastic), plastic, alpha + dgamma, dgamma


def _lattice(cfg: OracleConfig):
    """Node positions and spring list (axial + both diagonals) for the block,
    plus a row of static wall nodes below it."""
    a = cfg.spacing
    xs = np.arange(cfg.cols) * a
    ys = np.arange(cfg.rows) * a + WALL_Y + cfg.drop_height
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    lattice = np.stack([gx.ravel(), gy.ravel()], axis=1)
    n_lat = lattice.shape[0]

    def nid(r, c):
        return r * cfg.cols + c

    springs = []
    for r in range(cfg.rows):
        for c in range(cfg.cols):
            if c + 1 < cfg.cols:
                springs.append((nid(r, c), nid(r, c + 1)))
            if r + 1 < cfg.rows:
                springs.append((nid(r, c), nid(r + 1, c)))
            if c + 1 < cfg.cols and r + 1 < cfg.rows:
                springs.append((nid(r, c), nid(r + 1, c + 1)))
                springs.append((nid(r, c + 1), nid(r + 1, c)))

    m = WALL_MARGIN_NODES
    wall_x = (np.arange(cfg.cols + 2 * m) - m) * a
    wall = np.stack([wall_x, np.full_like(wall_x, WALL_Y)], axis=1)
    wall_elems = [(n_lat + i, n_lat + i + 1) for i in range(wall.shape[0] - 1)]

    X = np.concatenate([lattice, wall])
    elements = np.array(springs + wall_elems, dtype=np.int64)
    node_type = np.concatenate([
        np.full(n_lat, NODE_DEFORMABLE, dtype=np.int64),
        np.full(wall.shape[0], NODE_OBSTACLE, dtype=np.int64),
    ])
    component = np.concatenate([
        np.zeros(n_lat, dtype=np.int64), np.ones(wall.shape[0], dtype=np.int64)])
    return X, elements, node_type, component, n_lat, len(springs)


def simulate_impact(cfg: OracleConfig) -> Trajectory:
    """Integrate one drop-and-impact run and package it as a trajectory."""
    X, elements, node_type, component, n_lat, n_springs = _lattice(cfg)
    n = X.shape[0]
    deform = node_type == NODE_DEFORMABLE

    k_spring = cfg.kappa * cfg.stiffness_base
    hardening = HARDENING_RATIO * k_spring
    springs = elements[:n_springs]
    rest = np.sqrt(((X[springs[:, 0]] - X[springs[:, 1]]) ** 2).sum(-1))
    yield_force = k_spring * YIELD_STRAIN * rest
    c_wall = 2.0 * np.sqrt(WALL_STIFFNESS * MASS)

    x = X.copy()
    v = np.zeros_like(X)
    v[deform, 1] = cfg.initial_velocity
    plastic = np.zeros(n_springs)
    alpha_spring = np.zeros(n_springs)
    alpha_node = np.zeros(n)

    frames_x = np.empty((cfg.frames, n, 2))
    frames_v = np.empty((cfg.frames, n, 2))
    frames_a = np.empty((cfg.frames, n))
    frames_x[0], frames_v[0], frames_a[0] = x, v, alpha_node

    extent = max(cfg.cols, cfg.rows) * cfg.spacing
    bound = 100.0 * (extent + cfg.drop_height + 1.0)
    src, dst = springs[:, 0], springs[:, 1]
    ends = np.concatenate([src, dst])  # each spring's two nodes, sources first

    for frame in range(1, cfg.frames):
        for _ in range(cfg.substeps):
            force = np.zeros_like(x)
            force[deform, 1] -= MASS * GRAVITY
            force[deform] -= DAMPING * v[deform]

            delta = x[src] - x[dst]
            length = np.sqrt((delta * delta).sum(-1))
            direction = delta / length[:, None]
            f_spring, plastic, alpha_spring, dgamma = return_map_1d(
                k_spring, hardening, yield_force, length - rest, plastic, alpha_spring)
            half = 0.5 * dgamma
            np.add.at(alpha_node, ends, np.concatenate([half, half]))
            fvec = f_spring[:, None] * direction
            np.add.at(force, ends, np.concatenate([-fvec, fvec]))

            pen = WALL_Y - x[:, 1]
            contact = deform & (pen > 0.0)
            force[contact, 1] += WALL_STIFFNESS * pen[contact]
            force[contact, 1] -= c_wall * v[contact, 1]

            v[deform] += (cfg.dt / MASS) * force[deform]
            x[deform] += cfg.dt * v[deform]

            if not np.isfinite(x).all() or np.abs(x - X).max() > bound:
                raise NumericError(
                    f"impact oracle unstable at frame {frame}: "
                    f"dt={cfg.dt}, spring stiffness={k_spring}")
        frames_x[frame], frames_v[frame], frames_a[frame] = x, v, alpha_node

    return _trajectory("impact", cfg, X, {"x": frames_x, "v": frames_v, "alpha": frames_a},
                       node_type, component, elements, cfg.dt * cfg.substeps)


def _trajectory(schema: str, cfg, X, series: dict, node_type, component, elements,
                dt: float) -> Trajectory:
    """One simulated run in its stored order: ``X``, the per-frame series,
    then the per-run arrays; the meta names the schema and the run's config."""
    arrays = {"X": X, **series, "kappa": np.array([cfg.kappa]), "node_type": node_type,
              "component_id": component, "elements": elements, "dt": np.array([dt])}
    return Trajectory(arrays=arrays, meta={"schema": schema, "config": asdict(cfg)})


def gen_dataset(n_train: int, n_test: int, base: OracleConfig, seed: int,
                out_dir: str, workers: int = 1) -> str:
    """Generate a train/test split with kappa drawn uniformly from
    KAPPA_RANGE; per-trajectory seeds are disjoint.  Returns the manifest path."""
    return _write_split("impact", "traj", (), n_train, n_test, base, seed, out_dir, workers)


def _write_split(schema: str, prefix: str, salt: tuple, n_train: int, n_test: int,
                 base, seed: int, out_dir: str, workers: int) -> str:
    """Simulate trajectory i of ``n_train + n_test`` from ``base`` with its own
    kappa (drawn from the generator seeded by (seed, *salt, i)) and seed
    ``seed + i``; write ``<prefix>_<split>_<i>.mgnt`` files and the manifest."""
    if n_train < 1 or n_test < 1:
        raise ConfigError(f"need at least one trajectory per split, got "
                          f"{n_train} train and {n_test} test")
    if workers < 1:
        raise ConfigError(f"need at least one worker, got {workers}")
    os.makedirs(out_dir, exist_ok=True)
    files: dict[str, list[str]] = {"train": [], "test": []}
    jobs = []
    for i in range(n_train + n_test):
        kappa = float(np.random.default_rng([int(seed), *salt, i]).uniform(*KAPPA_RANGE))
        split = "train" if i < n_train else "test"
        fname = f"{prefix}_{split}_{i:03d}.mgnt"
        files[split].append(fname)
        jobs.append((replace(base, kappa=kappa, seed=int(seed) + i),
                     os.path.join(out_dir, fname)))

    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        # the pool forks all its workers at once, so never more than there are jobs
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            list(pool.map(_gen_one, jobs))
    else:
        for job in jobs:
            _gen_one(job)

    manifest = os.path.join(out_dir, "manifest.json")
    write_manifest(manifest, schema, asdict(base) | {"seed": int(seed)},
                   files["train"], files["test"])
    return manifest


def _gen_one(job) -> None:
    # looked up per call, so a rebinding of the module's simulate_* is honoured
    cfg, path = job
    simulate = simulate_chain if isinstance(cfg, ChainConfig) else simulate_impact
    simulate(cfg).save(path)


# ---------------------------------------------------------------------------
# long-range chain benchmark

@dataclass(frozen=True)
class ChainConfig:
    n_nodes: int = setting(400, ge=100)            # keeps DRIVEN_NODES < n_nodes // 4
    kappa: float = setting(0.2, gt=0)              # chain stiffness = kappa * CHAIN_STIFFNESS
    frames: int = setting(60, ge=2)
    seed: int = setting(0, ge=0)

    def __post_init__(self):
        check_settings(self, "chain")


def solve_chain(k: float, load: float, u0: float, n_nodes: int,
                driven: int = 1) -> np.ndarray:
    """Static equilibrium: the first ``driven`` nodes are prescribed at u0,
    the free remainder carries a constant axial load.  Free spring i carries
    the load of the ``m - i`` free nodes beyond it, so its stretch is
    load * (m - i) / k."""
    m = n_nodes - driven
    u = u0 + np.cumsum(load * (m - np.arange(m)) / k)
    return np.concatenate([np.full(driven, u0), u])


def simulate_chain(cfg: ChainConfig) -> Trajectory:
    """One driven-chain run: random drive increments on a rigid head segment;
    every frame is the static stretch shifted by the head's displacement."""
    n = cfg.n_nodes
    X = np.stack([np.arange(n) * CHAIN_SPACING, np.zeros(n)], axis=1)
    left = np.arange(n - 1, dtype=np.int64)
    elements = np.stack([left, left + 1], axis=1)
    node_type = np.full(n, NODE_DEFORMABLE, dtype=np.int64)
    node_type[:DRIVEN_NODES] = NODE_ACTUATOR
    component = np.zeros(n, dtype=np.int64)

    k = cfg.kappa * CHAIN_STIFFNESS
    rng = np.random.default_rng([cfg.seed, 0xC4A1])
    increments = rng.normal(0.0, DRIVE_STD, size=cfg.frames)
    # head displacement before frame t's increment: 0, inc_0, inc_0 + inc_1, ...
    u0 = np.concatenate([[0.0], np.cumsum(increments[:-1])])
    u = solve_chain(k, CHAIN_LOAD, 0.0, n, driven=DRIVEN_NODES) + u0[:, None]
    xs = X + np.stack([u, np.zeros_like(u)], axis=-1)
    drive = np.zeros((cfg.frames, n))
    drive[:, :DRIVEN_NODES] = increments[:, None]
    return _trajectory("chain", cfg, X, {"x": xs, "drive": drive},
                       node_type, component, elements, 1.0)


def gen_chain_dataset(n_train: int, n_test: int, base: ChainConfig, seed: int,
                      out_dir: str, workers: int = 1) -> str:
    """Long-range benchmark split; kappa varies per trajectory like the impact set."""
    return _write_split("chain", "chain", (7,), n_train, n_test, base, seed, out_dir, workers)
