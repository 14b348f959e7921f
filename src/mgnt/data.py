"""Trajectory storage, dataset schemas and graph-sample assembly.

A trajectory is a bag of named arrays in the binary container format plus a
small meta block.  A schema knows which stored arrays change per frame, what
each node feeds the network from them, and how to push a predicted state back
into simulation state during rollout.  Two schemas ship with the package:

* ``impact``  - 2-D elastoplastic lattice hitting a rigid wall.  Inputs per
  node: displacement, velocity, hardening.  Targets: next-step displacement,
  velocity and hardening.
* ``chain``   - long 1-D elastic chain driven at one end, used for the
  long-range benchmark.  Inputs: drive increment (actuator nodes only).
  Targets: next-step displacement change.

Each schema declares its frame layout once.  ``series`` maps each stored
array with a leading frame axis to its shape per node, so the array is
``[T, N, *shape]``; every other stored array is static, and a frame is
exactly the series at one time step.  ``state_vector(frame, X)``
maps those series, for one frame ``[N, ...]`` or stacked ``[T, N, ...]``, to
the target layout ``[..., output_dim]`` whose column blocks
``variable_groups`` names.  Frames, training targets, error series,
ground-truth cuts and rollout artifacts all derive from these two.  A node's
features are the schema's ``input_dim`` columns of ``node_inputs(frame, X)``
followed by the static stiffness scale kappa and the node-type one-hot;
``node_inputs`` too takes one frame or stacked frames.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from .container import read_arrays, write_arrays
from .errors import SchemaFormatError, ValidationError
from .mesh import (N_NODE_TYPES, NODE_DEFORMABLE, GraphConfig, GraphSample, MeshGraph,
                   build_graph_sample, one_hot_types, prepare_mesh)


@dataclass
class Trajectory:
    """Named arrays for one simulated run plus provenance meta."""

    arrays: dict[str, np.ndarray]
    meta: dict

    @property
    def n_frames(self) -> int:
        return self.arrays["x"].shape[0]

    @property
    def n_nodes(self) -> int:
        return self.arrays["X"].shape[0]

    def digest(self) -> str:
        """SHA-256 over each array's name, dtype, shape and bytes, in stored
        order; the meta and the file's path do not enter it."""
        h = hashlib.sha256()
        for name, arr in self.arrays.items():
            arr = np.ascontiguousarray(arr)
            h.update(json.dumps([name, arr.dtype.str, list(arr.shape)]).encode())
            h.update(arr.tobytes())
        return h.hexdigest()

    def save(self, path: str) -> None:
        write_arrays(path, self.arrays, meta=self.meta)

    @classmethod
    def load(cls, path: str) -> "Trajectory":
        arrays, meta = read_arrays(path)
        return cls(arrays=arrays, meta=meta)


class ImpactSchema:
    """Pi-beam style state: u, v, alpha, kappa in; u, v, alpha out.

    The displacement u = x - X enters the features in reference-relative form,
    so it stays invariant under joint translation of reference and current
    positions while making absolute next-step targets well conditioned.
    """

    name = "impact"
    dim = 2
    input_dim = 5
    output_dim = 5
    series = {"x": (2,), "v": (2,), "alpha": ()}
    variable_groups = {"u": (0, 2), "v": (2, 4), "alpha": (4, 5)}

    def state_vector(self, frame: dict, X: np.ndarray) -> np.ndarray:
        """State in target layout (u, v, alpha)."""
        return np.concatenate(
            [frame["x"] - X, frame["v"], frame["alpha"][..., None]], axis=-1)

    node_inputs = state_vector

    def advance(self, state: np.ndarray, X: np.ndarray, boundary: dict,
                deformable: np.ndarray) -> dict:
        """Next frame: deformable rows from the absolute predicted state, the
        rest from the boundary driver (prescribed kinematics)."""
        nxt = {k: v.copy() for k, v in boundary.items()}
        nxt["x"][deformable] = X[deformable] + state[deformable, 0:2]
        nxt["v"][deformable] = state[deformable, 2:4]
        nxt["alpha"][deformable] = state[deformable, 4]
        return nxt

    def inject_noise(self, frame: dict, scale: float, normalizer, rng,
                     deformable: np.ndarray) -> dict:
        """Gaussian noise on the dynamic state of deformable nodes, in units of
        the normalizer's node-feature std; positions are perturbed too so
        recomputed edge features see the noise."""
        nf = normalizer.node_std
        out = {k: v.copy() for k, v in frame.items()}
        n_def = int(deformable.sum())
        out["x"][deformable] += rng.normal(size=(n_def, 2)) * (scale * nf[0:2])
        out["v"][deformable] += rng.normal(size=(n_def, 2)) * (scale * nf[2:4])
        alpha = out["alpha"][deformable] + rng.normal(size=n_def) * (scale * float(nf[4]))
        out["alpha"][deformable] = np.maximum(alpha, 0.0)  # hardening stays nonnegative
        return out


class ChainSchema:
    """Driven elastic chain: drive increment and kappa in, displacement delta out."""

    name = "chain"
    dim = 2
    input_dim = 1
    output_dim = 1
    series = {"x": (2,), "drive": ()}
    variable_groups = {"u": (0, 1)}

    def node_inputs(self, frame: dict, X: np.ndarray) -> np.ndarray:
        return frame["drive"][..., None]

    def state_vector(self, frame: dict, X: np.ndarray) -> np.ndarray:
        """State in target layout (u along the chain)."""
        return (frame["x"][..., 0] - X[..., 0])[..., None]

    def advance(self, state: np.ndarray, X: np.ndarray, boundary: dict,
                deformable: np.ndarray) -> dict:
        nxt = {k: v.copy() for k, v in boundary.items()}
        nxt["x"][deformable, 0] = X[deformable, 0] + state[deformable, 0]
        return nxt

    def inject_noise(self, frame: dict, scale: float, normalizer, rng,
                     deformable: np.ndarray) -> dict:
        """Gaussian noise on the deformable nodes' displacement, in units of
        the normalizer's target std."""
        std = float(normalizer.target_std[0])
        out = {k: v.copy() for k, v in frame.items()}
        n_def = int(deformable.sum())
        out["x"][deformable, 0] += rng.normal(size=n_def) * (scale * std)
        return out


SCHEMAS = {"impact": ImpactSchema(), "chain": ChainSchema()}


def get_schema(name: str):
    if not isinstance(name, str) or name not in SCHEMAS:
        raise ValidationError(f"unknown dataset schema {name!r}")
    return SCHEMAS[name]


@dataclass
class PreparedTrajectory:
    """Trajectory plus its once-built static graph structure."""

    traj: Trajectory
    schema: object
    graph: MeshGraph
    graph_cfg: GraphConfig

    @property
    def n_transitions(self) -> int:
        return self.traj.n_frames - 1

    @property
    def deformable(self) -> np.ndarray:
        return self.traj.arrays["node_type"] == NODE_DEFORMABLE

    def frame(self, t: int) -> dict[str, np.ndarray]:
        """Frame t's series arrays: views of the trajectory's own arrays,
        which nothing writes (noise and rollout steps write copies)."""
        if not 0 <= t < self.traj.n_frames:
            raise ValidationError(
                f"frame index {t} out of range; last valid index is {self.traj.n_frames - 1}")
        return {k: self.traj.arrays[k][t] for k in self.schema.series}

    def node_features(self, frame: dict) -> np.ndarray:
        """Node features ``[..., N, F]`` of one frame or of stacked frames:
        the schema's node inputs, kappa and the node-type one-hot."""
        a = self.traj.arrays
        inputs = self.schema.node_inputs(frame, a["X"])
        static = np.concatenate([np.full((self.traj.n_nodes, 1), float(a["kappa"][0])),
                                 one_hot_types(a["node_type"])], axis=1)
        return np.concatenate(
            [inputs, np.broadcast_to(static, (*inputs.shape[:-1], static.shape[1]))], axis=-1)

    def sample_from_frame(self, frame: dict) -> GraphSample:
        """The sample of one frame, or the disjoint union of stacked frames."""
        return build_graph_sample(self.graph, frame["x"], self.node_features(frame),
                                  self.graph_cfg.use_contact)

    def sample(self, t: int) -> GraphSample:
        return self.sample_from_frame(self.frame(t))

    def target(self, t: int, target_mode: str) -> np.ndarray:
        """State at frame t + 1, or its increment over frame t in delta mode."""
        if not 0 <= t < self.n_transitions:
            raise ValidationError(
                f"step index {t} out of range; last valid index is "
                f"{self.n_transitions - 1}")
        a = self.traj.arrays
        state = self.schema.state_vector({k: a[k][t:t + 2] for k in self.schema.series},
                                         a["X"])
        return state[1] - state[0] if target_mode == "delta" else state[1]


def prepare_trajectory(traj: Trajectory, schema, graph_cfg: GraphConfig) -> PreparedTrajectory:
    """Build the trajectory's static graph.  A trajectory must hold ``X`` as
    ``[N, schema.dim]``, ``elements`` as ``[E, k]``, ``node_type`` (codes of
    node types) and ``component_id`` as ``[N]``, ``kappa`` as ``[1]``, and
    each of ``schema.series`` as ``[T, N, *per-node shape]`` with one
    ``T >= 2`` for all; one that lacks an array, breaks this layout, holds a
    non-finite value in ``X``, ``kappa`` or a series or a non-integer in an
    array of indices or codes, or whose ``elements`` make no valid mesh
    raises SchemaFormatError."""
    a = traj.arrays
    for key in ("X", "elements", "node_type", "component_id", "kappa", *schema.series):
        if key not in a:
            raise SchemaFormatError(f"trajectory has no {key!r} array")
    if a["elements"].ndim != 2:
        raise SchemaFormatError(f"trajectory array 'elements' has shape "
                                f"{list(a['elements'].shape)}, not [E, k]")
    n = a["X"].shape[0] if a["X"].ndim == 2 else "N"
    first = a[next(iter(schema.series))].shape  # sets the T every series shares
    t = first[0] if first and first[0] >= 2 else "T >= 2"
    layout = {"X": (n, schema.dim), "node_type": (n,), "component_id": (n,), "kappa": (1,),
              **{key: (t, n, *shape) for key, shape in schema.series.items()}}
    for key, shape in layout.items():
        if a[key].shape != shape:
            raise SchemaFormatError(f"trajectory array {key!r} has shape {list(a[key].shape)}, "
                                    f"not [{', '.join(map(str, shape))}]")
    for key in ("elements", "node_type", "component_id"):  # compared and cast as int64
        if not (np.isfinite(a[key]) & (np.round(a[key]) == a[key])).all():
            raise SchemaFormatError(f"trajectory array {key!r} has a non-integer value")
    if n and not 0 <= a["node_type"].min() <= a["node_type"].max() < N_NODE_TYPES:
        raise SchemaFormatError(f"trajectory array 'node_type' has a node type out of "
                                f"range [0, {N_NODE_TYPES})")
    for key in ("X", "kappa", *schema.series):
        if not np.isfinite(a[key]).all():
            raise SchemaFormatError(f"trajectory array {key!r} has a non-finite value")
    try:  # the checks above leave only the elements for the mesh to refuse
        graph = prepare_mesh(np.asarray(a["X"], float), np.asarray(a["elements"], np.int64),
                             np.asarray(a["component_id"], np.int64), graph_cfg)
    except ValidationError as exc:
        raise SchemaFormatError(f"trajectory array 'elements': {exc}") from exc
    return PreparedTrajectory(traj=traj, schema=schema, graph=graph, graph_cfg=graph_cfg)


def feature_dims(schema, graph_cfg: GraphConfig) -> dict[str, int]:
    """Model input/output dimensions implied by a schema and graph config."""
    d = schema.dim
    return {
        "node_feat_dim": schema.input_dim + 1 + N_NODE_TYPES,
        "mesh_edge_feat_dim": 2 * (d + 1),
        "contact_edge_feat_dim": d + 1,
        "pe_dim": 2 * d * graph_cfg.n_frequencies,
        "output_dim": schema.output_dim,
    }


# ---------------------------------------------------------------------------
# dataset manifests

def write_manifest(path: str, schema_name: str, config: dict,
                   train_files: list[str], test_files: list[str]) -> None:
    doc = {
        "schema": schema_name,
        "config": config,
        "train": train_files,
        "test": test_files,
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=False)
        f.write("\n")


def load_split(manifest_path: str, splits: tuple[str, ...] = ("train", "test")
               ) -> tuple[object, dict[str, list[Trajectory]], dict]:
    """Load the trajectories of the named splits of a manifest, keyed by
    split.  A manifest that is not a JSON object, names no known schema or
    lists a split as anything but file names raises SchemaFormatError."""
    try:
        with open(manifest_path) as f:
            doc = json.load(f)
    except ValueError as exc:
        raise SchemaFormatError(f"{manifest_path}: manifest is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaFormatError(f"{manifest_path}: manifest is not a JSON object")
    try:
        schema = get_schema(doc.get("schema"))
    except ValidationError as exc:
        raise SchemaFormatError(f"{manifest_path}: manifest 'schema': {exc}") from exc
    for key in ("train", "test"):
        files = doc.get(key)
        if not (isinstance(files, list) and all(isinstance(name, str) for name in files)):
            raise SchemaFormatError(
                f"{manifest_path}: manifest {key!r} is not a list of file names")
    base = os.path.dirname(os.path.abspath(manifest_path))
    split = {key: [Trajectory.load(os.path.join(base, rel)) for rel in doc[key]]
             for key in splits}
    return schema, split, doc.get("config", {})
