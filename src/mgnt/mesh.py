"""Mesh-to-graph feature engineering.

Turns a mesh plus the state of one frame, or of stacked frames, into the
arrays the network consumes: node features, bidirectional mesh edges with
reference/current relative offsets, dynamically detected contact edges with
current offsets, and a per-component stationary-wave positional encoding over
the undeformed geometry.  All edge features are built from relative
quantities, so a rigid translation of reference and current positions
together changes nothing.

Every collection of node pairs here (mesh edges, tied edges, contact edges,
contact exclusions) has one format: a ``[K, 2]`` int64 array of (source,
target) rows, sorted ascending and free of duplicates.  ``_pairs`` builds it
from the keys ``source * N + target``, whose sorted unique values are exactly
the lexicographically sorted unique pairs.

Set-up avoids ``np.unique`` and ``np.median``: in numpy 2.4 both import
``numpy.ma``, about 16 ms once per process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import ValidationError, check_settings, setting

# node type codes used across the package
NODE_DEFORMABLE = 0
NODE_OBSTACLE = 1
NODE_CLAMPED = 2
NODE_ACTUATOR = 3
N_NODE_TYPES = 4


@dataclass
class Mesh:
    """Reference geometry: positions, element connectivity, node labels."""

    reference_positions: np.ndarray  # [N, d]
    elements: np.ndarray             # [E, nodes per element] int64
    node_type: np.ndarray            # [N] int64
    component_id: np.ndarray         # [N] int64

    def __post_init__(self):
        self.reference_positions = np.asarray(self.reference_positions, dtype=np.float64)
        self.elements = np.asarray(self.elements, dtype=np.int64)
        self.node_type = np.asarray(self.node_type, dtype=np.int64)
        self.component_id = np.asarray(self.component_id, dtype=np.int64)
        n = self.reference_positions.shape[0]
        if self.elements.size and (self.elements.min() < 0 or self.elements.max() >= n):
            raise ValidationError("element index out of range")

    @property
    def n_nodes(self) -> int:
        return self.reference_positions.shape[0]


@dataclass
class GraphSample:
    """Everything the model consumes for one frame, or for the disjoint union
    of several frames, each frame's node rows named in ``sample_ranges``."""

    node_features: np.ndarray         # [N, F]
    mesh_edges: np.ndarray            # [Em, 2] (src, dst)
    mesh_edge_features: np.ndarray    # [Em, 2(d+1)]
    contact_edges: np.ndarray         # [Ec, 2]
    contact_edge_features: np.ndarray  # [Ec, d+1]
    positional_encoding: np.ndarray   # [N, 2*d*n_frequencies]
    sample_ranges: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self):
        if not self.sample_ranges:
            self.sample_ranges = ((0, self.node_features.shape[0]),)

    @property
    def n_nodes(self) -> int:
        return self.node_features.shape[0]


_ELEMENT_PERIMETERS = {
    2: ((0, 1),),
    3: ((0, 1), (1, 2), (2, 0)),
    4: ((0, 1), (1, 2), (2, 3), (3, 0)),  # quad shells: perimeter only, no diagonals
}


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The sorted distinct values of ``keys``, as ``np.unique`` gives them."""
    keys = np.sort(keys)
    keep = np.ones(keys.shape, dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    return keys[keep]


def _pairs(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    """Sorted, de-duplicated ``[K, 2]`` pairs of node ids below ``n``."""
    keys = _distinct(np.asarray(src, dtype=np.int64) * n + dst)
    return np.stack([keys // n, keys % n], axis=1)


def _both_ways(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    return _pairs(np.concatenate([src, dst]), np.concatenate([dst, src]), n)


def build_mesh_edges(mesh: Mesh) -> np.ndarray:
    """Directed mesh edges: undirected element edges emitted both ways.

    Deduplicated across shared element faces and sorted ascending by
    (source, target).
    """
    if mesh.elements.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    k = mesh.elements.shape[1]
    if k not in _ELEMENT_PERIMETERS:
        raise ValidationError(f"unsupported element arity {k}")
    ordered = np.sort(mesh.elements, axis=1)
    degenerate = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    if degenerate.any():
        elem = mesh.elements[np.argmax(degenerate)]
        raise ValidationError(f"degenerate element with repeated node index: {elem.tolist()}")
    a, b = np.array(_ELEMENT_PERIMETERS[k]).T
    return _both_ways(mesh.elements[:, a].ravel(), mesh.elements[:, b].ravel(), mesh.n_nodes)


# Rows per block of the tied-edge scan.  A block's temporaries take about 50
# bytes per row per node in 2-D, so 128 rows of a 5,000-node mesh take ~35 MB
# where the whole N x N scan took ~0.8 GB.
_TIED_BLOCK_ROWS = 128


def build_tied_edges(mesh: Mesh, k: int, interface_cutoff: float) -> np.ndarray:
    """Permanent cross-component coupling edges from a k-nearest-neighbor scan.

    Only nodes within ``interface_cutoff`` of some other component are tied;
    for each such node, edges to its k nearest nodes of other components
    (ties to the lower node id), symmetrized.  A single-component mesh
    yields no edges.  Rows are scanned ``_TIED_BLOCK_ROWS`` at a time, each
    row with the float ops and stable sort of the whole-matrix scan, so the
    memory grows as N, not N², and the edges do not depend on the block.
    """
    comp = mesh.component_id
    if comp.size == 0 or comp.min() == comp.max():
        return np.zeros((0, 2), dtype=np.int64)
    X = mesh.reference_positions
    sources, targets = [], []
    for start in range(0, mesh.n_nodes, _TIED_BLOCK_ROWS):
        block = slice(start, start + _TIED_BLOCK_ROWS)
        diff = X[block, None, :] - X[None, :, :]
        other = comp[block, None] != comp[None, :]
        dist = np.where(other, np.sqrt((diff * diff).sum(-1)), np.inf)
        rows = np.flatnonzero(dist.min(axis=1) <= interface_cutoff)
        # a stable sort puts each row's foreign nodes first, nearest first
        nearest = np.argsort(dist[rows], axis=1, kind="stable")[:, :k]
        src = np.repeat(rows, nearest.shape[1])
        dst = nearest.ravel()
        foreign = other[src, dst]
        sources.append(src[foreign] + start)
        targets.append(dst[foreign])
    return _both_ways(np.concatenate(sources), np.concatenate(targets), mesh.n_nodes)


def detect_contact_edges_bruteforce(positions: np.ndarray, r_c: float,
                                    excluded) -> np.ndarray:
    """Reference O(N^2) scan; the cell search is validated against this.

    ``excluded`` is any iterable of (source, target) pairs."""
    excluded = {(int(a), int(b)) for a, b in excluded}
    x = np.asarray(positions, dtype=np.float64)
    diff = x[:, None, :] - x[None, :, :]
    dist = np.sqrt((diff * diff).sum(-1))
    n = x.shape[0]
    pairs = []
    for i in range(n):
        for j in range(n):
            if i != j and dist[i, j] < r_c and (i, j) not in excluded:
                pairs.append((i, j))
    return np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)


# Cell coordinates are clipped to +-2**61 so that they convert to int64 for
# any finite position, and their shifted spans stay below 2**63.  Clipping
# only merges cells that are more than r_c apart, which adds candidates that
# the exact distance test then drops.
_CELL_LIMIT = 2.0 ** 61


@cache
def _cell_offsets(d: int) -> np.ndarray:
    """The 3**d offsets from a cell to itself and its neighbors, ``[3**d, d]``."""
    offsets = np.stack(np.meshgrid(*([[-1, 0, 1]] * d), indexing="ij"), axis=-1).reshape(-1, d)
    offsets.flags.writeable = False
    return offsets


def detect_contact_edges(positions: np.ndarray, r_c: float, excluded=None) -> np.ndarray:
    """Every directed pair of nodes of one frame closer than r_c, minus
    excluded pairs, for positions of one frame ``[N, d]`` or of stacked
    frames ``[T, N, d]``, as ``[K, 2]`` sorted ascending.  Node i of frame f
    is row f * N + i, the numbering of the frames' disjoint union, so a
    pair's frame is its source row // N.  ``excluded`` (a set or list of
    pairs or a ``[K, 2]`` array) holds pairs (i, j) dropped in every frame.

    Cell search on a uniform grid of cell size r_c: nodes are sorted by an
    int64 cell key, and for each of the 3^d neighboring-cell offsets one
    ``searchsorted`` over the sorted keys yields every node of that cell.
    The key is the mixed-radix index of the cell in the grid's bounding box
    padded by one cell, with the frame as its leading digit, so it is exact
    while frames times box cells stay below 2**63; past that it wraps,
    distinct cells (of one frame or of two) may share a key, and the extra
    candidates fall to the same-frame and exact ``< r_c**2`` tests and the
    pair de-duplication.
    """
    if r_c <= 0:
        raise ValidationError(f"contact radius must be positive, got {r_c}")
    x = np.asarray(positions, dtype=np.float64)
    n, d = x.shape[-2:]
    t = math.prod(x.shape[:-2])
    x = x.reshape(t * n, d)
    frame = np.arange(t).repeat(n)
    cells = np.clip(np.floor(x / r_c), -_CELL_LIMIT, _CELL_LIMIT).astype(np.int64)
    cells -= cells.min(axis=0, initial=0)
    radix = cells.max(axis=0, initial=0) + 3
    strides = np.cumprod(np.r_[1, radix[::-1]])[::-1]  # frame's stride, then the axes'
    keys = frame * strides[0] + cells @ strides[1:]
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    # one ascending run of queries per offset, which searchsorted walks fastest
    query = ((_cell_offsets(d) @ strides[1:])[:, None] + sorted_keys).ravel()
    lo = np.searchsorted(sorted_keys, query, side="left")
    counts = np.searchsorted(sorted_keys, query, side="right") - lo
    src = np.repeat(np.tile(order, 3 ** d), counts)
    dst = order[np.arange(counts.sum()) + np.repeat(lo - np.cumsum(counts) + counts, counts)]
    # np.take gathers rows several times faster than fancy indexing
    delta = np.take(x, src, axis=0) - np.take(x, dst, axis=0)
    near = ((src != dst) & (np.take(frame, src) == np.take(frame, dst))
            & ((delta * delta).sum(axis=1) < r_c * r_c))
    src, dst = src[near], dst[near]
    # row f * n + i times n, plus j, is the key f * n**2 + i * n + j of pair (i, j) in frame f
    keys = _distinct(src * n + dst - np.take(frame, dst) * n)
    if excluded is not None:
        ex = np.asarray(list(excluded) if isinstance(excluded, (set, frozenset)) else excluded,
                        dtype=np.int64).reshape(-1, 2)
        ex = ex[((ex >= 0) & (ex < n)).all(axis=1)]  # others would alias in-range keys
        # -1 heads the sorted keys so every pair finds a key at or below it
        ex = np.r_[-1, np.sort(ex[:, 0] * n + ex[:, 1])]
        pair = keys % (n * n)
        keys = keys[ex[np.searchsorted(ex, pair, side="right") - 1] != pair]
    src = keys // n  # row f * n + i; the target is row f * n + j, j = key % n
    return np.stack([src, src - src % n + keys % n], axis=1)


def contact_edge_features(x_t: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Per edge (i, j): offset x_i - x_j and its norm, for positions of one
    frame ``[N, d]`` or of stacked frames ``[..., N, d]``."""
    x_t = np.asarray(x_t, dtype=np.float64)
    offset = np.take(x_t, edges[:, 0], axis=-2) - np.take(x_t, edges[:, 1], axis=-2)
    return np.concatenate([offset, np.sqrt((offset * offset).sum(-1, keepdims=True))], axis=-1)


def mesh_edge_features(X: np.ndarray, x_t: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Per edge (i, j): reference offset and norm, current offset and norm,
    for current positions of one frame or of stacked frames."""
    current = contact_edge_features(x_t, edges)
    reference = np.broadcast_to(contact_edge_features(X, edges), current.shape)
    return np.concatenate([reference, current], axis=-1)


def positional_encoding(X: np.ndarray, component_id: np.ndarray,
                        n_frequencies: int = 8) -> np.ndarray:
    """Stationary-wave encoding over each component's bounding box.

    Coordinates are normalized to [0, 1] per component and axis; the encoding
    is sin(pi*m*u), cos(pi*m*u) for m = 1..n_frequencies.  A zero-extent axis
    contributes the u=0 constants (sin 0, cos 1).  Computed on the undeformed
    configuration, so it is translation-invariant by construction.
    """
    X = np.asarray(X, dtype=np.float64)
    component_id = np.asarray(component_id, dtype=np.int64)
    u = np.zeros_like(X)
    for comp in _distinct(component_id):
        rows = component_id == comp
        lo = X[rows].min(axis=0)
        extent = X[rows].max(axis=0) - lo
        u[rows] = np.divide(X[rows] - lo, extent, out=np.zeros_like(X[rows]),
                            where=extent > 0)
    # columns per axis: sin, cos for m = 1, then m = 2, ...
    angles = np.pi * np.arange(1, n_frequencies + 1) * u[:, :, None]
    return np.stack([np.sin(angles), np.cos(angles)], axis=-1).reshape(X.shape[0], -1)


def one_hot_types(node_type: np.ndarray) -> np.ndarray:
    node_type = np.asarray(node_type, dtype=np.int64)
    out = np.zeros((node_type.shape[0], N_NODE_TYPES))
    out[np.arange(node_type.shape[0]), node_type] = 1.0
    return out


@dataclass
class MeshGraph:
    """A mesh preprocessed once: static edges, exclusions, encodings."""

    mesh: Mesh
    mesh_edges: np.ndarray       # [Em, 2] element + tied edges, directed
    excluded_pairs: np.ndarray   # [K, 2] pairs never eligible for contact
    positional: np.ndarray       # [N, pe_dim]
    contact_radius: float
    median_edge: float


@dataclass(frozen=True)
class GraphConfig:
    """Graph construction knobs shared by training, eval and rollout."""

    tied_k: int = setting(3, ge=1)
    tied_cutoff_factor: float = setting(3.0, ge=0)
    contact_radius_factor: float = setting(1.5, gt=0)
    n_frequencies: int = setting(8, ge=1)
    use_contact: bool = True

    def __post_init__(self):
        check_settings(self, "graph")


def prepare_mesh(mesh: Mesh, cfg: GraphConfig) -> MeshGraph:
    """Build the static graph data reused by every frame of a trajectory.

    Contact is never sought between mesh-edge endpoints nor between any two
    nodes of one element (quad diagonals included)."""
    n = mesh.n_nodes
    edges = build_mesh_edges(mesh)
    if edges.shape[0] == 0:
        raise ValidationError("mesh has no edges")
    lengths = np.sort(contact_edge_features(mesh.reference_positions, edges)[:, -1])
    # the median as np.median takes it: the mean of the one or two middle values
    med = float(np.mean(lengths[(lengths.size - 1) // 2:lengths.size // 2 + 1]))
    tied = build_tied_edges(mesh, k=cfg.tied_k, interface_cutoff=cfg.tied_cutoff_factor * med)
    edges = np.concatenate([edges, tied])
    edges = _pairs(edges[:, 0], edges[:, 1], n)
    a, b = np.nonzero(~np.eye(mesh.elements.shape[1], dtype=bool))
    excluded = _pairs(np.concatenate([edges[:, 0], mesh.elements[:, a].ravel()]),
                      np.concatenate([edges[:, 1], mesh.elements[:, b].ravel()]), n)
    pe = positional_encoding(mesh.reference_positions, mesh.component_id, cfg.n_frequencies)
    return MeshGraph(mesh=mesh, mesh_edges=edges, excluded_pairs=excluded, positional=pe,
                     contact_radius=cfg.contact_radius_factor * med, median_edge=med)


def build_graph_sample(graph: MeshGraph, positions: np.ndarray,
                       node_features: np.ndarray, use_contact: bool) -> GraphSample:
    """The sample of one frame (positions ``[N, d]``, node features
    ``[N, F]``), or the disjoint union of stacked frames (``[B, N, d]`` and
    ``[B, N, F]``): frame b takes rows b * N to (b + 1) * N, its mesh edges
    are offset by b * N, the positional encoding repeats per frame and
    ``sample_ranges`` names each frame's rows.  Contact edges, when
    ``use_contact`` is set, come from one search over every frame."""
    x_t = np.asarray(positions, dtype=np.float64)
    n, d = x_t.shape[-2:]
    frames = math.prod(x_t.shape[:-2])
    if use_contact:
        contact = detect_contact_edges(x_t, graph.contact_radius, graph.excluded_pairs)
    else:
        contact = np.zeros((0, 2), dtype=np.int64)
    offsets = np.arange(frames)[:, None, None] * n
    mesh_features = mesh_edge_features(graph.mesh.reference_positions, x_t, graph.mesh_edges)
    return GraphSample(
        node_features=np.asarray(node_features, dtype=np.float64).reshape(frames * n, -1),
        mesh_edges=(graph.mesh_edges + offsets).reshape(-1, 2),
        mesh_edge_features=mesh_features.reshape(-1, mesh_features.shape[-1]),
        contact_edges=contact,
        contact_edge_features=contact_edge_features(x_t.reshape(-1, d), contact),
        positional_encoding=np.tile(graph.positional, (frames, 1)),
        sample_ranges=tuple((b * n, (b + 1) * n) for b in range(frames)),
    )


def permute_sample(sample: GraphSample, perm: np.ndarray) -> GraphSample:
    """Relabel nodes by ``perm`` (new index of old node i is perm[i])."""
    perm = np.asarray(perm, dtype=np.int64)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    order_m = np.lexsort((perm[sample.mesh_edges[:, 1]], perm[sample.mesh_edges[:, 0]]))
    order_c = np.lexsort((perm[sample.contact_edges[:, 1]], perm[sample.contact_edges[:, 0]]))
    return GraphSample(
        node_features=sample.node_features[inv],
        mesh_edges=perm[sample.mesh_edges][order_m],
        mesh_edge_features=sample.mesh_edge_features[order_m],
        contact_edges=perm[sample.contact_edges][order_c],
        contact_edge_features=sample.contact_edge_features[order_c],
        positional_encoding=sample.positional_encoding[inv],
        sample_ranges=sample.sample_ranges,
    )
