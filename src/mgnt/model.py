"""Encode -> local message passing -> token-attention blocks -> local message
passing -> decode.

Three encoders lift node, mesh-edge and contact-edge features into a shared
latent width.  A pre-processing stack of message-passing iterations absorbs
local structure, two token-attention blocks perform the global update by
slicing nodes onto a small set of learned tokens (softmax weights with
per-node adaptive temperature, sharpened with Gumbel noise during training),
attending over the tokens, and redistributing them with the same
weights, and a refinement stack restores local consistency before the
decoder MLP reads out per-node predictions.

The attention core costs O(N*P + P^2) instead of O(N^2): the token-token
term is independent of the node count, which the op census on the tape can
verify exactly.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ValidationError, check_settings, setting
from .mesh import GraphSample
from .tensor import Tape, Tensor


@dataclass(frozen=True)
class ModelConfig:
    """Network architecture.  The defaults are the paper's Table 2 setting:
    2+2 message passing, 2 blocks, 4 heads, 32 tokens."""

    node_feat_dim: int = setting(ge=1)
    mesh_edge_feat_dim: int = setting(ge=1)
    contact_edge_feat_dim: int = setting(ge=1)
    pe_dim: int = setting(ge=0)
    output_dim: int = setting(ge=1)
    latent_dim: int = setting(112, ge=1)
    mpnn_pre: int = setting(2, ge=0)
    mpnn_refine: int = setting(2, ge=0)
    n_transformer_blocks: int = setting(2, ge=0)
    n_heads: int = setting(4, ge=1)
    n_tokens: int = setting(32, ge=1)
    transformer_dims: tuple[int, int, int] = setting((64, 32, 64), ge=1)
    dtype: str = "float32"   # precision of forward and backward; parameters stay float64

    def __post_init__(self):
        dims = tuple(int(d) for d in self.transformer_dims)
        object.__setattr__(self, "transformer_dims", dims)
        if len(dims) != 3:
            raise ConfigError(f"transformer dims need 3 entries (block, attention, "
                              f"feed-forward width), got {len(dims)}")
        check_settings(self, "model")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"model dtype must be float32 or float64, got {self.dtype!r}")
        if dims[1] % self.n_heads != 0:
            raise ConfigError(
                f"attention width {dims[1]} not divisible by {self.n_heads} heads")

    @property
    def head_dim(self) -> int:
        return self.transformer_dims[1] // self.n_heads


def mgn_baseline_config(node_feat_dim: int, mesh_edge_feat_dim: int,
                        contact_edge_feat_dim: int, pe_dim: int,
                        output_dim: int) -> ModelConfig:
    """Deep-stack ablation: 15 message-passing iterations at width 128, no blocks."""
    return ModelConfig(node_feat_dim, mesh_edge_feat_dim, contact_edge_feat_dim,
                       pe_dim, output_dim, latent_dim=128, mpnn_pre=15, mpnn_refine=0,
                       n_transformer_blocks=0)


@dataclass
class LatentGraph:
    """Latent state threaded through the processor stages."""

    nodes: Tensor
    mesh_edges: Tensor
    contact_edges: Tensor


# ---------------------------------------------------------------------------
# parameters

def _mlp_shapes(shapes: dict, prefix: str, d_in: int, d_hidden: int, d_out: int,
                with_ln: bool) -> None:
    shapes[f"{prefix}.w0"] = (d_in, d_hidden)
    shapes[f"{prefix}.b0"] = (d_hidden,)
    shapes[f"{prefix}.w1"] = (d_hidden, d_out)
    shapes[f"{prefix}.b1"] = (d_out,)
    if with_ln:
        shapes[f"{prefix}.ln_g"] = (d_out,)
        shapes[f"{prefix}.ln_b"] = (d_out,)


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape for every trainable parameter, in construction order."""
    shapes: dict[str, tuple[int, ...]] = {}
    L = cfg.latent_dim
    _mlp_shapes(shapes, "enc_node", cfg.node_feat_dim, L, L, True)
    _mlp_shapes(shapes, "enc_mesh", cfg.mesh_edge_feat_dim, L, L, True)
    _mlp_shapes(shapes, "enc_contact", cfg.contact_edge_feat_dim, L, L, True)
    for i in range(cfg.mpnn_pre + cfg.mpnn_refine):
        _mlp_shapes(shapes, f"mpnn{i}.edge", 3 * L, L, L, True)
        _mlp_shapes(shapes, f"mpnn{i}.node", 3 * L, L, L, True)
    w1, w2, w3 = cfg.transformer_dims
    c = cfg.head_dim
    for b in range(cfg.n_transformer_blocks):
        p = f"block{b}"
        shapes[f"{p}.in_w"] = (L + cfg.pe_dim, w1)
        shapes[f"{p}.in_b"] = (w1,)
        shapes[f"{p}.slice_w"] = (w1, cfg.n_tokens)
        shapes[f"{p}.slice_b"] = (cfg.n_tokens,)
        shapes[f"{p}.temp_w"] = (w1, 1)
        shapes[f"{p}.temp_b"] = (1,)
        for h in range(cfg.n_heads):
            for name in ("q", "k", "v"):
                shapes[f"{p}.h{h}.{name}_w"] = (w1, c)
                shapes[f"{p}.h{h}.{name}_b"] = (c,)
        shapes[f"{p}.attn_out_w"] = (w2, w1)
        shapes[f"{p}.attn_out_b"] = (w1,)
        shapes[f"{p}.ln_g"] = (w1,)
        shapes[f"{p}.ln_b"] = (w1,)
        shapes[f"{p}.ffn_w0"] = (w1, w3)
        shapes[f"{p}.ffn_b0"] = (w3,)
        shapes[f"{p}.ffn_w1"] = (w3, w1)
        shapes[f"{p}.ffn_b1"] = (w1,)
        shapes[f"{p}.out_w"] = (w1, L)
        shapes[f"{p}.out_b"] = (L,)
    _mlp_shapes(shapes, "dec", L, L, cfg.output_dim, False)
    return shapes


def param_count(cfg: ModelConfig) -> int:
    """Exact number of trainable scalars for a configuration."""
    return sum(int(np.prod(s)) for s in param_shapes(cfg).values())


def init_params(cfg: ModelConfig, seed: int) -> dict[str, Tensor]:
    """Uniform fan-in init; layer-norm gains one; zero biases, except the
    token-attention FFN's ``ffn_b0`` and ``ffn_b1``, which match no bias
    pattern and take the uniform draw bounded by 1/sqrt(their width);
    temperature projection starts flat; the final decoder layer starts at
    1/10 scale."""
    rng = np.random.default_rng([int(seed), 0x7EA0])
    params: dict[str, Tensor] = {}
    for name, shape in param_shapes(cfg).items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf.startswith("ln_g"):
            data = np.ones(shape)
        elif leaf.startswith("b") or leaf.endswith("_b") or leaf.startswith("ln_b"):
            data = np.zeros(shape)
        elif name.startswith("block") and ("temp_w" in name):
            data = np.zeros(shape)
        else:
            bound = 1.0 / np.sqrt(shape[0])
            data = rng.uniform(-bound, bound, size=shape)
            if name == "dec.w1":
                data = data * 0.1
        params[name] = Tensor(data)
    return params


def cast_params(params: dict[str, Tensor], cfg: ModelConfig) -> dict[str, Tensor]:
    """The parameters in the config's compute dtype, each under its own tape
    key (``Tensor.astype``), so gradients taken for the float64 masters come
    back in that dtype.  Parameters already in it are passed through."""
    dtype = np.dtype(cfg.dtype)
    return {name: p.astype(dtype) for name, p in params.items()}


# ---------------------------------------------------------------------------
# network pieces

TAU0 = 0.5           # slice temperature: TAU0 plus a learned per-node offset,
TAU_MIN = 0.01       # floored at TAU_MIN
LEAKY_SLOPE = 0.01   # negative slope of every LeakyReLU


def _scope(label: str):
    tape = Tape._active
    return tape.scope(label) if tape is not None else contextlib.nullcontext()


def _linear(params, prefix: str, x: Tensor) -> Tensor:
    return T.add(T.matmul(x, params[f"{prefix}_w"]), params[f"{prefix}_b"])


def _mlp(params, prefix: str, x: Tensor, with_ln: bool = True) -> Tensor:
    h = T.add(T.matmul(x, params[f"{prefix}.w0"]), params[f"{prefix}.b0"])
    h = T.leaky_relu(h, LEAKY_SLOPE)
    h = T.add(T.matmul(h, params[f"{prefix}.w1"]), params[f"{prefix}.b1"])
    if with_ln:
        h = T.layer_norm(h, params[f"{prefix}.ln_g"], params[f"{prefix}.ln_b"])
    return h


def encode(sample: GraphSample, params: dict[str, Tensor], cfg: ModelConfig) -> LatentGraph:
    """Lift node and edge features into the latent width."""
    for name, feats, width in (
            ("node", sample.node_features, cfg.node_feat_dim),
            ("mesh edge", sample.mesh_edge_features, cfg.mesh_edge_feat_dim),
            ("contact edge", sample.contact_edge_features, cfg.contact_edge_feat_dim)):
        if feats.shape[1] != width:
            raise ConfigError(f"{name} feature dim {feats.shape[1]} != config {width}")
    # feature arrays enter the first matmul in the weights' dtype
    nodes = _mlp(params, "enc_node", sample.node_features)
    mesh = _mlp(params, "enc_mesh", sample.mesh_edge_features)
    contact = _mlp(params, "enc_contact", sample.contact_edge_features)
    return LatentGraph(nodes=nodes, mesh_edges=mesh, contact_edges=contact)


def mpnn_iteration(lat: LatentGraph, sample: GraphSample, params: dict[str, Tensor],
                   index: int, cfg: ModelConfig) -> LatentGraph:
    """One local update: residual edge MLP (shared weights over both edge
    sets), then residual node MLP over the separately aggregated messages.
    ``cfg`` goes unused: perfbench's tracer reads ``cfg.mpnn_pre`` from the call."""
    n = sample.n_nodes
    prefix = f"mpnn{index}"

    def update_edges(edge_lat: Tensor, edges: np.ndarray) -> Tensor:
        # no backward reads the gathered blocks, so nothing holds them once
        # the concat has copied them: they die before the edge MLP runs
        e_in = T.concat([edge_lat, T.gather_rows(lat.nodes, edges[:, 0]),
                         T.gather_rows(lat.nodes, edges[:, 1])], axis=1)
        return T.add(edge_lat, _mlp(params, f"{prefix}.edge", e_in))

    mesh_new = update_edges(lat.mesh_edges, sample.mesh_edges)
    contact_new = update_edges(lat.contact_edges, sample.contact_edges)
    n_in = T.concat([lat.nodes, T.segment_sum(mesh_new, sample.mesh_edges[:, 1], n),
                     T.segment_sum(contact_new, sample.contact_edges[:, 1], n)], axis=1)
    nodes_new = T.add(lat.nodes, _mlp(params, f"{prefix}.node", n_in))
    return LatentGraph(nodes=nodes_new, mesh_edges=mesh_new, contact_edges=contact_new)


def slice_tokens(h: Tensor, params: dict[str, Tensor], block: int, cfg: ModelConfig,
                 gumbel: np.ndarray | None) -> tuple[Tensor, Tensor]:
    """Project nodes onto tokens: softmax slice weights with per-node adaptive
    temperature, tokens as the weights' normalized convex combinations."""
    p = f"block{block}"
    logits = _linear(params, f"{p}.slice", h)
    tau = T.add(_linear(params, f"{p}.temp", h), TAU0)
    tau = T.maximum_scalar(tau, TAU_MIN)
    if gumbel is not None:
        logits = T.add(logits, gumbel)
    w = T.softmax(T.div(logits, tau), axis=1)
    colsum = T.reshape(T.sum_axis(w, axis=0), (cfg.n_tokens, 1))
    # softmax weights are strictly positive; the floor only guards a column
    # that underflows when a token attracts no node at all.  Its square is a
    # normal float32, so div's backward forms no 0/0
    z = T.div(T.matmul(T.transpose(w), h), T.maximum_scalar(colsum, 1e-18))
    return z, w


def token_attention(z: Tensor, params: dict[str, Tensor], block: int,
                    cfg: ModelConfig) -> Tensor:
    """Multi-head scaled dot-product attention over the P tokens."""
    p = f"block{block}"
    inv_sqrt_c = 1.0 / np.sqrt(cfg.head_dim)
    heads = []
    for h in range(cfg.n_heads):
        q = _linear(params, f"{p}.h{h}.q", z)
        k = _linear(params, f"{p}.h{h}.k", z)
        v = _linear(params, f"{p}.h{h}.v", z)
        attn = T.softmax(T.mul(T.matmul(q, T.transpose(k)), inv_sqrt_c), axis=1)
        heads.append(T.matmul(attn, v))
    merged = T.concat(heads, axis=1)
    return _linear(params, f"{p}.attn_out", merged)


def deslice(z_updated: Tensor, w: Tensor) -> Tensor:
    """Redistribute updated tokens to nodes with the same slice weights."""
    return T.matmul(w, z_updated)


def transformer_block(lat_nodes: Tensor, pe: np.ndarray, params: dict[str, Tensor],
                      block: int, cfg: ModelConfig,
                      sample_ranges: tuple[tuple[int, int], ...],
                      gumbel: np.ndarray | None) -> tuple[Tensor, np.ndarray]:
    """One global update: project latents + positional encodings into the
    block width, apply slice/attend/deslice per constituent sample with a
    residual, a pre-norm feed-forward residual, and project back.  Returns
    the updated latents and the samples' slice weights, stacked [rows x P]."""
    p = f"block{block}"
    h_all = _linear(params, f"{p}.in", T.concat([lat_nodes, pe], axis=1))
    parts = []
    weights = []
    for (start, stop) in sample_ranges:
        h = T.slice_rows(h_all, start, stop) if len(sample_ranges) > 1 else h_all
        g = gumbel[start:stop] if gumbel is not None else None
        with _scope("slice"):
            z, w = slice_tokens(h, params, block, cfg, g)
        with _scope("token_attention"):
            z_updated = token_attention(z, params, block, cfg)
        with _scope("deslice"):
            update = deslice(z_updated, w)
        parts.append(T.add(h, update))
        weights.append(w.data)
    h1 = T.concat(parts, axis=0) if len(parts) > 1 else parts[0]
    normed = T.layer_norm(h1, params[f"{p}.ln_g"], params[f"{p}.ln_b"])
    hidden = T.leaky_relu(T.add(T.matmul(normed, params[f"{p}.ffn_w0"]),
                                params[f"{p}.ffn_b0"]), LEAKY_SLOPE)
    ffn_out = T.add(T.matmul(hidden, params[f"{p}.ffn_w1"]), params[f"{p}.ffn_b1"])
    h2 = T.add(h1, ffn_out)
    # residual update keeps the latent stream intact through the narrow block
    return (T.add(lat_nodes, _linear(params, f"{p}.out", h2)),
            np.concatenate(weights, axis=0))


def sample_gumbel(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Gumbel noise -log(-log(eps)) with eps drawn from the open unit interval."""
    eps = np.clip(rng.random(shape), 1e-12, 1.0 - 1e-12)
    return -np.log(-np.log(eps))


def forward(sample: GraphSample, params: dict[str, Tensor], cfg: ModelConfig,
            train_mode: bool = False, rng: np.random.Generator | None = None
            ) -> tuple[Tensor, dict]:
    """Full pass; returns per-node predictions and an aux dict whose
    ``slice_weights`` holds each block's [rows x P] slice weights.

    In train mode the slice logits of every block receive Gumbel noise, all
    drawn from ``rng`` before the pass starts.  Eval mode is deterministic.
    The pass runs in ``cfg.dtype``: ``params`` (float64 masters, say) are
    cast under their own keys, and every input array takes their dtype.
    """
    if train_mode and rng is None:
        raise ValidationError("train mode needs an rng")
    params = cast_params(params, cfg)
    gumbel = [sample_gumbel(rng, (sample.n_nodes, cfg.n_tokens)) if train_mode else None
              for _ in range(cfg.n_transformer_blocks)]
    with _scope("encode"):
        lat = encode(sample, params, cfg)
    with _scope("mpnn_pre"):
        for i in range(cfg.mpnn_pre):
            lat = mpnn_iteration(lat, sample, params, i, cfg)
    nodes = lat.nodes
    slice_weights = []
    for b in range(cfg.n_transformer_blocks):
        nodes, w = transformer_block(nodes, sample.positional_encoding, params, b, cfg,
                                     sample.sample_ranges, gumbel[b])
        slice_weights.append(w)
    lat = LatentGraph(nodes=nodes, mesh_edges=lat.mesh_edges,
                      contact_edges=lat.contact_edges)
    with _scope("mpnn_refine"):
        for i in range(cfg.mpnn_refine):
            lat = mpnn_iteration(lat, sample, params, cfg.mpnn_pre + i, cfg)
    with _scope("decode"):
        y = _mlp(params, "dec", lat.nodes, with_ln=False)
    return y, {"slice_weights": slice_weights}

