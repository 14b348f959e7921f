"""Network contracts: encoders, message passing, token attention, the full
forward pass, parameter counting and the op census."""

import json
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mgnt.tensor as T
from mgnt.data import GraphConfig, feature_dims, get_schema, prepare_trajectory
from mgnt.errors import ConfigError, ValidationError
from mgnt.mesh import GraphSample, build_graph_sample, permute_sample
from mgnt.model import (LatentGraph, ModelConfig, cast_params, deslice, encode, forward,
                        init_params, mgn_baseline_config, mpnn_iteration, param_count,
                        param_shapes, sample_gumbel, slice_tokens, token_attention,
                        transformer_block)
from mgnt.oracle import ChainConfig, OracleConfig, simulate_chain, simulate_impact
from mgnt.tensor import Tape, Tensor
from mgnt.train import Normalizer, compute_loss, make_batch

DIMS_3D = dict(node_feat_dim=12, mesh_edge_feat_dim=8, contact_edge_feat_dim=4,
               pe_dim=48, output_dim=7)


def _toy_sample(rng, n=10, cfg=None):
    """A random small graph sample with a ring of mesh edges."""
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))
        edges.append(((i + 1) % n, i))
    edges = np.array(sorted(edges), dtype=np.int64)
    return GraphSample(
        node_features=rng.standard_normal((n, cfg.node_feat_dim)),
        mesh_edges=edges,
        mesh_edge_features=rng.standard_normal((len(edges), cfg.mesh_edge_feat_dim)),
        contact_edges=np.zeros((0, 2), dtype=np.int64),
        contact_edge_features=np.zeros((0, cfg.contact_edge_feat_dim)),
        positional_encoding=rng.standard_normal((n, cfg.pe_dim)),
        sample_ranges=((0, n),),
    )


def _path_sample(n, cfg, rng):
    """A path graph 0-1-2-...-(n-1) for receptive-field probes."""
    edges = []
    for i in range(n - 1):
        edges.append((i, i + 1))
        edges.append((i + 1, i))
    edges = np.array(sorted(edges), dtype=np.int64)
    return GraphSample(
        node_features=rng.standard_normal((n, cfg.node_feat_dim)),
        mesh_edges=edges,
        mesh_edge_features=rng.standard_normal((len(edges), cfg.mesh_edge_feat_dim)),
        contact_edges=np.zeros((0, 2), dtype=np.int64),
        contact_edge_features=np.zeros((0, cfg.contact_edge_feat_dim)),
        positional_encoding=rng.standard_normal((n, cfg.pe_dim)),
        sample_ranges=((0, n),),
    )


@pytest.fixture(scope="module")
def small_cfg():
    return ModelConfig(node_feat_dim=5, mesh_edge_feat_dim=6, contact_edge_feat_dim=3,
                       pe_dim=4, output_dim=3, latent_dim=8, n_tokens=4, n_heads=2,
                       transformer_dims=(8, 4, 8))


@pytest.fixture(scope="module")
def small_params(small_cfg):
    return init_params(small_cfg, seed=1)


class TestEncode:
    def test_empty_contact_set_ok(self, small_cfg, small_params):
        rng = np.random.default_rng(0)
        sample = _toy_sample(rng, 6, small_cfg)
        lat = encode(sample, small_params, small_cfg)
        assert lat.contact_edges.shape == (0, small_cfg.latent_dim)

    def test_identical_rows_identical_latents(self, small_cfg, small_params):
        rng = np.random.default_rng(1)
        sample = _toy_sample(rng, 6, small_cfg)
        sample.node_features[3] = sample.node_features[0]
        lat = encode(sample, small_params, small_cfg)
        np.testing.assert_array_equal(lat.nodes.data[0], lat.nodes.data[3])

    def test_output_shape(self, small_cfg, small_params):
        rng = np.random.default_rng(2)
        sample = _toy_sample(rng, 100, small_cfg)
        lat = encode(sample, small_params, small_cfg)
        assert lat.nodes.shape == (100, small_cfg.latent_dim)

    def test_dim_mismatch_raises_config_error(self, small_cfg, small_params):
        rng = np.random.default_rng(3)
        sample = _toy_sample(rng, 4, small_cfg)
        bad = GraphSample(**{**sample.__dict__,
                             "node_features": rng.standard_normal((4, 7))})
        with pytest.raises(ConfigError, match="node feature dim"):
            encode(bad, small_params, small_cfg)
        # the width is checked even when there are no contact rows
        no_contact = GraphSample(**{**sample.__dict__,
                                    "contact_edge_features": np.zeros((0, 4))})
        with pytest.raises(ConfigError, match="contact edge feature dim"):
            encode(no_contact, small_params, small_cfg)


class TestMpnn:
    def test_no_edges_finite(self, small_cfg, small_params):
        rng = np.random.default_rng(4)
        sample = _toy_sample(rng, 5, small_cfg)
        sample = GraphSample(**{**sample.__dict__,
                                "mesh_edges": np.zeros((0, 2), dtype=np.int64),
                                "mesh_edge_features": np.zeros((0, 6))})
        lat = encode(sample, small_params, small_cfg)
        out = mpnn_iteration(lat, sample, small_params, 0, small_cfg)
        assert np.isfinite(out.nodes.data).all()

    def test_two_hop_reach_after_two_iterations(self, small_cfg, small_params):
        rng = np.random.default_rng(5)
        sample = _path_sample(5, small_cfg, rng)
        perturbed = GraphSample(**{**sample.__dict__,
                                   "node_features": sample.node_features.copy()})
        perturbed.node_features[0] += 1.0

        def run(s, iters):
            lat = encode(s, small_params, small_cfg)
            for i in range(iters):
                lat = mpnn_iteration(lat, s, small_params, i, small_cfg)
            return lat.nodes.data

        one_a, one_b = run(sample, 1), run(perturbed, 1)
        assert np.array_equal(one_a[2], one_b[2])       # 1 hop: node 2 unreached
        two_a, two_b = run(sample, 2), run(perturbed, 2)
        assert not np.array_equal(two_a[2], two_b[2])   # 2 hops: node 2 reached
        assert np.array_equal(two_a[3], two_b[3])       # node 3 still unreached

    def test_permutation_equivariance(self, small_cfg, small_params):
        rng = np.random.default_rng(6)
        sample = _toy_sample(rng, 8, small_cfg)
        lat = encode(sample, small_params, small_cfg)
        out = mpnn_iteration(lat, sample, small_params, 0, small_cfg).nodes.data

        perm = rng.permutation(8)
        sample_p = permute_sample(sample, perm)
        lat_p = encode(sample_p, small_params, small_cfg)
        out_p = mpnn_iteration(lat_p, sample_p, small_params, 0, small_cfg).nodes.data
        np.testing.assert_allclose(out_p[perm], out, atol=1e-10)

    def test_gathered_blocks_die_before_their_edge_mlp(self, monkeypatch, small_cfg):
        # no backward reads a gathered block, so none outlives the concat that
        # copies it; in float64 the cast parameters are the masters themselves
        cfg = replace(small_cfg, dtype="float64")
        params = init_params(cfg, seed=1)
        edge_w0 = {id(params[f"mpnn{i}.edge.w0"]) for i in range(cfg.mpnn_pre + cfg.mpnn_refine)}
        gathered, checked = [], []
        real_gather, real_matmul = T.gather_rows, T.matmul

        def gather_rows(x, index):
            out = real_gather(x, index)
            gathered.append(weakref.ref(out.data))
            return out

        def matmul(a, b):
            if id(b) in edge_w0:
                assert all(ref() is None for ref in gathered)
                checked.append(len(gathered))
            return real_matmul(a, b)

        monkeypatch.setattr(T, "gather_rows", gather_rows)
        monkeypatch.setattr(T, "matmul", matmul)
        rng = np.random.default_rng(9)
        sample = replace(_toy_sample(rng, 10, cfg), contact_edges=np.array([[0, 5], [5, 0]]),
                         contact_edge_features=rng.standard_normal((2, cfg.contact_edge_feat_dim)))
        with Tape():
            forward(sample, params, cfg, train_mode=True, rng=rng)
        # two blocks per edge set, two edge sets per iteration
        assert checked == list(range(2, 4 * (cfg.mpnn_pre + cfg.mpnn_refine) + 1, 2))


class TestSliceTokens:
    def test_single_token_is_mean(self, small_cfg):
        cfg = replace(small_cfg, n_tokens=1, transformer_dims=(8, 4, 8))
        params = init_params(cfg, seed=2)
        rng = np.random.default_rng(7)
        h = Tensor(rng.standard_normal((9, 8)))
        z, w = slice_tokens(h, params, 0, cfg, None)
        np.testing.assert_allclose(w.data, 1.0)
        np.testing.assert_allclose(z.data[0], h.data.mean(axis=0), atol=1e-12)

    def test_identical_rows_token_equals_row(self, small_cfg, small_params):
        row = np.random.default_rng(8).standard_normal(8)
        h = Tensor(np.tile(row, (6, 1)))
        z, _ = slice_tokens(h, small_params, 0, small_cfg, None)
        for j in range(small_cfg.n_tokens):
            np.testing.assert_allclose(z.data[j], row, atol=1e-12)

    def test_handset_logits_closed_form(self, small_cfg):
        # force logits [ln 2, 0, -inf...) via crafted weights: use a config
        # with 2 tokens and zeroed projections plus bias
        cfg = replace(small_cfg, n_tokens=2, transformer_dims=(8, 4, 8))
        params = init_params(cfg, seed=3)
        params["block0.slice_w"] = Tensor(np.zeros((8, 2)))
        params["block0.slice_b"] = Tensor(np.array([np.log(2.0), 0.0]))
        params["block0.temp_w"] = Tensor(np.zeros((8, 1)))
        params["block0.temp_b"] = Tensor(np.array([0.5]))   # tau = TAU0 + 0.5 = 1
        h = Tensor(np.random.default_rng(9).standard_normal((1, 8)))
        z, w = slice_tokens(h, params, 0, cfg, None)
        np.testing.assert_allclose(w.data, [[2 / 3, 1 / 3]], atol=1e-12)
        np.testing.assert_allclose(z.data[0], h.data[0], atol=1e-12)
        np.testing.assert_allclose(z.data[1], h.data[0], atol=1e-12)

    def test_rows_positive_sum_one_both_modes(self, small_cfg, small_params):
        rng = np.random.default_rng(10)
        h = Tensor(rng.standard_normal((50, 8)) * 3)
        for gumbel in (None, sample_gumbel(rng, (50, small_cfg.n_tokens))):
            _, w = slice_tokens(h, small_params, 0, small_cfg, gumbel)
            assert (w.data > 0).all()
            np.testing.assert_allclose(w.data.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_token_attracting_no_node_keeps_gradients_finite(self, small_cfg, small_params,
                                                              dtype):
        cfg = replace(small_cfg, dtype=dtype)
        params = dict(small_params)
        bias = params["block0.slice_b"].data.copy()
        bias[0] = -1e4                      # token 0's softmax column underflows
        params["block0.slice_b"] = Tensor(bias)
        params = cast_params(params, cfg)
        h = Tensor(np.random.default_rng(12).standard_normal((7, 8)).astype(dtype))
        with Tape() as tape:
            z, w = slice_tokens(h, params, 0, cfg, None)
            assert not w.data[:, 0].any()
            grads = tape.gradients(T.sum_all(T.mul(z, z)), [h, *params.values()])
        assert np.isfinite(z.data).all()
        assert all(np.isfinite(g).all() for g in grads)

    def test_temperature_clamped(self, small_cfg, small_params):
        params = dict(small_params)
        params["block0.temp_b"] = Tensor(np.array([-100.0]))  # drives tau negative
        rng = np.random.default_rng(11)
        h = Tensor(rng.standard_normal((5, 8)))
        _, w = slice_tokens(h, params, 0, small_cfg, None)
        assert np.isfinite(w.data).all()


class TestTokenAttention:
    def test_single_token_attention_is_identity_weight(self, small_cfg):
        cfg = replace(small_cfg, n_tokens=1, transformer_dims=(8, 4, 8))
        params = init_params(cfg, seed=4)
        z = Tensor(np.random.default_rng(12).standard_normal((1, 8)))
        out = token_attention(z, params, 0, cfg)
        # with one token, softmax gives weight exactly 1: output is the
        # projected value row
        heads = []
        for h in range(cfg.n_heads):
            v = z.data @ params[f"block0.h{h}.v_w"].data + params[f"block0.h{h}.v_b"].data
            heads.append(v)
        merged = np.concatenate(heads, axis=1)
        expected = merged @ params["block0.attn_out_w"].data + params["block0.attn_out_b"].data
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_uniform_logits_average_values(self, small_cfg, small_params):
        # zero Q/K weights make all attention logits equal: every output row
        # becomes the mean of the value rows
        params = dict(small_params)
        for h in range(small_cfg.n_heads):
            params[f"block0.h{h}.q_w"] = Tensor(np.zeros((8, 2)))
            params[f"block0.h{h}.q_b"] = Tensor(np.zeros(2))
            params[f"block0.h{h}.k_w"] = Tensor(np.zeros((8, 2)))
            params[f"block0.h{h}.k_b"] = Tensor(np.zeros(2))
        rng = np.random.default_rng(13)
        z = Tensor(rng.standard_normal((2, 8)))
        out = token_attention(z, params, 0, small_cfg)
        heads = []
        for h in range(small_cfg.n_heads):
            v = z.data @ params[f"block0.h{h}.v_w"].data + params[f"block0.h{h}.v_b"].data
            heads.append(v.mean(axis=0, keepdims=True).repeat(2, axis=0))
        expected = (np.concatenate(heads, axis=1) @ params["block0.attn_out_w"].data
                    + params["block0.attn_out_b"].data)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_attention_rows_sum_to_one(self, small_cfg, small_params, monkeypatch):
        rng = np.random.default_rng(14)
        z = Tensor(rng.standard_normal((4, 8)))
        outputs = []
        softmax = T.softmax

        def recording_softmax(*args, **kwargs):
            outputs.append(softmax(*args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(T, "softmax", recording_softmax)
        with Tape():
            token_attention(z, small_params, 0, small_cfg)
        softmax_outputs = [out.data for out in outputs]
        assert len(softmax_outputs) == small_cfg.n_heads
        for s in softmax_outputs:
            np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)


class TestDeslice:
    def test_equal_tokens_broadcast(self):
        w = Tensor(np.random.default_rng(15).dirichlet(np.ones(3), size=5))
        z = Tensor(np.tile([1.5, -2.0], (3, 1)))
        out = deslice(z, w)
        np.testing.assert_allclose(out.data, np.tile([1.5, -2.0], (5, 1)), atol=1e-12)

    def test_single_token(self):
        z = Tensor(np.array([[3.0, 4.0]]))
        w = Tensor(np.ones((4, 1)))
        np.testing.assert_allclose(deslice(z, w).data, np.tile([3.0, 4.0], (4, 1)))

    def test_permutation_weights(self):
        w = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        z = Tensor(np.array([[5.0], [7.0]]))
        np.testing.assert_allclose(deslice(z, w).data, [[5.0], [7.0]])


class TestTransformerBlock:
    def test_zero_attn_out_projection_still_finite(self, small_cfg, small_params):
        params = dict(small_params)
        params["block0.attn_out_w"] = Tensor(np.zeros((4, 8)))
        params["block0.attn_out_b"] = Tensor(np.zeros(8))
        rng = np.random.default_rng(16)
        nodes = Tensor(rng.standard_normal((6, small_cfg.latent_dim)))
        pe = rng.standard_normal((6, small_cfg.pe_dim))
        out, w = transformer_block(nodes, pe, params, 0, small_cfg, ((0, 6),), None)
        assert np.isfinite(out.data).all() and np.isfinite(w).all()

    def test_shape_preserved(self, small_cfg, small_params):
        rng = np.random.default_rng(17)
        nodes = Tensor(rng.standard_normal((9, small_cfg.latent_dim)))
        pe = rng.standard_normal((9, small_cfg.pe_dim))
        out, w = transformer_block(nodes, pe, small_params, 0, small_cfg, ((0, 9),), None)
        assert out.shape == (9, small_cfg.latent_dim)
        assert w.shape == (9, small_cfg.n_tokens)


class TestForward:
    def test_toy_graph_finite(self, small_cfg, small_params):
        rng = np.random.default_rng(18)
        sample = _toy_sample(rng, 10, small_cfg)
        y, _ = forward(sample, small_params, small_cfg, train_mode=False)
        assert y.shape == (10, small_cfg.output_dim)
        assert np.isfinite(y.data).all()

    def test_eval_deterministic_bitwise(self, small_cfg, small_params):
        rng = np.random.default_rng(19)
        sample = _toy_sample(rng, 10, small_cfg)
        y1, _ = forward(sample, small_params, small_cfg, train_mode=False)
        y2, _ = forward(sample, small_params, small_cfg, train_mode=False)
        assert np.array_equal(y1.data, y2.data)

    def test_train_mode_needs_rng_or_noise(self, small_cfg, small_params):
        rng = np.random.default_rng(20)
        sample = _toy_sample(rng, 4, small_cfg)
        with pytest.raises(ValidationError):
            forward(sample, small_params, small_cfg, train_mode=True)

    def test_global_reach_beyond_four_hops(self, small_cfg, small_params):
        rng = np.random.default_rng(21)
        sample = _path_sample(12, small_cfg, rng)
        pert = GraphSample(**{**sample.__dict__,
                              "node_features": sample.node_features.copy()})
        pert.node_features[0] += 0.5

        y_a, _ = forward(sample, small_params, small_cfg, train_mode=False)
        y_b, _ = forward(pert, small_params, small_cfg, train_mode=False)
        assert not np.array_equal(y_a.data[10], y_b.data[10])  # 10 hops away

        ablated = replace(small_cfg, n_transformer_blocks=0)
        params_abl = init_params(ablated, seed=5)
        y_c, _ = forward(sample, params_abl, ablated, train_mode=False)
        y_d, _ = forward(pert, params_abl, ablated, train_mode=False)
        assert np.array_equal(y_c.data[10], y_d.data[10])       # exactly invariant
        assert not np.array_equal(y_c.data[3], y_d.data[3])     # within 4 hops

    def test_slice_weights_collected(self, small_cfg, small_params):
        cfg = replace(small_cfg, dtype="float64")
        rng = np.random.default_rng(22)
        sample = _toy_sample(rng, 7, cfg)
        _, aux = forward(sample, small_params, cfg)
        assert len(aux["slice_weights"]) == cfg.n_transformer_blocks
        for w in aux["slice_weights"]:
            assert w.shape == (7, cfg.n_tokens)
            np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-9)

    def test_slice_weights_collected_float32(self, small_cfg, small_params):
        # float32 rows sum to 1 within a few ulps of 6e-8; summed in float64
        rng = np.random.default_rng(22)
        sample = _toy_sample(rng, 7, small_cfg)
        _, aux = forward(sample, small_params, small_cfg)
        assert len(aux["slice_weights"]) == small_cfg.n_transformer_blocks
        for w in aux["slice_weights"]:
            assert w.shape == (7, small_cfg.n_tokens) and w.dtype == np.float32
            np.testing.assert_allclose(w.sum(axis=1, dtype=np.float64), 1.0, atol=1e-6)

    @staticmethod
    def _check_batched_ranges(prep, cfg, params, dtype, atol):
        """A two-frame union forward matches the two separate forwards."""
        cfg = replace(cfg, dtype=dtype)
        normalizer = Normalizer.fit([prep], "absolute")
        frames = {k: prep.traj.arrays[k][[1, 4]] for k in prep.schema.series}
        union = build_graph_sample(prep.graph, frames["x"], prep.node_features(frames),
                                   prep.graph_cfg.use_contact)
        n = prep.traj.n_nodes
        assert union.sample_ranges == ((0, n), (n, 2 * n))
        y_m, _ = forward(normalizer.normalize_sample(union), params, cfg, train_mode=False)
        y_1, _ = forward(normalizer.normalize_sample(prep.sample(1)), params, cfg,
                         train_mode=False)
        y_2, _ = forward(normalizer.normalize_sample(prep.sample(4)), params, cfg,
                         train_mode=False)
        np.testing.assert_allclose(y_m.data[:n], y_1.data, atol=atol)
        np.testing.assert_allclose(y_m.data[n:], y_2.data, atol=atol)

    def test_batched_ranges_match_separate_forwards(self, tiny_prep, tiny_model_cfg,
                                                     tiny_params):
        # float64: the rows agree under every OpenBLAS kernel tried
        self._check_batched_ranges(tiny_prep, tiny_model_cfg, tiny_params, "float64",
                                   atol=1e-12)

    def test_batched_ranges_match_separate_forwards_float32(self, tiny_prep, tiny_model_cfg,
                                                            tiny_params):
        # float32: another kernel may sum a row's dot products in another order
        self._check_batched_ranges(tiny_prep, tiny_model_cfg, tiny_params, "float32",
                                   atol=1e-6)


class TestParamCount:
    def test_single_linear_with_bias(self):
        # 4 inputs, 8 outputs, bias: 4*8 + 8 = 40 trainable scalars
        cfg = ModelConfig(node_feat_dim=4, mesh_edge_feat_dim=4,
                          contact_edge_feat_dim=4, pe_dim=4, output_dim=4,
                          latent_dim=8, n_tokens=2, n_heads=2,
                          transformer_dims=(8, 4, 8))
        shapes = param_shapes(cfg)
        assert int(np.prod(shapes["enc_node.w0"])) + int(np.prod(shapes["enc_node.b0"])) == 40

    def test_table2_within_budget(self):
        count = param_count(ModelConfig(**DIMS_3D))
        assert 350_000 <= count <= 650_000

    def test_baseline_within_budget(self):
        count = param_count(mgn_baseline_config(**DIMS_3D))
        assert 1_600_000 <= count <= 2_400_000

    def test_exact_regression_constants(self):
        assert param_count(ModelConfig(**DIMS_3D)) == 533_161
        assert param_count(mgn_baseline_config(**DIMS_3D)) == 2_052_615

    def test_init_matches_shapes(self, small_cfg, small_params):
        shapes = param_shapes(small_cfg)
        assert set(small_params) == set(shapes)
        for name, shape in shapes.items():
            assert small_params[name].shape == tuple(shape)
        assert param_count(small_cfg) == sum(p.size for p in small_params.values())

    def test_heads_must_divide_attention_width(self):
        with pytest.raises(ConfigError, match="divisible"):
            ModelConfig(node_feat_dim=4, mesh_edge_feat_dim=4, contact_edge_feat_dim=4,
                        pe_dim=4, output_dim=4, n_heads=3, transformer_dims=(8, 4, 8))


# each parameter's init class by leaf name; dec.w1 alone is uniform at 1/10
_INIT_CLASS = {
    "ln_g": "ones",
    **dict.fromkeys(("b0", "b1", "ln_b", "in_b", "slice_b", "temp_b", "temp_w", "q_b",
                     "k_b", "v_b", "attn_out_b", "out_b"), "zeros"),
    **dict.fromkeys(("w0", "w1", "in_w", "slice_w", "q_w", "k_w", "v_w", "attn_out_w",
                     "ffn_w0", "ffn_w1", "out_w"), "uniform"),
    # the FFN biases match no bias pattern of init_params; zeroing them moves every digest
    **dict.fromkeys(("ffn_b0", "ffn_b1"), "uniform"),
}


class TestInit:
    def test_init_class_of_every_parameter(self, small_params):
        def observed(data):
            if (data == 1).all():
                return "ones"
            if (data == 0).all():
                return "zeros"
            top, bound = np.abs(data).max(), 1.0 / np.sqrt(data.shape[0])
            assert top <= bound
            return "uniform/10" if top <= 0.1 * bound else "uniform"

        got = {name: observed(p.data) for name, p in small_params.items()}
        want = {name: "uniform/10" if name == "dec.w1" else _INIT_CLASS[name.rsplit(".", 1)[-1]]
                for name in small_params}
        assert got == want



def attention_core_census(n_nodes: int, cfg: ModelConfig, seed: int = 0
                          ) -> dict[str, dict[str, tuple[int, int]]]:
    """Op census of slice -> token attention -> deslice on random latents."""
    rng = np.random.default_rng([seed, n_nodes])
    params = init_params(cfg, seed)
    h = Tensor(rng.standard_normal((n_nodes, cfg.transformer_dims[0])))
    with Tape() as tape:
        with tape.scope("slice"):
            z, w = slice_tokens(h, params, 0, cfg, None)
        with tape.scope("token_attention"):
            z_updated = token_attention(z, params, 0, cfg)
        with tape.scope("deslice"):
            deslice(z_updated, w)
        census = tape.census()
    return {k: v for k, v in census.items() if k != "main"}


# The benchmark's census table, read only: the per-scope [records, flops] of
# one train-mode step on each workload's mesh and batch size.
BENCH_CENSUS = Path(__file__).resolve().parents[1] / "perfbench" / "census.json"


def train_step_census(traj, schema: str, use_contact: bool, batch_size: int,
                      target_mode: str) -> dict[str, list[int]]:
    """Per-scope [records, flops] of a train-mode forward plus loss on frame 0
    repeated ``batch_size`` times, built as the benchmark builds its census."""
    prep = prepare_trajectory(traj, get_schema(schema), GraphConfig(use_contact=use_contact))
    cfg = ModelConfig(**feature_dims(prep.schema, prep.graph_cfg))
    normalizer = Normalizer.fit([prep], target_mode)
    sample, target, mask = make_batch(prep, [0] * batch_size, target_mode)
    sample = normalizer.normalize_sample(sample)
    with Tape() as tape:
        pred, _ = forward(sample, init_params(cfg, 0), cfg, train_mode=True,
                          rng=np.random.default_rng(0))
        compute_loss(pred, normalizer.normalize_targets(target), mask, sample.sample_ranges)
        census = tape.census()
    return {scope: [sum(c for c, _ in ops.values()), sum(f for _, f in ops.values())]
            for scope, ops in sorted(census.items())}


class TestCensus:
    def test_token_attention_counts_node_independent(self):
        cfg = ModelConfig(**DIMS_3D)
        c500 = attention_core_census(500, cfg)
        c2000 = attention_core_census(2000, cfg)
        assert c500["token_attention"] == c2000["token_attention"]

    def test_slice_deslice_counts_affine_in_n(self):
        cfg = ModelConfig(**DIMS_3D)
        sizes = (500, 1000, 2000)
        rows = [attention_core_census(n, cfg) for n in sizes]
        for stage in ("slice", "deslice"):
            for op in rows[0][stage]:
                flops = [r[stage][op][1] for r in rows]
                # exact affine growth: f(2000)-f(1000) == 2*(f(1000)-f(500))
                assert flops[2] - flops[1] == 2 * (flops[1] - flops[0])

    # two frames of each benchmark workload's mesh; frame 0 has no contact edge
    @pytest.mark.parametrize("workload, simulate, oracle_cfg, schema, use_contact, batch_size, "
                             "target_mode", [
        ("impact-8", simulate_impact, OracleConfig(rows=8, cols=8, frames=2), "impact", True,
         4, "absolute"),
        ("chain-400", simulate_chain, ChainConfig(n_nodes=400, frames=2), "chain", False,
         2, "delta"),
    ], ids=["impact-8", "chain-400"])
    def test_train_step_matches_benchmark_table(self, workload, simulate, oracle_cfg, schema,
                                                use_contact, batch_size, target_mode):
        expected = json.loads(BENCH_CENSUS.read_text())[workload]
        assert train_step_census(simulate(oracle_cfg), schema, use_contact, batch_size,
                                 target_mode) == expected
