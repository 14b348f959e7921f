"""Rollout mechanics, error metrics and consistency diagnostics."""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

import mgnt.rollout as R
from mgnt.data import (GraphConfig, Trajectory, feature_dims, get_schema,
                       prepare_trajectory)
from mgnt.errors import RolloutAbort, ValidationError
from mgnt.model import ModelConfig, forward, init_params
from mgnt.oracle import ChainConfig, OracleConfig, simulate_chain, simulate_impact
from mgnt.rollout import (evaluate, export_attention, hardening_monotonicity,
                          metric_series, r_rmse, rmse_1, rmse_all, rollout)
from mgnt.tensor import Tensor
from mgnt.train import Normalizer


def _constant_trajectory(tiny_traj):
    """A trajectory whose state never changes (frame 0 repeated)."""
    a = tiny_traj.arrays
    frames = a["x"].shape[0]
    arrays = dict(a)
    arrays["x"] = np.repeat(a["x"][:1], frames, axis=0)
    arrays["v"] = np.zeros_like(a["v"])
    arrays["alpha"] = np.zeros_like(a["alpha"])
    return Trajectory(arrays=arrays, meta=tiny_traj.meta)


@pytest.fixture()
def fitted(tiny_prep, tiny_model_cfg, tiny_params):
    norm = Normalizer.fit([tiny_prep], "absolute")
    return tiny_prep, tiny_model_cfg, tiny_params, norm


class TestRollout:
    def test_horizon_one_equals_single_forward(self, fitted):
        prep, mcfg, params, norm = fitted
        result = rollout(params, mcfg, norm, prep, 1, "absolute")
        sample = norm.normalize_sample(prep.sample(0))
        pred, _ = forward(sample, params, mcfg, train_mode=False)
        state = norm.denormalize_targets(pred.data)
        deform = prep.deformable
        X = prep.traj.arrays["X"]
        np.testing.assert_allclose(result.frames[1]["x"][deform],
                                   X[deform] + state[deform, :2], atol=1e-12)
        np.testing.assert_allclose(result.frames[1]["v"][deform],
                                   state[deform, 2:4], atol=1e-12)

    def test_identity_model_freezes_constant_trajectory(self, tiny_traj,
                                                        tiny_graph_cfg, tiny_model_cfg,
                                                        monkeypatch):
        traj = _constant_trajectory(tiny_traj)
        prep = prepare_trajectory(traj, get_schema("impact"), tiny_graph_cfg)
        norm = Normalizer.fit([prep], "absolute")
        X = prep.traj.arrays["X"]

        def identity_forward(sample, params, cfg, **kwargs):
            # return the normalized current state, so denormalization yields it
            state = prep.schema.state_vector(prep.frame(0), X)
            return Tensor(norm.normalize_targets(state)), {"slice_weights": []}

        monkeypatch.setattr(R, "forward", identity_forward)
        result = rollout({}, tiny_model_cfg, norm, prep, 4, "absolute")
        for frame in result.frames[1:]:
            np.testing.assert_allclose(frame["x"], prep.frame(0)["x"], atol=1e-9)

    def test_boundary_nodes_follow_ground_truth_bitwise(self, fitted):
        prep, mcfg, params, norm = fitted
        result = rollout(params, mcfg, norm, prep, prep.n_transitions, "absolute")
        rigid = ~prep.deformable
        for t, frame in enumerate(result.frames):
            np.testing.assert_array_equal(frame["x"][rigid],
                                          prep.traj.arrays["x"][t][rigid])

    def test_horizon_validation(self, fitted):
        prep, mcfg, params, norm = fitted
        with pytest.raises(ValidationError, match="horizon"):
            rollout(params, mcfg, norm, prep, 0, "absolute")
        with pytest.raises(ValidationError, match="exceeds stored ground truth"):
            rollout(params, mcfg, norm, prep, prep.n_transitions + 1, "absolute")

    def test_nonfinite_prediction_aborts_with_step(self, fitted, monkeypatch):
        prep, mcfg, params, norm = fitted

        def nan_forward(sample, params, cfg, **kwargs):
            out = np.full((sample.n_nodes, cfg.output_dim), np.nan)
            return Tensor(out), {"slice_weights": []}

        monkeypatch.setattr(R, "forward", nan_forward)
        with pytest.raises(RolloutAbort, match="step 0"):
            rollout(params, mcfg, norm, prep, 2, "absolute")

    def test_contact_counts_recorded(self, fitted):
        prep, mcfg, params, norm = fitted
        result = rollout(params, mcfg, norm, prep, 3, "absolute")
        assert result.contact_counts.shape == (3,)
        assert (result.contact_counts >= 0).all()

    def test_saved_rollout_exports_each_steps_weights(self, tmp_path, monkeypatch):
        """``export_attention`` on a saved rollout gives, bit for bit, the
        slice weights each rollout step computed, contact edges included."""
        gcfg = GraphConfig(n_frequencies=2, contact_radius_factor=2.0)
        schema = get_schema("impact")
        prep = prepare_trajectory(simulate_impact(OracleConfig(
            rows=4, cols=4, frames=20, substeps=10, drop_height=0.02, initial_velocity=-3.0)),
            schema, gcfg)
        mcfg = ModelConfig(latent_dim=12, n_tokens=4, n_heads=2, transformer_dims=(12, 8, 12),
                           **feature_dims(schema, gcfg))
        params, norm = init_params(mcfg, seed=0), Normalizer.fit([prep], "absolute")
        seen, original = [], R.forward

        def recording_forward(sample, params, cfg, **kwargs):
            out, aux = original(sample, params, cfg, **kwargs)
            seen.append(aux["slice_weights"])
            return out, aux

        with monkeypatch.context() as m:
            m.setattr(R, "forward", recording_forward)
            result = rollout(params, mcfg, norm, prep, prep.n_transitions, "absolute")
        assert [len(w) for w in seen] == [mcfg.n_transformer_blocks] * prep.n_transitions
        assert result.contact_counts.max() > 0
        # saved as the rollout command saves it
        arrays = R.horizon_arrays(prep.traj, schema, prep.n_transitions, result.frames)
        arrays["contact_counts"] = result.contact_counts
        Trajectory(arrays=arrays, meta={**prep.traj.meta, "format": "mgnt-rollout"}).save(
            str(tmp_path / "rollout.mgnt"))
        saved = prepare_trajectory(Trajectory.load(str(tmp_path / "rollout.mgnt")), schema, gcfg)
        for t, per_block in enumerate(seen):
            for block, want in enumerate(per_block):
                x, got = export_attention(params, mcfg, norm, saved, t, block)
                assert x.tobytes() == result.frames[t]["x"].tobytes()
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert got.tobytes() == want.tobytes(), (t, block)


class TestMetricSeries:
    def test_impact_groups_split_the_state(self, tiny_traj):
        a = tiny_traj.arrays
        series = metric_series(a, get_schema("impact"))
        assert list(series) == ["u", "v", "alpha"]
        np.testing.assert_array_equal(series["u"], a["x"] - a["X"][None])
        np.testing.assert_array_equal(series["v"], a["v"])
        np.testing.assert_array_equal(series["alpha"], a["alpha"][..., None])

    def test_chain_hand_computed(self):
        schema = get_schema("chain")
        X = np.array([[0.0, 0.0], [1.0, 0.0]])
        x = np.array([[[0.0, 0.0], [1.0, 0.0]],
                      [[0.5, 3.0], [1.25, -7.0]]])
        gt = {"X": X, "x": x, "drive": np.zeros((2, 2))}
        series = metric_series(gt, schema)
        assert list(series) == ["u"]
        # axial displacement only; the transverse component is not chain state
        np.testing.assert_array_equal(series["u"], [[[0.0], [0.0]], [[0.5], [0.25]]])
        pred = dict(gt, x=x.copy())
        pred["x"][1, 0, 0] += 0.5
        pred["x"][1, 1, 1] += 9.0
        out = rmse_all([pred], [gt], schema)
        assert out["u"]["mean"] == pytest.approx(np.sqrt(0.25 / 2))


class TestRmseAll:
    def test_zero_for_identical(self, tiny_traj):
        schema = get_schema("impact")
        arrays = dict(tiny_traj.arrays)
        out = rmse_all([arrays], [arrays], schema)
        for entry in out.values():
            assert entry["mean"] == 0.0

    def test_constant_offset_gives_offset(self, tiny_traj):
        schema = get_schema("impact")
        gt = dict(tiny_traj.arrays)
        pred = dict(gt)
        pred["x"] = gt["x"] + 0.125
        out = rmse_all([pred], [gt], schema)
        assert out["u"]["mean"] == pytest.approx(0.125)

    def test_hand_computed_toy(self):
        schema = get_schema("impact")
        X = np.zeros((2, 2))
        base = dict(X=X, v=np.zeros((3, 2, 2)), alpha=np.zeros((3, 2)))
        gt = dict(base, x=np.zeros((3, 2, 2)))
        pred = dict(base, x=np.zeros((3, 2, 2)))
        # step 1: node 0 off by (3,4); step 2: node 1 off by (0,2); frame 0 ignored
        pred["x"] = pred["x"].copy()
        pred["x"][1, 0] = [3.0, 4.0]
        pred["x"][2, 1] = [0.0, 2.0]
        out = rmse_all([pred], [gt], schema)
        expected = np.sqrt((9 + 16 + 4) / 8.0)  # 2 steps x 2 nodes x 2 comps
        assert out["u"]["mean"] == pytest.approx(expected)

    def test_symmetry(self, tiny_traj):
        schema = get_schema("impact")
        gt = dict(tiny_traj.arrays)
        pred = dict(gt)
        pred["x"] = gt["x"] + np.random.default_rng(0).standard_normal(gt["x"].shape)
        a = rmse_all([pred], [gt], schema)["u"]["mean"]
        b = rmse_all([gt], [pred], schema)["u"]["mean"]
        assert a == pytest.approx(b)

    def test_standard_error_present_with_two_trajectories(self, tiny_traj):
        schema = get_schema("impact")
        gt = dict(tiny_traj.arrays)
        pred = dict(gt)
        pred["x"] = gt["x"] + 0.1
        out = rmse_all([pred, gt], [gt, gt], schema)
        assert "se" in out["u"]

    def test_shape_mismatch_rejected(self, tiny_traj):
        schema = get_schema("impact")
        gt = dict(tiny_traj.arrays)
        pred = dict(gt)
        pred["x"] = gt["x"][:, :4]
        pred["X"] = gt["X"][:4]
        pred["v"] = gt["v"][:, :4]
        pred["alpha"] = gt["alpha"][:, :4]
        with pytest.raises(ValidationError):
            rmse_all([pred], [gt], schema)


class TestRmse1:
    def test_perfect_model_zero(self, tiny_traj, tiny_graph_cfg, tiny_model_cfg,
                                monkeypatch):
        traj = _constant_trajectory(tiny_traj)
        prep = prepare_trajectory(traj, get_schema("impact"), tiny_graph_cfg)
        norm = Normalizer.fit([prep], "absolute")
        X = prep.traj.arrays["X"]

        def identity_forward(sample, params, cfg, **kwargs):
            state = prep.schema.state_vector(prep.frame(0), X)
            return Tensor(norm.normalize_targets(state)), {"slice_weights": []}

        monkeypatch.setattr(R, "forward", identity_forward)
        out = rmse_1({}, tiny_model_cfg, norm, [prep], "absolute")
        for entry in out.values():
            assert entry["mean"] == pytest.approx(0.0, abs=1e-9)

    def test_deterministic(self, fitted):
        prep, mcfg, params, norm = fitted
        a = rmse_1(params, mcfg, norm, [prep], "absolute")
        b = rmse_1(params, mcfg, norm, [prep], "absolute")
        assert a == b

    def test_boundary_rows_not_scored(self, fitted, monkeypatch):
        # rollout overwrites wall rows from ground truth and the loss masks
        # them, so whatever the network predicts there must not count
        prep, mcfg, params, norm = fitted
        clean = rmse_1(params, mcfg, norm, [prep], "absolute")
        rigid = ~prep.deformable
        assert rigid.any()

        def garbage_on_boundary(sample, params, cfg, **kwargs):
            pred, aux = forward(sample, params, cfg, **kwargs)
            out = pred.data.copy()
            out[rigid] = 1e6
            return Tensor(out), aux

        monkeypatch.setattr(R, "forward", garbage_on_boundary)
        assert rmse_1(params, mcfg, norm, [prep], "absolute") == clean


class TestRRmse:
    def test_zero_for_identical(self, tiny_traj):
        schema = get_schema("impact")
        arrays = dict(tiny_traj.arrays)
        out = r_rmse([arrays], [arrays], schema)
        assert out["u"]["mean"] == 0.0

    def test_joint_rescaling_invariance(self, tiny_traj):
        schema = get_schema("impact")
        gt = dict(tiny_traj.arrays)
        pred = dict(gt)
        pred["x"] = gt["x"] + np.random.default_rng(1).standard_normal(gt["x"].shape) * 0.01
        base = r_rmse([pred], [gt], schema)["u"]["mean"]
        gt10 = {k: (np.asarray(v) * 10.0 if k in ("X", "x", "v", "alpha") else v)
                for k, v in gt.items()}
        pred10 = {k: (np.asarray(v) * 10.0 if k in ("X", "x", "v", "alpha") else v)
                  for k, v in pred.items()}
        scaled = r_rmse([pred10], [gt10], schema)["u"]["mean"]
        assert scaled == pytest.approx(base, rel=1e-9)

    def test_hand_computed_percentage(self):
        schema = get_schema("impact")
        X = np.zeros((1, 2))
        gt = dict(X=X, x=np.array([[[0.0, 0]], [[0, 4.0]]]),
                  v=np.zeros((2, 1, 2)), alpha=np.zeros((2, 1)))
        pred = dict(gt)
        pred["x"] = gt["x"].copy()
        pred["x"][1, 0] = [0.0, 5.0]   # error 1 on one step; inf norm of u is 4
        out = r_rmse([pred], [gt], schema)
        expected = 100.0 * np.sqrt(1.0 / 2.0) / 4.0
        assert out["u"]["mean"] == pytest.approx(expected)

    def test_zero_norm_flagged_undefined(self):
        schema = get_schema("impact")
        X = np.zeros((1, 2))
        gt = dict(X=X, x=np.zeros((2, 1, 2)), v=np.zeros((2, 1, 2)),
                  alpha=np.zeros((2, 1)))
        pred = dict(gt)
        out = r_rmse([pred], [gt], schema)
        assert out["u"]["undefined_trajectories"] == 1
        assert "mean" not in out["u"]


class TestConsistency:
    def test_constant_alpha_no_violations(self):
        sums, violations = hardening_monotonicity(np.ones((10, 5)))
        assert violations == 0
        np.testing.assert_allclose(sums, 5.0)

    def test_oracle_ground_truth_no_violations(self, tiny_traj):
        _, violations = hardening_monotonicity(tiny_traj.arrays["alpha"])
        assert violations == 0

    def test_injected_dip_counts_once(self):
        alpha = np.ones((6, 3))
        alpha[3] = 0.5
        alpha[4:] = 1.2
        _, violations = hardening_monotonicity(alpha)
        assert violations == 1


class TestAttentionExport:
    def test_weight_rows_normalized_nonnegative(self, fitted):
        prep, mcfg, params, norm = fitted
        mcfg = replace(mcfg, dtype="float64")
        positions, weights = export_attention(params, mcfg, norm, prep, 2, 1)
        assert positions.shape == (prep.traj.n_nodes, 2)
        assert weights.shape == (prep.traj.n_nodes, mcfg.n_tokens)
        assert (weights >= 0).all()
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-9)

    def test_weight_rows_normalized_nonnegative_float32(self, fitted):
        prep, mcfg, params, norm = fitted
        positions, weights = export_attention(params, mcfg, norm, prep, 2, 1)
        assert weights.shape == (prep.traj.n_nodes, mcfg.n_tokens)
        assert weights.dtype == np.float32 and (weights >= 0).all()
        np.testing.assert_allclose(weights.sum(axis=1, dtype=np.float64), 1.0, atol=1e-6)

    def test_block_out_of_range(self, fitted):
        prep, mcfg, params, norm = fitted
        with pytest.raises(ValidationError, match="block"):
            export_attention(params, mcfg, norm, prep, 0, mcfg.n_transformer_blocks)


def test_evaluate_report_structure(fitted):
    prep, mcfg, params, norm = fitted
    report = evaluate(params, mcfg, norm, [prep], "absolute", horizon=3)
    assert set(report["rmse_all"]) == {"u", "v", "alpha"}
    assert report["n_trajectories"] == 1
    entry = report["consistency"][0]
    assert entry["hardening_violations_gt"] == 0
    assert len(entry["contact_counts"]) == 3


def _digest_cases(dtype: str):
    """(prepared trajectory, normalizer, model config, params, target mode)
    for the default model at ``init_params(seed=0)`` computing in ``dtype``:
    the 3x3 lattice of ``test_train.TestPinnedStepBytes`` with contact
    (absolute targets) and a 100-node, 5-frame chain (delta targets)."""
    cases = [
        (simulate_impact(OracleConfig(rows=3, cols=3, frames=6, substeps=10,
                                      drop_height=0.02, initial_velocity=-3.0)),
         GraphConfig(contact_radius_factor=2.0), "absolute"),
        (simulate_chain(ChainConfig(n_nodes=100, frames=5)), GraphConfig(), "delta"),
    ]
    for traj, gcfg, mode in cases:
        schema = get_schema(traj.meta["schema"])
        prep = prepare_trajectory(traj, schema, gcfg)
        mcfg = ModelConfig(**feature_dims(schema, gcfg), dtype=dtype)
        yield prep, Normalizer.fit([prep], mode), mcfg, init_params(mcfg, seed=0), mode


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_rmse_1_is_rmse_all_over_one_step_rollouts(dtype):
    """rmse_1 scores the rollout's own step: frame t + 1 is the one-step
    rollout of the trajectory's two stored frames t and t + 1."""
    for prep, norm, mcfg, params, mode in _digest_cases(dtype):
        schema, traj = prep.schema, prep.traj
        frames = [prep.frame(0)]
        for t in range(prep.n_transitions):
            arrays = {k: v[t:t + 2] if k in schema.series else v
                      for k, v in traj.arrays.items()}
            pair = prepare_trajectory(Trajectory(arrays=arrays, meta=traj.meta), schema,
                                      prep.graph_cfg)
            frames.append(rollout(params, mcfg, norm, pair, 1, mode).frames[1])
        h = prep.n_transitions
        by_hand = rmse_all([R.horizon_arrays(traj, schema, h, frames)],
                           [R.horizon_arrays(traj, schema, h)], schema)
        assert rmse_1(params, mcfg, norm, [prep], mode) == by_hand


def _rollout_and_report_digest(dtype: str) -> str:
    """One digest over the two ``_digest_cases`` full rollouts' series and
    their ``evaluate`` reports."""
    h = hashlib.sha256()
    for prep, norm, mcfg, params, mode in _digest_cases(dtype):
        schema = prep.schema
        frames = rollout(params, mcfg, norm, prep, prep.n_transitions, mode).frames
        for k in schema.series:
            h.update(np.stack([f[k] for f in frames]).tobytes())
        h.update(json.dumps(evaluate(params, mcfg, norm, [prep], mode)).encode())
    return h.hexdigest()


def test_rollout_and_report_bytes(kernel_pin):
    """A change that moves one bit of a float64 rollout frame or report
    fails here; the digest is that of the all-float64 tape, one per
    OpenBLAS core."""
    assert _rollout_and_report_digest("float64") == kernel_pin({
        "SkylakeX": "00ff2ca0b4072b16d6b73399c99ff5d592670b2081c2e3d037cc707fadd905fb",
        "Haswell": "180337f4a0f94a0da70e97c16ca641cad996276e49270a4f51b3ad63ab52e8d8"})


def test_rollout_and_report_bytes_float32(kernel_pin):
    """The same pin for the default float32 compute."""
    assert _rollout_and_report_digest("float32") == kernel_pin({
        "SkylakeX": "0d2853cb2a0d54f1073b6bf240205429bee5840278f8040c6f4fb68b59fcc2c5",
        "Haswell": "12baf000f27dc532b43b11cc9c42a2eaf8a0215efd1a386ec3766571dca43116"})
