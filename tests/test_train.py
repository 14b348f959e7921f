"""Training: loss contract, batching, normalization, noise, the fit loop and
checkpointing."""

import hashlib
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

import mgnt.tensor as T
from mgnt import train
from mgnt.data import GraphConfig, feature_dims, get_schema, prepare_trajectory
from mgnt.container import read_arrays, write_arrays
from mgnt.errors import ConfigError, SchemaFormatError, ValidationError
from mgnt.model import ModelConfig, forward, init_params
from mgnt.oracle import ChainConfig, OracleConfig, simulate_chain, simulate_impact
from mgnt.tensor import Tape, Tensor
from mgnt.train import (Normalizer, TrainConfig, compute_loss, fit, load_checkpoint,
                        make_batch, save_checkpoint, write_history_csv)


class TestComputeLoss:
    def test_zero_for_perfect_prediction(self):
        pred = Tensor(np.ones((4, 3)))
        mask = np.array([True, True, False, True])
        loss = compute_loss(pred, np.ones((4, 3)), mask, ((0, 4),))
        assert loss.item() == 0.0

    def test_single_node_residual_34_gives_25(self):
        pred = Tensor(np.array([[3.0, 4.0]]))
        loss = compute_loss(pred, np.zeros((1, 2)), np.array([True]), ((0, 1),))
        assert loss.item() == pytest.approx(25.0)

    def test_two_sample_batch_averages_means(self):
        # sample 0: one masked node with squared norm 2; sample 1: one with 4
        pred = Tensor(np.array([[1.0, 1.0], [0.0, 0.0], [2.0, 0.0], [0.0, 0.0]]))
        target = np.zeros((4, 2))
        mask = np.array([True, False, True, False])
        loss = compute_loss(pred, target, mask, ((0, 2), (2, 4)))
        assert loss.item() == pytest.approx(3.0)

    def test_rigid_targets_do_not_matter(self):
        rng = np.random.default_rng(0)
        pred = Tensor(rng.standard_normal((5, 3)))
        target = rng.standard_normal((5, 3))
        mask = np.array([True, True, False, True, False])
        base = compute_loss(pred, target, mask, ((0, 5),)).item()
        target2 = target.copy()
        target2[2] += 100.0
        target2[4] -= 50.0
        again = compute_loss(pred, target2, mask, ((0, 5),)).item()
        assert again == base

    def test_empty_mask_is_config_error(self):
        pred = Tensor(np.ones((2, 2)))
        with pytest.raises(ConfigError):
            compute_loss(pred, np.ones((2, 2)), np.array([False, False]), ((0, 2),))

    def test_gradient_matches_finite_differences(self):
        from mgnt.tensor import grad_check
        rng = np.random.default_rng(1)
        target = rng.standard_normal((4, 2))
        mask = np.array([True, False, True, True])
        err = grad_check(
            lambda p: compute_loss(p, target, mask, ((0, 2), (2, 4))),
            [Tensor(rng.standard_normal((4, 2)))])
        assert err < 1e-7


class TestMakeBatch:
    def test_single_index(self, tiny_prep):
        sample, target, mask = make_batch(tiny_prep, [0], "absolute")
        assert sample.sample_ranges == ((0, tiny_prep.traj.n_nodes),)
        assert target.shape == (tiny_prep.traj.n_nodes, 5)
        np.testing.assert_array_equal(
            target[:, :2],
            tiny_prep.traj.arrays["x"][1] - tiny_prep.traj.arrays["X"])

    def test_multi_index_constant_node_count(self, tiny_prep):
        sample, target, mask = make_batch(tiny_prep, [0, 2, 4], "absolute")
        n = tiny_prep.traj.n_nodes
        assert sample.n_nodes == 3 * n
        assert len(sample.sample_ranges) == 3
        assert mask.shape == (3 * n,)

    def test_boundary_index_rejected(self, tiny_prep):
        last = tiny_prep.n_transitions - 1
        make_batch(tiny_prep, [last], "absolute")  # fine
        for t in (last + 1, tiny_prep.traj.n_frames, -1):
            with pytest.raises(ValidationError, match="step index.*last valid index"):
                make_batch(tiny_prep, [t], "absolute")

    def test_delta_targets(self, tiny_prep):
        a = tiny_prep.traj.arrays
        _, target, _ = make_batch(tiny_prep, [1], "delta")
        np.testing.assert_allclose(target[:, :2], a["x"][2] - a["x"][1], atol=1e-12)

    def test_chain_targets_hand_computed(self):
        traj = simulate_chain(ChainConfig(n_nodes=100, frames=4, seed=5))
        prep = prepare_trajectory(traj, get_schema("chain"), GraphConfig(n_frequencies=2))
        x, X = traj.arrays["x"], traj.arrays["X"]
        for t in range(prep.n_transitions):
            absolute = prep.target(t, "absolute")
            delta = prep.target(t, "delta")
            assert absolute.shape == delta.shape == (100, 1)
            np.testing.assert_array_equal(absolute[:, 0], x[t + 1, :, 0] - X[:, 0])
            np.testing.assert_array_equal(
                delta[:, 0], (x[t + 1, :, 0] - X[:, 0]) - (x[t, :, 0] - X[:, 0]))
            np.testing.assert_allclose(delta[:, 0], x[t + 1, :, 0] - x[t, :, 0],
                                       rtol=0, atol=1e-12)
            assert np.abs(delta).max() > 0  # the drive moves the chain every frame
        with pytest.raises(ValidationError, match="last valid index is 2"):
            prep.target(3, "delta")


def _pinned_step(radius_factor: float, dtype: str):
    """One train-mode step of the default model computing in ``dtype``, on
    the 3x3 lattice that ``test_oracle.TestPinnedBytes`` pins, batch [1, 4]
    with input noise and rng 11.  Returns the batch's contact edge count, the
    loss, the float64 master parameters, their gradients by name and the
    tape's record count."""
    traj = simulate_impact(OracleConfig(rows=3, cols=3, frames=6, substeps=10,
                                        drop_height=0.02, initial_velocity=-3.0))
    schema = get_schema("impact")
    gcfg = GraphConfig(contact_radius_factor=radius_factor)
    prep = prepare_trajectory(traj, schema, gcfg)
    normalizer = Normalizer.fit([prep], "absolute")
    mcfg = ModelConfig(**feature_dims(schema, gcfg), dtype=dtype)
    params = init_params(mcfg, seed=0)
    rng = np.random.default_rng(11)
    sample, target, mask = make_batch(prep, [1, 4], "absolute", normalizer=normalizer,
                                      noise_scale=0.003, rng=rng)
    sample = normalizer.normalize_sample(sample)
    target = normalizer.normalize_targets(target)
    names = sorted(params)
    with Tape() as tape:
        pred, _ = forward(sample, params, mcfg, train_mode=True, rng=rng)
        loss = compute_loss(pred, target, mask, sample.sample_ranges)
        n_records = len(tape.records)
        grads = tape.gradients(loss, [params[k] for k in names])
    return sample.contact_edges.shape[0], loss, params, dict(zip(names, grads)), n_records


class TestPinnedStepBytes:
    """Byte digest of one train-mode step (``_pinned_step``): the loss and
    every parameter gradient of ``forward`` + ``compute_loss`` +
    ``Tape.gradients``.  A change to the tape's arithmetic that moves a
    single bit fails here; such a change must say so and re-pin.  The
    default contact radius finds no contact edges in this batch (the
    empty-scatter path); twice the median edge length finds 14.  The float64
    digests are those of the all-float64 tape that float32 compute was added
    to; the float32 ones pin the default precision."""

    @pytest.mark.parametrize("radius_factor, n_contact, dtype, digest", [
        (1.5, 0, "float64", "78fee497eef63227feb32b15a94650420fee6a9ced083e0081888210f7c5d1e7"),
        (2.0, 14, "float64", "5630b6f7155cb8641dd6d0ab5bc96c37d5e5d849a1b9cc83d1b333e514eef8eb"),
        (1.5, 0, "float32", "5cc8153428aa3665b475990197632f95d06e960b42cab783bc19da9c7185e65b"),
        (2.0, 14, "float32", "ade7644a1c42ddbee08616bb1796ec8f1f8467ef0f3bfb262bb6ee5f4e0f5451"),
    ], ids=["no-contact", "contact", "no-contact-float32", "contact-float32"])
    def test_train_step_bytes(self, radius_factor, n_contact, dtype, digest):
        found, loss, _, grads, _ = _pinned_step(radius_factor, dtype)
        assert found == n_contact
        h = hashlib.sha256(loss.data.tobytes())
        for name, g in grads.items():
            h.update(name.encode())
            h.update(np.ascontiguousarray(g).tobytes())
        assert h.hexdigest() == digest


class TestPrecision:
    """One default-model train step with 14 contact edges runs wholly in
    ``model.dtype``: every tape output and every gradient of the float64
    master parameters has that dtype, and the cast adds no record."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_step_stays_in_dtype(self, monkeypatch, dtype):
        emitted = []

        def emit(out_data, inputs, backward, name, flops):
            emitted.append(out_data.dtype)
            return real_emit(out_data, inputs, backward, name, flops)

        real_emit = T._emit
        monkeypatch.setattr(T, "_emit", emit)
        n_contact, loss, params, grads, n_records = _pinned_step(2.0, dtype)
        assert n_contact == 14
        assert n_records == len(emitted) > 0
        assert set(emitted) == {np.dtype(dtype)}
        assert all(p.data.dtype == np.float64 for p in params.values())
        assert {g.dtype for g in grads.values()} == {np.dtype(dtype)}
        assert all(g.shape == params[k].shape for k, g in grads.items())

    def test_astype_keeps_key_and_records_nothing(self):
        master = Tensor(np.arange(6.0).reshape(2, 3))
        with Tape() as tape:
            assert master.astype(np.float64) is master
            low = master.astype(np.float32)
            assert tape.records == []
            loss = T.sum_all(T.mul(low, low))
            (grad,) = tape.gradients(loss, [master])
        assert low.key == master.key and low.data.dtype == np.float32
        assert grad.dtype == np.float32
        np.testing.assert_array_equal(grad, 2.0 * np.arange(6.0).reshape(2, 3))


class TestStepMemory:
    """Activation memory of one train step.  tracemalloc counts numpy's
    buffers, so the peak does not depend on the host.  In float64 a tape
    that holds every intermediate until the reverse pass peaks at 159 MB
    here; one that keeps only what each backward reads peaks at 67 MB.
    float32 compute halves each activation: 36.5 MB."""

    PEAK_BOUND_MB = 90.0
    PEAK_BOUND_MB_FLOAT32 = 50.0

    def test_default_model_8x8_batch4_peak(self):
        assert self._peak_mb("float64") <= self.PEAK_BOUND_MB

    def test_default_model_8x8_batch4_peak_float32(self):
        assert self._peak_mb("float32") <= self.PEAK_BOUND_MB_FLOAT32

    @staticmethod
    def _peak_mb(dtype: str) -> float:
        traj = simulate_impact(OracleConfig(frames=6, substeps=10))
        schema = get_schema("impact")
        gcfg = GraphConfig()
        prep = prepare_trajectory(traj, schema, gcfg)
        normalizer = Normalizer.fit([prep], "absolute")
        mcfg = ModelConfig(**feature_dims(schema, gcfg), dtype=dtype)
        params = init_params(mcfg, seed=0)
        sample, target, mask = make_batch(prep, [0, 1, 2, 3], "absolute")
        sample = normalizer.normalize_sample(sample)
        target = normalizer.normalize_targets(target)
        names = sorted(params)
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            with Tape() as tape:
                pred, _ = forward(sample, params, mcfg, train_mode=True, rng=rng)
                loss = compute_loss(pred, target, mask, sample.sample_ranges)
                grads = tape.gradients(loss, [params[k] for k in names])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(grads) == len(names)
        return peak / 2**20


class TestNormalizer:
    def test_round_trip_identity(self, tiny_prep):
        norm = Normalizer.fit([tiny_prep], "absolute")
        rng = np.random.default_rng(2)
        y = rng.standard_normal((7, 5))
        back = norm.denormalize_targets(norm.normalize_targets(y))
        np.testing.assert_allclose(back, y, atol=1e-10)

    def test_normalized_features_centered(self, tiny_prep):
        norm = Normalizer.fit([tiny_prep], "absolute")
        rows = []
        for t in range(tiny_prep.traj.n_frames):
            rows.append(tiny_prep.sample(t).node_features)
        stacked = (np.concatenate(rows) - norm.node_mean) / norm.node_std
        np.testing.assert_allclose(stacked.mean(axis=0), 0.0, atol=1e-8)
        # constant features (one-hot columns) get a floored std, not a blow-up
        assert np.isfinite(stacked).all()

    def test_std_floor(self, tiny_prep):
        norm = Normalizer.fit([tiny_prep], "absolute")
        assert (norm.node_std >= 1e-8).all()
        assert (norm.target_std >= 1e-8).all()

    def test_arrays_round_trip(self, tiny_prep):
        norm = Normalizer.fit([tiny_prep], "absolute")
        back = Normalizer.from_arrays(norm.to_arrays())
        np.testing.assert_array_equal(back.node_mean, norm.node_mean)
        np.testing.assert_array_equal(back.target_std, norm.target_std)


class TestNoise:
    def test_scale_zero_identity(self, tiny_prep):
        norm = Normalizer.fit([tiny_prep], "absolute")
        rng = np.random.default_rng(3)
        frame = tiny_prep.frame(0)
        out = tiny_prep.schema.inject_noise(frame, 0.0, None, rng, tiny_prep.deformable)
        assert out is frame

    def test_fixed_seed_reproducible(self, tiny_prep):
        norm = Normalizer.fit([tiny_prep], "absolute")
        stds = tiny_prep.schema.noise_stds(norm)
        frames = []
        for _ in range(2):
            rng = np.random.default_rng(4)
            frame = tiny_prep.frame(0)
            frames.append(tiny_prep.schema.inject_noise(
                frame, 0.01, stds, rng, tiny_prep.deformable))
        np.testing.assert_array_equal(frames[0]["x"], frames[1]["x"])
        np.testing.assert_array_equal(frames[0]["v"], frames[1]["v"])

    def test_empirical_std_within_5_percent(self, tiny_prep):
        norm = Normalizer.fit([tiny_prep], "absolute")
        stds = tiny_prep.schema.noise_stds(norm)
        rng = np.random.default_rng(5)
        scale = 0.1
        frame = tiny_prep.frame(0)
        deform = tiny_prep.deformable
        draws = []
        for _ in range(1200):
            noisy = tiny_prep.schema.inject_noise(frame, scale, stds, rng, deform)
            draws.append(noisy["v"][deform] - frame["v"][deform])
        emp = np.concatenate(draws).std(axis=0)   # > 10^4 draws per component
        np.testing.assert_allclose(emp, scale * stds["v"], rtol=0.05)

    def test_rigid_nodes_untouched(self, tiny_prep):
        norm = Normalizer.fit([tiny_prep], "absolute")
        stds = tiny_prep.schema.noise_stds(norm)
        rng = np.random.default_rng(6)
        frame = tiny_prep.frame(0)
        noisy = tiny_prep.schema.inject_noise(frame, 0.1, stds, rng, tiny_prep.deformable)
        rigid = ~tiny_prep.deformable
        np.testing.assert_array_equal(noisy["x"][rigid], frame["x"][rigid])

    def test_alpha_stays_nonnegative(self, tiny_prep):
        norm = Normalizer.fit([tiny_prep], "absolute")
        stds = dict(tiny_prep.schema.noise_stds(norm))
        stds["alpha"] = 10.0
        rng = np.random.default_rng(7)
        noisy = tiny_prep.schema.inject_noise(tiny_prep.frame(0), 1.0, stds, rng,
                                              tiny_prep.deformable)
        assert (noisy["alpha"] >= 0).all()


def _fit_setup(steps=60, **overrides):
    gcfg = GraphConfig(n_frequencies=2)
    schema = get_schema("impact")
    traj = simulate_impact(OracleConfig(rows=3, cols=3, frames=6, substeps=10))
    prep = prepare_trajectory(traj, schema, gcfg)
    dims = feature_dims(schema, gcfg)
    mcfg = ModelConfig(latent_dim=10, n_tokens=4, n_heads=2,
                       transformer_dims=(8, 4, 8), **dims)
    kwargs = dict(steps=steps, batch_size=2, lr=3e-3, lr_min=1e-4,
                  noise_scale=0.0, seed=1, checkpoint_every=30)
    kwargs.update(overrides)
    return prep, mcfg, TrainConfig(**kwargs)


class TestFit:
    def test_loss_decreases_and_history_finite(self):
        prep, mcfg, tcfg = _fit_setup(steps=80)
        result = fit([prep], mcfg, tcfg)
        hist = result.history
        assert hist.shape == (80, 4)
        assert np.isfinite(hist).all()
        assert hist[-10:, 1].mean() < 0.5 * hist[:10, 1].mean()

    def test_same_seed_identical_history(self):
        prep, mcfg, tcfg = _fit_setup(steps=25)
        h1 = fit([prep], mcfg, tcfg).history
        h2 = fit([prep], mcfg, tcfg).history
        np.testing.assert_array_equal(h1, h2)

    def test_checkpoint_resume_continues(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        prep, mcfg, half_cfg = _fit_setup(steps=20, checkpoint_every=10)
        first = fit([prep], mcfg, half_cfg, out_dir=str(out)).history

        _, _, tcfg = _fit_setup(steps=40, checkpoint_every=10)
        resumed = fit([prep], mcfg, tcfg, out_dir=str(out), resume=True).history
        assert resumed.shape == (40, 4)
        np.testing.assert_array_equal(resumed[:20], first)  # prior history kept
        assert np.isfinite(resumed).all()

    def test_interrupted_run_resumes_bit_for_bit(self, tmp_path, monkeypatch):
        class Interrupt(Exception):
            pass

        prep, mcfg, tcfg = _fit_setup(steps=20, checkpoint_every=10, noise_scale=0.003)
        runs = {name: tmp_path / name for name in ("whole", "cut")}
        for d in runs.values():
            d.mkdir()
        whole = fit([prep], mcfg, tcfg, out_dir=str(runs["whole"]))

        batches = []

        def make_batch_until_step_12(*args, **kwargs):
            if len(batches) == 12:
                raise Interrupt
            batches.append(None)
            return make_batch(*args, **kwargs)

        monkeypatch.setattr(train, "make_batch", make_batch_until_step_12)
        with pytest.raises(Interrupt):
            fit([prep], mcfg, tcfg, out_dir=str(runs["cut"]))
        monkeypatch.undo()
        assert load_checkpoint(str(runs["cut"] / "checkpoint.mgnt"))["meta"]["step"] == 10
        resumed = fit([prep], mcfg, tcfg, out_dir=str(runs["cut"]), resume=True)

        np.testing.assert_array_equal(resumed.history, whole.history)
        assert resumed.params.keys() == whole.params.keys()
        for name, p in whole.params.items():
            np.testing.assert_array_equal(resumed.params[name].data, p.data)
        ckpt = {name: (d / "checkpoint.mgnt").read_bytes() for name, d in runs.items()}
        assert ckpt["cut"] == ckpt["whole"]

    def test_resume_with_changed_lr_refused(self, tmp_path):
        prep, mcfg, half_cfg = _fit_setup(steps=4, checkpoint_every=2)
        fit([prep], mcfg, half_cfg, out_dir=str(tmp_path))
        _, _, tcfg = _fit_setup(steps=8, checkpoint_every=2, lr=1e-3)
        with pytest.raises(ConfigError, match="train_config.lr"):
            fit([prep], mcfg, tcfg, out_dir=str(tmp_path), resume=True)

    def test_resume_with_changed_run_meta_refused(self, tmp_path):
        prep, mcfg, tcfg = _fit_setup(steps=4, checkpoint_every=2)
        fit([prep], mcfg, tcfg, out_dir=str(tmp_path),
            extra_meta={"graph_config": {"tied_k": 3}})
        more = _fit_setup(steps=8, checkpoint_every=2)[2]
        with pytest.raises(ConfigError, match="graph_config.tied_k"):
            fit([prep], mcfg, more, out_dir=str(tmp_path), resume=True,
                extra_meta={"graph_config": {"tied_k": 4}})
        with pytest.raises(ConfigError, match="model_config.latent_dim"):
            fit([prep], ModelConfig(**{**mcfg.to_dict(), "latent_dim": 12}), more,
                out_dir=str(tmp_path), resume=True,
                extra_meta={"graph_config": {"tied_k": 3}})

    def test_checkpoint_records_the_graph_config(self, tmp_path):
        prep, mcfg, tcfg = _fit_setup(steps=2)
        fit([prep], mcfg, tcfg, out_dir=str(tmp_path))
        state = load_checkpoint(str(tmp_path / "checkpoint.mgnt"))
        assert state["graph_config"] == prep.graph_cfg == GraphConfig(n_frequencies=2)

    def test_resume_under_other_graph_config_refused(self, tmp_path):
        prep, mcfg, tcfg = _fit_setup(steps=2)
        fit([prep], mcfg, tcfg, out_dir=str(tmp_path))
        other = prepare_trajectory(prep.traj, prep.schema,
                                   GraphConfig(n_frequencies=2, contact_radius_factor=3.0,
                                               tied_k=1))
        with pytest.raises(ConfigError, match="graph_config.contact_radius_factor is 1.5"):
            fit([other], mcfg, _fit_setup(steps=4)[2], out_dir=str(tmp_path), resume=True)

    def test_resume_without_checkpoint_rejected(self, tmp_path):
        prep, mcfg, tcfg = _fit_setup(steps=5)
        with pytest.raises(ValidationError, match="checkpoint"):
            fit([prep], mcfg, tcfg, out_dir=str(tmp_path), resume=True)

    def test_history_csv(self, tmp_path):
        prep, mcfg, tcfg = _fit_setup(steps=5)
        result = fit([prep], mcfg, tcfg)
        path = tmp_path / "loss.csv"
        write_history_csv(str(path), result.history)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,loss,lr,grad_norm"
        assert len(lines) == 6


def _save_whole(path, params, model_cfg, norm, step=7):
    """A checkpoint with every part: moments 0.5 and 0.25, a [step, 4]
    history, and an impact run under GraphConfig(tied_k=3)."""
    save_checkpoint(path, params, model_cfg, norm, TrainConfig(lr=3e-3),
                    adam_m={k: np.full(p.shape, 0.5) for k, p in params.items()},
                    adam_v={k: np.full(p.shape, 0.25) for k, p in params.items()},
                    step=step, history=np.arange(4.0 * step).reshape(step, 4),
                    run_meta={"schema": "impact",
                              "graph_config": asdict(GraphConfig(tied_k=3))})


class TestCheckpointIO:
    def test_round_trip(self, tmp_path, tiny_prep, tiny_model_cfg, tiny_params):
        norm = Normalizer.fit([tiny_prep], "absolute")
        path = tmp_path / "ckpt.mgnt"
        _save_whole(str(path), tiny_params, tiny_model_cfg, norm, step=7)
        state = load_checkpoint(str(path))
        assert state["meta"]["step"] == 7
        assert state["schema"].name == "impact"
        assert state["model_config"] == tiny_model_cfg
        assert state["graph_config"] == GraphConfig(tied_k=3)
        assert state["train_config"] == TrainConfig(lr=3e-3)
        np.testing.assert_array_equal(state["history"], np.arange(28.0).reshape(7, 4))
        for name, tensor in tiny_params.items():
            np.testing.assert_array_equal(state["params"][name].data, tensor.data)
            np.testing.assert_array_equal(state["adam_m"][name], np.full(tensor.shape, 0.5))
            np.testing.assert_array_equal(state["adam_v"][name], np.full(tensor.shape, 0.25))
        # loaded params behave identically
        sample = tiny_prep.sample(0)
        normed = norm.normalize_sample(sample)
        y1, _ = forward(normed, tiny_params, tiny_model_cfg)
        y2, _ = forward(normed, state["params"], tiny_model_cfg)
        np.testing.assert_array_equal(y1.data, y2.data)

    def test_non_checkpoint_rejected(self, tmp_path):
        from mgnt.container import write_arrays
        from mgnt.errors import SchemaFormatError
        path = tmp_path / "x.mgnt"
        write_arrays(str(path), {"a": np.ones(3)}, meta={"format": "other"})
        with pytest.raises(SchemaFormatError):
            load_checkpoint(str(path))

    @staticmethod
    def _rewrite_meta(tmp_path, tiny_params, tiny_model_cfg, tiny_prep, edit):
        path = str(tmp_path / "ckpt.mgnt")
        _save_whole(path, tiny_params, tiny_model_cfg, Normalizer.fit([tiny_prep], "absolute"))
        arrays, meta = read_arrays(path)
        edit(meta)
        write_arrays(path, arrays, meta=meta)
        return path

    def test_unknown_model_config_key_rejected(self, tmp_path, tiny_params,
                                               tiny_model_cfg, tiny_prep):
        path = self._rewrite_meta(tmp_path, tiny_params, tiny_model_cfg, tiny_prep,
                                  lambda meta: meta["model_config"].update(bogus=1))
        with pytest.raises(SchemaFormatError, match="'bogus'.*'model_config'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["model_config", "step", "graph_config", "train_config"])
    def test_missing_meta_entry_rejected(self, tmp_path, tiny_params, tiny_model_cfg,
                                         tiny_prep, key):
        path = self._rewrite_meta(tmp_path, tiny_params, tiny_model_cfg, tiny_prep,
                                  lambda meta: meta.pop(key))
        with pytest.raises(SchemaFormatError, match=f"'{key}' is"):
            load_checkpoint(path)

    def test_unknown_graph_config_key_rejected(self, tmp_path, tiny_params,
                                               tiny_model_cfg, tiny_prep):
        path = self._rewrite_meta(tmp_path, tiny_params, tiny_model_cfg, tiny_prep,
                                  lambda meta: meta["graph_config"].update(bogus=1))
        with pytest.raises(SchemaFormatError, match="'bogus'.*'graph_config'"):
            load_checkpoint(path)
