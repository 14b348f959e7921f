"""Training: loss contract, batching, normalization, noise, the fit loop and
checkpointing."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import asdict, replace

import numpy as np
import pytest

import mgnt
import mgnt.tensor as T
from mgnt import train
from mgnt.data import (GraphConfig, Trajectory, feature_dims, get_schema,
                       prepare_trajectory)
from mgnt.container import read_arrays, write_arrays
from mgnt.errors import ConfigError, SchemaFormatError, ValidationError
from mgnt.mesh import NODE_ACTUATOR
from mgnt.model import ModelConfig, forward, init_params
from mgnt.oracle import (ChainConfig, OracleConfig, gen_dataset, simulate_chain,
                         simulate_impact)
from mgnt.rollout import evaluate, export_attention
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

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValidationError, match=r"prediction \(2, 3\) vs target \(2, 2\)"):
            compute_loss(Tensor(np.ones((2, 3))), np.ones((2, 2)), np.array([True, True]),
                         ((0, 2),))

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

    @pytest.mark.parametrize("fitted, seeded", [(False, True), (True, False)],
                             ids=["no_normalizer", "no_rng"])
    def test_noise_needs_normalizer_and_rng(self, tiny_prep, fitted, seeded):
        normalizer = Normalizer.fit([tiny_prep], "absolute") if fitted else None
        rng = np.random.default_rng(0) if seeded else None
        with pytest.raises(ValidationError, match="input noise needs"):
            make_batch(tiny_prep, [0], "absolute", normalizer=normalizer, noise_scale=0.1,
                       rng=rng)

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
    to; the float32 ones pin the default precision.  Each case pins one
    digest per OpenBLAS core (the Haswell ones computed in a process run
    under ``OPENBLAS_CORETYPE=Haswell``)."""

    @pytest.mark.parametrize("radius_factor, n_contact, dtype, digests", [
        (1.5, 0, "float64", {
            "SkylakeX": "78fee497eef63227feb32b15a94650420fee6a9ced083e0081888210f7c5d1e7",
            "Haswell": "d9e88b1207a7d805403fcac18d299fca0bbb0551ef0112836c0dafbcd34f9030"}),
        (2.0, 14, "float64", {
            "SkylakeX": "5630b6f7155cb8641dd6d0ab5bc96c37d5e5d849a1b9cc83d1b333e514eef8eb",
            "Haswell": "553da480d3145d349abd1b6c0a1b95af66c91e64d37e1d5117a31fcb45436fb8"}),
        (1.5, 0, "float32", {
            "SkylakeX": "5cc8153428aa3665b475990197632f95d06e960b42cab783bc19da9c7185e65b",
            "Haswell": "035e66141f6800dc2f1c563ac28213928c5a920d8c6f70bb404622493dc158c7"}),
        (2.0, 14, "float32", {
            "SkylakeX": "ade7644a1c42ddbee08616bb1796ec8f1f8467ef0f3bfb262bb6ee5f4e0f5451",
            "Haswell": "9c180dfb0083cf3334d88b6e9bfe103e2ae070ab450d6c77a3d2dfde6a2c90e1"}),
    ], ids=["no-contact", "contact", "no-contact-float32", "contact-float32"])
    def test_train_step_bytes(self, kernel_pin, radius_factor, n_contact, dtype, digests):
        digest = kernel_pin(digests)
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


class TestNothingHandedOutIsWritten:
    """No op, backward closure or reverse pass writes into an array it has
    handed out: with every op output and every gradient handed to a backward
    closure made read-only, a 3-step fit and an ``evaluate`` of its model
    run through and give the bytes of an unpatched run."""

    @staticmethod
    def _fit_and_report(prep, mode) -> tuple[bytes, bytes]:
        mcfg = ModelConfig(**feature_dims(prep.schema, prep.graph_cfg))
        result = fit([prep], mcfg, TrainConfig(steps=3, batch_size=2, target_mode=mode))
        report = evaluate(result.params, mcfg, result.normalizer, [prep], mode)
        return result.history.tobytes(), json.dumps(report).encode()

    CASES = pytest.mark.parametrize("simulate, oracle_cfg, gcfg, mode", [
        (simulate_impact, OracleConfig(rows=4, cols=4, frames=6, substeps=10,
                                       drop_height=0.02, initial_velocity=-3.0),
         GraphConfig(contact_radius_factor=2.0), "absolute"),
        (simulate_chain, ChainConfig(n_nodes=100, frames=5), GraphConfig(), "delta"),
    ], ids=["impact", "chain"])

    @CASES
    def test_fit_and_evaluate_with_read_only_arrays(self, monkeypatch, simulate, oracle_cfg,
                                                    gcfg, mode):
        traj = simulate(oracle_cfg)
        prep = prepare_trajectory(traj, get_schema(traj.meta["schema"]), gcfg)
        expected = self._fit_and_report(prep, mode)

        def read_only(a):
            if isinstance(a, np.ndarray):  # a numpy scalar is immutable already
                a.flags.writeable = False
            return a

        def emit(out_data, inputs, backward, name, flops):
            out = real_emit(out_data, inputs, lambda g: backward(read_only(g)), name, flops)
            read_only(out.data)
            return out

        real_emit = T._emit
        monkeypatch.setattr(T, "_emit", emit)
        assert self._fit_and_report(prep, mode) == expected

    @CASES
    def test_stored_arrays_are_never_written(self, simulate, oracle_cfg, gcfg, mode):
        # frames are views of the stored series: a noisy fit, evaluate and
        # export_attention run on read-only trajectory arrays, with the bytes
        # they give on writable ones
        def run(traj):
            prep = prepare_trajectory(traj, get_schema(traj.meta["schema"]), gcfg)
            history, report = self._fit_and_report(prep, mode)
            mcfg = ModelConfig(**feature_dims(prep.schema, gcfg))
            positions, _ = export_attention(init_params(mcfg, seed=0), mcfg,
                                            Normalizer.fit([prep], mode), prep, 1, 0)
            return history, report, positions.tobytes()

        expected = run(simulate(oracle_cfg))
        traj = simulate(oracle_cfg)
        for a in traj.arrays.values():
            a.flags.writeable = False
        assert run(traj) == expected


class TestStepMemory:
    """Activation memory of one train step.  tracemalloc counts numpy's
    buffers, so the peak does not depend on the host.  In float64 a tape
    that holds every intermediate until the reverse pass peaks at 159 MB
    here; one that keeps only what each backward reads peaks at 62.2 MB, and
    at 59.2 MB once message passing also drops its gathered edge blocks and
    aggregated messages as soon as a concat has copied them.  float32 compute
    halves each activation: 31.5 MB (33.4 before that drop)."""

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


def _fit_frame_by_frame(trajs, target_mode: str) -> Normalizer:
    """The reference for ``Normalizer.fit``: one pass over ``prep.sample(t)``
    and ``prep.target(t)``, each frame's column sums added in frame order."""
    dims = feature_dims(trajs[0].schema, trajs[0].graph_cfg)
    sums = {key: [np.zeros(dims[dim]), np.zeros(dims[dim]), 0]
            for key, dim in train._NORM_WIDTHS}

    def push(key, mat):
        s = sums[key]
        s[0] += mat.sum(axis=0)
        s[1] += (mat * mat).sum(axis=0)
        s[2] += mat.shape[0]

    for prep in trajs:
        for t in range(prep.traj.n_frames):
            sample = prep.sample(t)
            push("node", sample.node_features)
            push("mesh", sample.mesh_edge_features)
            push("contact", sample.contact_edge_features)
            if t < prep.n_transitions:
                push("target", prep.target(t, target_mode))

    def stats(key):
        s, sq, n = sums[key]
        if n == 0:
            return np.zeros_like(s), np.ones_like(s)
        mean = s / n
        var = np.maximum(sq / n - mean * mean, 0.0)
        return mean, np.maximum(np.sqrt(var), train._STD_FLOOR)

    return Normalizer(*stats("node"), *stats("mesh"), *stats("contact"), *stats("target"))


# A 4x4 lattice whose contact edges appear at frame 11 of 20.
_CONTACT_CFG = OracleConfig(rows=4, cols=4, frames=20, substeps=10, drop_height=0.02,
                            initial_velocity=-3.0)


def test_noisy_batch_equals_per_frame_samples_joined():
    """A noisy batch over the first contact has the bytes of per-frame
    samples joined with node offsets.  Nothing on either side calls BLAS,
    so this holds under every OpenBLAS kernel."""
    prep = prepare_trajectory(simulate_impact(_CONTACT_CFG), get_schema("impact"), GraphConfig())
    normalizer = Normalizer.fit([prep], "absolute")
    steps = [11, 9, 12, 10]
    sample, target, mask = make_batch(prep, steps, "absolute", normalizer=normalizer,
                                      noise_scale=0.003, rng=np.random.default_rng(7))
    # the same draws in the same order, one frame at a time
    rng = np.random.default_rng(7)
    parts = [prep.sample_from_frame(prep.schema.inject_noise(
        prep.frame(t), 0.003, normalizer, rng, prep.deformable)) for t in steps]
    assert [p.contact_edges.shape[0] > 0 for p in parts] == [True, False, True, False]
    n = prep.traj.n_nodes
    for name in ("node_features", "mesh_edges", "mesh_edge_features", "contact_edges",
                 "contact_edge_features", "positional_encoding"):
        blocks = [getattr(p, name) for p in parts]
        if name.endswith("edges"):  # node ids, offset by each frame's first row
            blocks = [block + b * n for b, block in enumerate(blocks)]
        want, got = np.concatenate(blocks), getattr(sample, name)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name
    assert sample.sample_ranges == ((0, n), (n, 2 * n), (2 * n, 3 * n), (3 * n, 4 * n))
    want = np.concatenate([prep.target(t, "absolute") for t in steps])
    assert target.shape == want.shape and target.tobytes() == want.tobytes()
    assert mask.tobytes() == np.concatenate([prep.deformable] * 4).tobytes()


def test_float_stored_mesh_arrays_prepare_alike():
    """A trajectory storing its elements, node types and component ids as
    float64 gives every frame's sample the bytes and dtypes of the int64 one."""
    traj = simulate_impact(_CONTACT_CFG)
    arrays = dict(traj.arrays, **{key: traj.arrays[key].astype(np.float64)
                                  for key in ("elements", "node_type", "component_id")})
    preps = [prepare_trajectory(t, get_schema("impact"), GraphConfig())
             for t in (traj, Trajectory(arrays=arrays, meta=traj.meta))]
    contact = 0
    for t in range(traj.n_frames):
        want, got = (asdict(prep.sample(t)) for prep in preps)
        assert got.pop("sample_ranges") == want.pop("sample_ranges")
        for name, value in want.items():
            assert (got[name].dtype, got[name].shape) == (value.dtype, value.shape), name
            assert got[name].tobytes() == value.tobytes(), name
        contact += want["contact_edges"].shape[0]
    assert contact > 0
    assert preps[1].deformable.tobytes() == preps[0].deformable.tobytes()


@pytest.mark.parametrize("key", ["elements", "node_type", "component_id"])
@pytest.mark.parametrize("bad", [0.5, np.nan, np.inf])
def test_non_integer_mesh_arrays_refused(tiny_traj, tiny_graph_cfg, key, bad):
    """A float in an index or code array that is no whole number is refused,
    not truncated when cast to int64."""
    value = tiny_traj.arrays[key].astype(np.float64)
    value.flat[0] = bad
    traj = Trajectory(arrays=dict(tiny_traj.arrays, **{key: value}), meta=tiny_traj.meta)
    with pytest.raises(SchemaFormatError, match=f"'{key}' has a non-integer value"):
        prepare_trajectory(traj, get_schema("impact"), tiny_graph_cfg)


class TestNormalizerEqualsFrameByFrame:
    """The stacked pass keeps every bit of the frame-by-frame one."""

    @staticmethod
    def check(trajs, schema, gcfg, target_mode):
        preps = [prepare_trajectory(traj, get_schema(schema), gcfg) for traj in trajs]
        fast = Normalizer.fit(preps, target_mode).to_arrays()
        slow = _fit_frame_by_frame(preps, target_mode).to_arrays()
        assert list(fast) == list(slow)
        for key in fast:
            assert fast[key].tobytes() == slow[key].tobytes(), key
        return preps

    def test_impact_contact_appears_mid_trajectory(self):
        preps = self.check([simulate_impact(_CONTACT_CFG)], "impact", GraphConfig(), "absolute")
        counts = [preps[0].sample(t).contact_edges.shape[0] for t in range(20)]
        assert counts[0] == 0 and counts[-1] > 0

    def test_impact_without_contact(self):
        self.check([simulate_impact(_CONTACT_CFG)], "impact", GraphConfig(use_contact=False),
                   "absolute")

    def test_chain_delta(self):
        self.check([simulate_chain(ChainConfig(n_nodes=120, frames=6, seed=3))], "chain",
                   GraphConfig(use_contact=False), "delta")

    @pytest.mark.parametrize("target_mode", ["absolute", "delta"])
    def test_two_trajectories_of_different_lengths(self, target_mode):
        trajs = [simulate_impact(_CONTACT_CFG),
                 simulate_impact(replace(_CONTACT_CFG, frames=7, initial_velocity=-2.0))]
        self.check(trajs, "impact", GraphConfig(n_frequencies=2), target_mode)

    @pytest.mark.parametrize("schema,target_mode", [("impact", "absolute"), ("chain", "delta")])
    @pytest.mark.parametrize("frames_per_run", [1, 3])
    def test_frames_in_several_runs(self, monkeypatch, schema, target_mode, frames_per_run):
        traj = (simulate_impact(_CONTACT_CFG) if schema == "impact"
                else simulate_chain(ChainConfig(n_nodes=120, frames=8, seed=3)))
        monkeypatch.setattr(train, "_RUN_NODE_FRAMES", frames_per_run * traj.n_nodes)
        self.check([traj], schema, GraphConfig(use_contact=schema == "impact"), target_mode)


class TestNoise:
    def test_fixed_seed_reproducible(self, tiny_prep):
        norm = Normalizer.fit([tiny_prep], "absolute")
        frames = []
        for _ in range(2):
            rng = np.random.default_rng(4)
            frame = tiny_prep.frame(0)
            frames.append(tiny_prep.schema.inject_noise(
                frame, 0.01, norm, rng, tiny_prep.deformable))
        np.testing.assert_array_equal(frames[0]["x"], frames[1]["x"])
        np.testing.assert_array_equal(frames[0]["v"], frames[1]["v"])

    def test_empirical_std_within_5_percent(self, tiny_prep):
        norm = Normalizer.fit([tiny_prep], "absolute")
        rng = np.random.default_rng(5)
        scale = 0.1
        frame = tiny_prep.frame(0)
        deform = tiny_prep.deformable
        draws = []
        for _ in range(1200):
            noisy = tiny_prep.schema.inject_noise(frame, scale, norm, rng, deform)
            draws.append(noisy["v"][deform] - frame["v"][deform])
        emp = np.concatenate(draws).std(axis=0)   # > 10^4 draws per component
        np.testing.assert_allclose(emp, scale * norm.node_std[2:4], rtol=0.05)

    def test_rigid_nodes_untouched(self, tiny_prep):
        norm = Normalizer.fit([tiny_prep], "absolute")
        rng = np.random.default_rng(6)
        frame = tiny_prep.frame(0)
        noisy = tiny_prep.schema.inject_noise(frame, 0.1, norm, rng, tiny_prep.deformable)
        rigid = ~tiny_prep.deformable
        np.testing.assert_array_equal(noisy["x"][rigid], frame["x"][rigid])

    def test_alpha_stays_nonnegative(self, tiny_prep):
        norm = Normalizer.fit([tiny_prep], "absolute")
        node_std = norm.node_std.copy()
        node_std[4] = 10.0  # alpha's std
        norm = replace(norm, node_std=node_std)
        rng = np.random.default_rng(7)
        noisy = tiny_prep.schema.inject_noise(tiny_prep.frame(0), 1.0, norm, rng,
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
    def test_no_trajectories_rejected(self):
        _, mcfg, tcfg = _fit_setup(steps=1)
        with pytest.raises(ValidationError, match="at least one training trajectory"):
            fit([], mcfg, tcfg)

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

    def test_parameters_handed_out_are_never_written(self, monkeypatch):
        # as a caller that wraps forward and keeps each step's parameter dict
        seen = []

        def keep_params(sample, params, *args, **kwargs):
            seen.append((dict(params), {k: p.data.copy() for k, p in params.items()}))
            return forward(sample, params, *args, **kwargs)

        monkeypatch.setattr(train, "forward", keep_params)
        prep, mcfg, tcfg = _fit_setup(steps=3)
        result = fit([prep], mcfg, tcfg)
        assert len(seen) == 3
        for kept, copies in seen:
            for name, p in kept.items():
                assert p.data.tobytes() == copies[name].tobytes()
                assert not np.shares_memory(p.data, result.params[name].data)

    def test_no_gradient_outlives_its_step(self, monkeypatch):
        # in float64 the widening for Adam hands on Tape.gradients' own arrays
        handed_out, dead_at_batch = [], []
        gradients, make = Tape.gradients, train.make_batch

        def keep_refs(self, root, wrt):
            grads = gradients(self, root, wrt)
            handed_out.extend(weakref.ref(g) for g in grads)
            return grads

        def check_dead(*args, **kwargs):
            dead_at_batch.append(all(ref() is None for ref in handed_out))
            return make(*args, **kwargs)

        monkeypatch.setattr(Tape, "gradients", keep_refs)
        monkeypatch.setattr(train, "make_batch", check_dead)
        prep, mcfg, tcfg = _fit_setup(steps=3)
        result = fit([prep], replace(mcfg, dtype="float64"), tcfg)
        assert len(handed_out) == 3 * len(result.params)
        assert dead_at_batch == [True, True, True]

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
        fit([prep], mcfg, tcfg, out_dir=str(tmp_path), extra_meta={"label": "a"})
        more = _fit_setup(steps=8, checkpoint_every=2)[2]
        with pytest.raises(ConfigError, match="label is 'a' in the checkpoint but 'b'"):
            fit([prep], mcfg, more, out_dir=str(tmp_path), resume=True,
                extra_meta={"label": "b"})
        with pytest.raises(ConfigError, match="model_config.latent_dim"):
            fit([prep], replace(mcfg, latent_dim=12), more, out_dir=str(tmp_path),
                resume=True, extra_meta={"label": "a"})

    @pytest.mark.parametrize("extra_meta, named", [
        ({"graph_config": {"tied_k": 3}}, "'graph_config'"),
        ({"graph_config": asdict(GraphConfig(n_frequencies=3))}, "'graph_config'"),
        ({"schema": "chain"}, "'schema'"),
    ], ids=["partial_graph_config", "other_graph_config", "other_schema"])
    def test_extra_meta_cannot_change_the_run(self, tmp_path, extra_meta, named):
        prep, mcfg, tcfg = _fit_setup(steps=2)
        with pytest.raises(ValidationError, match=f"extra_meta {named}"):
            fit([prep], mcfg, tcfg, out_dir=str(tmp_path), extra_meta=extra_meta)
        assert not (tmp_path / "checkpoint.mgnt").exists()
        # repeating the run's own meta, as perfbench does, is allowed
        fit([prep], mcfg, tcfg, out_dir=str(tmp_path),
            extra_meta={"schema": "impact", "graph_config": asdict(prep.graph_cfg)})
        assert load_checkpoint(str(tmp_path / "checkpoint.mgnt"))["graph_config"] == \
            prep.graph_cfg

    def test_chain_without_contact_trains_with_noise(self, monkeypatch):
        # the chain-400 benchmark's path: no contact search, input noise, delta targets
        traj = simulate_chain(ChainConfig(n_nodes=100, frames=4, seed=5))
        gcfg = GraphConfig(n_frequencies=2, use_contact=False)
        prep = prepare_trajectory(traj, get_schema("chain"), gcfg)
        mcfg = ModelConfig(latent_dim=10, n_tokens=4, n_heads=2, transformer_dims=(8, 4, 8),
                           **feature_dims(prep.schema, gcfg))
        batches, make = [], train.make_batch

        def recording_make_batch(*args, **kwargs):
            batches.append(make(*args, **kwargs))
            return batches[-1]

        monkeypatch.setattr(train, "make_batch", recording_make_batch)
        result = fit([prep], mcfg, TrainConfig(steps=2, batch_size=2, noise_scale=0.5,
                                               target_mode="delta", seed=1))
        assert np.isfinite(result.history[:, 1]).all()
        assert [sample.contact_edges.shape[0] for sample, _, _ in batches] == [0, 0]
        frame = prep.frame(0)
        noisy = prep.schema.inject_noise(frame, 0.5, result.normalizer,
                                         np.random.default_rng(2), prep.deformable)
        moved = noisy["x"] != frame["x"]
        assert moved[prep.deformable, 0].all() and not moved[:, 1].any()
        assert (traj.arrays["node_type"][~prep.deformable] == NODE_ACTUATOR).all()
        np.testing.assert_array_equal(noisy["x"][~prep.deformable], frame["x"][~prep.deformable])
        np.testing.assert_array_equal(noisy["drive"], frame["drive"])

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

    def test_resume_on_other_data_refused(self, tmp_path):
        prep, mcfg, tcfg = _fit_setup(steps=2)
        fit([prep, prep], mcfg, tcfg, out_dir=str(tmp_path))
        more = _fit_setup(steps=4)[2]
        arrays = dict(prep.traj.arrays, kappa=prep.traj.arrays["kappa"] * 2.0)
        other = prepare_trajectory(Trajectory(arrays=arrays, meta=prep.traj.meta),
                                   prep.schema, prep.graph_cfg)
        with pytest.raises(ConfigError, match="train trajectory 1 is not the one"):
            fit([prep, other], mcfg, more, out_dir=str(tmp_path), resume=True)
        with pytest.raises(ConfigError, match="trained on 2 trajectories, this run on 1"):
            fit([prep], mcfg, more, out_dir=str(tmp_path), resume=True)

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
    history, and an impact run under the tiny model's GraphConfig(n_frequencies=2)
    on one trajectory."""
    save_checkpoint(path, params, model_cfg, norm, TrainConfig(lr=3e-3),
                    adam_m={k: np.full(p.shape, 0.5) for k, p in params.items()},
                    adam_v={k: np.full(p.shape, 0.25) for k, p in params.items()},
                    step=step, history=np.arange(4.0 * step).reshape(step, 4),
                    run_meta={"schema": "impact",
                              "graph_config": asdict(GraphConfig(n_frequencies=2)),
                              "data": ["0" * 64]})  # read for its form only


class TestCheckpointIO:
    def test_round_trip(self, tmp_path, tiny_prep, tiny_model_cfg, tiny_params):
        norm = Normalizer.fit([tiny_prep], "absolute")
        path = tmp_path / "ckpt.mgnt"
        _save_whole(str(path), tiny_params, tiny_model_cfg, norm, step=7)
        state = load_checkpoint(str(path))
        assert state["meta"]["step"] == 7
        assert state["schema"].name == "impact"
        assert state["model_config"] == tiny_model_cfg
        assert state["graph_config"] == GraphConfig(n_frequencies=2)
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

    @pytest.mark.parametrize("key", ["model_config", "step", "graph_config", "train_config",
                                     "data"])
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


# Loads a dataset, trains one step and rolls out one step, then reports
# whether numpy.ma was imported on the way.
_TRAIN_PATH_SCRIPT = """
import sys
from mgnt.data import GraphConfig, feature_dims, load_split, prepare_trajectory
from mgnt.model import ModelConfig
from mgnt.rollout import rollout
from mgnt.train import TrainConfig, fit
schema, split, _ = load_split(sys.argv[1])
gcfg = GraphConfig(n_frequencies=2)
preps = [prepare_trajectory(traj, schema, gcfg) for traj in split["train"]]
mcfg = ModelConfig(latent_dim=8, n_tokens=2, n_heads=2, transformer_dims=(8, 8, 8),
                   **feature_dims(schema, gcfg))
result = fit(preps, mcfg, TrainConfig(steps=1, batch_size=2))
rollout(result.params, mcfg, result.normalizer, preps[0], 1, "absolute")
print("numpy.ma" in sys.modules)
"""


def test_train_path_does_not_import_numpy_ma(tmp_path):
    """np.unique and np.median import numpy.ma, about 16 ms once per process
    in numpy 2.4; nothing from loading to rollout calls them."""
    manifest = gen_dataset(1, 1, OracleConfig(rows=3, cols=3, frames=4, substeps=4), 0,
                           str(tmp_path))
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(mgnt.__file__))}
    done = subprocess.run([sys.executable, "-c", _TRAIN_PATH_SCRIPT, manifest], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]
