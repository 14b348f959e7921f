"""Synthetic ground-truth generators: lattice impact physics and the driven
chain with its dense-solve oracle."""

import hashlib

import numpy as np
import pytest

import mgnt.oracle
from mgnt.data import GraphConfig, get_schema, prepare_trajectory
from mgnt.errors import ConfigError, NumericError
from mgnt.oracle import (ChainConfig, OracleConfig, gen_chain_dataset, gen_dataset,
                         return_map_1d, simulate_chain, simulate_impact, solve_chain)
from mgnt.train import Normalizer


def solve_chain_dense(k: float, load: float, u0: float, n_nodes: int,
                      driven: int = 1) -> np.ndarray:
    """Direct equilibrium solve, the reference for ``solve_chain``: the first
    ``driven`` nodes are prescribed at u0, the free remainder carries a
    constant axial load."""
    m = n_nodes - driven
    A = np.zeros((m, m))
    b = np.full(m, load)
    for i in range(m):
        A[i, i] = 2.0 * k if i < m - 1 else k
        if i > 0:
            A[i, i - 1] = -k
        if i + 1 < m:
            A[i, i + 1] = -k
    b[0] += k * u0
    u = np.linalg.solve(A, b)
    return np.concatenate([np.full(driven, u0), u])


class TestReturnMapping:
    def test_below_yield_stays_elastic(self):
        k, H, fy = 100.0, 20.0, 5.0
        force, plastic, alpha, _ = return_map_1d(k, H, fy, stretch=0.01, plastic=0.0, alpha=0.0)
        assert force == pytest.approx(1.0)
        assert plastic == 0.0 and alpha == 0.0

    def test_stretch_at_twice_yield_hand_computed(self):
        # elastic stretch at yield e_y = fy/k; at total stretch 2*e_y the trial
        # force is 2*fy, the excess fy, and dgamma = fy / (k + H)
        k, H, fy = 100.0, 20.0, 5.0
        e_y = fy / k
        force, plastic, alpha, _ = return_map_1d(k, H, fy, stretch=2 * e_y,
                                                 plastic=0.0, alpha=0.0)
        dgamma = fy / (k + H)
        assert plastic == pytest.approx(dgamma)
        assert alpha == pytest.approx(dgamma)
        assert force == pytest.approx(k * (2 * e_y - dgamma))
        # returned force sits exactly on the expanded yield surface
        assert force == pytest.approx(fy + H * alpha)

    def test_compression_symmetric(self):
        k, H, fy = 100.0, 20.0, 5.0
        f_pos, p_pos, a_pos, _ = return_map_1d(k, H, fy, 0.2, 0.0, 0.0)
        f_neg, p_neg, a_neg, _ = return_map_1d(k, H, fy, -0.2, 0.0, 0.0)
        assert f_neg == pytest.approx(-f_pos)
        assert p_neg == pytest.approx(-p_pos)
        assert a_neg == pytest.approx(a_pos)

    def test_hardening_raises_yield_level(self):
        k, H, fy = 100.0, 50.0, 5.0
        _, p1, a1, _ = return_map_1d(k, H, fy, 0.2, 0.0, 0.0)
        # from the hardened state, the same stretch no longer yields
        force, p2, a2, _ = return_map_1d(k, H, fy, 0.2, p1, a1)
        assert p2 == p1 and a2 == a1
        assert abs(force) <= fy + H * a1 + 1e-12

    def test_array_of_springs_hand_computed(self):
        # elastic, tensile yield, compressive yield, and a spring past the
        # virgin yield stretch e_y = 0.05 that its hardening keeps elastic
        k, H, fy = 100.0, 20.0, 5.0
        dg = 5.0 / (k + H)  # trial force 10 at stretch 0.1: excess 5
        stretch = np.array([0.01, 0.1, -0.1, 0.06])
        plastic = np.zeros(4)
        alpha = np.array([0.0, 0.0, 0.0, 0.1])
        out = return_map_1d(k, H, fy, stretch, plastic, alpha)
        expected = ([1.0, k * (0.1 - dg), -k * (0.1 - dg), 6.0],  # force
                    [0.0, dg, -dg, 0.0],                          # plastic
                    [0.0, dg, dg, 0.1],                           # alpha
                    [0.0, dg, dg, 0.0])                           # increment
        for got, want in zip(out, expected):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
        for i in range(4):
            scalar = return_map_1d(k, H, fy, stretch[i], plastic[i], alpha[i])
            assert [float(a[i]) for a in out] == [float(a) for a in scalar]


class TestImpactOracle:
    def test_free_fall_velocity_exact(self, monkeypatch):
        # no damping, no contact yet: v_y after the first stored frame is
        # exactly v0 - g*dt*substeps (semi-implicit Euler, springs at rest)
        monkeypatch.setattr(mgnt.oracle, "DAMPING", 0.0)
        cfg = OracleConfig(rows=2, cols=2, frames=3, substeps=5, drop_height=10.0,
                           initial_velocity=-0.5)
        traj = simulate_impact(cfg)
        v1 = traj.arrays["v"][1]
        deform = traj.arrays["node_type"] == 0
        expected = -0.5 - mgnt.oracle.GRAVITY * cfg.dt * cfg.substeps
        np.testing.assert_allclose(v1[deform, 1], expected, rtol=0, atol=1e-15)

    def test_no_plasticity_without_impact(self):
        cfg = OracleConfig(rows=3, cols=3, frames=4, substeps=4, drop_height=50.0)
        traj = simulate_impact(cfg)
        np.testing.assert_array_equal(traj.arrays["alpha"], 0.0)

    def test_alpha_monotone_nondecreasing(self):
        traj = simulate_impact(OracleConfig(rows=4, cols=4, frames=30, substeps=40))
        alpha = traj.arrays["alpha"]
        assert (np.diff(alpha, axis=0) >= 0).all()
        assert alpha.max() > 0  # the default drop actually plastifies

    def test_wall_nodes_static(self):
        traj = simulate_impact(OracleConfig(rows=3, cols=3, frames=10, substeps=10))
        wall = traj.arrays["node_type"] == 1
        x = traj.arrays["x"]
        for t in range(x.shape[0]):
            np.testing.assert_array_equal(x[t, wall], x[0, wall])

    def test_kinetic_decay_after_impact(self):
        traj = simulate_impact(OracleConfig(rows=4, cols=4, frames=50, substeps=40))
        v = traj.arrays["v"]
        proxy = (v * v).sum(axis=(1, 2))
        tail = proxy[-12:]
        # windowed mean over the final quarter is non-increasing
        head_mean = tail[:6].mean()
        tail_mean = tail[6:].mean()
        assert tail_mean <= head_mean + 1e-12

    def test_determinism(self):
        cfg = OracleConfig(rows=3, cols=3, frames=8, substeps=8)
        a = simulate_impact(cfg)
        b = simulate_impact(cfg)
        for key in a.arrays:
            np.testing.assert_array_equal(a.arrays[key], b.arrays[key])

    def test_instability_diagnostic(self):
        cfg = OracleConfig(rows=3, cols=3, frames=5, substeps=50, dt=1.0)
        with pytest.raises(NumericError, match="dt"):
            simulate_impact(cfg)

    def test_negative_drop_rejected(self):
        with pytest.raises(ConfigError, match="drop_height"):
            OracleConfig(drop_height=-1.0)

    def test_trajectory_schema_arrays(self):
        traj = simulate_impact(OracleConfig(rows=3, cols=3, frames=4, substeps=2))
        for key in ("X", "x", "v", "alpha", "kappa", "node_type", "component_id",
                    "elements", "dt"):
            assert key in traj.arrays
        assert traj.arrays["x"].shape[0] == 4
        assert traj.arrays["alpha"].shape == traj.arrays["x"].shape[:2]


@pytest.mark.parametrize("schema, simulate", [
    ("impact", lambda: simulate_impact(OracleConfig(rows=3, cols=3, frames=4, substeps=2))),
    ("chain", lambda: simulate_chain(ChainConfig(n_nodes=120, frames=4))),
], ids=["impact", "chain"])
def test_trajectory_carries_declared_series(schema, simulate):
    """Each oracle writes every per-frame array its schema declares, shaped
    [T, N, *per-node shape]."""
    traj = simulate()
    for key, shape in get_schema(schema).series.items():
        assert traj.arrays[key].shape == (4, traj.n_nodes, *shape), key


class TestImpactDataset:
    def test_files_and_manifest(self, tmp_path):
        cfg = OracleConfig(rows=3, cols=3, frames=4, substeps=2)
        manifest = gen_dataset(1, 1, cfg, seed=5, out_dir=str(tmp_path))
        import json
        doc = json.loads(open(manifest).read())
        assert len(doc["train"]) == 1 and len(doc["test"]) == 1
        for f in doc["train"] + doc["test"]:
            assert (tmp_path / f).exists()

    def test_same_seed_bitwise_identical(self, tmp_path):
        cfg = OracleConfig(rows=3, cols=3, frames=4, substeps=2)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        gen_dataset(2, 1, cfg, seed=5, out_dir=str(d1))
        gen_dataset(2, 1, cfg, seed=5, out_dir=str(d2))
        for f in sorted(d1.iterdir()):
            assert f.read_bytes() == (d2 / f.name).read_bytes()

    def test_kappa_in_open_interval(self, tmp_path):
        from mgnt.data import Trajectory
        cfg = OracleConfig(rows=2, cols=2, frames=3, substeps=2)
        gen_dataset(4, 1, cfg, seed=11, out_dir=str(tmp_path))
        for f in tmp_path.glob("traj_*.mgnt"):
            kappa = Trajectory.load(str(f)).arrays["kappa"][0]
            assert 0.1 < kappa < 0.3


class TestChainBenchmark:
    def test_zero_drive_static(self, monkeypatch):
        monkeypatch.setattr(mgnt.oracle, "DRIVE_STD", 0.0)
        cfg = ChainConfig(n_nodes=120, frames=5, seed=3)
        traj = simulate_chain(cfg)
        x = traj.arrays["x"]
        for t in range(1, 5):
            np.testing.assert_allclose(x[t], x[0], atol=1e-9)

    def test_unit_step_matches_dense_solve(self):
        k, load, n = 30.0, 0.4, 150
        closed = solve_chain(k, load, 1.0, n)
        dense = solve_chain_dense(k, load, 1.0, n)
        np.testing.assert_allclose(closed, dense, atol=1e-8)
        # a unit end step shifts the whole equilibrium by one unit
        base = solve_chain_dense(k, load, 0.0, n)
        np.testing.assert_allclose(dense - base, 1.0, atol=1e-8)

    def test_far_node_responds_within_one_frame(self):
        cfg = ChainConfig(n_nodes=400, frames=3, seed=12)
        traj = simulate_chain(cfg)
        x = traj.arrays["x"]
        delta = abs(x[1, 300, 0] - x[0, 300, 0])
        drive = abs(traj.arrays["drive"][0, 0])
        assert drive > 0
        assert delta == pytest.approx(drive, rel=1e-6)

    def test_closed_form_vs_dense_per_frame(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            k = rng.uniform(10, 200)
            load = rng.uniform(0.1, 1.0)
            u0 = rng.uniform(-2, 2)
            np.testing.assert_allclose(
                solve_chain(k, load, u0, 200),
                solve_chain_dense(k, load, u0, 200), atol=1e-8)

    def test_closed_form_equilibrium_residual(self):
        # A u = b for the free nodes: row i reads k (2 u_i - u_{i-1} - u_{i+1})
        # = load, the last row k (u_{m-1} - u_{m-2}) = load, and u_{-1} = u0
        rng = np.random.default_rng(1)
        for _ in range(20):
            k = rng.uniform(1, 500)
            load = rng.uniform(-2, 2)
            u0 = rng.uniform(-5, 5)
            n = int(rng.integers(20, 1001))
            driven = int(rng.integers(1, n // 4))
            u = solve_chain(k, load, u0, n, driven=driven)
            np.testing.assert_array_equal(u[:driven], u0)
            free = u[driven:]
            left = np.concatenate([[u0], free[:-1]])
            right = np.concatenate([free[1:], free[-1:]])
            residual = k * (2.0 * free - left - right) - load
            b = np.full(free.size, load)
            b[0] += k * u0
            assert np.linalg.norm(residual) <= 1e-9 * np.linalg.norm(b)

    def test_minimum_length_enforced(self):
        with pytest.raises(ConfigError, match="n_nodes"):
            ChainConfig(n_nodes=50)

    def test_chain_dataset_round_trip(self, tmp_path):
        cfg = ChainConfig(n_nodes=120, frames=4)
        manifest = gen_chain_dataset(1, 1, cfg, seed=8, out_dir=str(tmp_path))
        from mgnt.data import load_split
        schema, split, _ = load_split(manifest)
        assert schema.name == "chain"
        assert len(split["train"]) == 1 and len(split["test"]) == 1
        traj = split["train"][0]
        assert traj.arrays["node_type"][0] == 3  # driven end is the actuator


def _digest(arrays: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(arrays):
        a = np.ascontiguousarray(arrays[name])
        h.update(f"{name} {a.dtype.str} {a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


class TestPinnedBytes:
    """Byte digests of a small lattice that yields (final hardening sum
    0.028), of the normalizer fitted on it and of a short driven chain.  A
    change to the oracles' or the normalizer's arithmetic that moves a single
    bit fails here; such a change must say so and re-pin."""

    CFG = OracleConfig(rows=3, cols=3, frames=6, substeps=10, drop_height=0.02,
                       initial_velocity=-3.0)

    def test_impact_trajectory_bytes(self):
        traj = simulate_impact(self.CFG)
        assert traj.arrays["alpha"][-1].sum() == pytest.approx(0.0284, abs=1e-4)
        assert _digest(traj.arrays) == (
            "584f31ea0467c71230938360d5ba173a5182162e9acf8ae4aebcc5cd729fe792")

    def test_chain_trajectory_bytes(self):
        traj = simulate_chain(ChainConfig(n_nodes=120, frames=6, seed=3))
        assert _digest(traj.arrays) == (
            "486e69fcaa280fafd8999add0711f0edb2f9c142f82dd77ccb5b427152be2dec")

    def test_normalizer_bytes(self):
        prep = prepare_trajectory(simulate_impact(self.CFG), get_schema("impact"),
                                  GraphConfig())
        assert _digest(Normalizer.fit([prep], "absolute").to_arrays()) == (
            "92d15dbaf22f86687ab86cc2abe9307db17c261493208b2407bfdd04d375d793")
