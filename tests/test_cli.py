"""Command-line surface: config handling, exit codes, artifact layout."""

import ast
import concurrent.futures
import hashlib
import json
import math
import os
import shutil
import struct
import sys
from dataclasses import fields

import numpy as np
import pytest

import mgnt.verify
from mgnt.cli import _build_parser, main
from mgnt.container import MAGIC, read_arrays, write_arrays
from mgnt.config import SCHEMA, SECTIONS, format_config, load_config, section
from mgnt.data import GraphConfig, Trajectory, feature_dims, get_schema
from mgnt.errors import ConfigError
from mgnt.model import ModelConfig
from mgnt.oracle import ChainConfig, OracleConfig
from mgnt.train import TrainConfig

TINY_DATA = """
data.n_train = 2
data.n_test = 1
data.rows = 3
data.cols = 3
data.frames = 6
data.substeps = 6
"""

TINY_TRAIN = TINY_DATA + """
model.latent_dim = 10
model.tokens = 4
model.heads = 2
model.dims = 8,4,8
graph.n_frequencies = 2
train.steps = 12
train.batch_size = 2
train.lr = 0.003
train.lr_min = 0.0005
train.noise_scale = 0
train.checkpoint_every = 6
"""

# format_config(load_config(None)) as the package has always written it
DEFAULT_RESOLVED = """\
# resolved configuration (provenance after each value)
data.kind = impact  # default: dataset family: impact or chain
data.n_train = 18  # paper: training trajectories
data.n_test = 10  # paper: test trajectories
data.rows = 8  # default: lattice rows (desk scale)
data.cols = 8  # default: lattice cols (desk scale)
data.frames = 50  # default: stored frames per trajectory
data.substeps = 40  # default: fine integrator steps per stored frame
data.drop_height = 0.2  # default: initial gap above the wall
data.initial_velocity = -1.0  # default: initial vertical velocity
data.seed = 1234  # default: dataset seed
chain.n_nodes = 400  # default: chain length
chain.frames = 60  # default: stored frames per trajectory
chain.n_train = 6  # default: training trajectories
chain.n_test = 2  # default: test trajectories
chain.seed = 99  # default: chain dataset seed
graph.tied_k = 3  # default: tied-edge nearest neighbors
graph.tied_cutoff_factor = 3.0  # default: tied interface cutoff, x median edge
graph.contact_radius_factor = 1.5  # default: contact radius as multiple of median edge
graph.n_frequencies = 8  # default: positional encoding frequencies
graph.use_contact = True  # default: detect contact edges
model.latent_dim = 112  # default: node/edge latent width (sized to the 0.5M budget)
model.mpnn_pre = 2  # paper: pre-processing message-passing iterations
model.mpnn_refine = 2  # paper: refinement message-passing iterations
model.blocks = 2  # paper: token-attention blocks
model.heads = 4  # paper: attention heads
model.tokens = 32  # paper: slice token count
model.dims = 64,32,64  # paper: block width, attention width, feed-forward width
model.dtype = float32  # default: compute precision, float32 or float64 (weights stay float64)
train.steps = 2000  # default: optimizer steps
train.batch_size = 4  # default: snapshots per batch (one trajectory)
train.lr = 0.0001  # default: initial learning rate
train.lr_min = 1e-06  # default: final learning rate (exp decay)
train.noise_scale = 0.003  # default: input noise in feature-std units
train.seed = 0  # default: training seed
train.target_mode = absolute  # default: absolute next-step states, or delta for increments
train.checkpoint_every = 500  # default: steps between checkpoints
train.log_every = 50  # default: steps between log lines
eval.horizon = 0  # default: rollout horizon; 0 means full trajectory
"""

DIMS = dict(node_feat_dim=10, mesh_edge_feat_dim=6, contact_edge_feat_dim=3, pe_dim=32,
            output_dim=5)

CHAIN_DATA = ("data.kind = chain\nchain.n_nodes = 120\nchain.frames = 4\n"
              "chain.n_train = 1\nchain.n_test = 1\n")


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _hash_dir(d):
    out = {}
    for f in sorted(os.listdir(d)):
        if f.endswith(".mgnt"):
            out[f] = hashlib.sha256(open(os.path.join(d, f), "rb").read()).hexdigest()
    return out


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Generate a tiny dataset and train a tiny model once for CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = _write(root, "cfg.txt", TINY_TRAIN)
    data_dir = str(root / "data")
    run_dir = str(root / "run")
    assert main(["gen-data", "--config", cfg, "--out", data_dir]) == 0
    assert main(["train", "--config", cfg, "--data", data_dir, "--out", run_dir]) == 0
    return root, cfg, data_dir, run_dir


class TestConfig:
    def test_defaults_complete(self):
        cfg = load_config(None)
        assert set(cfg) == set(SCHEMA)

    def test_unknown_key_rejected(self, tmp_path):
        path = _write(tmp_path, "bad.txt", "nonsense.key = 5\n")
        with pytest.raises(ConfigError, match="nonsense.key"):
            load_config(path)

    def test_unknown_override_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key 'nonsense.key'"):
            load_config(None, {"nonsense.key": 5})

    def test_bad_value_rejected(self, tmp_path):
        path = _write(tmp_path, "bad.txt", "train.steps = soon\n")
        with pytest.raises(ConfigError, match="train.steps"):
            load_config(path)

    def test_roundtrip_through_format(self, tmp_path):
        cfg = load_config(None)
        path = _write(tmp_path, "echo.txt", format_config(cfg))
        again = load_config(path)
        assert again == cfg

    def test_comments_and_blank_lines(self, tmp_path):
        path = _write(tmp_path, "c.txt", "# hello\n\ntrain.steps = 7 # trailing\n")
        assert load_config(path)["train.steps"] == 7

    def test_default_resolved_text_unchanged(self):
        assert format_config(load_config(None)) == DEFAULT_RESOLVED

    @pytest.mark.parametrize("name, expected", [
        ("data", OracleConfig(seed=1234)),
        ("chain", ChainConfig(seed=99)),
        ("graph", GraphConfig()),
        ("model", ModelConfig(**DIMS)),
        ("train", TrainConfig()),
    ])
    def test_sections_take_class_defaults(self, name, expected):
        # only the two dataset seeds differ
        extra = DIMS if name == "model" else {}
        assert section(load_config(None), name, **extra) == expected

    def test_section_maps_renamed_keys(self):
        cfg = load_config(None, {"model.blocks": 3, "model.heads": 2, "model.tokens": 5,
                                 "model.dims": (8, 4, 8)})
        mcfg = section(cfg, "model", **DIMS)
        assert (mcfg.n_transformer_blocks, mcfg.n_heads, mcfg.n_tokens,
                mcfg.transformer_dims) == (3, 2, 5, (8, 4, 8))

    def test_every_class_field_has_a_setter(self):
        # a field is set by its config key or filled in by the program
        # (model feature dimensions, the per-trajectory kappa and seed)
        filled = set(feature_dims(get_schema("impact"), GraphConfig())) | {"kappa", "seed"}
        for name, cls in SECTIONS.items():
            keyed = {SCHEMA[key].field or key.split(".", 1)[1]
                     for key in SCHEMA if key.startswith(name + ".")}
            unset = {f.name for f in fields(cls)} - keyed - filled
            assert not unset, f"{cls.__name__} fields nothing sets: {sorted(unset)}"

    @pytest.mark.parametrize("command, line", [
        ("train", "model.dims = 8,4"),
        ("train", "model.dims = 8,4,8,8"),
        ("train", "train.lr = 0"),
        ("train", "train.lr_min = 0"),
        ("train", "train.lr_min = -0.001"),
        ("train", "train.checkpoint_every = 0"),
        ("train", "train.log_every = 0"),
        ("train", "train.steps = 0"),
        ("gen-data", "data.frames = 1"),
        ("gen-chain", "chain.frames = 1"),
        ("train", "graph.tied_k = 0"),
        ("train", "graph.n_frequencies = 0"),
        ("train", "graph.contact_radius_factor = 0"),
        ("train", "graph.tied_cutoff_factor = -1"),
        ("gen-data", "data.substeps = 0"),
        ("gen-data", "data.dt = 0"),
        ("gen-data", "data.dt = -0.00025"),
        ("train", "model.leaky_slope = 0"),
        ("train", "model.leaky_slope = 1"),
        ("gen-data", "data.mass = 0"),
        ("gen-data", "data.rows = 0"),
        ("gen-data", "data.cols = 0"),
        ("gen-data", "data.spacing = 0"),
        ("gen-data", "data.drop_height = -0.1"),
        ("gen-data", "data.n_train = 0"),
        ("gen-chain", "chain.drive_std = -0.1"),
        ("gen-chain", "chain.n_nodes = 50"),
        ("gen-chain", "chain.driven_nodes = 0"),
        ("gen-chain", "chain.driven_nodes = 30"),
        ("gen-chain", "chain.stiffness_base = 0"),
        ("gen-chain", "chain.n_train = 0"),
        ("gen-data", "data.seed = -1"),
        ("train", "train.seed = -1"),
        ("train", "model.mpnn_pre = -1"),
        ("train", "model.blocks = -1"),
        ("train", "train.noise_scale = nan"),
        ("train", "model.dtype = float16"),
        ("train", "train.target_mode = foo"),
        ("gen-data", "data.stiffness_base = 0"),
        ("gen-data", "data.wall_stiffness = -1"),
        ("gen-chain", "chain.load = nan"),
        ("gen-data", "data.kind = foo"),
        ("gen-data", "data.rows 3"),
        ("train", "graph.use_contact = maybe"),
    ])
    def test_bad_value_exit_2(self, trained, tmp_path, capsys, command, line):
        root, _, data_dir, _ = trained
        out = str(tmp_path / "o")
        if command == "train":
            cfg = _write(tmp_path, "bad.txt", TINY_TRAIN + line + "\n")
            argv = ["train", "--config", cfg, "--data", data_dir, "--out", out]
        else:
            base = CHAIN_DATA if command == "gen-chain" else TINY_DATA
            cfg = _write(tmp_path, "bad.txt", base + line + "\n")
            argv = ["gen-data", "--config", cfg, "--out", out]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("command, seed", [
        pytest.param("gen-data", "-1", id="gen-data"), pytest.param("train", "-1", id="train"),
        pytest.param("gen-data", "abc", id="gen-data-abc")])
    def test_bad_seed_exit_2(self, trained, tmp_path, capsys, command, seed):
        root, cfg, data_dir, _ = trained
        argv = [command, "--config", cfg, "--out", str(tmp_path / "o"), "--seed", seed]
        argv += ["--data", data_dir] if command == "train" else []
        if seed == "abc":  # argparse refuses a non-integer before main runs
            with pytest.raises(SystemExit, match="^2$"):
                main(argv)
        else:
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("key", [
        "data.kappa_min", "data.kappa_max", "chain.relax_tol", "graph.contact_radius",
        "model.tau0", "model.tau_min", "model.leaky_slope", "data.mass", "data.damping",
        "data.gravity", "data.wall_stiffness", "data.yield_strain", "data.hardening_ratio",
        "chain.load", "chain.stiffness_base", "chain.drive_std", "chain.driven_nodes",
        "data.spacing", "data.stiffness_base", "data.dt"])
    def test_removed_kappa_keys_exit_2(self, tmp_path, key):
        # the generators draw kappa from oracle.KAPPA_RANGE; no key sets it,
        # the chain's closed-form equilibrium has no tolerance to set, the
        # contact radius is graph.contact_radius_factor x the median mesh edge,
        # the slice temperatures and LeakyReLU slope are model constants, and
        # the oracles' fixed physics are oracle constants
        cfg = _write(tmp_path, "k.txt", f"{key} = 0.5\n")
        assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


SWEEP_BASE = {
    "data": "data.rows = 3\ndata.cols = 3\ndata.frames = 3\ndata.n_train = 1\n"
            "data.n_test = 1\n",
    "chain": "data.kind = chain\nchain.n_nodes = 100\nchain.frames = 3\n"
             "chain.n_train = 1\nchain.n_test = 1\n",
    "train": TINY_TRAIN + "train.steps = 1\n",
}

# every numeric key at 0 and -1, and every float key also at nan, inf and 1e308
SWEEP = [(key, value) for key, default in load_config(None).items()
         if type(default) in (int, float)
         for value in ((0, -1) if type(default) is int
                       else (0.0, -1.0, math.nan, math.inf, 1e308))]

# the swept values that run to completion; the rest overflow (below) or are rejected
SWEEP_RUNS = {
    ("data.drop_height", 0.0), ("data.initial_velocity", 0.0),
    ("data.initial_velocity", -1.0), ("data.seed", 0), ("chain.seed", 0),
    ("graph.tied_cutoff_factor", 0.0), ("model.mpnn_pre", 0), ("model.mpnn_refine", 0),
    ("model.blocks", 0), ("train.noise_scale", 0.0), ("train.seed", 0), ("eval.horizon", 0),
    *((key, 1e308) for key in (
        "graph.tied_cutoff_factor", "graph.contact_radius_factor", "train.lr_min")),
}

# values inside their keys' domains whose arithmetic overflows: the oracles'
# finiteness checks exit 1, fit's exits 3
SWEEP_OVERFLOWS = {
    **dict.fromkeys(((key, 1e308) for key in (
        "data.drop_height", "data.initial_velocity")), 1),
    ("train.lr", 1e308): 3, ("train.noise_scale", 1e308): 3,
}


def test_sweep_expectations_name_swept_cases():
    # an entry no sweep case reaches would outlive the key it names unnoticed
    swept = set(SWEEP)
    assert SWEEP_RUNS <= swept and SWEEP_OVERFLOWS.keys() <= swept


@pytest.mark.parametrize("key, value", [
    # 1e308 cases probe exit codes; their arithmetic may overflow on the way
    pytest.param(key, value, id=f"{key}={value}", marks=[
        pytest.mark.filterwarnings("ignore::RuntimeWarning")] if value == 1e308 else [])
    for key, value in SWEEP])
def test_every_numeric_key_exits_2_or_runs_finite(trained, tmp_path, capsys, key, value):
    """The smallest command that reads the key either rejects the value with
    a config error, stops an overflow with exit 1 (oracles) or 3 (training),
    or runs and writes only finite float arrays."""
    root, _, data_dir, run_dir = trained
    section = key.split(".", 1)[0]
    cfg = _write(tmp_path, "sweep.txt",
                 SWEEP_BASE.get(section, SWEEP_BASE["train"]) + f"{key} = {value}\n")
    out = tmp_path / "o"
    argv = {"data": ["gen-data"], "chain": ["gen-data"],
            "eval": ["eval", "--checkpoint", os.path.join(run_dir, "checkpoint.mgnt"),
                     "--data", data_dir]}.get(section, ["train", "--data", data_dir])
    code = main(argv + ["--config", cfg, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == SWEEP_OVERFLOWS.get((key, value), 0 if (key, value) in SWEEP_RUNS else 2), err
    if code:
        assert err.startswith({1: "error:", 2: "config error:", 3: "training aborted:"}[code])
        return
    written = [f for f in os.listdir(out) if f.endswith(".mgnt")]
    assert written or section == "eval"
    for name in written:
        for array in read_arrays(str(out / name))[0].values():
            assert array.dtype.kind != "f" or np.isfinite(array).all(), name


class TestGenData:
    def test_writes_trajectories_manifest_and_config(self, trained):
        root, cfg, data_dir, _ = trained
        doc = json.load(open(os.path.join(data_dir, "manifest.json")))
        assert len(doc["train"]) == 2 and len(doc["test"]) == 1
        assert os.path.exists(os.path.join(data_dir, "resolved_config.txt"))

    def test_rerun_same_seed_identical_checksums(self, trained, tmp_path):
        root, cfg, data_dir, _ = trained
        other = str(tmp_path / "data2")
        assert main(["gen-data", "--config", cfg, "--out", other]) == 0
        assert _hash_dir(data_dir) == _hash_dir(other)

    def test_invalid_key_exit_2(self, tmp_path):
        cfg = _write(tmp_path, "bad.txt", "data.wrong = 1\n")
        assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_workers_only_on_gen_data(self, tmp_path):
        out = str(tmp_path / "o")
        assert _build_parser().parse_args(
            ["gen-data", "--out", out, "--workers", "2"]).workers == 2
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", out, "--out", out, "--workers", "2"])
        assert exc.value.code == 2

    def test_workers_capped_at_one_per_trajectory(self, trained, tmp_path, monkeypatch):
        root, cfg, data_dir, _ = trained
        pools = []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        out = str(tmp_path / "o")
        assert main(["gen-data", "--config", cfg, "--out", out, "--workers", "5000"]) == 0
        assert pools == [3]
        assert _hash_dir(out) == _hash_dir(data_dir)

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_exit_2(self, trained, tmp_path, capsys, workers):
        root, cfg, _, _ = trained
        argv = ["gen-data", "--config", cfg, "--out", str(tmp_path / "o"), "--workers", workers]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_chain_kind(self, tmp_path):
        cfg = _write(tmp_path, "chain.txt",
                     "data.kind = chain\nchain.n_nodes = 120\nchain.frames = 4\n"
                     "chain.n_train = 1\nchain.n_test = 1\n")
        out = str(tmp_path / "chain_data")
        assert main(["gen-data", "--config", cfg, "--out", out]) == 0
        doc = json.load(open(os.path.join(out, "manifest.json")))
        assert doc["schema"] == "chain"

    def test_chain_workers_identical(self, tmp_path):
        cfg = _write(tmp_path, "chain.txt", CHAIN_DATA + "chain.n_train = 2\n")
        outs = [str(tmp_path / f"w{n}") for n in (1, 2)]
        for out, n in zip(outs, ("1", "2")):
            assert main(["gen-data", "--config", cfg, "--out", out, "--workers", n]) == 0
        hashes = [_hash_dir(out) for out in outs]
        assert len(hashes[0]) == 3 and hashes[0] == hashes[1]
        manifests = [open(os.path.join(out, "manifest.json")).read() for out in outs]
        assert manifests[0] == manifests[1]


class TestTrain:
    def test_artifacts(self, trained):
        _, _, _, run_dir = trained
        assert os.path.exists(os.path.join(run_dir, "checkpoint.mgnt"))
        lines = open(os.path.join(run_dir, "loss_history.csv")).read().splitlines()
        assert lines[0] == "step,loss,lr,grad_norm"
        assert len(lines) == 13
        assert os.path.exists(os.path.join(run_dir, "resolved_config.txt"))

    def test_deterministic_loss_history(self, trained, tmp_path):
        root, cfg, data_dir, run_dir = trained
        rerun = str(tmp_path / "rerun")
        assert main(["train", "--config", cfg, "--data", data_dir, "--out", rerun]) == 0
        a = open(os.path.join(run_dir, "loss_history.csv")).read()
        b = open(os.path.join(rerun, "loss_history.csv")).read()
        assert a == b

    def test_resume_flag(self, trained, tmp_path):
        root, cfg, data_dir, _ = trained
        more = _write(root, "more.txt", TINY_TRAIN + "train.steps = 18\n")
        rerun = str(tmp_path / "resume")
        assert main(["train", "--config", cfg, "--data", data_dir, "--out", rerun]) == 0
        assert main(["train", "--config", more, "--data", data_dir, "--out", rerun,
                     "--resume"]) == 0
        lines = open(os.path.join(rerun, "loss_history.csv")).read().splitlines()
        assert len(lines) == 19

    def test_resume_malformed_meta_exit_4(self, trained, tmp_path, capsys):
        root, cfg, data_dir, run_dir = trained
        arrays, meta = read_arrays(os.path.join(run_dir, "checkpoint.mgnt"))
        meta["graph_config"]["bogus"] = 1
        rerun = tmp_path / "resume"
        rerun.mkdir()
        write_arrays(str(rerun / "checkpoint.mgnt"), arrays, meta=meta)
        assert main(["train", "--config", cfg, "--data", data_dir, "--out", str(rerun),
                     "--resume"]) == 4
        assert "'bogus'" in capsys.readouterr().err

    def test_resume_under_other_dtype_exit_2(self, trained, tmp_path, capsys):
        root, cfg, data_dir, _ = trained
        wide = _write(tmp_path, "f64.txt", TINY_TRAIN + "model.dtype = float64\n")
        more = _write(tmp_path, "more.txt", TINY_TRAIN + "train.steps = 18\n")
        rerun = str(tmp_path / "resume")
        assert main(["train", "--config", wide, "--data", data_dir, "--out", rerun]) == 0
        assert main(["train", "--config", more, "--data", data_dir, "--out", rerun,
                     "--resume"]) == 2
        assert "model_config.dtype is 'float64'" in capsys.readouterr().err

    def test_resume_on_other_data_exit_2(self, trained, tmp_path, capsys):
        root, cfg, data_dir, run_dir = trained
        other = str(tmp_path / "data5")
        more = _write(tmp_path, "more.txt", TINY_TRAIN + "train.steps = 18\n")
        assert main(["gen-data", "--config", cfg, "--out", other, "--seed", "5"]) == 0
        rerun = tmp_path / "resume"
        shutil.copytree(run_dir, rerun)
        assert main(["train", "--config", more, "--data", other, "--out", str(rerun),
                     "--resume"]) == 2
        assert "train trajectory 0 is not the one" in capsys.readouterr().err

    def test_resume_on_copied_data_continues_bit_for_bit(self, trained, tmp_path):
        # the data digest covers the arrays, not the directory they are read from
        root, cfg, data_dir, run_dir = trained
        copy = str(tmp_path / "copy")
        shutil.copytree(data_dir, copy)
        more = _write(tmp_path, "more.txt", TINY_TRAIN + "train.steps = 18\n")
        runs = {data: tmp_path / f"resume-{i}" for i, data in enumerate((data_dir, copy))}
        for data, rerun in runs.items():
            shutil.copytree(run_dir, rerun)
            assert main(["train", "--config", more, "--data", data, "--out", str(rerun),
                         "--resume"]) == 0
        for name in ("checkpoint.mgnt", "loss_history.csv"):
            assert len({(rerun / name).read_bytes() for rerun in runs.values()}) == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_update_exit_3(self, trained, tmp_path, capsys):
        root, cfg, data_dir, _ = trained
        bad = _write(tmp_path, "lr.txt", TINY_TRAIN + "train.steps = 1\ntrain.lr = 1e308\n")
        out = tmp_path / "run"
        assert main(["train", "--config", bad, "--data", data_dir, "--out", str(out)]) == 3
        assert "non-finite parameters" in capsys.readouterr().err
        assert not (out / "checkpoint.mgnt").exists()

    def test_chain_without_contact(self, tmp_path):
        # the chain-400 benchmark's path: a chain set, no contact search, delta targets
        cfg = _write(tmp_path, "chain.txt", CHAIN_DATA + TINY_TRAIN[len(TINY_DATA):]
                     + "graph.use_contact = false\ntrain.steps = 2\n"
                     "train.target_mode = delta\ntrain.noise_scale = 0.003\n")
        data, run = str(tmp_path / "data"), str(tmp_path / "run")
        assert main(["gen-data", "--config", cfg, "--out", data]) == 0
        assert main(["train", "--config", cfg, "--data", data, "--out", run]) == 0
        meta = read_arrays(os.path.join(run, "checkpoint.mgnt"))[1]
        assert meta["schema"] == "chain" and meta["graph_config"]["use_contact"] is False
        assert meta["train_config"]["target_mode"] == "delta"

    def test_reads_only_train_split(self, trained, tmp_path):
        root, cfg, data_dir, _ = trained
        data = str(tmp_path / "data")
        shutil.copytree(data_dir, data)
        for name in json.load(open(os.path.join(data, "manifest.json")))["test"]:
            os.remove(os.path.join(data, name))
        assert main(["train", "--config", cfg, "--data", data,
                     "--out", str(tmp_path / "run")]) == 0

    @pytest.mark.parametrize("content, named", [
        (lambda doc: {k: v for k, v in doc.items() if k != "schema"}, "'schema'"),
        (lambda doc: {**doc, "schema": "bogus"}, "'bogus'"),
        (lambda doc: {**doc, "train": doc["train"][0]}, "'train'"),
        (lambda doc: {**doc, "test": [1]}, "'test'"),
        (lambda doc: [doc], "not a JSON object"),
        (None, "not JSON"),
    ], ids=["schema_missing", "schema_unknown", "train_not_a_list", "test_not_names",
            "not_an_object", "not_json"])
    def test_malformed_manifest_exit_4(self, trained, tmp_path, capsys, content, named):
        root, cfg, data_dir, _ = trained
        doc = json.load(open(os.path.join(data_dir, "manifest.json")))
        data = tmp_path / "data"
        data.mkdir()
        (data / "manifest.json").write_text("{" if content is None
                                            else json.dumps(content(doc)))
        assert main(["train", "--config", cfg, "--data", str(data),
                     "--out", str(tmp_path / "run")]) == 4
        err = capsys.readouterr().err
        assert "manifest.json" in err and named in err

    @pytest.mark.parametrize("command, edit, code, named", [
        ("train", lambda doc: doc.update(train=[]), 2,
         "config error: dataset has no training trajectories"),
        ("eval", lambda doc: doc.update(test=[]), 2, "config error: split 'test' is empty"),
        ("train", lambda doc: doc["train"].append("missing.mgnt"), 1, "i/o error:"),
    ], ids=["empty_train_split", "empty_test_split", "missing_trajectory_file"])
    def test_manifest_split_exit_code(self, trained, tmp_path, capsys, command, edit, code,
                                      named):
        root, cfg, data_dir, run_dir = trained
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        doc = json.load(open(data / "manifest.json"))
        edit(doc)
        (data / "manifest.json").write_text(json.dumps(doc))
        argv = {"train": ["train", "--config", cfg],
                "eval": ["eval", "--checkpoint", os.path.join(run_dir, "checkpoint.mgnt")]}
        assert main(argv[command] + ["--data", str(data), "--out", str(tmp_path / "o")]) == code
        assert capsys.readouterr().err.startswith(named)


class TestEval:
    def test_report_written(self, trained, tmp_path):
        root, cfg, data_dir, run_dir = trained
        out = str(tmp_path / "eval")
        code = main(["eval", "--config", cfg, "--checkpoint",
                     os.path.join(run_dir, "checkpoint.mgnt"), "--data", data_dir,
                     "--out", out])
        assert code == 0
        report = json.load(open(os.path.join(out, "report.json")))
        assert set(report["rmse_all"]) == {"u", "v", "alpha"}
        assert report["split"] == "test"
        for entry in report["consistency"]:
            assert entry["hardening_violations_gt"] == 0

    def test_writes_each_result_once(self, trained, tmp_path):
        """The report is eval's only result file; each consistency entry holds
        the contact counts and the hardening series, and nothing else."""
        root, cfg, data_dir, run_dir = trained
        out = str(tmp_path / "eval")
        assert main(["eval", "--config", cfg, "--checkpoint",
                     os.path.join(run_dir, "checkpoint.mgnt"), "--data", data_dir,
                     "--out", out]) == 0
        assert sorted(os.listdir(out)) == ["report.json", "resolved_config.txt"]
        report = json.load(open(os.path.join(out, "report.json")))
        for entry in report["consistency"]:
            assert set(entry) == {"contact_counts", "hardening_sum_pred", "hardening_sum_gt",
                                  "hardening_violations_pred", "hardening_violations_gt"}

    def test_reads_only_the_named_split(self, trained, tmp_path):
        root, cfg, data_dir, run_dir = trained
        data = str(tmp_path / "data")
        shutil.copytree(data_dir, data)
        for name in json.load(open(os.path.join(data, "manifest.json")))["train"]:
            os.remove(os.path.join(data, name))
        assert main(["eval", "--config", cfg, "--checkpoint",
                     os.path.join(run_dir, "checkpoint.mgnt"), "--data", data,
                     "--split", "test", "--out", str(tmp_path / "eval")]) == 0

    def test_empty_kappa_in_test_split_exit_4(self, trained, tmp_path, capsys):
        root, cfg, data_dir, run_dir = trained
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        name = json.load(open(data / "manifest.json"))["test"][0]
        traj = Trajectory.load(str(data / name))
        traj.arrays["kappa"] = traj.arrays["kappa"][:0]
        traj.save(str(data / name))
        assert main(["eval", "--checkpoint", os.path.join(run_dir, "checkpoint.mgnt"),
                     "--data", str(data), "--out", str(tmp_path / "e")]) == 4
        assert "'kappa' has shape [0], not [1]" in capsys.readouterr().err

    def test_schema_mismatch_exit_4(self, trained, tmp_path):
        root, cfg, data_dir, run_dir = trained
        chain_cfg = _write(tmp_path, "chain.txt",
                           "data.kind = chain\nchain.n_nodes = 120\nchain.frames = 4\n"
                           "chain.n_train = 1\nchain.n_test = 1\n")
        chain_data = str(tmp_path / "chain_data")
        assert main(["gen-data", "--config", chain_cfg, "--out", chain_data]) == 0
        code = main(["eval", "--checkpoint", os.path.join(run_dir, "checkpoint.mgnt"),
                     "--data", chain_data, "--out", str(tmp_path / "e")])
        assert code == 4

    @pytest.mark.parametrize("edit, named", [
        (lambda meta: meta["graph_config"].update(bogus=1), "'bogus'"),
        (lambda meta: meta.pop("graph_config"), "'graph_config' is missing"),
        (lambda meta: meta.pop("train_config"), "'train_config' is missing"),
        (lambda meta: meta.update(train_config=5), "'train_config'"),
        (lambda meta: meta["train_config"].update(lr=0.0), "'train_config'"),
        (lambda meta: meta["train_config"].update(lr=float("nan")), "'train_config'"),
        (lambda meta: meta.pop("schema"), "'schema'"),
        (lambda meta: meta.update(schema="bogus"), "'schema'"),
        (lambda meta: meta.update(schema=["impact"]), "'schema'"),
        (lambda meta: meta.update(version=1), "version 1; this version of mgnt reads version 5"),
        (lambda meta: meta.update(version=2), "version 2; this version of mgnt reads version 5"),
        (lambda meta: meta.update(version=3), "version 3; this version of mgnt reads version 5"),
        (lambda meta: meta.update(version=4), "version 4; this version of mgnt reads version 5"),
        (lambda meta: meta.pop("data"), "'data' is missing"),
        (lambda meta: meta["graph_config"].pop("n_frequencies"),
         "missing key 'n_frequencies' in checkpoint meta 'graph_config'"),
        (lambda meta: meta["model_config"].pop("dtype"),
         "missing key 'dtype' in checkpoint meta 'model_config'"),
        (lambda meta: meta["graph_config"].update(n_frequencies=3),
         "'model_config' has pe_dim 8, where its schema and graph_config give 12"),
    ], ids=["graph_config_unknown_key", "graph_config_missing", "train_config_missing",
            "train_config_not_object", "train_config_bad_lr",
            "train_config_nan_lr", "schema_missing", "schema_unknown", "schema_not_a_string",
            "version_1", "version_2", "version_3", "version_4", "data_missing",
            "graph_config_field_missing",
            "model_config_dtype_missing", "graph_config_other_widths"])
    def test_malformed_checkpoint_meta_exit_4(self, trained, tmp_path, capsys, edit, named):
        root, cfg, data_dir, run_dir = trained
        arrays, meta = read_arrays(os.path.join(run_dir, "checkpoint.mgnt"))
        edit(meta)
        bad = str(tmp_path / "bad.mgnt")
        write_arrays(bad, arrays, meta=meta)
        code = main(["eval", "--checkpoint", bad, "--data", data_dir,
                     "--out", str(tmp_path / "e")])
        assert code == 4
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("command, edit, named", [
        ("eval", lambda a: a.pop("param.dec.w1"), "no param.dec.w1 array"),
        ("eval", lambda a: a.update({"param.dec.w1": a["param.dec.w1"][:-1]}),
         "param.dec.w1 has shape"),
        ("eval", lambda a: a.update({"param.dec.w9": a["param.dec.w1"]}),
         "checkpoint array param.dec.w9 is not one its model config has"),
        ("eval", lambda a: a.pop("norm.node_std"), "no norm.node_std array"),
        ("train", lambda a: [a.pop(k) for k in list(a) if k.startswith("adam_")],
         "no adam_m."),
        ("eval", lambda a: [a.pop(k) for k in list(a) if k.startswith("adam_m.")],
         "no adam_m."),
        ("eval", lambda a: a.update({"adam_v.dec.w1": a["adam_v.dec.w1"][:-1]}),
         "adam_v.dec.w1 has shape"),
        ("eval", lambda a: a.pop("history"), "no history array"),
        ("eval", lambda a: a.update(history=a["history"][:, :3]), "history has shape"),
    ], ids=["param_missing", "param_truncated", "param_extra", "norm_missing", "resume_without_moments",
            "eval_without_moments", "moment_truncated", "history_missing",
            "history_three_columns"])
    def test_malformed_checkpoint_arrays_exit_4(self, trained, tmp_path, capsys, command,
                                                 edit, named):
        root, cfg, data_dir, run_dir = trained
        arrays, meta = read_arrays(os.path.join(run_dir, "checkpoint.mgnt"))
        edit(arrays)
        out = tmp_path / "run"
        out.mkdir()
        write_arrays(str(out / "checkpoint.mgnt"), arrays, meta=meta)
        argv = {"eval": ["eval", "--checkpoint", str(out / "checkpoint.mgnt")],
                "train": ["train", "--config", cfg, "--resume"]}[command]
        assert main(argv + ["--data", data_dir, "--out", str(out)]) == 4
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("command, name", [
        ("eval", "param.dec.w1"), ("rollout", "param.dec.w1"),
        ("export-attention", "param.dec.w1"), ("train", "param.dec.w1"),
        ("eval", "adam_m.enc_node.w1"), ("eval", "adam_v.enc_node.w1"),
        ("eval", "norm.node_std"), ("eval", "history"),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_checkpoint_array_exit_4(self, trained, tmp_path, capsys, command,
                                                name):
        root, cfg, data_dir, run_dir = trained
        arrays, meta = read_arrays(os.path.join(run_dir, "checkpoint.mgnt"))
        arrays[name].flat[arrays[name].size // 2] = np.nan
        out = tmp_path / "run"
        out.mkdir()
        ckpt = str(out / "checkpoint.mgnt")
        write_arrays(ckpt, arrays, meta=meta)
        doc = json.load(open(os.path.join(data_dir, "manifest.json")))
        traj = os.path.join(data_dir, doc["test"][0])
        argv = {"eval": ["eval", "--checkpoint", ckpt, "--data", data_dir],
                "rollout": ["rollout", "--checkpoint", ckpt, "--trajectory", traj,
                            "--horizon", "1"],
                "export-attention": ["export-attention", "--checkpoint", ckpt,
                                     "--trajectory", traj],
                "train": ["train", "--config", cfg, "--data", data_dir, "--resume"]}[command]
        assert main(argv + ["--out", str(out)]) == 4
        assert capsys.readouterr().err.startswith(
            f"schema mismatch: {ckpt}: checkpoint array {name} has a non-finite value")
        assert not [f for f in os.listdir(out) if f.startswith(("attention", "rollout"))]

    def test_negative_horizon_exit_2(self, trained, tmp_path, capsys):
        root, cfg, data_dir, run_dir = trained
        bad = _write(tmp_path, "h.txt", "eval.horizon = -1\n")
        code = main(["eval", "--config", bad, "--checkpoint",
                     os.path.join(run_dir, "checkpoint.mgnt"), "--data", data_dir,
                     "--out", str(tmp_path / "e")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: eval horizon")

    @pytest.mark.parametrize("corrupt, named", [
        (None, "not a checkpoint"),
        (lambda blob: blob[:10], "truncated header"),
        (lambda blob: blob[:12 + struct.unpack("<I", blob[8:12])[0] - 1],
         "header shorter than declared length"),
        (lambda blob: blob[:12] + b"[" + blob[13:], "invalid JSON header"),
    ], ids=["not_a_checkpoint", "truncated_header", "short_header", "invalid_json_header"])
    def test_corrupt_checkpoint_exit_4(self, trained, tmp_path, capsys, corrupt, named):
        root, cfg, data_dir, run_dir = trained
        bad = tmp_path / "bad.mgnt"
        if corrupt is None:
            write_arrays(str(bad), {"a": np.ones(3)}, meta={"format": "nope"})
        else:
            with open(os.path.join(run_dir, "checkpoint.mgnt"), "rb") as f:
                bad.write_bytes(corrupt(f.read()))
        assert main(["eval", "--checkpoint", str(bad), "--data", data_dir,
                     "--out", str(tmp_path / "e")]) == 4
        assert named in capsys.readouterr().err


class TestRolloutCommand:
    def test_rollout_artifacts_loadable(self, trained, tmp_path):
        root, cfg, data_dir, run_dir = trained
        doc = json.load(open(os.path.join(data_dir, "manifest.json")))
        traj_file = os.path.join(data_dir, doc["test"][0])
        out = str(tmp_path / "roll")
        code = main(["rollout", "--checkpoint", os.path.join(run_dir, "checkpoint.mgnt"),
                     "--trajectory", traj_file, "--horizon", "3", "--out", out])
        assert code == 0
        rolled = Trajectory.load(os.path.join(out, "rollout.mgnt"))
        assert rolled.arrays["x"].shape[0] == 4
        assert rolled.meta["format"] == "mgnt-rollout"
        lines = open(os.path.join(out, "step_error.csv")).read().splitlines()
        assert lines[0].startswith("step,")
        assert len(lines) == 4

    def test_horizon_too_long_names_limit(self, trained, tmp_path, capsys):
        root, cfg, data_dir, run_dir = trained
        doc = json.load(open(os.path.join(data_dir, "manifest.json")))
        traj_file = os.path.join(data_dir, doc["test"][0])
        code = main(["rollout", "--checkpoint", os.path.join(run_dir, "checkpoint.mgnt"),
                     "--trajectory", traj_file, "--horizon", "99",
                     "--out", str(tmp_path / "r2")])
        assert code == 1
        err = capsys.readouterr().err
        assert "5" in err  # names the maximum supported horizon

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
    def test_non_finite_prediction_exit_1(self, trained, tmp_path, capsys):
        # a finite float64 bias past float32's range is inf in the forward pass;
        # eval's one-step pass fails too, but the rollout's own error comes first
        root, cfg, data_dir, run_dir = trained
        arrays, meta = read_arrays(os.path.join(run_dir, "checkpoint.mgnt"))
        arrays["param.dec.b1"][:] = 1e308
        ckpt = str(tmp_path / "checkpoint.mgnt")
        write_arrays(ckpt, arrays, meta=meta)
        doc = json.load(open(os.path.join(data_dir, "manifest.json")))
        for argv, result in (
                (["rollout", "--trajectory", os.path.join(data_dir, doc["test"][0]),
                  "--horizon", "3"], "rollout"),
                (["eval", "--config", cfg, "--data", data_dir], "report")):
            out = tmp_path / argv[0]
            code = main([*argv, "--checkpoint", ckpt, "--out", str(out)])
            assert code == 1
            assert capsys.readouterr().err.startswith("error: non-finite prediction at step 0")
            assert not [f for f in os.listdir(out) if f.startswith(result)]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_malformed_trajectory_exit_4(self, trained, tmp_path, capsys):
        root, cfg, data_dir, run_dir = trained
        header = json.dumps({"arrays": [{"name": "x", "dtype": "f64", "shape": [1],
                                         "byte_offset": -8}], "meta": {}}).encode()
        bad = tmp_path / "bad.mgnt"
        bad.write_bytes(MAGIC + struct.pack("<I", len(header)) + header + bytes(8))
        code = main(["rollout", "--checkpoint", os.path.join(run_dir, "checkpoint.mgnt"),
                     "--trajectory", str(bad), "--horizon", "1",
                     "--out", str(tmp_path / "r3")])
        assert code == 4
        assert "byte_offset" in capsys.readouterr().err

    @pytest.mark.parametrize("target, seed", [("checkpoint", 0), ("trajectory", 1)])
    def test_header_byte_edits_exit_cleanly(self, trained, tmp_path, capsys, target, seed):
        """200 seeded one-byte edits of an input's JSON header, each to a
        character JSON is made of: each rollout returns an exit code in 0-4,
        and exits 4 whenever the edited header still parses with a changed
        byte_offset."""
        root, cfg, data_dir, run_dir = trained
        doc = json.load(open(os.path.join(data_dir, "manifest.json")))
        paths = {"checkpoint": os.path.join(run_dir, "checkpoint.mgnt"),
                 "trajectory": os.path.join(data_dir, doc["test"][0])}
        edited = str(tmp_path / "edited.mgnt")
        argv = ["rollout", "--checkpoint", paths["checkpoint"], "--trajectory",
                paths["trajectory"], "--horizon", "3", "--out", str(tmp_path / "o")]
        argv[argv.index(paths[target])] = edited
        with open(paths[target], "rb") as f:
            blob = f.read()
        header_end = 12 + struct.unpack("<I", blob[8:12])[0]

        def offsets(raw):
            try:
                return [entry["byte_offset"] for entry in json.loads(raw[12:header_end])["arrays"]]
            except (ValueError, TypeError, KeyError):
                return None

        rng, stored, shifted = np.random.default_rng(seed), offsets(blob), 0
        for _ in range(200):
            raw = bytearray(blob)
            at = int(rng.integers(12, header_end))
            raw[at] = rng.choice(np.frombuffer(b'0123456789-.e",:[]{} ', np.uint8))
            with open(edited, "wb") as f:
                f.write(raw)
            code = main(argv)
            err = capsys.readouterr().err
            assert type(code) is int and 0 <= code <= 4, (at, err)
            if offsets(raw) not in (None, stored):
                shifted += 1
                assert code == 4, (at, err)
        assert shifted > 0

    @pytest.mark.parametrize("edit, named", [
        *[(lambda a, key=key: a.pop(key), f"no {key!r} array")
          for key in ("X", "elements", "node_type", "component_id", "kappa", "x", "v",
                      "alpha")],
        (lambda a: a.update(x=a["x"][:, :-1]), "'x' has shape [6, 19, 2], not [6, 20, 2]"),
        (lambda a: a.update(v=a["v"][:1]), "'v' has shape [1, 20, 2]"),
        (lambda a: a.update(X=a["X"][0]), "'X' has shape [2]"),
        (lambda a: a.update(kappa=a["kappa"][:0]), "'kappa' has shape [0], not [1]"),
        (lambda a: a.update(node_type=a["node_type"][:-1]),
         "'node_type' has shape [19], not [20]"),
        (lambda a: a.update(component_id=a["component_id"][:-1]),
         "'component_id' has shape [19], not [20]"),
        (lambda a: a.update(node_type=np.full_like(a["node_type"], 9)),
         "'node_type' has a node type out of range [0, 4)"),
        (lambda a: a.update(elements=a["elements"] + 20),
         "'elements': element index out of range"),
        (lambda a: a.update(elements=a["elements"][:, [0, 0]]),
         "'elements': degenerate element with repeated node index"),
        (lambda a: a.update(elements=a["elements"][:0]), "'elements': mesh has no edges"),
        (lambda a: a.update(elements=a["elements"].ravel()), "'elements' has shape"),
        (lambda a: a.update(elements=a["elements"][:, [0, 1, 0, 1, 0]]),
         "'elements': unsupported element arity 5"),
        (lambda a: a.update(alpha=np.stack([a["alpha"]] * 2, axis=-1)),
         "'alpha' has shape [6, 20, 2], not [6, 20]"),
        (lambda a: a.update(x=np.concatenate([a["x"], a["x"][..., :1]], axis=-1)),
         "'x' has shape [6, 20, 3], not [6, 20, 2]"),
        (lambda a: a.update(X=np.hstack([a["X"], a["X"][:, :1]])),
         "'X' has shape [20, 3], not [20, 2]"),
        (lambda a: a.update(v=a["v"][..., :1]), "'v' has shape [6, 20, 1], not [6, 20, 2]"),
        (lambda a: a.update(v=a["v"][:-1]), "'v' has shape [5, 20, 2], not [6, 20, 2]"),
        (lambda a: a.update(alpha=np.concatenate([a["alpha"], a["alpha"][-1:]])),
         "'alpha' has shape [7, 20], not [6, 20]"),
        (lambda a: a["X"].__setitem__((3, 1), np.nan), "'X' has a non-finite value"),
        (lambda a: a["x"].__setitem__((2, 5, 0), np.inf), "'x' has a non-finite value"),
        (lambda a: a["kappa"].__setitem__(0, -np.inf), "'kappa' has a non-finite value"),
    ], ids=["no_X", "no_elements", "no_node_type", "no_component_id", "no_kappa", "no_x",
            "no_v", "no_alpha", "x_wrong_node_count", "v_one_frame", "X_not_2d",
            "kappa_empty", "node_type_short", "component_id_short", "node_type_9",
            "element_index_out_of_range", "element_degenerate", "no_edges",
            "elements_not_2d", "element_arity_5", "alpha_per_node_pair", "x_three_columns",
            "X_three_columns", "v_one_column", "v_frame_short", "alpha_frame_long",
            "X_nan", "x_inf", "kappa_inf"])
    @pytest.mark.parametrize("command", ["rollout", "train", "eval"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_malformed_trajectory_arrays_exit_4(self, trained, tmp_path, capsys, edit,
                                                named, command):
        root, cfg, data_dir, run_dir = trained
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        name = json.load(open(data / "manifest.json"))["train"][0]
        traj = Trajectory.load(str(data / name))
        edit(traj.arrays)
        traj.save(str(data / name))
        ckpt = os.path.join(run_dir, "checkpoint.mgnt")
        argv = {"rollout": ["rollout", "--checkpoint", ckpt, "--trajectory", str(data / name),
                            "--horizon", "1"],
                "train": ["train", "--config", cfg, "--data", str(data)],
                "eval": ["eval", "--checkpoint", ckpt, "--data", str(data),
                         "--split", "train"]}[command]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("schema mismatch: trajectory") and named in err

    def test_rollout_artifact_is_a_trajectory(self, trained, tmp_path):
        root, cfg, data_dir, run_dir = trained
        doc = json.load(open(os.path.join(data_dir, "manifest.json")))
        source = Trajectory.load(os.path.join(data_dir, doc["test"][0]))
        ckpt = os.path.join(run_dir, "checkpoint.mgnt")
        first = str(tmp_path / "first")
        assert main(["rollout", "--checkpoint", ckpt, "--trajectory",
                     os.path.join(data_dir, doc["test"][0]), "--horizon", "4",
                     "--out", first]) == 0
        rolled_file = os.path.join(first, "rollout.mgnt")
        rolled = Trajectory.load(rolled_file)
        n = source.n_nodes
        assert rolled.arrays["X"].shape == (n, 2)
        assert rolled.n_nodes == n and rolled.n_frames == 5
        for key, value in source.arrays.items():
            if key not in ("x", "v", "alpha"):
                np.testing.assert_array_equal(rolled.arrays[key], value)
        assert main(["rollout", "--checkpoint", ckpt, "--trajectory", rolled_file,
                     "--horizon", "3", "--out", str(tmp_path / "again")]) == 0
        assert main(["export-attention", "--checkpoint", ckpt, "--trajectory",
                     rolled_file, "--frame", "4", "--out", str(tmp_path / "attn")]) == 0


def test_frames_equal_to_node_count(trained, tmp_path):
    """A static array whose length happens to equal the frame count is not
    mistaken for a time series."""
    root, cfg, data_dir, run_dir = trained
    ckpt = os.path.join(run_dir, "checkpoint.mgnt")
    n_nodes = Trajectory.load(os.path.join(
        data_dir, json.load(open(os.path.join(data_dir, "manifest.json")))["test"][0])).n_nodes
    square = _write(tmp_path, "square.txt", TINY_TRAIN + f"data.frames = {n_nodes}\n"
                    "data.n_train = 1\neval.horizon = 5\n")
    sq_data = str(tmp_path / "data")
    assert main(["gen-data", "--config", square, "--out", sq_data]) == 0
    traj_file = os.path.join(
        sq_data, json.load(open(os.path.join(sq_data, "manifest.json")))["test"][0])
    assert Trajectory.load(traj_file).n_frames == n_nodes
    out = str(tmp_path / "eval")
    assert main(["eval", "--config", square, "--checkpoint", ckpt, "--data", sq_data,
                 "--out", out]) == 0
    report = json.load(open(os.path.join(out, "report.json")))
    assert len(report["consistency"][0]["hardening_sum_pred"]) == 6
    roll = str(tmp_path / "roll")
    assert main(["rollout", "--checkpoint", ckpt, "--trajectory", traj_file,
                 "--horizon", "5", "--out", roll]) == 0
    assert len(open(os.path.join(roll, "step_error.csv")).read().splitlines()) == 6


class TestExportAttention:
    def test_positions_and_weights_arrays(self, trained, tmp_path):
        root, cfg, data_dir, run_dir = trained
        doc = json.load(open(os.path.join(data_dir, "manifest.json")))
        traj_file = os.path.join(data_dir, doc["test"][0])
        out = str(tmp_path / "attn")
        code = main(["export-attention", "--checkpoint",
                     os.path.join(run_dir, "checkpoint.mgnt"),
                     "--trajectory", traj_file, "--frame", "2", "--block", "1",
                     "--out", out])
        assert code == 0
        from mgnt.container import read_arrays
        files = [f for f in os.listdir(out) if f.startswith("attention")]
        arrays, meta = read_arrays(os.path.join(out, files[0]))
        assert set(arrays) == {"positions", "weights"}
        np.testing.assert_allclose(arrays["weights"].sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("frame", ["6", "99", "-1"])
    def test_frame_out_of_range_exit_1(self, trained, tmp_path, capsys, frame):
        root, cfg, data_dir, run_dir = trained
        doc = json.load(open(os.path.join(data_dir, "manifest.json")))
        out = str(tmp_path / "attn")
        code = main(["export-attention", "--checkpoint",
                     os.path.join(run_dir, "checkpoint.mgnt"),
                     "--trajectory", os.path.join(data_dir, doc["test"][0]),
                     "--frame", frame, "--out", out])
        assert code == 1
        assert capsys.readouterr().err == (f"error: frame index {frame} out of range; "
                                           "last valid index is 5\n")
        assert not [f for f in os.listdir(out) if f.startswith("attention")]

    def test_block_out_of_range_exit_1(self, trained, tmp_path, capsys):
        root, cfg, data_dir, run_dir = trained
        doc = json.load(open(os.path.join(data_dir, "manifest.json")))
        out = str(tmp_path / "attn")
        code = main(["export-attention", "--checkpoint",
                     os.path.join(run_dir, "checkpoint.mgnt"),
                     "--trajectory", os.path.join(data_dir, doc["test"][0]),
                     "--block", "2", "--out", out])
        assert code == 1
        assert capsys.readouterr().err == "error: block index 2 out of range [0, 2)\n"
        assert not [f for f in os.listdir(out) if f.startswith("attention")]

    @pytest.mark.parametrize("command", ["rollout", "export-attention"])
    def test_trajectory_of_other_schema_exit_4(self, trained, tmp_path, capsys, command):
        root, cfg, data_dir, run_dir = trained
        chain_data = str(tmp_path / "chain_data")
        assert main(["gen-data", "--config", _write(tmp_path, "chain.txt", CHAIN_DATA),
                     "--out", chain_data]) == 0
        doc = json.load(open(os.path.join(chain_data, "manifest.json")))
        argv = [command, "--checkpoint", os.path.join(run_dir, "checkpoint.mgnt"),
                "--trajectory", os.path.join(chain_data, doc["test"][0]),
                "--out", str(tmp_path / "o")]
        assert main(argv + (["--horizon", "1"] if command == "rollout" else [])) == 4
        assert "trajectory schema 'chain'" in capsys.readouterr().err


def test_verify_command_exit_zero():
    assert main(["verify"]) == 0


def test_verify_command_names_failed_check(monkeypatch, capsys):
    real = mgnt.verify.detect_contact_edges
    monkeypatch.setattr(mgnt.verify, "detect_contact_edges",
                        lambda *args: real(*args)[1:])   # drops one pair
    assert main(["verify"]) == 1
    failed = capsys.readouterr().out.splitlines()[-1]
    assert failed.startswith("failed:") and "contact search equals brute force" in failed


def test_verify_contact_row_checks_the_stacked_search(monkeypatch):
    real = mgnt.verify.detect_contact_edges

    def last_frame_as_first(positions, *args):
        rows = real(positions, *args)
        if np.ndim(positions) == 2:  # the one-frame searches stay right
            return rows
        # node i of frame f is row f * n + i: renumber the last frame's pairs as frame 0's
        n = np.shape(positions)[1]
        last = rows[:, 0] // n == len(positions) - 1
        return np.where(last[:, None], rows % n, rows)

    monkeypatch.setattr(mgnt.verify, "detect_contact_edges", last_frame_as_first)
    rows = {name: ok for name, ok, _ in mgnt.verify.run_checks()}
    assert rows["contact search equals brute force"] is False
    assert sum(not ok for ok in rows.values()) == 1


def test_runtime_imports_are_stdlib_or_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "mgnt"}
    src = os.path.dirname(mgnt.__file__)
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        tree = ast.parse(open(os.path.join(src, name)).read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] in allowed, f"{name} imports {module}"
