"""Command-line entry point.

    mgnt gen-data [--config PATH] --out DIR [--seed N] [--workers N]
    mgnt train [--config PATH] --out DIR [--seed N] --data DIR [--resume]
    mgnt <eval|rollout|export-attention> [--config PATH] --out DIR [--seed N] ...
    mgnt verify

Exit codes: 0 success, 2 config error, 3 training abort, 4 schema mismatch,
1 any other failure: a failed verify check, a non-finite prediction or
oracle state, a frame, block or horizon out of range, an unreadable file.
Every command that takes ``--out`` echoes its resolved configuration into
the output directory.  ``--seed N`` overrides all configured seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import config as C
from .container import write_arrays
from .data import Trajectory, feature_dims, load_split, prepare_trajectory
from .errors import ConfigError, MgntError, SchemaFormatError, TrainingAbort
from .oracle import gen_chain_dataset, gen_dataset
from .rollout import evaluate, export_attention, horizon_arrays, metric_series, rmse, rollout
from .train import fit, load_checkpoint, write_history_csv
from .verify import main_verify


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mgnt")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=True):
        p.add_argument("--config", default=None, help="key-value config file")
        p.add_argument("--out", required=out_required, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override all seeds")
        return p

    p = common(sub.add_parser("gen-data", help="generate a synthetic dataset"))
    p.add_argument("--workers", type=int, default=1)
    p = common(sub.add_parser("train", help="train from a dataset manifest"))
    p.add_argument("--data", required=True, help="dataset directory (with manifest.json)")
    p.add_argument("--resume", action="store_true")
    p = common(sub.add_parser("eval", help="metrics on a dataset split"))
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=("train", "test"))
    p = common(sub.add_parser("rollout", help="autoregressive rollout of one trajectory"))
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--trajectory", required=True)
    p.add_argument("--horizon", type=int, required=True)
    p = common(sub.add_parser("export-attention", help="slice-weight maps for one frame"))
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--trajectory", required=True)
    p.add_argument("--frame", type=int, default=0)
    p.add_argument("--block", type=int, default=0)
    sub.add_parser("verify", help="run the fast invariant suite")
    return parser


def _check_schema(source: str, name, schema) -> None:
    if name != schema.name:
        raise SchemaFormatError(
            f"{source} schema {name!r} does not match checkpoint schema {schema.name!r}")


def _prepared_trajectory(path: str, state: dict):
    """The trajectory at ``path``, checked against the loaded checkpoint's
    schema and prepared with its graph config."""
    traj = Trajectory.load(path)
    _check_schema("trajectory", traj.meta.get("schema"), state["schema"])
    return prepare_trajectory(traj, state["schema"], state["graph_config"])


_GENERATORS = {"impact": ("data", gen_dataset), "chain": ("chain", gen_chain_dataset)}


def _cmd_gen_data(args, cfg) -> int:
    if cfg["data.kind"] not in _GENERATORS:
        raise ConfigError(f"unknown data.kind {cfg['data.kind']!r}")
    name, generate = _GENERATORS[cfg["data.kind"]]
    manifest = generate(cfg[f"{name}.n_train"], cfg[f"{name}.n_test"], C.section(cfg, name),
                        cfg[f"{name}.seed"], args.out, workers=args.workers)
    print(f"wrote {manifest}")
    return 0


def _cmd_train(args, cfg) -> int:
    gcfg = C.section(cfg, "graph")
    schema, split, _ = load_split(os.path.join(args.data, "manifest.json"), ("train",))
    preps = [prepare_trajectory(t, schema, gcfg) for t in split["train"]]
    if not preps:
        raise ConfigError("dataset has no training trajectories")
    mcfg = C.section(cfg, "model", **feature_dims(schema, gcfg))
    tcfg = C.section(cfg, "train")
    result = fit(preps, mcfg, tcfg, out_dir=args.out, resume=args.resume, progress=True)
    write_history_csv(os.path.join(args.out, "loss_history.csv"), result.history)
    print(f"final loss {result.history[-1, 1]:.6e} after {int(result.history[-1, 0]) + 1} steps")
    return 0


def _cmd_eval(args, cfg) -> int:
    horizon = cfg["eval.horizon"]
    if horizon < 0:
        raise ConfigError(f"eval horizon must be >= 0 (0 means the full trajectory), "
                          f"got {horizon}")
    state = load_checkpoint(args.checkpoint)
    schema = state["schema"]
    manifest = os.path.join(args.data, "manifest.json")
    ds_schema, split, _ = load_split(manifest, (args.split,))
    _check_schema("dataset", ds_schema.name, schema)
    preps = [prepare_trajectory(t, schema, state["graph_config"]) for t in split[args.split]]
    if not preps:
        raise ConfigError(f"split {args.split!r} is empty")
    report = evaluate(state["params"], state["model_config"], state["normalizer"],
                      preps, state["train_config"].target_mode, horizon=horizon or None)
    report["split"] = args.split
    with open(os.path.join(args.out, "report.json"), "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    _write_consistency_csv(os.path.join(args.out, "consistency.csv"), report)
    for name, entry in report["rmse_all"].items():
        print(f"rmse_all[{name}] = {entry['mean']:.6e}")
    for name, entry in report["r_rmse"].items():
        if "mean" in entry:
            print(f"r_rmse[{name}] = {entry['mean']:.3f}%")
    return 0


def _write_consistency_csv(path: str, report: dict) -> None:
    with open(path, "w") as f:
        f.write("trajectory,step,hardening_pred,hardening_gt,kinetic_pred,kinetic_gt\n")
        for i, entry in enumerate(report["consistency"]):
            hp = entry.get("hardening_sum_pred", [])
            hg = entry.get("hardening_sum_gt", [])
            kp = entry.get("kinetic_pred", [])
            kg = entry.get("kinetic_gt", [])
            for s in range(max(len(hp), len(kp))):
                def cell(seq):
                    return repr(seq[s]) if s < len(seq) else ""
                f.write(f"{i},{s},{cell(hp)},{cell(hg)},{cell(kp)},{cell(kg)}\n")


def _cmd_rollout(args, cfg) -> int:
    state = load_checkpoint(args.checkpoint)
    schema = state["schema"]
    prep = _prepared_trajectory(args.trajectory, state)
    traj = prep.traj
    result = rollout(state["params"], state["model_config"], state["normalizer"], prep,
                     args.horizon, state["train_config"].target_mode)
    arrays = horizon_arrays(traj, schema, args.horizon, result.frames)
    arrays["contact_counts"] = result.contact_counts
    out_traj = Trajectory(arrays=arrays, meta={**traj.meta, "format": "mgnt-rollout",
                                               "horizon": args.horizon})
    out_traj.save(os.path.join(args.out, "rollout.mgnt"))
    _write_step_error_csv(os.path.join(args.out, "step_error.csv"), schema, arrays,
                          horizon_arrays(traj, schema, args.horizon), args.horizon)
    print(f"rolled out {args.horizon} steps; contact edges per step: "
          f"{result.contact_counts.tolist()}")
    return 0


def _write_step_error_csv(path: str, schema, pred: dict, gt: dict, horizon: int) -> None:
    ps = metric_series(pred, schema)
    gs = metric_series(gt, schema)
    names = sorted(ps)
    with open(path, "w") as f:
        f.write("step," + ",".join(f"rmse_{n}" for n in names) + "\n")
        for s in range(1, horizon + 1):
            f.write(f"{s}," + ",".join(repr(rmse(ps[n][s], gs[n][s])) for n in names) + "\n")


def _cmd_export_attention(args, cfg) -> int:
    state = load_checkpoint(args.checkpoint)
    prep = _prepared_trajectory(args.trajectory, state)
    positions, weights = export_attention(state["params"], state["model_config"],
                                          state["normalizer"], prep, args.frame,
                                          args.block)
    out = os.path.join(args.out, f"attention_frame{args.frame:03d}_block{args.block}.mgnt")
    write_arrays(out, {"positions": positions, "weights": weights},
                 meta={"format": "mgnt-attention", "frame": args.frame,
                       "block": args.block})
    print(f"wrote {out}")
    return 0


_COMMANDS = {"gen-data": _cmd_gen_data, "train": _cmd_train, "eval": _cmd_eval,
             "rollout": _cmd_rollout, "export-attention": _cmd_export_attention}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return main_verify()
        seeds = dict.fromkeys(C.SEED_KEYS, args.seed) if args.seed is not None else {}
        cfg = C.load_config(args.config, seeds)
        C.write_resolved(cfg, args.out)
        return _COMMANDS[args.command](args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TrainingAbort as exc:
        print(f"training aborted: {exc}", file=sys.stderr)
        return 3
    except SchemaFormatError as exc:
        print(f"schema mismatch: {exc}", file=sys.stderr)
        return 4
    except MgntError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
