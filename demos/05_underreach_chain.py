#!/usr/bin/env python3
"""Demonstrate message-passing under-reach on a long driven chain.

With 2+2 message-passing iterations, information travels at most 4 hops per
step, but the chain's far end responds to the driven head within a single
frame.  The token-attention blocks close that gap; removing them leaves the
model provably blind to the drive signal beyond 4 hops."""

import tempfile

import numpy as np

from mgnt.data import GraphConfig, feature_dims, load_split, prepare_trajectory
from mgnt.model import ModelConfig, forward
from mgnt.oracle import DRIVE_STD, ChainConfig, gen_chain_dataset
from mgnt.train import TrainConfig, fit, make_batch

data_dir = tempfile.mkdtemp(prefix="mgnt_chain_")
manifest = gen_chain_dataset(3, 1, ChainConfig(n_nodes=200, frames=40), seed=7,
                             out_dir=data_dir)
schema, split, _ = load_split(manifest)
gcfg = GraphConfig(use_contact=False)
train_preps = [prepare_trajectory(t, schema, gcfg) for t in split["train"]]
test_prep = prepare_trajectory(split["test"][0], schema, gcfg)
dims = feature_dims(schema, gcfg)


def far_end_mse(params, mcfg, norm):
    n = test_prep.traj.n_nodes
    far = np.arange(int(0.75 * n), n)
    total, count = 0.0, 0
    for t in range(test_prep.n_transitions):
        sample, target, _ = make_batch(test_prep, [t], "delta")
        pred, _ = forward(norm.normalize_sample(sample), params, mcfg)
        resid = norm.denormalize_targets(pred.data) - target
        total += float((resid[far] ** 2).sum())
        count += far.size
    return total / count


tcfg = TrainConfig(steps=1000, batch_size=2, lr=3e-3, lr_min=3e-4,
                   noise_scale=0.0, seed=0, target_mode="delta")
for blocks in (2, 0):
    mcfg = ModelConfig(latent_dim=32, n_tokens=8, n_heads=4, n_transformer_blocks=blocks,
                       transformer_dims=(32, 16, 32), **dims)
    result = fit(train_preps, mcfg, tcfg)
    mse = far_end_mse(result.params, mcfg, result.normalizer)
    kind = "with attention" if blocks else "message passing only"
    print(f"{kind:>22}: far-end one-step MSE = {mse:.6f}")
print(f"{'unpredictable floor':>22}: {DRIVE_STD ** 2:.6f} (drive variance)")
