"""Receptive field, measured exactly on the tape: R message-passing
iterations reach exactly R hops, token attention reaches every node, and no
frame of a disjoint-union batch reaches another.

The influence of node j on node 0 is the largest |d y_0 / d x_j| over j's
input features.  Zero gradient rows stay zero, bit for bit, through gathers,
matmuls, row-wise layer norms and scatters, so a node out of reach reads
exactly 0.0.  On the chain, node i lies i hops from node 0.
"""

from dataclasses import replace

import numpy as np
import pytest

import mgnt.tensor as T
from mgnt.data import GraphConfig, feature_dims, get_schema, prepare_trajectory
from mgnt.model import ModelConfig, forward, init_params, mgn_baseline_config
from mgnt.oracle import ChainConfig, OracleConfig, simulate_chain, simulate_impact
from mgnt.tensor import Tape, Tensor

N_NODES = 100


@pytest.fixture(scope="module")
def chain():
    gcfg = GraphConfig(use_contact=False)
    schema = get_schema("chain")
    prep = prepare_trajectory(simulate_chain(ChainConfig(n_nodes=N_NODES, frames=3)),
                              schema, gcfg)
    return prep, feature_dims(schema, gcfg)


def _influence(sample, cfg, root: int, train_mode=False, rng=None) -> np.ndarray:
    """Per-node influence on node ``root``'s prediction (eval mode by default)."""
    x = Tensor(sample.node_features)
    with Tape() as tape:
        y, _ = forward(replace(sample, node_features=x), init_params(cfg, 0), cfg,
                       train_mode=train_mode, rng=rng)
        (g,) = tape.gradients(T.sum_all(T.gather_rows(y, [root])), [x])
    return np.abs(g).max(axis=1)


@pytest.mark.parametrize("hops, make_cfg", [
    (4, lambda dims: ModelConfig(n_transformer_blocks=0, **dims)),
    (3, lambda dims: ModelConfig(mpnn_pre=3, mpnn_refine=0, n_transformer_blocks=0, **dims)),
    (15, lambda dims: mgn_baseline_config(**dims)),
], ids=["2+2", "3+0", "mgn15"])
def test_message_passing_reaches_exactly_its_hops(chain, hops, make_cfg):
    prep, dims = chain
    cfg = replace(make_cfg(dims), dtype="float64")
    influence = _influence(prep.sample(0), cfg, root=0)
    assert (influence[:hops + 1] > 0.0).all()
    assert (influence[hops + 1:] == 0.0).all()


def test_attention_reaches_every_node(chain):
    prep, dims = chain
    cfg = ModelConfig(dtype="float64", **dims)
    assert (_influence(prep.sample(0), cfg, root=0) > 0.0).all()


@pytest.mark.parametrize("train_mode", [False, True], ids=["eval", "train"])
def test_frames_of_a_batch_do_not_reach_each_other(chain, train_mode):
    prep, dims = chain
    cfg = ModelConfig(dtype="float64", **dims)
    frames = {k: prep.traj.arrays[k][[0, 1, 2]] for k in prep.schema.series}
    sample = prep.sample_from_frame(frames)
    assert sample.sample_ranges == ((0, N_NODES), (N_NODES, 2 * N_NODES),
                                    (2 * N_NODES, 3 * N_NODES))
    rng = np.random.default_rng(0) if train_mode else None
    influence = _influence(sample, cfg, root=N_NODES, train_mode=train_mode, rng=rng)
    assert (influence[:N_NODES] == 0.0).all()
    assert (influence[N_NODES:2 * N_NODES] > 0.0).all()
    assert (influence[2 * N_NODES:] == 0.0).all()


def test_contact_edges_carry_reach_across_components():
    # no tied edges, so the wall is a mesh component of its own: only the
    # contact edges join it to the lattice
    gcfg = GraphConfig(tied_cutoff_factor=0.0)
    schema = get_schema("impact")
    prep = prepare_trajectory(simulate_impact(OracleConfig(rows=4, cols=4, frames=30)),
                              schema, gcfg)
    cfg = ModelConfig(n_transformer_blocks=0, dtype="float64", **feature_dims(schema, gcfg))
    component = prep.traj.arrays["component_id"]
    wall = component != component[0]
    sample = prep.sample(5)
    contact = sample.contact_edges
    cross = contact[component[contact[:, 0]] != component[contact[:, 1]]]
    assert len(cross) > 0
    root = int(cross[0][wall[cross[0]]][0])
    assert (_influence(sample, cfg, root)[~wall] > 0.0).all()
    cut = replace(sample, contact_edges=contact[:0],
                  contact_edge_features=sample.contact_edge_features[:0])
    assert (_influence(cut, cfg, root)[~wall] == 0.0).all()
