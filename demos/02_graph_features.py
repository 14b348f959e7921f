#!/usr/bin/env python3
"""Build the graph inputs for one frame and inspect their structure:
mesh edges, dynamically detected contact edges, positional encodings."""

import numpy as np

from mgnt.data import GraphConfig, get_schema, prepare_trajectory
from mgnt.mesh import detect_contact_edges_bruteforce
from mgnt.oracle import OracleConfig, simulate_impact

traj = simulate_impact(OracleConfig())
prep = prepare_trajectory(traj, get_schema("impact"), GraphConfig())

print(f"median mesh edge length: {prep.graph.median_edge:.3f}")
print(f"contact radius: {prep.graph.contact_radius:.3f}")
print(f"static mesh edges (directed): {prep.graph.mesh_edges.shape[0]}")

for t in (0, traj.n_frames // 2, traj.n_frames - 1):
    sample = prep.sample(t)
    # cross-check the cell-sort contact search against the quadratic scan
    brute = detect_contact_edges_bruteforce(
        traj.arrays["x"][t], prep.graph.contact_radius, prep.graph.excluded_pairs)
    assert np.array_equal(sample.contact_edges, brute)
    print(f"frame {t:2d}: node features {sample.node_features.shape}, "
          f"mesh edge features {sample.mesh_edge_features.shape}, "
          f"contact edges {sample.contact_edges.shape[0]}")

pe = prep.sample(0).positional_encoding
print(f"positional encoding: shape {pe.shape}, range [{pe.min():.2f}, {pe.max():.2f}]")
