#!/usr/bin/env python3
"""Generate one elastoplastic impact trajectory and look at its physics.

The lattice falls onto the wall, plastifies on contact, and settles.  The
script prints the phase structure and writes per-step curves to CSV so they
can be plotted with any tool.
"""

import csv

import numpy as np

from mgnt.oracle import SPACING, OracleConfig, simulate_impact
from mgnt.rollout import hardening_monotonicity

cfg = OracleConfig(kappa=0.2)
traj = simulate_impact(cfg)
a = traj.arrays
deform = a["node_type"] == 0

print(f"nodes: {traj.n_nodes} ({int(deform.sum())} deformable)")
print(f"frames: {traj.n_frames}, stored dt: {a['dt'][0]:.4f}s")

u = a["x"][:, deform] - a["X"][None, deform]
v = a["v"][:, deform]
ke = (v * v).sum(-1).sum(1)  # per frame, sum over nodes of |v|^2
sums, violations = hardening_monotonicity(a["alpha"])
lowest = a["x"][:, deform, 1].min(axis=1)

first_contact = int(np.argmax(lowest < 0.5 * cfg.drop_height))
print(f"first frame near the wall: {first_contact}")
print(f"max |displacement|: {np.abs(u).max():.3f} (lattice extent {cfg.cols * SPACING})")
print(f"final hardening sum: {sums[-1]:.3f} (violations: {violations})")
print(f"sum of |v|^2: start {ke[0]:.1f}, peak {ke.max():.1f}, end {ke[-1]:.2f}")

with open("impact_curves.csv", "w", newline="") as f:
    w = csv.writer(f)
    w.writerow(["frame", "sum_v_squared", "hardening_sum", "lowest_node_y"])
    for t in range(traj.n_frames):
        w.writerow([t, ke[t], sums[t], lowest[t]])
print("wrote impact_curves.csv")
