"""Workload definitions for the mgnt benchmark.

Plain data only, so run.py can read it without importing numpy.
Every workload generates its own small dataset from the command-line seed;
the program under test only ever sees the generated containers.
"""

# Timed optimizer steps per run.  Forty steps leave exactly ten samples above
# the 75th percentile, so ``train_step_ms.p75`` is the reported tail.  The
# learning rate is held at its initial value: a run is the first forty steps
# of a long schedule, not a whole schedule squeezed into forty steps.
TRAIN_STEPS = 40
SMOKE_STEPS = 3
SMOKE_FRAMES = 6

WORKLOADS = {
    # Default config: per-op tape overhead dominates; contact is nearly idle.
    "impact-8": {
        "kind": "impact", "rows": 8, "cols": 8, "frames": 50,
        "n_train": 2, "n_test": 1, "batch_size": 4,
        "target_mode": "absolute", "use_contact": True,
    },
    # Edge-heavy and contact-rich; runnable, but not in BENCHMARK.json (a run
    # takes about 75 s).  Batch 1, one train trajectory and 41 frames keep it
    # affordable (a batch-4 step takes about 1.4 s); contact edges appear from
    # frame 20, and 41 frames give the 40 rollout steps a p75 tail needs.
    "impact-16": {
        "kind": "impact", "rows": 16, "cols": 16, "frames": 41,
        "n_train": 1, "n_test": 1, "batch_size": 1,
        "target_mode": "absolute", "use_contact": True,
    },
    # Under-reach chain: most nodes per sample, no contact, CG oracle.  41
    # frames give the 40 rollout steps a p75 tail needs.
    "chain-400": {
        "kind": "chain", "n_nodes": 400, "frames": 41,
        "n_train": 2, "n_test": 1, "batch_size": 2,
        "target_mode": "delta", "use_contact": False,
    },
}
