"""Workload names and seeds, importable without numpy or equilib."""

# the seed whose inputs each workload's stored reference belongs to; the
# first two reproduce the acceptance-suite inputs
DEFAULT_SEEDS = {
    "quantum-sweep": 5150,        # rng of the Criterion-2 `thm5_sweep` fixture
    "chaos-audit": 7000,          # base of the Criterion-7 ensemble seeds
    "scenario-pipeline": 4242,
}
WORKLOAD_NAMES = tuple(DEFAULT_SEEDS)

# held out for the claim rule: never run while a change is being written,
# then run once to confirm a claimed gain also holds on unseen inputs
HOLDOUT_SEED = 271828
