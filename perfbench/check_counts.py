"""Self-checks of the benchmark; run by explicit path:

    python3 -m pytest -q perfbench/check_counts.py

(The name keeps the repository's own test run from collecting it.) The
main check runs two traced passes of every workload and requires the
counts a later change may cite to repeat exactly. A claim may rest on a
count only when it repeats exactly.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time

import pytest

import run
from seeds import DEFAULT_SEEDS

CITABLE_COUNTS = (
    "core.samples",
    "classical.map_calls",
    "classical.cells_calls",
    "quantum.gap_table_calls",
    "bench.builds_per_record",
)


def traced_pass(workload: str) -> dict:
    run.OUT_DIR.mkdir(exist_ok=True)
    args = ["--workload", workload, "--seed", str(DEFAULT_SEEDS[workload]),
            "--trace", "1"]
    return run.run_worker(args, time.monotonic() + 170)


@pytest.mark.parametrize("workload", list(DEFAULT_SEEDS))
def test_citable_counts_repeat_exactly(workload):
    first, second = traced_pass(workload), traced_pass(workload)
    for result in (first, second):
        assert [it for it in result["items"] if it["failure"]] == []
    for name in CITABLE_COUNTS:
        assert first["layers"][name] == second["layers"][name], name


def test_outputs_match_rules():
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads

    assert workloads.outputs_match({"a": [1.0, 2.0]}, {"a": [1.0, 2.0]}, exact=True)
    assert not workloads.outputs_match(1.0, 1.0 + 1e-15, exact=True)
    assert workloads.outputs_match(1.0, 1.0 + 1e-12, exact=False)
    assert not workloads.outputs_match(1.0, 1.0 + 1e-6, exact=False)
    assert not workloads.outputs_match("satisfied", "violated", exact=False)
    # records of classical scenarios are exact even inside quantum outputs
    assert not workloads.outputs_match(
        {"scenario": "classical-x", "v": 0.5}, {"scenario": "classical-x", "v": 0.5 + 1e-15},
        exact=False,
    )


def test_item_time_excludes_and_scales_by_probes():
    import hostspeed

    sampler = hostspeed.Sampler(0.1)
    # probes at t = 0, 1, 2, 3 s taking 2, 4, 4, 6 x REF_MS
    sampler.starts = [0.0, 1.0, 2.0, 3.0]
    sampler.ms = [2 * hostspeed.REF_MS, 4 * hostspeed.REF_MS, 4 * hostspeed.REF_MS,
                  6 * hostspeed.REF_MS]
    # an item from 0.5 s to 2.5 s holds the probes at 1 and 2 s, between
    # those at 0 and 3 s: the host ran at a quarter of the reference speed
    own_ms, scaled_ms = sampler.item_ms(0.5, 2.5)
    assert own_ms == pytest.approx(2000 - 8 * hostspeed.REF_MS)
    assert scaled_ms == pytest.approx(own_ms / 4)
    # a short item between two probes is scaled by those two
    assert sampler.item_ms(0.2, 0.3)[1] == pytest.approx(100 / 3)


def test_refuses_to_run_without_the_program():
    """In a directory holding only the benchmark, exit non-zero, print no result."""
    bare = run.OUT_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_out"))
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "chaos-audit", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
