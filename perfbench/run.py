"""equilib benchmark: three closed-loop workloads, end-to-end and per-layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload quantum-sweep --seed 5150 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Every pass runs in a fresh worker process (``worker.py``) that imports the
checkout's ``src/equilib``, makes the inputs from the seed, and runs the
workload items one after another. Passes repeat until ``--seconds`` have
elapsed, at least two of them with ``--trace 0``. The median over passes
is reported. ``--trace 0`` reports the end-to-end metrics, with times
scaled by a host-speed probe (``hostspeed.py``); ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics.
The last line of standard output is the JSON result; the lines before it
print every metric with its unit, the environment and the failures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from seeds import DEFAULT_SEEDS, HOLDOUT_SEED, WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "_out"
P95_MIN_ITEMS = 200        # p95 needs at least ten items beyond it
DEADLINE_S = 170           # a run must end within 180 s
# One BLAS thread, within the cap of nproc. On 2 cores, two threads made the
# d <= 32 contractions of quantum-sweep slower (9.4-10.0 s against 7.0-7.5 s
# a pass) and their timings noisier, and the workloads are single-process
# closed loops with nothing to overlap.
BLAS_THREADS = 1


def metric_units(section: str) -> dict[str, str]:
    """Metric name -> unit, in order, from a section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


END_TO_END = metric_units("end_to_end")
PER_LAYER = metric_units("per_layer")


class BenchmarkError(RuntimeError):
    """The benchmark could not run: missing program, crashed or slow worker."""


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    """Run one worker to completion and return its JSON line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("out of time before starting a worker")
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker timed out: {' '.join(args)}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(
            f"worker failed ({proc.returncode}): {' '.join(args)}\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def check_program() -> None:
    if not (ROOT / "src" / "equilib" / "__init__.py").is_file():
        raise BenchmarkError(f"no equilib sources under {ROOT / 'src'}")


def measure(workload: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    """Run passes, each setting up afresh, until ``seconds`` have elapsed."""
    first_outputs = OUT_DIR / f"outputs-{workload}-{seed}.json"
    plain, traced = [], []
    start = time.monotonic()
    args = ["--workload", workload, "--seed", str(seed)]
    expect = ["--expect", str(first_outputs)]
    # an untraced run makes at least two passes, so that every run checks
    # that the outputs repeat; a traced pair is slow enough to stand alone
    min_passes = 1 if trace else 2
    while len(plain) < min_passes or time.monotonic() - start < seconds:
        # the first pass records its outputs; later passes must reproduce them
        check = expect if plain else ["--save-outputs", str(first_outputs)]
        plain.append(run_worker([*args, *check, "--trace", "0"], deadline))
        if trace:
            traced.append(run_worker([*args, *expect, "--trace", "1"], deadline))
    env = [w.pop("env") for w in plain + traced][0]
    return {"env": env, "passes": plain, "traced": traced}


def summarize(workload: str, seed: int, runs: dict, trace: bool) -> dict:
    passes, traced = runs["passes"], runs["traced"]
    all_items = [it for p in passes + traced for it in p["items"]]
    failures = [it for it in all_items if it["failure"] is not None]
    item_ms = sorted(it["ms"] for p in passes for it in p["items"])
    per_pass = len(passes[0]["items"])
    setup = [w["setup_s"] for w in passes + traced]
    wall = statistics.median(p["wall_s"] for p in passes)
    summary = {
        "workload": workload,
        "seed": seed,
        "holdout_seed": HOLDOUT_SEED,
        "env": runs["env"],
        "passes": len(passes),
        "items_per_pass": per_pass,
        "attempted": len(all_items),
        "failed": len(failures),
        "failures": [f"{it['label']}: {it['failure']}" for it in failures],
        "end_to_end": {
            "wall_s": wall,
            "item_ms_p50": statistics.median(item_ms),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "setup_s": statistics.median(setup),
        },
        "fail_frac": len(failures) / len(all_items),
        "raw_wall_s": statistics.median(p["raw_wall_s"] for p in passes),
        "probe_ms_p50": statistics.median(ms for p in passes for ms in p["probe_ms"]),
    }
    if per_pass >= P95_MIN_ITEMS:
        summary["item_ms_p95"] = statistics.quantiles(item_ms, n=20)[18]
    if trace:
        layers = {}
        for name in traced[0]["layers"]:
            values = [t["layers"][name] for t in traced]
            # counts repeat exactly and are reported as they are
            layers[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
        layers["import.equilib_s"] = statistics.median(
            w["import_s"] for w in passes + traced)
        layers["classical.long_horizon_peak_mb"] = statistics.median(
            t["long_horizon_peak_mb"] for t in traced)
        # both in plain seconds: traced passes run no host-speed probes
        layers["trace.overhead_s"] = (statistics.median(t["raw_wall_s"] for t in traced)
                                      - statistics.median(p["raw_wall_s"] for p in passes))
        summary["per_layer"] = {name: layers[name] for name in PER_LAYER}
    return summary


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def print_summary(s: dict, trace: bool) -> None:
    print(f"== {s['workload']}  seed {s['seed']} (held-out seed {s['holdout_seed']})  "
          f"{s['passes']} pass(es) x {s['items_per_pass']} items")
    print("env " + json.dumps(s["env"], sort_keys=True))
    for name, unit in END_TO_END.items():
        print(f"  {name:<32} {_fmt(s['end_to_end'][name])} {unit}")
    if "item_ms_p95" in s:
        print(f"  {'item_ms_p95':<32} {s['item_ms_p95']:.6g} ms  "
              f"({s['passes'] * s['items_per_pass']} items)")
    print(f"  {'unscaled wall_s':<32} {s['raw_wall_s']:.6g} s  "
          f"(median host-speed probe {s['probe_ms_p50']:.4g} ms)")
    print(f"  {'fail_frac':<32} {s['fail_frac']:.6g} 1  "
          f"({s['failed']} of {s['attempted']} items)")
    for line in s["failures"]:
        print(f"  FAILED {line}")
    if trace:
        for name, unit in PER_LAYER.items():
            print(f"  {name:<32} {_fmt(s['per_layer'][name])} {unit}")


def metrics_of(s: dict, trace: bool, prefix: str = "") -> dict:
    table, values = (PER_LAYER, s["per_layer"]) if trace else (END_TO_END, s["end_to_end"])
    return {prefix + name: {"value": values[name], "unit": unit} for name, unit in table.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: each workload's reference seed)")
    parser.add_argument("--seconds", type=int, default=20,
                        help="keep starting passes until this many seconds have elapsed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        check_program()
        OUT_DIR.mkdir(exist_ok=True)
        names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        deadline = time.monotonic() + DEADLINE_S * len(names)
        summaries = []
        for name in names:
            seed = DEFAULT_SEEDS[name] if args.seed is None else args.seed
            runs = measure(name, seed, args.seconds, bool(args.trace), deadline)
            summary = summarize(name, seed, runs, bool(args.trace))
            (OUT_DIR / f"result-{name}-{seed}-trace{args.trace}.json").write_text(
                json.dumps({**summary, "runs": runs}, indent=1) + "\n")
            print_summary(summary, bool(args.trace))
            summaries.append(summary)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    single = len(summaries) == 1
    metrics = {}
    for s in summaries:
        metrics.update(metrics_of(s, bool(args.trace), "" if single else f"{s['workload']}/"))
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
