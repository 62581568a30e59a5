"""One benchmark pass in a fresh process; prints one JSON line.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src`` and BLAS pinned to one thread. A pass imports equilib, makes the
workload's inputs, then runs every workload item in order, each starting
after the previous one ends, and checks each item's outputs. An untraced
pass times the host-speed probe of ``hostspeed.py`` while its items run
and reports its times scaled to the probe's reference speed.

Each pass checks its item outputs against ``reference/<workload>.json``
and, with ``--expect``, against an earlier pass. With ``--trace 1`` the
pass runs under the span tracer, reports per-layer metrics and writes the
spans to ``_out/``. After the timed region it reports the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "_out"
# how often an untraced pass times the host-speed probe
PROBE_EVERY_S = 0.1


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expect", type=Path, default=None,
                        help="item outputs of an earlier pass that this pass must reproduce")
    parser.add_argument("--save-outputs", type=Path, default=None,
                        help="write this pass's item outputs to this JSON file")
    args = parser.parse_args()
    print(json.dumps(one_pass(args, OUT_DIR / f"work-{args.workload}")))
    return 0


def one_pass(args, work_dir: Path) -> dict:
    """Set up, then run and check every item."""
    t0 = time.perf_counter()
    import equilib  # noqa: F401  (timed: the package and every public module)
    import equilib.bench, equilib.classical, equilib.cli, equilib.core, equilib.quantum  # noqa: E401,F401
    import_s = time.perf_counter() - t0

    import tracing
    import workloads

    make_inputs, make_items = workloads.WORKLOADS[args.workload]
    t1 = time.perf_counter()
    inputs = make_inputs(args.seed, work_dir)
    setup_s = import_s + time.perf_counter() - t1

    import hostspeed

    # set-up is short, so its scale comes from a few probes right after it
    scale = hostspeed.REF_MS / statistics.median(hostspeed.probe_ms() for _ in range(5))
    result = {"import_s": import_s, "setup_s": setup_s * scale,
              "raw_setup_s": setup_s}

    references = []
    reference = HERE / "reference" / f"{args.workload}.json"
    if reference.is_file():
        ref = json.loads(reference.read_text())
        same_inputs = args.seed == ref["seed"]
        references.append({label: out for label, out in ref["outputs"].items()
                           if same_inputs or label in ref["seed_independent"]})
    if args.expect is not None:
        references.append(json.loads(args.expect.read_text())["outputs"])
    tracer = tracing.Tracer() if args.trace else None
    # an untraced pass samples host speed for its times; a traced pass
    # reports its spans in plain seconds, undisturbed by probes
    sampler = None if tracer else hostspeed.Sampler(PROBE_EVERY_S)
    done = []
    with tracing.patched(tracer) if tracer else sampler:
        for k, (label, run) in enumerate(make_items(inputs, tracer)):
            start = time.perf_counter()
            try:
                with tracer.item_span(k) if tracer else contextlib.nullcontext():
                    out, failure = run()
            except Exception as exc:  # an item that raises is a failed item
                out, failure = None, f"raised {type(exc).__name__}: {exc}"
            done.append((label, start, time.perf_counter(), out, failure))

    exact = args.workload == "chaos-audit"
    items, outputs = [], {}
    for label, start, end, out, failure in done:
        out = json.loads(json.dumps(out))  # compare what a JSON file would hold
        for expected in references:
            if failure is None and label in expected and not workloads.outputs_match(
                out, expected[label], exact
            ):
                failure = "outputs differ from the reference"
        item = {"label": label, "raw_ms": 1e3 * (end - start), "failure": failure}
        if sampler:
            item["raw_ms"], item["ms"] = sampler.item_ms(start, end)
        items.append(item)
        outputs[label] = out
    result["items"] = items
    result["raw_wall_s"] = sum(it["raw_ms"] for it in items) / 1e3
    if sampler:
        result["wall_s"] = sum(it["ms"] for it in items) / 1e3
        result["probe_ms"] = sampler.ms
    # ru_maxrss is in KiB on Linux; MB here are 10^6 bytes throughout
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        result["long_horizon_peak_mb"] = long_horizon_peak_mb(make_items(inputs))
        tracer.save(OUT_DIR / f"trace-{args.workload}-{args.seed}.npz")
    result["env"] = environment()
    if args.save_outputs:
        args.save_outputs.write_text(json.dumps({
            "seed": args.seed,
            "seed_independent": [label for label in outputs
                                 if label.startswith(workloads.SEED_INDEPENDENT)],
            "outputs": outputs,
        }, indent=1) + "\n")
    return result


def long_horizon_peak_mb(items) -> float:
    """tracemalloc peak (MB) of the long-horizon item, run once more on its
    own after the traced pass: inside that pass the tracer's growing span
    arrays would count towards the peak. 0 for workloads without it."""
    import tracemalloc

    for label, run in items:
        if label == "long-horizon":
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1] / 1e6
            finally:
                tracemalloc.stop()
    return 0.0


def environment() -> dict:
    """Versions, core count and BLAS of this interpreter."""
    import os
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "cpu": _cpu_model(),
    }


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps
                    if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())
