"""The three benchmark workloads, driven through equilib's public API.

Each workload has two halves: ``inputs(seed, work_dir)`` makes the inputs
(counted in ``setup_s``) and ``items(inputs, tracer)`` yields the workload
items in order as ``(label, run)`` pairs; ``tracer`` is None outside the
traced run. ``run()`` performs one item and returns
``(outputs, failure)``: ``outputs`` is a JSON-serialisable digest compared
against the stored reference, ``failure`` is None or why the item's own
check failed (a violated bound, an error record, a failed audit).

Every call into the package goes through a module attribute
(``quantum.random_spectrum``, ``core.time_average_distribution``) so that
the traced run, which swaps those attributes, sees it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from equilib import bench, classical, cli, core, quantum
from seeds import DEFAULT_SEEDS

# --- quantum-sweep: the Criterion-2 recipe ----------------------------------

SWEEP_INSTANCES = 200
SWEEP_SAMPLES = 3000


def quantum_sweep_inputs(seed: int, work_dir: Path) -> list[dict]:
    """The 200 instances of the Criterion-2 sweep.

    Sizes and kinds (d, N, spectrum, state, POVM) are always the acceptance
    suite's, so every seed costs the same work; the seed draws the random
    matrices. The default seed reproduces the acceptance inputs exactly.
    """
    rng = np.random.default_rng(DEFAULT_SEEDS["quantum-sweep"])
    specs = []
    for i in range(SWEEP_INSTANCES):
        d = int(rng.integers(2, 33))
        n = int(rng.integers(2, 9))
        specs.append({
            "d": d,
            "n": n,
            "spectrum": "equally-spaced" if i % 4 == 0 else "generic",
            "state": "mixed" if i % 2 else "pure",
            "povm": "projective" if i % 3 == 0 and n <= d else "random",
            "seed": int(rng.integers(2**62)),
        })
    if seed != DEFAULT_SEEDS["quantum-sweep"]:
        draws = np.random.default_rng(seed).integers(2**62, size=SWEEP_INSTANCES)
        for spec, s in zip(specs, draws):
            spec["seed"] = int(s)
    return specs


def _quantum_instance(spec: dict):
    d, n, s = spec["d"], spec["n"], spec["seed"]
    spectrum = quantum.random_spectrum(d, s, kind=spec["spectrum"])
    if spec["state"] == "mixed":
        rho = quantum.random_mixed_state(d, s + 1)
    else:
        rho = quantum.random_pure_state(d, s + 1)
    if spec["povm"] == "projective":
        povm = quantum.projective_povm(d, n, s + 2)
    else:
        povm = quantum.random_povm(d, n, s + 2)
    probe = quantum.quantum_probe(rho, spectrum, povm)
    cfg = quantum.default_average_config(spectrum, samples=SWEEP_SAMPLES, seed=s + 3)
    omega = core.time_average_distribution(probe, cfg)
    est = core.average_distinguishability(probe, omega, cfg)
    d_eff = quantum.effective_dimension(rho, spectrum)
    d_g = quantum.max_gap_degeneracy(spectrum)
    bound = quantum.equilibration_bound(n, d_g, d_eff)
    violated = est.mean - 3.0 * est.standard_error > bound
    outputs = {
        "omega": [float(p) for p in omega.probs],
        "mean": est.mean,
        "stderr": est.standard_error,
        "d_eff": d_eff,
        "D_G": d_g,
        "thm5": bound,
        "status": bench.STATUS_VIOLATED if violated else bench.STATUS_SATISFIED,
    }
    return outputs, ("thm5 bound violated" if violated else None)


def quantum_sweep_items(specs, tracer=None):
    for k, spec in enumerate(specs):
        yield f"instance-{k}", lambda spec=spec: _quantum_instance(spec)


# --- chaos-audit: the Criterion-7 grid plus a long-horizon ensemble ---------

CHAOS_PARTITIONS = {
    2: [[0.0, 0.5, 1.0], [0.0, 1.0]],
    4: [[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]],
    8: [[0.0, 0.25, 0.5, 0.75, 1.0], [0.0, 0.5, 1.0]],
}
CHAOS_DELTAS = (0.0, 0.02, 0.1)
AUDIT_DELTAS = (0.0, 0.1)
# The audits always run on the acceptance inputs. Their per-pair false-alarm
# rate of 1e-3 fails the 0.99 pass-fraction check on about 1% of fresh
# inputs, which would be a statistical failure, not a program error; fixed
# inputs instead allow a bit-exact reference check on every seed.
AUDIT_ENSEMBLE_SEED = 9100
AUDIT_PAIR_SEED = 17
LONG_HORIZON = 20_000
LONG_SAMPLES = 500


def chaos_audit_inputs(seed: int, work_dir: Path) -> dict:
    """Ensembles for every item. The grid seeds follow the acceptance
    formula with ``seed`` in place of 7000."""
    grid = [
        (delta, n_cells, classical.contaminated_cat_ensemble(
            1000, delta=delta, seed=seed + int(delta * 100) * 10 + n_cells))
        for delta in CHAOS_DELTAS
        for n_cells in CHAOS_PARTITIONS
    ]
    audits = [
        (delta, classical.contaminated_cat_ensemble(1000, delta=delta, seed=AUDIT_ENSEMBLE_SEED))
        for delta in AUDIT_DELTAS
    ]
    long = classical.contaminated_cat_ensemble(1000, delta=0.1, seed=seed + 2300)
    return {"grid": grid, "audits": audits, "long": long}


def _mixing_item(ensemble, n_cells: int, cfg):
    mapping = classical.cat_map()
    partition = classical.grid_partition(CHAOS_PARTITIONS[n_cells])
    probe = classical.ensemble_probe(ensemble, mapping, partition)
    omega = core.time_average_distribution(probe, cfg)
    floor = classical.ensemble_noise_floor(ensemble, omega)
    est = core.average_distinguishability(probe, omega, cfg)
    bound = classical.mixed_equilibration_bound(n_cells, ensemble.periodic_weight)
    tol = bound + 3.0 * (est.standard_error + floor)
    outputs = {
        "omega": [float(p) for p in omega.probs],
        "mean": est.mean,
        "stderr": est.standard_error,
        "floor": floor,
        "thm3": bound,
        "status": bench.STATUS_VIOLATED if est.mean > tol else bench.STATUS_SATISFIED,
    }
    return outputs, ("thm3 mixing bound violated" if est.mean > tol else None)


def _audit_item(ensemble):
    frac, tested = classical.decorrelation_audit(
        ensemble,
        classical.cat_map(),
        classical.grid_partition(CHAOS_PARTITIONS[4]),
        core.TimeAverageConfig(horizon=2048, samples=2048, scheme="uniform-grid"),
        pair_count=100,
        seed=AUDIT_PAIR_SEED,
    )
    ok = tested == 100 and frac >= 0.99
    return {"pass_fraction": frac, "tested": tested}, (
        None if ok else f"audit passed {frac} of {tested} pairs"
    )


def chaos_audit_items(inputs, tracer=None):
    grid_cfg = core.TimeAverageConfig(horizon=1024, samples=1024, scheme="uniform-grid")
    for delta, n_cells, ensemble in inputs["grid"]:
        yield f"mixing-delta{delta:g}-N{n_cells}", (
            lambda e=ensemble, n=n_cells: _mixing_item(e, n, grid_cfg))
    for delta, ensemble in inputs["audits"]:
        yield f"audit-delta{delta:g}", lambda e=ensemble: _audit_item(e)
    long_cfg = core.TimeAverageConfig(
        horizon=LONG_HORIZON, samples=LONG_SAMPLES, scheme="uniform-grid"
    )
    yield "long-horizon", lambda: _mixing_item(inputs["long"], 4, long_cfg)


# --- scenario-pipeline: `equilib verify` plus a JSON-file scenario ----------

# Five runs of verify, the first in a cold process: per pass 4 warm verify
# items, then the cold one, then the slower scenario item, so the median
# item lies well inside the warm group rather than on a group boundary.
VERIFY_REPEATS = 5
SCENARIO_DIMS = [64, 128, 192, 256]


def scenario_pipeline_inputs(seed: int, work_dir: Path) -> dict:
    """Write the quantum dimension-sweep scenario file; ``equilib verify``
    needs no input."""
    work_dir.mkdir(parents=True, exist_ok=True)
    scenario = {
        "name": "quantum-dim-sweep",
        "kind": "quantum",
        "epsilon": 0.3,
        "average": {"horizon": "auto", "samples": 500, "seed": seed + 1},
        "system": {"sampler": {"dim": SCENARIO_DIMS[0], "seed": seed,
                               "spectrum": "generic", "state": "pure"}},
        "measurement": {"sampler": {"name": "random", "outcomes": 4, "seed": seed + 2}},
        "sweep": {"system.sampler.dim": SCENARIO_DIMS},
    }
    path = work_dir / "quantum-dim-sweep.json"
    path.write_text(json.dumps(scenario, indent=2) + "\n")
    return {"scenario": path, "work_dir": work_dir}


def _record_outputs(records: list[dict]) -> list[dict]:
    return [{k: v for k, v in rec.items() if k != "wall_time"} for rec in records]


def _record_failure(records) -> str | None:
    for rec in records:
        if rec.error is not None:
            return f"{rec.scenario}: error record ({rec.error})"
        for name, chk in rec.bounds.items():
            if chk.status == bench.STATUS_VIOLATED:
                return f"{rec.scenario}: {name} violated"
    return None


def _verify_item(work_dir: Path, tracer=None):
    out = work_dir / "verify.json"
    argv = ["verify", "--out", str(out), "--format", "json"]
    buf = io.StringIO()
    span = tracer.span("cli.verify") if tracer is not None else contextlib.nullcontext()
    with contextlib.redirect_stdout(buf), span:
        try:
            cli.main(argv, standalone_mode=False)
            code = 0
        except SystemExit as exc:  # the CLI exits 2 on a violated bound
            code = exc.code
    records = bench.load_records(out)
    failure = _record_failure(records)
    summary = [line for line in buf.getvalue().splitlines() if line.startswith("checked ")]
    if failure is None and (code != 0 or not summary or not summary[0].endswith(" 0 violated")):
        failure = f"verify exited {code}: {summary}"
    return _record_outputs([r.to_dict() for r in records]), failure


def _scenario_item(path: Path, work_dir: Path):
    scenario = bench.load_scenario(path)
    records = bench.run_scenario(scenario)
    csv_path, json_path = work_dir / "quantum-dim-sweep.csv", work_dir / "quantum-dim-sweep-out.json"
    bench.emit_report(records, "csv", csv_path)
    bench.emit_report(records, "json", json_path)
    failure = _record_failure(records)
    rows = csv_path.read_text().splitlines()
    if failure is None and (len(records) != len(SCENARIO_DIMS) or len(rows) != len(records) + 1):
        failure = f"expected {len(SCENARIO_DIMS)} records and CSV rows, got {len(records)}, {len(rows) - 1}"
    if failure is None and bench.load_records(json_path) != records:
        failure = "JSON report does not round-trip"
    return _record_outputs([r.to_dict() for r in records]), failure


def scenario_pipeline_items(inputs, tracer=None):
    for k in range(VERIFY_REPEATS):
        yield f"verify-{k}", lambda: _verify_item(inputs["work_dir"], tracer)
    yield "dim-sweep", lambda: _scenario_item(inputs["scenario"], inputs["work_dir"])


# --- comparing outputs ------------------------------------------------------

# items whose inputs do not depend on the seed, so their reference outputs
# are checked on every seed
SEED_INDEPENDENT = ("verify-", "audit-")

# Quantum results go through BLAS contractions whose summation order may
# change; they must agree to this absolute (or, above 1, relative) tolerance.
# Classical results are exact and must match bit for bit.
QUANTUM_TOL = 1e-9


def _close(a, b, tol: float) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or not isinstance(a, (int, float)):
        return a == b
    if not isinstance(b, (int, float)):
        return False
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b)) or (math.isnan(a) and math.isnan(b))


def outputs_match(a, b, exact: bool) -> bool:
    """Compare two output digests; scenario records of classical scenarios
    are always compared exactly."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return False
        if exact is False and str(a.get("scenario", "")).startswith("classical"):
            exact = True
        return all(outputs_match(a[k], b[k], exact) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(outputs_match(x, y, exact) for x, y in zip(a, b))
    if exact:
        return a == b and type(a) is type(b)
    return _close(a, b, QUANTUM_TOL)


WORKLOADS = {
    "quantum-sweep": (quantum_sweep_inputs, quantum_sweep_items),
    "chaos-audit": (chaos_audit_inputs, chaos_audit_items),
    "scenario-pipeline": (scenario_pipeline_inputs, scenario_pipeline_items),
}
