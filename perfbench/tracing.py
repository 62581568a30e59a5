"""In-memory span tracer for the traced benchmark run.

Spans are recorded at the boundaries the benchmark wraps: the public
functions of ``equilib`` that the workloads (and ``equilib.bench``) reach
through module attributes, and the callables inside the objects they
return (a probe's ``sample_many``, a map's ``forward_many``, a partition's
``cells_of_many``), swapped in with ``dataclasses.replace``. Nothing in
the package itself is modified; :func:`patched` restores every attribute
on exit.

Each span stores its name, start, end, parent span and the workload item
it belongs to in flat arrays, so a pass with about two million spans
costs tens of megabytes. Self times and per-layer totals are computed from
those arrays once the pass ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import time
from array import array
from collections import Counter

import numpy as np

# span name -> layer; a layer's time is the summed duration of its
# outermost spans (a span nested directly inside a span of the same layer,
# such as random_povm inside uneven_povm, is not counted twice)
LAYER_OF = {
    "item": "item",
    "cli.verify": "cli.verify",
    "core.time_average_distribution": "core.estimate",
    "core.average_distinguishability": "core.estimate",
    "core.equilibration_report": "core.estimate",
    "core.block": "core.block",
    "quantum.block": "quantum.block",
    "quantum.gap_table": "quantum.gap_table",
    "quantum.random_spectrum": "quantum.build",
    "quantum.random_pure_state": "quantum.build",
    "quantum.random_mixed_state": "quantum.build",
    "quantum.random_povm": "quantum.build",
    "quantum.projective_povm": "quantum.build",
    "quantum.uneven_povm": "quantum.build",
    "quantum.quantum_probe": "quantum.build",
    "classical.map": "classical.map",
    "classical.cells": "classical.cells",
    "classical.block": "classical.block",
    "classical.decorrelation_audit": "classical.audit",
    "bench.load_scenario": "bench.load",
    "bench.run_scenario": "bench.run",
    "bench.emit_report": "bench.emit",
}

# one complex multiply-add (8 real flops) per (time, outcome, n, m) term of
# the quantum_probe contraction p_j(t) = sum_nm coeff[j,n,m] u[t,n] conj(u[t,m])
FLOPS_PER_TERM = 8


class Tracer:
    """Span recorder plus the counters kept at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("h")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.current_item = -1
        self._stack: list[int] = []
        # per probe: the time arrays its sample block was asked for
        self.block_times: list[list[np.ndarray]] = []

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self.current_item)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(self._nid(name))
        try:
            yield
        finally:
            self._close(idx)

    @contextlib.contextmanager
    def item_span(self, item: int):
        self.current_item = item
        try:
            with self.span("item"):
                yield
        finally:
            self.current_item = -1

    def wrap(self, fn, name: str, count=None):
        """``fn`` inside a span named ``name``; ``count(args, result)`` runs
        after the span closes."""
        nid = self._nid(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(args, result)
            return result

        return wrapper

    # --- wrapping the callables inside returned objects -------------------

    def traced_probe(self, probe, span: str, flops_per_time: int = 0):
        """The probe with its ``sample_many`` block wrapped."""
        times_log: list[np.ndarray] = []
        self.block_times.append(times_log)
        counts = self.counts

        def count(args, result):
            m = len(args[0])
            counts["core.sample_blocks"] += 1
            counts["core.samples"] += m
            counts[f"{span}_calls"] += 1
            counts[f"{span}_flops"] += m * flops_per_time
            times_log.append(args[0])

        return dataclasses.replace(
            probe, sample_many=self.wrap(probe.sample_many, span, count)
        )

    def traced_map(self, mapping):
        counts = self.counts

        def count(args, result):
            counts["classical.map_calls"] += 1
            counts["classical.map_points"] += len(args[0])

        return dataclasses.replace(
            mapping, forward_many=self.wrap(mapping.forward_many, "classical.map", count)
        )

    def traced_partition(self, partition):
        counts = self.counts

        def count(args, result):
            counts["classical.cells_calls"] += 1
            counts["classical.cells_points"] += len(args[0])

        return dataclasses.replace(
            partition,
            cells_of_many=self.wrap(partition.cells_of_many, "classical.cells", count),
        )

    # --- results ------------------------------------------------------------

    def distinct_samples(self) -> int:
        """Distinct (probe, time) pairs over every sample block requested."""
        return sum(
            np.unique(np.concatenate(log)).size for log in self.block_times if log
        )

    def layer_times(self) -> dict[str, float]:
        """Per-layer inclusive time, and self time under ``<layer>.self``."""
        n = len(self.start)
        if n == 0:
            return {}
        names = np.frombuffer(self.name_id, dtype=np.int16)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        layer_id = {layer: k for k, layer in enumerate(sorted(set(LAYER_OF.values())))}
        layer_of_name = np.array([layer_id[LAYER_OF[nm]] for nm in self.names])
        layer = layer_of_name[names]
        outermost = ~has_parent | (layer[np.where(has_parent, parent, 0)] != layer)
        total = np.bincount(layer[outermost], weights=dur[outermost], minlength=len(layer_id))
        selfs = np.bincount(layer, weights=self_time, minlength=len(layer_id))
        out = {}
        for name, k in layer_id.items():
            out[name] = float(total[k])
            out[f"{name}.self"] = float(selfs[k])
        return out

    def save(self, path) -> None:
        """Write every span as flat arrays (name table, ids, times, parents)."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            item=np.frombuffer(self.item, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


@contextlib.contextmanager
def _swapped(patches):
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
    try:
        for obj, attr, value in patches:
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)


def patched(tracer: Tracer):
    """Context manager that routes every traced boundary through ``tracer``.

    Functions are replaced on the module that defines them, so calls made
    inside the package through module globals (``max_gap_degeneracy`` ->
    ``gap_table``, ``map_from_config`` -> ``cat_map``) and through module
    attributes (``bench`` -> ``quantum.quantum_probe``, ``cli`` ->
    ``bench.run_scenario``) are all traced. ``equilib.bench`` imported some
    core names into its own namespace; those are replaced there as well.
    """
    from equilib import bench, classical, core, quantum

    t = tracer
    counts = t.counts
    patches = []

    def add(module, attr, fn):
        patches.append((module, attr, fn))

    # core estimators, also where bench imported them by name
    for fname in ("time_average_distribution", "average_distinguishability",
                  "equilibration_report"):
        wrapped = t.wrap(getattr(core, fname), f"core.{fname}")
        add(core, fname, wrapped)
        if hasattr(bench, fname):
            add(bench, fname, wrapped)

    def probe_count(args, result):
        counts["probe_builds"] += 1

    # quantum: samplers, probe construction (wrapping the returned block),
    # and gap tables
    for fname in ("random_spectrum", "random_pure_state", "random_mixed_state",
                  "random_povm", "projective_povm", "uneven_povm"):
        add(quantum, fname, t.wrap(getattr(quantum, fname), f"quantum.{fname}"))

    build_quantum_probe = t.wrap(quantum.quantum_probe, "quantum.quantum_probe", probe_count)

    def quantum_probe(rho, spectrum, povm):
        flops = FLOPS_PER_TERM * povm.outcome_count * spectrum.dim**2
        return t.traced_probe(build_quantum_probe(rho, spectrum, povm), "quantum.block", flops)

    add(quantum, "quantum_probe", quantum_probe)

    def gap_count(args, result):
        counts["quantum.gap_table_calls"] += 1

    add(quantum, "gap_table", t.wrap(quantum.gap_table, "quantum.gap_table", gap_count))

    def returning(original, adapt):
        """``original`` with ``adapt`` applied to what it returns."""
        return functools.wraps(original)(lambda *a, **k: adapt(original(*a, **k)))

    def built_probe(span):
        def adapt(probe):
            counts["probe_builds"] += 1
            return t.traced_probe(probe, span)
        return adapt

    # classical: catalogue maps and partitions come back with wrapped
    # array callables; probes come back with a wrapped sample block
    for fname in ("rotation_map", "cat_map", "baker_map"):
        add(classical, fname, returning(getattr(classical, fname), t.traced_map))
    for fname in ("interval_partition", "grid_partition"):
        add(classical, fname, returning(getattr(classical, fname), t.traced_partition))
    for fname in ("classical_probe", "ensemble_probe"):
        add(classical, fname,
            returning(getattr(classical, fname), built_probe("classical.block")))
    add(classical, "decorrelation_audit",
        t.wrap(classical.decorrelation_audit, "classical.decorrelation_audit"))
    # synthetic probes are built by bench from its own import of the name
    add(bench, "synthetic_probe", returning(bench.synthetic_probe, built_probe("core.block")))

    # bench entry points, reached by cli through the module attribute
    def record_count(args, result):
        counts["bench.records"] += len(result)

    add(bench, "load_scenario", t.wrap(bench.load_scenario, "bench.load_scenario"))
    add(bench, "run_scenario", t.wrap(bench.run_scenario, "bench.run_scenario", record_count))
    add(bench, "emit_report", t.wrap(bench.emit_report, "bench.emit_report"))
    return _swapped(patches)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times in seconds)."""
    times = tracer.layer_times()
    c = tracer.counts

    def t(name):
        return times.get(name, 0.0)

    samples = c["core.samples"]
    distinct = tracer.distinct_samples()
    block_s = t("quantum.block")
    records = c["bench.records"]
    return {
        "core.estimate_s": t("core.estimate.self"),
        "core.sample_blocks": c["core.sample_blocks"],
        "core.samples": samples,
        "core.samples_per_needed": samples / distinct if distinct else 0.0,
        "quantum.block_s": block_s,
        "quantum.block_calls": c["quantum.block_calls"],
        "quantum.block_gflops": c["quantum.block_flops"] / block_s / 1e9 if block_s else 0.0,
        "quantum.gap_table_s": t("quantum.gap_table"),
        "quantum.gap_table_calls": c["quantum.gap_table_calls"],
        "quantum.build_s": t("quantum.build"),
        "classical.map_calls": c["classical.map_calls"],
        "classical.map_points": c["classical.map_points"],
        "classical.map_s": t("classical.map"),
        "classical.cells_calls": c["classical.cells_calls"],
        "classical.cells_points": c["classical.cells_points"],
        "classical.cells_s": t("classical.cells"),
        "classical.block_s": t("classical.block"),
        "classical.audit_s": t("classical.audit"),
        "bench.load_s": t("bench.load"),
        "bench.run_s": t("bench.run.self"),
        "bench.emit_s": t("bench.emit"),
        "bench.builds_per_record": c["probe_builds"] / records if records else 0.0,
        "cli.verify_s": t("cli.verify"),
        "trace.spans": len(tracer.start),
    }
