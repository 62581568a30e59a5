"""Scenario loading, the sweep runner, report emission and the CLI."""

import copy
import csv
import dataclasses
import functools
import inspect
import json
import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from equilib import bench, classical, cli, core, quantum
from equilib.bench import (
    BOUND_NAMES,
    CSV_COLUMNS,
    BoundCheck,
    RunRecord,
    STATUS_NA,
    STATUS_SATISFIED,
    STATUS_VIOLATED,
    any_violation,
    builtin_scenarios,
    emit_report,
    load_records,
    load_scenario,
    run_scenario,
)
from equilib.core import (
    MAX_SAMPLES,
    ConfigError,
    EquilibrationReport,
    OutcomeDistribution,
    check_sufficiency,
)


def qubit_config(**overrides):
    plus = {"rows": 2, "cols": 2, "data": [[0.5, 0.0]] * 4}
    minus = {
        "rows": 2,
        "cols": 2,
        "data": [[0.5, 0.0], [-0.5, 0.0], [-0.5, 0.0], [0.5, 0.0]],
    }
    cfg = {
        "name": "qubit",
        "kind": "quantum",
        "epsilon": 0.35,
        "average": {"horizon": "auto", "samples": 4000, "seed": 11},
        "system": {"hamiltonian": {"eigenvalues": [0.0, 1.0]}, "state": {"matrix": plus}},
        "measurement": {"povm": [plus, minus]},
    }
    cfg.update(overrides)
    return cfg


def synthetic_config(**overrides):
    cfg = {
        "name": "synthetic",
        "kind": "synthetic-probe",
        "epsilon": 0.5,
        "average": {"horizon": 100.0, "samples": 400, "seed": 3},
        "system": {"probe": {"outcomes": 3, "seed": 5}},
    }
    cfg.update(overrides)
    return cfg


def sampled_quantum_config():
    return {
        "name": "sampled",
        "kind": "quantum",
        "epsilon": 0.4,
        "average": {"horizon": "auto", "samples": 200, "seed": 5},
        "system": {"sampler": {"dim": 8, "seed": 21}},
        "measurement": {"sampler": {"name": "projective", "outcomes": 3, "seed": 22}},
    }


def ensemble_config():
    return {
        "name": "ensemble",
        "kind": "classical-ensemble",
        "epsilon": 0.4,
        "average": {"horizon": 64, "samples": 64, "scheme": "uniform-grid"},
        "system": {
            "map": {"name": "cat-map"},
            "ensemble": {"sampler": {"count": 100, "delta": 0.1, "seed": 4, "lattice": 4}},
        },
        "measurement": {
            "partition": {"kind": "grid", "edges": [[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]]}
        },
    }


def explicit_quantum_config():
    """The qubit scenario with its Hamiltonian as a matrix and its state as a
    vector."""
    cfg = qubit_config(name="qubit-matrix-vector")
    cfg["system"] = {
        "hamiltonian": {"matrix": {"rows": 2, "cols": 2,
                                   "data": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}},
        "state": {"vector": [[0.6, 0.0], [0.8, 0.0]]},
    }
    return cfg


def eigenbasis_quantum_config():
    """The qubit scenario with an explicit eigenvector matrix."""
    cfg = qubit_config(name="qubit-eigenbasis")
    cfg["system"]["hamiltonian"]["eigenvectors"] = {
        "rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}
    return cfg


def explicit_ensemble_config():
    cfg = ensemble_config()
    cfg["name"] = "ensemble-explicit"
    cfg["system"]["ensemble"] = {"points": [[0.1, 0.2], [0.6, 0.7], [0.25, 0.5]],
                                 "weights": [0.25, 0.25, 0.5],
                                 "chaotic_flags": [True, True, False]}
    return cfg


def with_leaf(cfg: dict, keys: tuple, value) -> dict:
    """A copy of ``cfg`` with the value at the key path ``keys`` replaced."""
    cfg = copy.deepcopy(cfg)
    node = cfg
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return cfg


def leaves(node, keys: tuple = ()):
    """Every scalar in a JSON tree, with its key path."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield from leaves(value, keys + (key,))
    else:
        yield keys, node


def subtrees(node, keys: tuple = ()):
    """Every value below a JSON object or list, list entries included, with
    its key path."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield keys + (key,), value
        if isinstance(value, (dict, list)):
            yield from subtrees(value, keys + (key,))


def config_path(keys: tuple) -> str:
    """The path a ConfigError names for the key path ``keys``."""
    return "scenario" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)


def diagonal(values, cols: int | None = None) -> dict:
    """A matrix node of ``len(values)`` rows and ``cols`` columns (as many as
    rows by default) holding ``values`` on its diagonal."""
    rows = len(values)
    cols = rows if cols is None else cols
    data = [[values[r] if r == c else 0.0, 0.0] for r in range(rows) for c in range(cols)]
    return {"rows": rows, "cols": cols, "data": data}


def classical_pure_config() -> dict:
    return {
        "kind": "classical-pure",
        "epsilon": 0.1,
        "average": {"horizon": 64, "samples": 64, "scheme": "uniform-grid"},
        "system": {"map": {"name": "cat-map"}, "point": [0.2, 0.6]},
        "measurement": {"partition": {"kind": "grid",
                                      "edges": [[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]]}},
    }


def rotation_config() -> dict:
    """A circle rotation measured on two intervals."""
    return {
        "kind": "classical-pure",
        "epsilon": 0.2,
        "average": {"horizon": 64, "samples": 64, "scheme": "uniform-grid"},
        "system": {"map": {"name": "rotation", "angles": [0.25]}, "point": [0.2]},
        "measurement": {"partition": {"kind": "interval", "edges": [0.0, 0.5, 1.0]}},
    }


# every integer field of the scenario samplers, and the counts read beside
# them, with a valid value
INTEGER_FIELDS = [
    (sampled_quantum_config, "system.sampler.dim", 8),
    (sampled_quantum_config, "system.sampler.seed", 21),
    (sampled_quantum_config, "measurement.sampler.outcomes", 3),
    (sampled_quantum_config, "measurement.sampler.seed", 22),
    (ensemble_config, "system.ensemble.sampler.count", 100),
    (ensemble_config, "system.ensemble.sampler.seed", 4),
    (ensemble_config, "system.ensemble.sampler.lattice", 4),
    (synthetic_config, "system.probe.outcomes", 3),
    (synthetic_config, "system.probe.seed", 5),
    (synthetic_config, "system.probe.mode_count", 3),
    (synthetic_config, "average.samples", 400),
    (synthetic_config, "average.seed", 3),
    # the library refuses a float lattice; a JSON 8.0 is read as 8 on the way
    (classical_pure_config, "system.map.lattice", 8),
    (explicit_quantum_config, "system.hamiltonian.matrix.rows", 2),
    (explicit_quantum_config, "system.hamiltonian.matrix.cols", 2),
]


# every numeric array field of a scenario: the config it sits in, the key
# path of one of its entries, and the field's full dotted path
NUMERIC_FIELDS = [
    (qubit_config, ("system", "hamiltonian", "eigenvalues", 1),
     "scenario.system.hamiltonian.eigenvalues"),
    (eigenbasis_quantum_config, ("system", "hamiltonian", "eigenvectors", "data", 0, 0),
     "scenario.system.hamiltonian.eigenvectors.data"),
    (explicit_quantum_config, ("system", "hamiltonian", "matrix", "data", 3, 0),
     "scenario.system.hamiltonian.matrix.data"),
    (qubit_config, ("system", "state", "matrix", "data", 0, 1), "scenario.system.state.matrix.data"),
    (qubit_config, ("measurement", "povm", 1, "data", 1, 0), "scenario.measurement.povm[1].data"),
    (explicit_quantum_config, ("system", "state", "vector", 0, 0), "scenario.system.state.vector"),
    (rotation_config, ("system", "map", "angles", 0), "scenario.system.map.angles"),
    (rotation_config, ("measurement", "partition", "edges", 1),
     "scenario.measurement.partition.edges"),
    (classical_pure_config, ("measurement", "partition", "edges", 1, 1),
     "scenario.measurement.partition.edges"),
    (classical_pure_config, ("system", "point", 1), "scenario.system.point"),
    (explicit_ensemble_config, ("system", "ensemble", "points", 1, 0),
     "scenario.system.ensemble.points"),
    (explicit_ensemble_config, ("system", "ensemble", "weights", 2),
     "scenario.system.ensemble.weights"),
    (explicit_ensemble_config, ("system", "ensemble", "chaotic_flags", 0),
     "scenario.system.ensemble.chaotic_flags"),
]
NUMERIC_FIELD_IDS = [f"{path}-{make.__name__}" for make, _, path in NUMERIC_FIELDS]


KIND_CONFIGS = [qubit_config, ensemble_config, synthetic_config, classical_pure_config]
KIND_IDS = ["quantum", "classical-ensemble", "synthetic-probe", "classical-pure"]


def edit_record(k: int, mutate):
    """A defect of a JSON report's text: ``mutate`` applied to record ``k``."""
    def defect(text):
        records = json.loads(text)
        mutate(records[k])
        return json.dumps(records)

    return defect


def thm5_record(bound: float) -> RunRecord:
    """A record whose mean, 0.3 with no error, checks against a spectral
    bound of ``bound``: violated below 0.3, satisfied from it on."""
    report = EquilibrationReport(0.3, 0.0, OutcomeDistribution([0.5, 0.5]), 0.35,
                                 {"thm5-spectral": bound})
    return RunRecord(scenario="s", params={"N": 2}, report=report, wall_time=0.0, seed=0)


def outputs(records) -> list:
    """The records as dicts, without their wall times."""
    return [{k: v for k, v in r.to_dict().items() if k != "wall_time"} for r in records]


def count_gap_tables(monkeypatch) -> list:
    """Record the tolerance of every gap table built from now on."""
    calls = []
    original = quantum.gap_table

    def counting(spectrum, gap_tol=None):
        calls.append(gap_tol)
        return original(spectrum, gap_tol)

    monkeypatch.setattr(quantum, "gap_table", counting)
    return calls


def count_builds(monkeypatch) -> list:
    """Record the kind of every sweep-point build from now on."""
    calls = []
    for kind, original in list(bench._BUILDERS.items()):
        def counting(cfg, epsilon, kind=kind, original=original):
            calls.append(kind)
            return original(cfg, epsilon)

        monkeypatch.setitem(bench._BUILDERS, kind, counting)
    return calls


class TestLoadScenario:
    def test_missing_fields_report_paths(self):
        with pytest.raises(ConfigError, match="scenario.kind"):
            load_scenario({"epsilon": 0.1})
        with pytest.raises(ConfigError, match="scenario.epsilon"):
            load_scenario({"kind": "quantum"})
        with pytest.raises(ConfigError, match="scenario.system"):
            load_scenario({"kind": "quantum", "epsilon": 0.1, "average": {}})

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="scenario.kind"):
            load_scenario({"kind": "acoustic", "epsilon": 0.1})

    @pytest.mark.parametrize(
        "kinds", [["synthetic-probe", "acoustic"], ["quantum"]], ids=["unknown", "other-kind"]
    )
    def test_kind_cannot_be_swept(self, kinds):
        with pytest.raises(ConfigError, match=r"scenario\.sweep\.kind"):
            load_scenario(synthetic_config(sweep={"kind": kinds}))

    def test_name_must_be_a_string(self, tmp_path):
        with pytest.raises(ConfigError, match=r"scenario\.name"):
            load_scenario(synthetic_config(name=5))
        cfg = synthetic_config()
        del cfg["name"]
        path = tmp_path / "from-stem.json"
        path.write_text(json.dumps(cfg))
        assert load_scenario(path).name == "from-stem"
        assert load_scenario(cfg).name == "scenario"

    # 1e308 passes as a number, but the top level 7e308 of the 8-level
    # ladder overflows
    @pytest.mark.parametrize("spacing", ["wide", 0.0, -1.0, float("inf"), 1e308])
    def test_bad_spacing_names_its_path(self, spacing):
        cfg = sampled_quantum_config()
        cfg["system"]["sampler"].update(spectrum="equally-spaced", spacing=spacing)
        with pytest.raises(ConfigError, match=r"scenario\.system\.sampler\.spacing"):
            load_scenario(cfg)

    def test_gaps_beyond_the_double_range_load_quietly(self):
        # the gaps are +-1e308, so the difference of the sorted pair is inf
        cfg = sampled_quantum_config()
        cfg["system"]["sampler"].update(dim=2, spectrum="equally-spaced", spacing=1e308)
        cfg["measurement"]["sampler"]["outcomes"] = 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rt, _ = load_scenario(cfg).built[0]
        assert rt.params["D_G"] == 1
        assert rt.params["D_G_sensitivity"] == {"0.1x": 1, "1x": 1, "10x": 1}

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_state_vector_beyond_a_representable_norm_loads(self, scale):
        def built(vector):
            cfg = explicit_quantum_config()
            cfg["system"]["state"] = {"vector": [[x, 0.0] for x in vector]}
            return load_scenario(cfg).built[0][0]

        rt, plus = built([scale, scale]), built([1.0, 1.0])
        times = np.linspace(0.0, 10.0, 7)
        assert rt.params == plus.params
        drift = rt.probe.distributions_at(times) - plus.probe.distributions_at(times)
        assert np.abs(drift).max() < 1e-15

    @pytest.mark.parametrize("dim", [0, -2])
    def test_sampler_dim_below_one_names_its_path(self, dim):
        cfg = sampled_quantum_config()
        cfg["system"]["sampler"]["dim"] = dim
        message = r"scenario\.system\.sampler\.dim: dim must be an integer >= 1"
        with pytest.raises(ConfigError, match=message):
            load_scenario(cfg)

    def test_spacing_scales_the_ladder(self):
        cfg = sampled_quantum_config()
        cfg["system"]["sampler"].update(spectrum="equally-spaced")
        for spacing in (1.0, 2.5):
            cfg["system"]["sampler"]["spacing"] = spacing
            rt, _ = load_scenario(cfg).built[0]
            assert rt.params["gap_tolerance"] == pytest.approx(
                quantum.GAP_REL_TOL * 7 * spacing
            )
            assert rt.params["D_G"] == 7

    def test_bad_matrix_payload(self):
        cfg = qubit_config()
        cfg["system"]["state"]["matrix"]["data"] = [[0.5, 0.0]] * 3
        with pytest.raises(ConfigError, match="state.matrix.data"):
            load_scenario(cfg)

    def test_inconsistent_dimensions(self):
        cfg = qubit_config()
        cfg["system"]["hamiltonian"] = {"eigenvalues": [0.0, 1.0, 2.0]}
        with pytest.raises(ConfigError, match="dimensions"):
            load_scenario(cfg)

    def test_bad_average(self):
        cfg = synthetic_config(average={"horizon": -1.0, "samples": 100})
        with pytest.raises(ConfigError, match="scenario.average"):
            load_scenario(cfg)

    def test_string_seed_names_its_path(self):
        cfg = synthetic_config(average={"horizon": 100.0, "samples": 400, "seed": "abc"})
        with pytest.raises(ConfigError, match=r"scenario\.average\.seed"):
            load_scenario(cfg)

    def test_fractional_samples_name_their_path(self):
        cfg = synthetic_config(average={"horizon": 100.0, "samples": 64.9, "seed": 3})
        with pytest.raises(ConfigError, match=r"scenario\.average\.samples"):
            load_scenario(cfg)
        # an integral float is an integer count
        cfg["average"]["samples"] = 64.0
        assert run_scenario(load_scenario(cfg))[0].error is None

    def test_sample_count_cap_names_its_path(self):
        for samples in (MAX_SAMPLES + 1, 10**15):
            with pytest.raises(ConfigError, match=r"^scenario\.average\.samples: "):
                load_scenario(synthetic_config(), overrides={"average.samples": samples})
        # the cap itself loads (and is not run here)
        scenario = load_scenario(synthetic_config(), overrides={"average.samples": MAX_SAMPLES})
        assert scenario.built[0][0].cfg.samples == MAX_SAMPLES

    @pytest.mark.parametrize(
        "make, field, value", INTEGER_FIELDS, ids=[f for _, f, _ in INTEGER_FIELDS]
    )
    def test_integer_field_names_its_path(self, make, field, value):
        for bad in (value + 0.9, str(value)):
            with pytest.raises(ConfigError, match=r"scenario\." + field.replace(".", r"\.")):
                load_scenario(make(), overrides={field: bad})
        # an integral float is an integer
        assert load_scenario(make(), overrides={field: float(value)})

    @pytest.mark.parametrize(
        "gap_tol", ["abc", True, -1.0, math.nan, math.inf],
        ids=["string", "boolean", "negative", "nan", "inf"],
    )
    def test_bad_gap_tol_names_its_path(self, gap_tol):
        cfg = qubit_config(gap_tol=gap_tol)
        with pytest.raises(ConfigError, match=r"scenario\.gap_tol"):
            load_scenario(cfg)

    @pytest.mark.parametrize("field", ["amplitude", "dominant_weight"])
    def test_synthetic_probe_number_names_its_path(self, field):
        for bad in ("big", True):
            cfg = synthetic_config()
            cfg["system"]["probe"][field] = bad
            with pytest.raises(ConfigError, match=r"scenario\.system\.probe\." + field):
                load_scenario(cfg)
        cfg["system"]["probe"][field] = 0.5
        assert load_scenario(cfg)

    def test_unexpected_build_error_surfaces_at_load(self, monkeypatch):
        # only the numeric failures run_scenario records are deferred
        def broken(cfg, epsilon):
            raise TypeError("not a numeric failure")

        monkeypatch.setitem(bench._BUILDERS, "synthetic-probe", broken)
        with pytest.raises(TypeError, match="not a numeric failure"):
            load_scenario(synthetic_config())

    def test_boolean_epsilon_in_sweep_rejected(self):
        cfg = synthetic_config(sweep={"epsilon": [0.3, False]})
        with pytest.raises(ConfigError, match=r"scenario\.epsilon"):
            load_scenario(cfg)

    def test_only_built_epsilons_are_checked(self):
        # every point sets its own epsilon, so the base's is never built
        scenario = load_scenario(synthetic_config(epsilon=2.0, sweep={"epsilon": [0.1, 0.2]}))
        assert [rt.epsilon for rt, _ in scenario.built] == [0.1, 0.2]
        # an empty grid and a scenario without a sweep build the base
        for sweep in ({"sweep": {"epsilon": []}}, {}):
            with pytest.raises(ConfigError,
                               match=r"scenario\.epsilon: epsilon must lie in \[0, 1\)"):
                load_scenario(synthetic_config(epsilon=2.0, **sweep))

    @pytest.mark.parametrize("config", KIND_CONFIGS, ids=KIND_IDS)
    def test_integral_epsilon_records_as_a_float(self, config):
        records = []
        for epsilon in (0, 0.0):
            cfg = config()
            cfg["epsilon"] = epsilon
            scenario = load_scenario(cfg)
            assert type(scenario.built[0][0].epsilon) is float
            records.append(json.dumps(outputs(run_scenario(scenario))))
        assert records[0] == records[1]

    @pytest.mark.parametrize("config", KIND_CONFIGS, ids=KIND_IDS)
    def test_swept_integral_epsilon_records_as_a_float(self, config):
        # the record's params hold the float each point was built with
        records = []
        for epsilon in (0, 0.0):
            cfg = config()
            cfg["sweep"] = {"epsilon": [epsilon]}
            (record,) = run_scenario(load_scenario(cfg))
            assert type(record.params["epsilon"]) is float
            records.append(json.dumps(outputs([record])))
        assert records[0] == records[1]

    @pytest.mark.parametrize(
        "partition",
        [
            {"kind": "interval", "edges": [0.0, 0.5, 1.0]},
            {"kind": "grid", "edges": [[0.0, 0.5, 1.0]]},
        ],
        ids=["interval", "1-d grid"],
    )
    def test_partition_dimension_checked_at_load(self, partition):
        cfg = {
            "kind": "classical-pure",
            "epsilon": 0.2,
            "average": {"horizon": 64, "samples": 64, "scheme": "uniform-grid"},
            "system": {"map": {"name": "cat-map"}, "point": [0.2, 0.6]},
            "measurement": {"partition": partition},
        }
        with pytest.raises(ConfigError, match=r"scenario\.measurement\.partition"):
            load_scenario(cfg)

    @pytest.mark.parametrize(
        "map_cfg, field",
        [
            ({"name": "rotation", "angles": [math.nan]}, "angles"),
            ({"name": "rotation", "angles": [math.inf]}, "angles"),
            ({"name": "rotation", "angles": ["0.25"]}, "angles"),
            ({"name": "cat-map", "lattice": "4"}, "lattice"),
            ({"name": "cat-map", "lattice": 2.5}, "lattice"),
            ({"name": "cat-map", "lattice": 0}, "lattice"),
            ({"name": "cat-map", "lattice": True}, "lattice"),
            # numpy would promote the boolean to 1.0
            ({"name": "rotation", "angles": [0.25, True]}, "angles"),
            # above 2**52 lattice orbits are no longer exact; 2**62 put points
            # at 1.0 and 2**63 raised a bare OverflowError while sampling
            ({"name": "cat-map", "lattice": 2**52 + 1}, "lattice"),
            ({"name": "cat-map", "lattice": 2**62}, "lattice"),
            ({"name": "cat-map", "lattice": 2**63}, "lattice"),
        ],
    )
    def test_bad_map_fields_name_their_path(self, map_cfg, field):
        # a NaN angle used to step a NaN orbit and report `equilibrates`
        dim = 1 if map_cfg["name"] == "rotation" else 2
        cfg = {
            "kind": "classical-pure",
            "epsilon": 0.2,
            "average": {"horizon": 64, "samples": 64, "scheme": "uniform-grid"},
            "system": {"map": map_cfg, "point": [0.2, 0.6][:dim]},
            "measurement": {"partition": {"kind": "grid", "edges": [[0.0, 0.5, 1.0]] * dim}},
        }
        with pytest.raises(ConfigError, match=rf"scenario\.system\.map\.{field}: "):
            load_scenario(cfg)

    @pytest.mark.parametrize(
        "edges",
        [[0.0, math.nan, 1.0], ["0", "0.5", "1"], [0.0, 0.5, 0.5, 1.0], 0.5, [0.0, 0.5, True]],
        ids=["nan", "strings", "repeated", "number", "boolean"],
    )
    @pytest.mark.parametrize("kind", ["interval", "grid"])
    def test_bad_partition_edges_name_their_path(self, kind, edges):
        # [0.0, NaN, 1.0] used to load and report `equilibrates` with omega [1, 0]
        cfg = {
            "kind": "classical-pure",
            "epsilon": 0.2,
            "average": {"horizon": 64, "samples": 64, "scheme": "uniform-grid"},
            "system": {"map": {"name": "rotation", "angles": [0.25]}, "point": [0.2]},
            "measurement": {
                "partition": {"kind": kind, "edges": edges if kind == "interval" else [edges]}
            },
        }
        with pytest.raises(ConfigError, match=r"scenario\.measurement\.partition\.edges: "):
            load_scenario(cfg)

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_non_finite_point_names_its_path(self, tmp_path, bad):
        cfg = {
            "kind": "classical-pure",
            "epsilon": 0.2,
            "average": {"horizon": 64, "samples": 64, "scheme": "uniform-grid"},
            "system": {"map": {"name": "cat-map"}, "point": [0.2, 0.6]},
            "measurement": {"partition": {"kind": "grid", "edges": [[0.0, 1.0], [0.0, 1.0]]}},
        }
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(cfg).replace("0.2, 0.6", f"{bad}, 0.6"))
        with pytest.raises(ConfigError, match=r"scenario\.system\.point: .*finite"):
            load_scenario(path)

    @pytest.mark.parametrize("point", [["0.2", "0.6"], [True, 0.6]], ids=["strings", "boolean"])
    def test_non_number_point_names_its_path(self, point):
        # unchecked, these would run as the point (0.2, 0.6) and (0.0, 0.6)
        cfg = {
            "kind": "classical-pure",
            "epsilon": 0.2,
            "average": {"horizon": 64, "samples": 64, "scheme": "uniform-grid"},
            "system": {"map": {"name": "cat-map"}, "point": point},
            "measurement": {"partition": {"kind": "grid", "edges": [[0.0, 1.0], [0.0, 1.0]]}},
        }
        with pytest.raises(ConfigError, match=r"scenario\.system\.point: .*numbers"):
            load_scenario(cfg)

    @pytest.mark.parametrize(
        "field, path",
        [
            ("state", r"scenario\.system\.state\.matrix\.data"),
            ("vector", r"scenario\.system\.state\.vector"),
            ("povm", r"scenario\.measurement\.povm\[0\]\.data"),
            ("eigenvectors", r"scenario\.system\.hamiltonian\.eigenvectors\.data"),
            ("hamiltonian", r"scenario\.system\.hamiltonian\.matrix\.data"),
        ],
        ids=["state", "vector", "povm", "eigenvectors", "hamiltonian"],
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_quantum_matrix_names_its_path(self, field, path, bad):
        # a NaN passes every `> tol` check; unchecked, these would load and
        # then fail as "probe produced non-finite probabilities"
        def matrix(data):
            return {"rows": 2, "cols": 2, "data": data}

        tainted = matrix([[0.5, 0.0], [bad, 0.0], [bad, 0.0], [0.5, 0.0]])
        cfg = qubit_config()
        if field == "state":
            cfg["system"]["state"] = {"matrix": tainted}
        elif field == "vector":
            cfg["system"]["state"] = {"vector": [[bad, 0.0], [1.0, 0.0]]}
        elif field == "povm":
            cfg["measurement"]["povm"][0] = tainted
        elif field == "eigenvectors":
            cfg["system"]["hamiltonian"]["eigenvectors"] = matrix(
                [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [bad, 0.0]])
        else:
            cfg["system"]["hamiltonian"] = {"matrix": tainted}
        with pytest.raises(ConfigError, match="^" + path + ": .*non-finite"):
            load_scenario(cfg)

    @pytest.mark.parametrize(
        "field, path",
        [("state", r"scenario\.system\.state"), ("povm", r"scenario\.measurement\.povm")],
    )
    def test_non_psd_quantum_matrix_names_its_path(self, field, path):
        # file matrices keep the eigenvalue check that sampler outputs skip
        def diag(a, b):
            return {"rows": 2, "cols": 2, "data": [[a, 0.0], [0.0, 0.0], [0.0, 0.0], [b, 0.0]]}

        cfg = qubit_config()
        if field == "state":
            cfg["system"]["state"] = {"matrix": diag(1.5, -0.5)}
        else:
            # each element has a negative eigenvalue; together they sum to I
            cfg["measurement"]["povm"] = [diag(1.5, -0.5), diag(-0.5, 1.5)]
        with pytest.raises(ConfigError, match=path + ": .*(negative eigenvalue|not positive)"):
            load_scenario(cfg)

    @pytest.mark.parametrize(
        "config, calls", [(sampled_quantum_config, 0), (qubit_config, 3)], ids=["sampler", "file"]
    )
    def test_only_file_matrices_run_the_eigenvalue_check(self, monkeypatch, config, calls):
        # the qubit config reads one state and two POVM elements from the file
        counted = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            counted.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        cfg = config()
        if config is sampled_quantum_config:
            # only the uneven sampler reads a leak, so it alone is given one
            sampler = cfg["measurement"]["sampler"]
            cfg["sweep"] = {
                "system.sampler.state": ["pure", "mixed"],
                "measurement.sampler": [{**sampler, "name": "random"},
                                        {**sampler, "name": "projective"},
                                        {**sampler, "name": "uneven", "leak": 0.2}],
            }
        built = load_scenario(cfg).built
        assert all(isinstance(rt, bench._Runtime) for rt, _ in built)
        assert len(counted) == calls

    @pytest.mark.parametrize("field", ["points", "weights"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_ensemble_names_its_path(self, field, bad):
        points, weights = [[0.1, 0.2], [0.6, 0.7]], [0.5, 0.5]
        if field == "points":
            points[0][0] = bad
        else:
            weights[0] = bad
        cfg = ensemble_config()
        cfg["system"]["ensemble"] = {"points": points, "weights": weights}
        with pytest.raises(ConfigError,
                           match=rf"^scenario\.system\.ensemble\.{field}: .*non-finite"):
            load_scenario(cfg)

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("chaotic_flags", ["false", "false"]),
            ("chaotic_flags", [1, 0]),
            ("weights", ["0.5", "0.5"]),
            ("weights", [0.5, True]),
            ("points", [["0.1", "0.2"], [0.6, 0.7]]),
            ("points", [[0.1], [0.6, 0.7]]),
        ],
    )
    def test_ensemble_field_types_name_their_path(self, field, bad):
        ensemble = {"points": [[0.1, 0.2], [0.6, 0.7]], "weights": [0.5, 0.5],
                    "chaotic_flags": [False, False]}
        ensemble[field] = bad
        cfg = ensemble_config()
        cfg["system"]["ensemble"] = ensemble
        what = "booleans" if field == "chaotic_flags" else "numbers"
        with pytest.raises(
            ConfigError, match=rf"^scenario\.system\.ensemble\.{field}: {field} must be {what}, got "
        ):
            load_scenario(cfg)

    @pytest.mark.parametrize(
        "field, bad",
        [("count", 0), ("count", -5), ("delta", -0.1), ("delta", 1.5), ("delta", math.nan),
         *[("lattice", q) for q in (0, -3, 1, 3, 6, 2**52, 2**64)]],
    )
    def test_bad_sampler_fields_name_their_path(self, field, bad):
        # lattice 0 and -3 used to fail as `scenario.system.ensemble: high <= 0`;
        # 1, 3 and 5 loaded, with every periodic point at the origin or
        # drifting off its lattice
        path = f"system.ensemble.sampler.{field}"
        message = {"count": "count must be an integer >= 1",
                   "delta": r"(delta must lie in \[0, 1\]|delta must be a finite number)",
                   "lattice": "lattice must be a power of two"}[field]
        with pytest.raises(ConfigError,
                           match=r"scenario\." + path.replace(".", r"\.") + ": " + message):
            load_scenario(ensemble_config(), overrides={path: bad})

    @pytest.mark.parametrize("lattice", [2, 4, 2**51])
    def test_sampler_lattices_up_to_2_to_the_51_load(self, lattice):
        scenario = load_scenario(
            ensemble_config(), overrides={"system.ensemble.sampler.lattice": lattice})
        assert scenario.built[0][0].params["delta"] == pytest.approx(0.1)

    def test_false_flags_put_every_point_outside_the_chaotic_subspace(self):
        cfg = ensemble_config()
        cfg["system"]["ensemble"] = {"points": [[0.1, 0.2], [0.6, 0.7]],
                                     "chaotic_flags": [False, False]}
        rec = run_scenario(load_scenario(cfg))[0]
        assert rec.params["delta"] == 1.0
        assert rec.bounds["thm3-mixing"].status == STATUS_NA

    def test_overrides_sit_under_the_sweep_grid(self):
        cfg = synthetic_config(sweep={"average.seed": [1, 2]})
        before = copy.deepcopy(cfg)
        scenario = load_scenario(cfg, overrides={"average.seed": 9, "average.samples": 100})
        assert cfg == before
        assert [rt.cfg.seed for rt, _ in scenario.built] == [1, 2]
        assert [rt.cfg.samples for rt, _ in scenario.built] == [100, 100]

    def test_auto_horizon_only_quantum(self):
        cfg = synthetic_config(average={"horizon": "auto", "samples": 100})
        with pytest.raises(ConfigError, match="horizon"):
            load_scenario(cfg)

    @pytest.mark.parametrize("average", [{"horizon": "auto", "samples": 100}, {"samples": 100}],
                             ids=["auto", "default"])
    def test_auto_horizon_that_overflows_names_the_horizon(self, average):
        # 1000 periods of a subnormal smallest gap pass the largest double
        cfg = qubit_config(average=average)
        cfg["system"]["hamiltonian"]["eigenvalues"] = [0.0, 5e-324]
        with pytest.raises(ConfigError,
                           match=r"^scenario\.average\.horizon: horizon must be a finite "
                                 r"number, got inf$"):
            load_scenario(cfg)

    @pytest.mark.parametrize("values", [
        [(0.25,), (0.3,)], [[0.25], (0.3,)], [[0.25], [math.nan]], [[0.25], [math.inf]],
        [[np.float64(0.25)]], [{1: 0.25}],
    ], ids=["tuples", "nested-tuple", "nan", "inf", "numpy-float", "integer-key"])
    def test_sweep_values_must_be_json_values(self, values):
        # a record holds its sweep values as given, and a non-JSON one would
        # read back unequal from its file
        cfg = rotation_config()
        cfg["sweep"] = {"system.map.angles": values}
        with pytest.raises(ConfigError, match=r"^scenario\.sweep\.system\.map\.angles: "):
            load_scenario(cfg)

    @pytest.mark.parametrize("path, message", [
        ("average.sampels", r"the build reads no such field; did you mean 'average\.samples'\?$"),
        ("system.map.lattice", r"the build reads no such field"),
        ("nam", r"the build reads no such field$"),
    ], ids=["misspelt", "another-kind", "unread-top-level"])
    def test_a_sweep_path_that_no_build_reads_fails(self, path, message):
        # each point ran the base config, and its params labelled it a sweep
        cfg = rotation_config()
        cfg["sweep"] = {path: [16, 32, 48]}
        with pytest.raises(ConfigError, match=rf"^scenario\.sweep\.{re.escape(path)}: {message}"):
            load_scenario(cfg)
        # a swept null means the field is absent
        cfg["sweep"] = {path: [None], "average.seed": [None, 3]}
        assert [rt.cfg.seed for rt, _ in load_scenario(cfg).built] == [0, 3]

    @pytest.mark.parametrize("config, keys, path, message", [
        (synthetic_config, ("averag",), "averag", r"unknown field; did you mean 'average'\?$"),
        (synthetic_config, ("system", "probe", "amplitud"), "system.probe.amplitud",
         r"unknown field; did you mean 'amplitude'\?$"),
        (rotation_config, ("system", "map", "lattice"), "system.map.lattice", r"unknown field$"),
        (qubit_config, ("measurement", "povm", 1, "note"), "measurement.povm[1].note",
         r"unknown field$"),
        # a key holding dots spells the path of a field the build reads
        (synthetic_config, ("system.probe.seed",), "system.probe.seed", r"unknown field$"),
    ], ids=["top-level", "nested", "another-kind", "in-a-list", "dotted-key"])
    def test_a_field_that_no_build_reads_fails(self, config, keys, path, message):
        # at the parent each of these loaded and ran as if it were absent
        cfg = config()
        *parents, key = keys
        target = cfg
        for part in parents:
            target = target[part]
        target[key] = {"horizon": 10.0} if key == "averag" else 1.5
        with pytest.raises(ConfigError, match=rf"^scenario\.{re.escape(path)}: {message}"):
            load_scenario(cfg)
        # every point of a sweep is checked
        cfg = synthetic_config(sweep={"epsilon": [0.4, 0.5]})
        cfg["system"]["probe"]["amplitud"] = 1.5
        with pytest.raises(ConfigError, match=r"^scenario\.system\.probe\.amplitud: "):
            load_scenario(cfg)
        # a key that holds dots is no path that a sweep or an override spares,
        # though its text spells one: under either it loaded one point
        cfg = rotation_config()
        cfg["system"]["map.name"] = "x"
        for sweep, overrides in (({"system.map.name": ["rotation"]}, None),
                                 (None, {"system.map.name": "rotation"})):
            cfg["sweep"] = sweep
            with pytest.raises(ConfigError, match=r"^scenario\.system\.map\.name: unknown field$"):
                load_scenario(cfg, overrides)

    def test_a_sweep_across_sampler_kinds_sweeps_the_whole_object(self):
        # each point is checked on its own, and the random sampler reads no
        # leak, so a swept name leaves the uneven sampler's leak unread
        cfg = sampled_quantum_config()
        sampler = {**cfg["measurement"]["sampler"], "name": "uneven", "leak": 0.1}
        cfg["measurement"]["sampler"] = sampler
        cfg["sweep"] = {"measurement.sampler.name": ["uneven", "random"]}
        with pytest.raises(ConfigError,
                           match=r"^scenario\.measurement\.sampler\.leak: unknown field$"):
            load_scenario(cfg)
        no_leak = {key: value for key, value in sampler.items() if key != "leak"}
        cfg["sweep"] = {"measurement.sampler": [sampler, {**no_leak, "name": "random"}]}
        built = load_scenario(cfg).built
        assert [rt.params["N"] for rt, _ in built] == [3, 3]

    @pytest.mark.parametrize("change, message", [
        (lambda cfg: [cfg], "scenario: expected a JSON object"),
        (lambda cfg: {**cfg, "sweep": [["epsilon", [0.3]]]},
         "scenario.sweep: expected an object of path -> value list"),
        (lambda cfg: {**cfg, "sweep": {"epsilon": 0.3}},
         "scenario.sweep.epsilon: expected a list of values"),
    ], ids=["json-list", "sweep-not-an-object", "sweep-value-not-a-list"])
    def test_a_malformed_scenario_file_names_its_fault(self, tmp_path, change, message):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(change(synthetic_config())))
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_scenario(path)

    def test_a_matrix_file_refuses_a_field_it_does_not_read(self, tmp_path):
        matrix = {"rows": 2, "cols": 2, "data": [[0.5, 0.0]] * 4, "colls": 2}
        (tmp_path / "plus.json").write_text(json.dumps(matrix))
        cfg = qubit_config()
        cfg["system"]["state"] = {"matrix": {"file": "plus.json"}}
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError, match=r"^scenario\.system\.state\.matrix\.colls: "
                                              r"unknown field; did you mean 'cols'\?$"):
            load_scenario(path)
        # beside a file reference, an inline field is one no reader reads
        cfg["system"]["state"] = {"matrix": {"file": "plus.json", "rows": 2}}
        del matrix["colls"]
        (tmp_path / "plus.json").write_text(json.dumps(matrix))
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError, match=r"^scenario\.system\.state\.matrix\.rows: "):
            load_scenario(path)

    def test_an_override_may_set_a_field_its_kind_does_not_read(self):
        # a CLI flag sets gap_tol on every kind, classical ones included
        for config in (rotation_config, synthetic_config):
            (rt, _), = load_scenario(config(), overrides={"gap_tol": 1e-6}).built
            assert isinstance(rt, bench._Runtime)
        with pytest.raises(ConfigError, match=r"^scenario\.gap_tol: unknown field"):
            load_scenario({**rotation_config(), "gap_tol": 1e-6})
        # a null field is absent, whichever reader would read it
        cfg = sampled_quantum_config()
        cfg["system"]["sampler"]["spacing"] = None
        assert isinstance(load_scenario(cfg).built[0][0], bench._Runtime)

    def test_swept_lists_read_back_equal(self, tmp_path):
        cfg = rotation_config()
        cfg["sweep"] = {"system.map.angles": [[0.25], [0.3]], "epsilon": [0.2, 0]}
        records = run_scenario(load_scenario(cfg))
        assert [r.params["system.map.angles"] for r in records] == [[0.25], [0.3]] * 2
        path = tmp_path / "out.json"
        emit_report(records, "json", path)
        assert load_records(path) == records

    def test_sweep_expansion_order(self):
        cfg = synthetic_config(
            sweep={"system.probe.seed": [1, 2], "epsilon": [0.3, 0.6]}
        )
        scenario = load_scenario(cfg)
        assert len(scenario.sweep_points) == 4
        # sorted keys, row-major product: epsilon varies slowest
        assert scenario.sweep_points[0] == {"epsilon": 0.3, "system.probe.seed": 1}
        assert scenario.sweep_points[1] == {"epsilon": 0.3, "system.probe.seed": 2}

    def test_from_file(self, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(synthetic_config()))
        scenario = load_scenario(path)
        assert scenario.config["kind"] == "synthetic-probe"

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_scenario(path)

    def test_matrix_by_file_reference(self, tmp_path, monkeypatch):
        # relative file references resolve against the config's directory,
        # not the process working directory
        cfg = qubit_config()
        (tmp_path / "state.json").write_text(
            json.dumps(cfg["system"]["state"]["matrix"])
        )
        cfg["system"]["state"] = {"matrix": {"file": "state.json"}}
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(cfg))
        monkeypatch.chdir(tmp_path.parent)
        scenario = load_scenario(path)
        rec = run_scenario(scenario)[0]
        assert rec.error is None
        assert rec.report.mean_distinguishability == pytest.approx(1 / math.pi, abs=0.01)

    def test_a_swept_file_reference_is_recorded_as_given(self, tmp_path):
        # the same scenario in two directories records the same params: a
        # relative reference is read from the scenario's directory, and kept
        cfg = explicit_quantum_config()
        hamiltonians = [diagonal([0.0, 1.0]), diagonal([0.0, 2.0])]
        refs = [{"file": f"sub/h{k}.json"} for k in range(len(hamiltonians))]
        cfg["sweep"] = {"system.hamiltonian.matrix": refs}
        runs = []
        for where in ("a", "b"):
            (tmp_path / where / "sub").mkdir(parents=True)
            for ref, matrix in zip(refs, hamiltonians):
                (tmp_path / where / ref["file"]).write_text(json.dumps(matrix))
            (tmp_path / where / "scn.json").write_text(json.dumps(cfg))
            runs.append(outputs(run_scenario(load_scenario(tmp_path / where / "scn.json"))))
        assert runs[0] == runs[1]
        assert [rec["params"]["system.hamiltonian.matrix"] for rec in runs[0]] == refs
        assert all(rec["error"] is None for rec in runs[0])

    def test_missing_file_reference(self, tmp_path):
        cfg = qubit_config()
        cfg["system"]["state"] = {"matrix": {"file": "nowhere.json"}}
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError, match="cannot read"):
            load_scenario(path)

    @pytest.mark.parametrize("field", ["hamiltonian", "state"])
    def test_a_file_reference_not_in_utf8(self, tmp_path, field):
        # a Hamiltonian file used to become a run-time error record, and a
        # state file an error naming scenario.system.state
        cfg = explicit_quantum_config()
        cfg["system"][field] = {"matrix": {"file": "m.json"}}
        (tmp_path / "m.json").write_bytes(b'{"rows": 1, "cols": 1, "data": [["\xff"]]}')
        (tmp_path / "scn.json").write_text(json.dumps(cfg))
        message = rf"^scenario\.system\.{field}\.matrix\.file: .*m\.json: invalid JSON \("
        with pytest.raises(ConfigError, match=message):
            load_scenario(tmp_path / "scn.json")

    def test_the_baker_map_is_withdrawn(self):
        # every double orbit of the float baker map collapsed to the origin
        cfg = classical_pure_config()
        cfg["system"]["map"] = {"name": "baker-map"}
        with pytest.raises(ConfigError,
                           match=r"^scenario\.system\.map\.name: unknown map 'baker-map'$"):
            load_scenario(cfg)
        with pytest.raises(core.DomainError, match="withdrawn"):
            classical.baker_map()

    @pytest.mark.parametrize("load", [load_scenario, load_records], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("content, message", [
        (None, r"in\.json: cannot read \("),
        (b'["\xff"]', r"in\.json: invalid JSON \("),
    ], ids=["missing", "not-utf8"])
    def test_unreadable_file(self, tmp_path, load, content, message):
        # each used to escape as a bare OSError or UnicodeDecodeError
        path = tmp_path / "in.json"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(ConfigError, match=message):
            load(path)


class TestOrbitCap:
    @pytest.mark.parametrize("make", [classical_pure_config, ensemble_config],
                             ids=["classical-pure", "classical-ensemble"])
    def test_horizon_past_the_cap_fails_at_load(self, monkeypatch, make):
        monkeypatch.setattr(classical, "MAX_ORBIT_STEPS", 50)
        # on a uniform grid of 8 samples the last time is 7/8 of the horizon
        at, past = 400 / 7, 408 / 7
        average = {"horizon": at, "samples": 8, "scheme": "uniform-grid"}
        grids = [core.TimeAverageConfig(h, 8, "uniform-grid") for h in (at, past)]
        assert [np.rint(core.sample_times(g)[-1]) for g in grids] == [50, 51]
        records = run_scenario(load_scenario({**make(), "average": average}))
        assert [rec.error for rec in records] == [None]
        message = r"^scenario\.average\.horizon: orbit steps 0 to 51 outside \[0, 50\]"
        with pytest.raises(ConfigError, match=message):
            load_scenario({**make(), "average": {**average, "horizon": past}})


def inline_quantum_config() -> dict:
    """A quantum point of inline eigenvalues 0, 1 and a state vector,
    measured by a 2-outcome projective sampler."""
    return {
        "kind": "quantum",
        "epsilon": 0.4,
        "average": {"horizon": "auto", "samples": 100, "seed": 5},
        "system": {"hamiltonian": {"eigenvalues": [0.0, 1.0]},
                   "state": {"vector": [[1.0, 0.0], [1.0, 0.0]]}},
        "measurement": {"sampler": {"name": "projective", "outcomes": 2, "seed": 22}},
    }


# The bytes a unit of each size costs, as bench bounds it: a size is at most
# MAX_BYTES over its bytes. Quantum: 128 d^2 for the build, 32 d (d + 3) an
# outcome; every run: 24 (N + 3) a sample time; synthetic: 80 an outcome and
# 16 (N + 1) a mode; ensembles: 128 a point.
def quantum_build_bytes(d: int, n: int) -> int:
    return 128 * d * d + 32 * n * d * (d + 3)


def sample_bytes(n: int) -> int:
    return 24 * (n + 3)


# one size field each: the config, the field's path, a lowered budget, the
# bound it gives (the budget over the field's bytes at the config's other
# sizes) and the overrides that set the field to a size n
BUDGET_BOUNDS = [
    pytest.param(sampled_quantum_config, "system.sampler.dim", quantum_build_bytes(24, 0), 24,
                 lambda n: {"system.sampler.dim": n, "measurement.sampler.outcomes": 2},
                 id="dim"),
    pytest.param(sampled_quantum_config, "measurement.sampler.outcomes", 32 * 8 * (8 + 3) * 5, 5,
                 lambda n: {"measurement.sampler.outcomes": n, "average.samples": 50},
                 id="outcomes-at-dim-8"),
    pytest.param(inline_quantum_config, "system.hamiltonian.eigenvalues",
                 quantum_build_bytes(12, 0), 12,
                 lambda n: {"system.hamiltonian.eigenvalues": [float(k) for k in range(n)],
                            "system.state.vector": [[1.0, 0.0]] * min(n, 12)},
                 id="eigenvalue-count"),
    pytest.param(inline_quantum_config, "system.state.vector", quantum_build_bytes(12, 0), 12,
                 lambda n: {"system.hamiltonian.eigenvalues": [float(k) for k in range(12)],
                            "system.state.vector": [[1.0, 0.0]] * n},
                 id="vector-length"),
    pytest.param(inline_quantum_config, "system.hamiltonian.matrix.rows",
                 quantum_build_bytes(12, 0), 12,
                 lambda n: {"system.hamiltonian": {
                                "matrix": diagonal([float(k) for k in range(n)])},
                            "system.state.vector": [[1.0, 0.0]] * min(n, 12)},
                 id="hamiltonian-matrix-rows"),
    pytest.param(inline_quantum_config, "system.hamiltonian.eigenvectors.cols",
                 quantum_build_bytes(12, 0), 12,
                 lambda n: {"system.hamiltonian.eigenvalues": [float(k) for k in range(12)],
                            "system.hamiltonian.eigenvectors": diagonal([1.0] * 12, n),
                            "system.state.vector": [[1.0, 0.0]] * 12},
                 id="eigenvector-cols"),
    pytest.param(inline_quantum_config, "system.state.matrix.rows", quantum_build_bytes(12, 0), 12,
                 lambda n: {"system.hamiltonian.eigenvalues": [float(k) for k in range(12)],
                            "system.state": {"matrix": diagonal([1 / 12] * n, 12)}},
                 id="state-matrix-rows"),
    pytest.param(inline_quantum_config, "measurement.povm[0].cols", quantum_build_bytes(12, 0), 12,
                 lambda n: {"system.hamiltonian.eigenvalues": [float(k) for k in range(12)],
                            "system.state.vector": [[1.0, 0.0]] * 12,
                            "measurement": {"povm": [diagonal([1.0] * 12, n)]}},
                 id="povm-element-cols"),
    pytest.param(qubit_config, "measurement.povm", 32 * 2 * (2 + 3) * 5, 5,
                 lambda n: {"measurement.povm": [diagonal([1 / n, 1 / n])] * n,
                            "average.samples": 2},
                 id="povm-length-at-dim-2"),
    pytest.param(sampled_quantum_config, "average.samples", sample_bytes(3) * 100, 100,
                 lambda n: {"average.samples": n}, id="quantum-samples-at-3-outcomes"),
    pytest.param(classical_pure_config, "average.samples", sample_bytes(4) * 64, 64,
                 lambda n: {"average.samples": n}, id="grid-samples-at-4-cells"),
    pytest.param(synthetic_config, "average.samples", sample_bytes(3) * 400, 400,
                 lambda n: {"average.samples": n, "system.probe.mode_count": 3},
                 id="synthetic-samples-at-3-outcomes-3-modes"),
    pytest.param(ensemble_config, "system.ensemble.sampler.count", 128 * 100, 100,
                 lambda n: {"system.ensemble.sampler.count": n}, id="ensemble-count"),
    pytest.param(synthetic_config, "system.probe.outcomes", 80 * 10, 10,
                 lambda n: {"system.probe.outcomes": n, "system.probe.mode_count": 0,
                            "average.samples": 2},
                 id="synthetic-outcomes"),
    pytest.param(synthetic_config, "system.probe.mode_count", 16 * 4 * 5, 5,
                 lambda n: {"system.probe.mode_count": n, "average.samples": 2},
                 id="synthetic-modes-at-3-outcomes"),
]


def traced_peak(run) -> int:
    """Peak bytes that ``run()`` allocates, as tracemalloc sees them."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSizeBudget:
    @pytest.mark.parametrize("make, field, budget, bound, at", BUDGET_BOUNDS)
    def test_a_size_at_its_bound_loads_and_one_more_fails(
        self, monkeypatch, make, field, budget, bound, at
    ):
        # the budget is lowered, as TestOrbitCap lowers the orbit cap, so
        # nothing large is allocated
        monkeypatch.setattr(bench, "MAX_BYTES", budget)
        load_scenario(make(), overrides=at(bound))
        message = rf"^scenario\.{re.escape(field)}: must be at most {bound}, got {bound + 1}$"
        with pytest.raises(ConfigError, match=message):
            load_scenario(make(), overrides=at(bound + 1))

    def test_the_dimension_bound_is_2048(self):
        message = r"^scenario\.system\.sampler\.dim: must be at most 2048, got 2049$"
        with pytest.raises(ConfigError, match=message):
            load_scenario(sampled_quantum_config(), overrides={"system.sampler.dim": 2049})

    @pytest.mark.parametrize("make, overrides, path", [
        pytest.param(sampled_quantum_config,
                     {"system.sampler.dim": 256, "measurement.sampler.outcomes": 1024},
                     "measurement.sampler.outcomes", id="dim-times-outcomes"),
        pytest.param(inline_quantum_config, {"system.hamiltonian.eigenvalues": [0.0] * 10**5},
                     "system.hamiltonian.eigenvalues", id="eigenvalue-count"),
        pytest.param(inline_quantum_config, {"system.state.vector": [[1.0, 0.0]] * 10**5},
                     "system.state.vector", id="vector-length"),
        pytest.param(classical_pure_config,
                     {"measurement.partition.edges": [[k / 1000 for k in range(1001)]] * 2,
                      "average.samples": 10**6, "average.horizon": 10**6},
                     "average.samples", id="million-cell-grid"),
        pytest.param(synthetic_config,
                     {"system.probe.outcomes": 1024, "system.probe.mode_count": 1024,
                      "average.samples": 10**6},
                     "average.samples", id="synthetic-samples-outcomes-modes"),
    ])
    def test_a_size_product_past_the_budget_names_its_field(self, make, overrides, path):
        # under per-field caps each loaded, its run asking for up to TiB, or
        # failed as a MemoryError
        with pytest.raises(ConfigError, match=rf"^scenario\.{re.escape(path)}: must be at most"):
            load_scenario(make(), overrides=overrides)

    def test_every_shape_in_use_loads(self):
        # scenario-pipeline's dim sweep, quantum-sweep's largest instance as
        # a sampler scenario, and the verify suite
        cfg = sampled_quantum_config()
        cfg["measurement"]["sampler"].update(name="random", outcomes=4)
        cfg["average"]["samples"] = 500
        sweep = load_scenario({**cfg, "sweep": {"system.sampler.dim": [64, 128, 192, 256]}})
        largest = load_scenario(cfg, overrides={"system.sampler.dim": 32, "average.samples": 3000,
                                                "measurement.sampler.outcomes": 8})
        built = [rt for scenario in [sweep, largest, *builtin_scenarios()]
                 for rt, _ in scenario.built]
        assert len(built) == 4 + 1 + 9
        assert all(isinstance(rt, bench._Runtime) for rt in built)

    # The memory model is an upper bound: the tracemalloc peak of a build or
    # a run stays within the bytes that its sizes' bounds allow, so a change
    # that outgrows its multiplier fails here.
    @pytest.mark.parametrize("d, n, name", [
        *((d, n, name) for d in (64, 128) for n, name in [
            (1, "random"), (1, "projective"), (8, "random"), (8, "projective"), (8, "uneven")]),
        (2, 512, "uneven"), (4, 256, "random"),
    ])
    @pytest.mark.parametrize("spectrum", ["generic", "equally-spaced"])
    @pytest.mark.parametrize("state", ["pure", "mixed"])
    def test_a_quantum_build_stays_within_its_bounds(self, d, n, name, spectrum, state):
        cfg = sampled_quantum_config()
        cfg["system"]["sampler"].update(dim=d, spectrum=spectrum, state=state)
        cfg["measurement"]["sampler"].update(name=name, outcomes=n, leak=0.1)
        # once untraced, so no first-call cost is counted
        bench._build(bench._Node(cfg, "scenario"))
        assert (traced_peak(lambda: bench._build(bench._Node(cfg, "scenario")))
                <= quantum_build_bytes(d, n))

    def test_a_pure_point_holds_its_vector_for_its_matrix(self):
        # scenario-pipeline's d = 256 point: its state holds v, and its probe
        # psi~ = V^H v and the rotation's phases, where a mixed state holds a
        # complex d x d matrix (16 d (d - 2.7) bytes more measured; both held
        # the matrix before)
        d, held = 256, {}
        for state in ("pure", "mixed"):
            cfg = sampled_quantum_config()
            cfg["system"]["sampler"].update(dim=d, spectrum="generic", state=state)
            cfg["measurement"]["sampler"].update(name="random", outcomes=4)
            bench._build(bench._Node(cfg, "scenario"))
            tracemalloc.start()
            try:
                runtime = bench._build(bench._Node(cfg, "scenario"))
                held[state] = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert runtime.probe.outcome_count == 4
        assert held["mixed"] - held["pure"] >= 16 * d * (d - 4)

    @pytest.mark.parametrize("make, overrides, n, points", [
        pytest.param(sampled_quantum_config,
                     {"system.sampler.dim": 64, "measurement.sampler.outcomes": 1,
                      "measurement.sampler.name": "random", "average.samples": 4000},
                     1, 0, id="quantum-d64-N1"),
        pytest.param(sampled_quantum_config,
                     {"system.sampler.dim": 128, "measurement.sampler.outcomes": 8,
                      "average.samples": 4000},
                     8, 0, id="quantum-d128-N8"),
        pytest.param(sampled_quantum_config,
                     {"system.sampler.dim": 64, "system.sampler.spectrum": "equally-spaced",
                      "measurement.sampler.outcomes": 8, "average.samples": 50_000},
                     8, 0, id="quantum-ladder-d64-N8"),
        pytest.param(classical_pure_config,
                     {"measurement.partition.edges": [[0.0, 1.0], [0.0, 1.0]],
                      "average.samples": 50_000, "average.horizon": 50_000},
                     1, 0, id="classical-N1"),
        pytest.param(classical_pure_config,
                     {"measurement.partition.edges": [[0.0, 0.25, 0.5, 0.75, 1.0],
                                                      [0.0, 0.5, 1.0]],
                      "average.samples": 50_000, "average.horizon": 50_000},
                     8, 0, id="classical-N8"),
        pytest.param(ensemble_config,
                     {"system.ensemble.sampler.count": 2000,
                      "average.samples": 4000, "average.horizon": 4000},
                     4, 2000, id="ensemble-N4"),
        pytest.param(synthetic_config,
                     {"system.probe.outcomes": 1, "system.probe.mode_count": 0,
                      "average.samples": 50_000},
                     1, 0, id="synthetic-N1"),
        pytest.param(synthetic_config,
                     {"system.probe.outcomes": 8, "system.probe.mode_count": 16,
                      "average.samples": 20_000},
                     8, 0, id="synthetic-N8-16-modes"),
    ])
    def test_a_run_stays_within_its_bounds(self, make, overrides, n, points):
        samples = overrides["average.samples"]
        run_scenario(load_scenario(make(), overrides=overrides))  # untraced, as above
        scenario = load_scenario(make(), overrides=overrides)
        # the sampling blocks also hold fixed buffers that no size bounds: at
        # most one chunk, core._CHUNK_ENTRIES entries, in each
        allowed = sample_bytes(n) * samples + 128 * points + 4 * 2**20
        assert traced_peak(lambda: run_scenario(scenario)) <= allowed


class TestConfigBoundary:
    # each used to load as a number, escape as a bare TypeError, or load and
    # become a numeric-failure record (rows = cols = -2 reshaped as -1 twice)
    @pytest.mark.parametrize(
        "make, keys, value, path",
        [
            pytest.param(qubit_config, ("system", "hamiltonian", "eigenvalues"), ["0", "1"],
                         r"scenario\.system\.hamiltonian\.eigenvalues", id="eigenvalue-strings"),
            pytest.param(qubit_config, ("system", "hamiltonian", "eigenvalues"), [False, True],
                         r"scenario\.system\.hamiltonian\.eigenvalues", id="eigenvalue-booleans"),
            pytest.param(qubit_config, ("system", "hamiltonian", "eigenvalues", 0), {},
                         r"scenario\.system\.hamiltonian\.eigenvalues", id="eigenvalue-object"),
            pytest.param(qubit_config, ("system", "hamiltonian", "eigenvalues"), [[0, 1], [2, 3]],
                         r"scenario\.system\.hamiltonian\.eigenvalues", id="eigenvalue-nested"),
            pytest.param(qubit_config, ("system", "state", "matrix", "data", 1), [0.5, False],
                         r"scenario\.system\.state\.matrix\.data", id="state-pair-boolean"),
            pytest.param(qubit_config, ("measurement", "povm", 1, "data", 0), [0.5, False],
                         r"scenario\.measurement\.povm\[1\]\.data", id="povm-pair-boolean"),
            pytest.param(explicit_quantum_config, ("system", "hamiltonian", "matrix", "data", 3),
                         [1.0, False], r"scenario\.system\.hamiltonian\.matrix\.data",
                         id="hamiltonian-pair-boolean"),
            pytest.param(eigenbasis_quantum_config,
                         ("system", "hamiltonian", "eigenvectors", "data", 0), [1.0, False],
                         r"scenario\.system\.hamiltonian\.eigenvectors\.data",
                         id="eigenvector-pair-boolean"),
            pytest.param(explicit_quantum_config, ("system", "state", "vector", 0), [0.6, False],
                         r"scenario\.system\.state\.vector", id="vector-pair-boolean"),
            pytest.param(qubit_config, ("system", "state", "matrix", "rows"), None,
                         r"scenario\.system\.state\.matrix\.rows", id="rows-null"),
            pytest.param(qubit_config, ("measurement", "povm", 1, "cols"), None,
                         r"scenario\.measurement\.povm\[1\]\.cols", id="cols-null"),
            pytest.param(explicit_quantum_config, ("system", "hamiltonian", "matrix", "data"), True,
                         r"scenario\.system\.hamiltonian\.matrix\.data", id="data-boolean"),
            pytest.param(qubit_config, ("system", "state", "matrix", "rows"), "2",
                         r"scenario\.system\.state\.matrix\.rows", id="rows-string"),
            pytest.param(qubit_config, ("system", "state", "matrix"), {"file": 5},
                         r"scenario\.system\.state\.matrix\.file", id="file-number"),
            pytest.param(eigenbasis_quantum_config, ("system", "hamiltonian", "eigenvectors"),
                         {"rows": -2, "cols": -2, "data": [[1.0, 0.0], [0.0, 0.0],
                                                           [0.0, 0.0], [1.0, 0.0]]},
                         r"scenario\.system\.hamiltonian\.eigenvectors\.rows",
                         id="rows-negative"),
        ],
    )
    def test_bad_quantum_leaf_names_its_path(self, make, keys, value, path):
        with pytest.raises(ConfigError, match=path + ": "):
            load_scenario(with_leaf(make(), keys, value))

    def test_pairs_are_complex_bit_for_bit(self):
        pairs = [[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [1.5, -2.25]]
        got = bench._matrix_node(bench._Node({"rows": 2, "cols": 2, "data": pairs}, "matrix"))
        want = np.array([complex(re, im) for re, im in pairs]).reshape(2, 2)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "sampler, path",
        [({"name": "nope", "outcomes": 3, "seed": 22}, "scenario.measurement.sampler.name"),
         ({"name": "uneven", "outcomes": 3, "seed": 22}, "scenario.measurement.sampler.leak")],
        ids=["unknown-name", "missing-leak"],
    )
    def test_sampler_error_names_one_path(self, sampler, path):
        cfg = sampled_quantum_config()
        cfg["measurement"]["sampler"] = sampler
        with pytest.raises(ConfigError) as info:
            load_scenario(cfg)
        message = str(info.value)
        assert message.startswith(path + ": ")
        assert message.count(path) == message.count("scenario.") == 1

    @pytest.mark.parametrize("make, overrides, message", [
        pytest.param(sampled_quantum_config,
                     {"measurement.sampler.name": "uneven", "measurement.sampler.leak": 2.0},
                     "scenario.measurement.sampler.leak: leak must lie in [0, 1), got 2.0",
                     id="leak"),
        pytest.param(sampled_quantum_config,
                     {"measurement.sampler.name": "uneven", "measurement.sampler.leak": 1},
                     "scenario.measurement.sampler.leak: leak must lie in [0, 1), got 1.0",
                     id="leak-1"),
        pytest.param(synthetic_config, {"system.probe.amplitude": 1.5},
                     "scenario.system.probe.amplitude: amplitude must lie in [0, 1), got 1.5",
                     id="amplitude"),
        pytest.param(synthetic_config, {"system.probe.amplitude": -0.1},
                     "scenario.system.probe.amplitude: amplitude must lie in [0, 1), got -0.1",
                     id="negative-amplitude"),
        pytest.param(synthetic_config, {"system.probe.dominant_weight": 0.0},
                     "scenario.system.probe.dominant_weight: dominant_weight must lie in (0, 1], "
                     "got 0.0",
                     id="dominant-weight"),
        pytest.param(synthetic_config, {"system.probe.dominant_weight": 1.5},
                     "scenario.system.probe.dominant_weight: dominant_weight must lie in (0, 1], "
                     "got 1.5",
                     id="dominant-weight-above-1"),
        pytest.param(sampled_quantum_config, {"measurement.sampler.outcomes": 100},
                     "scenario.measurement.sampler.outcomes: projective measurement needs "
                     "1 <= outcomes <= 8, got 100",
                     id="projective-outcomes-past-dim"),
        pytest.param(sampled_quantum_config, {"measurement.sampler.outcomes": 9},
                     "scenario.measurement.sampler.outcomes: projective measurement needs "
                     "1 <= outcomes <= 8, got 9",
                     id="projective-outcomes-dim-plus-1"),
        pytest.param(sampled_quantum_config,
                     {"measurement.sampler.name": "uneven", "measurement.sampler.leak": 0.1,
                      "measurement.sampler.outcomes": 1},
                     "scenario.measurement.sampler.outcomes: need at least two outcomes, got 1",
                     id="uneven-outcomes"),
    ])
    def test_a_range_error_names_its_field(self, make, overrides, message):
        # each used to name the object above the field
        with pytest.raises(ConfigError) as info:
            load_scenario(make(), overrides=overrides)
        assert str(info.value) == message

    @pytest.mark.parametrize("make, overrides, path", [
        pytest.param(synthetic_config, {"epsilon": 1.0}, "epsilon", id="epsilon"),
        pytest.param(synthetic_config, {"average.samples": 1}, "average.samples", id="samples-1"),
        pytest.param(synthetic_config, {"average.samples": MAX_SAMPLES + 1}, "average.samples",
                     id="samples-past-the-cap"),
        pytest.param(synthetic_config, {"average.seed": -1}, "average.seed", id="average-seed"),
        pytest.param(synthetic_config, {"average.horizon": 0}, "average.horizon", id="horizon"),
        pytest.param(synthetic_config, {"average.scheme": "sobol"}, "average.scheme",
                     id="scheme"),
        pytest.param(sampled_quantum_config, {"system.sampler.dim": 0}, "system.sampler.dim",
                     id="dim"),
        pytest.param(sampled_quantum_config, {"system.sampler.spacing": 0.0},
                     "system.sampler.spacing", id="generic-spacing-0"),
        pytest.param(sampled_quantum_config, {"system.sampler.spectrum": "equally-spaced",
                                              "system.sampler.spacing": -1.0},
                     "system.sampler.spacing", id="ladder-spacing-negative"),
        # the library calls this argument kind, so the field read names it
        pytest.param(sampled_quantum_config, {"system.sampler.spectrum": "gaussian"},
                     "system.sampler.spectrum", id="unknown-spectrum-kind"),
        # an unread key that shares the argument's name does not take the error over
        pytest.param(sampled_quantum_config, {"system.sampler.spectrum": "gaussian",
                                              "system.sampler.kind": "x"},
                     "system.sampler.spectrum", id="unknown-spectrum-kind-beside-a-stray-kind"),
        pytest.param(sampled_quantum_config, {"measurement.sampler.name": "random",
                                              "measurement.sampler.outcomes": 0},
                     "measurement.sampler.outcomes", id="random-outcomes-0"),
        pytest.param(sampled_quantum_config, {"measurement.sampler.outcomes": 9},
                     "measurement.sampler.outcomes", id="projective-outcomes-past-dim"),
        pytest.param(sampled_quantum_config, {"measurement.sampler.name": "uneven",
                                              "measurement.sampler.outcomes": 1,
                                              "measurement.sampler.leak": 0.1},
                     "measurement.sampler.outcomes", id="uneven-outcomes-1"),
        pytest.param(sampled_quantum_config, {"measurement.sampler.name": "uneven",
                                              "measurement.sampler.leak": 1.0},
                     "measurement.sampler.leak", id="leak"),
        pytest.param(qubit_config, {"system.hamiltonian.eigenvalues": []},
                     "system.hamiltonian.eigenvalues", id="eigenvalues-empty"),
        pytest.param(qubit_config, {"system.hamiltonian.eigenvalues": [[0.0, 1.0]]},
                     "system.hamiltonian.eigenvalues", id="eigenvalues-nested"),
        pytest.param(qubit_config, {"system.hamiltonian.eigenvalues": [1.0, 0.0]},
                     "system.hamiltonian.eigenvalues", id="eigenvalues-descending"),
        pytest.param(ensemble_config, {"system.ensemble.sampler.count": 0},
                     "system.ensemble.sampler.count", id="count"),
        pytest.param(ensemble_config, {"system.ensemble.sampler.delta": 1.5},
                     "system.ensemble.sampler.delta", id="delta"),
        pytest.param(ensemble_config, {"system.ensemble.sampler.lattice": 6},
                     "system.ensemble.sampler.lattice", id="lattice"),
        pytest.param(synthetic_config, {"system.probe.outcomes": 0}, "system.probe.outcomes",
                     id="synthetic-outcomes"),
        pytest.param(synthetic_config, {"system.probe.mode_count": -1},
                     "system.probe.mode_count", id="mode-count"),
        pytest.param(synthetic_config, {"system.probe.amplitude": 1.0}, "system.probe.amplitude",
                     id="amplitude"),
        pytest.param(synthetic_config, {"system.probe.dominant_weight": 0.0},
                     "system.probe.dominant_weight", id="dominant-weight"),
        # the dimension checks of the probe constructors, at their old paths
        pytest.param(qubit_config, {"system.hamiltonian.eigenvalues": [0.0, 1.0, 2.0]}, None,
                     id="inconsistent-dimensions"),
        pytest.param(classical_pure_config, {"system.point": [0.2]}, "system.point",
                     id="point-for-map"),
        pytest.param(ensemble_config, {"system.map": {"name": "rotation", "angles": [0.25]},
                                       "measurement.partition.edges": [[0.0, 0.5, 1.0]]},
                     "system.ensemble", id="ensemble-for-map"),
    ])
    def test_the_library_rule_names_the_field(self, make, overrides, path):
        # bench keeps no copy of these rules: the constructor that takes the
        # argument raises, and the error's name picks the field
        with pytest.raises(ConfigError) as info:
            load_scenario(make(), overrides=overrides)
        assert str(info.value).split(": ", 1)[0] == config_path(
            () if path is None else tuple(path.split(".")))

    @pytest.mark.parametrize("make, overrides", [
        pytest.param(sampled_quantum_config,
                     {"measurement.sampler.name": "uneven", "measurement.sampler.leak": 0.0,
                      "measurement.sampler.outcomes": 2}, id="uneven-leak-0-2-outcomes"),
        pytest.param(synthetic_config, {"system.probe.amplitude": 0.0}, id="amplitude-0"),
        pytest.param(synthetic_config, {"system.probe.dominant_weight": 1.0},
                     id="dominant-weight-1"),
        pytest.param(sampled_quantum_config, {"measurement.sampler.outcomes": 8},
                     id="projective-outcomes-at-dim"),
    ])
    def test_a_range_edge_loads(self, make, overrides):
        assert load_scenario(make(), overrides=overrides)

    @pytest.mark.parametrize(
        "make, keys",
        [
            (qubit_config, ("epsilon",)),
            (sampled_quantum_config, ("gap_tol",)),
            (synthetic_config, ("average", "horizon")),
            (synthetic_config, ("average", "samples")),
            (qubit_config, ("average", "samples")),
            (qubit_config, ("system", "hamiltonian", "eigenvalues", 0)),
            (qubit_config, ("system", "state", "matrix", "data", 1)),
            (synthetic_config, ("system", "probe", "dominant_weight")),
            (ensemble_config, ("system", "ensemble", "sampler", "delta")),
        ],
        ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else v.__name__,
    )
    def test_huge_integer_names_its_path(self, make, keys):
        # 10**400 has no float (nor int64) value
        value = [10**400, 0] if keys[-2:] == ("data", 1) else 10**400
        path = "scenario." + ".".join(str(k) for k in keys if not isinstance(k, int))
        with pytest.raises(ConfigError) as info:
            load_scenario(with_leaf(make(), keys, value))
        assert str(info.value).startswith(path + ": ")

    @pytest.mark.parametrize(
        "make, path",
        [
            (synthetic_config, "average"),
            (sampled_quantum_config, "system.sampler"),
            (sampled_quantum_config, "measurement.sampler"),
            (synthetic_config, "system.probe"),
            (ensemble_config, "system.ensemble.sampler"),
        ],
        ids=lambda v: v if isinstance(v, str) else v.__name__,
    )
    def test_negative_seed_names_its_path(self, make, path):
        with pytest.raises(ConfigError) as info:
            load_scenario(with_leaf(make(), (*path.split("."), "seed"), -1))
        message = str(info.value)
        assert message.startswith(f"scenario.{path}.seed: ")
        assert message.count("scenario.") == 1

    @pytest.mark.parametrize("make", [synthetic_config, classical_pure_config],
                             ids=lambda make: make.__name__)
    @pytest.mark.parametrize("key, value, message", [
        pytest.param("scheme", "bogus", "unknown sampling scheme 'bogus'", id="scheme"),
        pytest.param("horizon", -1.0, "horizon must be finite and positive, got -1.0",
                     id="negative-horizon"),
        pytest.param("horizon", 0, "horizon must be finite and positive, got 0.0",
                     id="zero-horizon"),
    ])
    def test_a_bad_average_field_names_its_path(self, make, key, value, message):
        # both used to name only scenario.average
        with pytest.raises(ConfigError) as info:
            load_scenario(with_leaf(make(), ("average", key), value))
        assert str(info.value) == f"scenario.average.{key}: {message}"

    @pytest.mark.parametrize(
        "cfg",
        [scn.config for scn in builtin_scenarios()]
        + [explicit_quantum_config(), eigenbasis_quantum_config(), explicit_ensemble_config()],
        ids=lambda cfg: cfg["name"],
    )
    def test_every_leaf_fails_only_as_a_config_error(self, cfg):
        # few samples and short horizons keep each of the many runs quick
        cfg = copy.deepcopy(cfg)
        cfg["average"]["samples"] = 16
        if cfg["average"]["horizon"] != "auto":
            cfg["average"]["horizon"] = 64
        assert all(rec.error is None for rec in run_scenario(load_scenario(cfg)))
        escapes, loaded = [], []
        swept = cfg.get("sweep", {})
        for keys, leaf in leaves(cfg):
            # a field the sweep grid sets is not read from its own leaf
            numeric = (isinstance(leaf, (int, float)) and not isinstance(leaf, bool)
                       and ".".join(map(str, keys)) not in swept)
            for value in ["x", True, None, [], {}, [[1]], -1, "2", str(leaf), False]:
                try:
                    run_scenario(load_scenario(with_leaf(cfg, keys, value)))
                except ConfigError:
                    continue
                except Exception as exc:  # collected, to report every escape at once
                    escapes.append((keys, value, repr(exc)))
                    continue
                if numeric and isinstance(value, (str, bool)):
                    loaded.append((keys, value))
        assert escapes == []
        assert loaded == []

    @pytest.mark.parametrize("scenario", builtin_scenarios(), ids=lambda scn: scn.name)
    def test_a_bad_field_names_itself_or_an_object_above_it(self, scenario):
        # every value below the config, with the sweep removed, replaced in
        # turn; only the dimension cross-check may name the scenario itself
        cfg = {key: value for key, value in scenario.config.items() if key != "sweep"}
        wrong = []
        for keys, leaf in subtrees(cfg):
            if isinstance(leaf, dict):
                continue
            named = {config_path(keys[:k]) for k in range(1, len(keys) + 1)}
            for value in ["x", None, True, -1, [], {}, 2**70, math.nan]:
                try:
                    load_scenario(with_leaf(cfg, keys, value))
                except ConfigError as exc:
                    path, message = str(exc).split(": ", 1)
                    if path not in named and not (
                            path == "scenario" and message.startswith("inconsistent dimensions")):
                        wrong.append((keys, value, str(exc)))
                except Exception as exc:  # collected, to report every escape at once
                    wrong.append((keys, value, repr(exc)))
        assert wrong == []

    @pytest.mark.parametrize("scenario", builtin_scenarios(), ids=lambda scn: scn.name)
    def test_no_list_is_shared_within_a_builtin_config(self, scenario):
        # the qubit state matrix shared its [re, im] pairs with a POVM element,
        # so editing one edited the other
        lists = [id(value) for _, value in subtrees(scenario.config) if isinstance(value, list)]
        assert len(lists) == len(set(lists))

    @pytest.mark.parametrize("make, keys, path", NUMERIC_FIELDS, ids=NUMERIC_FIELD_IDS)
    @pytest.mark.parametrize(
        "bad", ["0.5", True, None, math.nan, math.inf],
        ids=["string", "boolean", "null", "nan", "inf"],
    )
    def test_every_numeric_field_reads_by_one_rule(self, make, keys, path, bad):
        flags = keys[-2] == "chaotic_flags"
        if flags and bad is True:
            bad = 1  # a number among booleans, as a boolean among numbers
        # through JSON, so that no two fields share a list
        cfg = with_leaf(json.loads(json.dumps(make())), keys, bad)
        with pytest.raises(ConfigError) as info:
            load_scenario(cfg)
        assert str(info.value).startswith(path + ": ")

    @pytest.mark.parametrize("make, keys, path", NUMERIC_FIELDS, ids=NUMERIC_FIELD_IDS)
    def test_an_integer_past_int64_is_a_number(self, make, keys, path):
        # it may still fail the field's own range rule
        cfg = with_leaf(json.loads(json.dumps(make())), keys, 2**70)
        try:
            load_scenario(cfg)
        except ConfigError as exc:
            if keys[-2] == "chaotic_flags":
                assert "must be booleans" in str(exc)
            else:
                assert "must be numbers" not in str(exc)

    @pytest.mark.parametrize(
        "make, field, size",
        [
            (sampled_quantum_config, "system.sampler.dim", 10**7),
            (sampled_quantum_config, "measurement.sampler.outcomes", 10**9),
            (ensemble_config, "system.ensemble.sampler.count", 10**13),
            (synthetic_config, "system.probe.outcomes", 10**13),
            (synthetic_config, "system.probe.mode_count", 10**13),
        ],
    )
    def test_a_size_past_its_cap_names_its_path(self, make, field, size):
        # each used to fail as a bare MemoryError
        message = rf"^scenario\.{re.escape(field)}: must be at most \d+, got {size}$"
        with pytest.raises(ConfigError, match=message):
            load_scenario(make(), overrides={field: size})

    def test_the_largest_dimension_in_use_loads(self):
        scenario = load_scenario(sampled_quantum_config(), overrides={"system.sampler.dim": 256})
        assert scenario.built[0][0].params["d"] == 256

    def test_an_override_never_replaces_a_value(self):
        # `"average": 5` used to become {"seed": 3} and fail as a missing samples
        with pytest.raises(ConfigError, match=r"^scenario\.average: expected an object, got int$"):
            load_scenario(synthetic_config(average=5), overrides={"average.seed": 3})
        with pytest.raises(ConfigError,
                           match=r"^scenario\.system\.probe\.seed: expected an object, got int$"):
            load_scenario(synthetic_config(), overrides={"system.probe.seed.x": 1})
        # an absent or null node is created, as sweeps need
        overrides = {"average.horizon": 100.0, "average.samples": 400}
        absent = synthetic_config()
        del absent["average"]
        for cfg in (absent, synthetic_config(average=None)):
            assert load_scenario(cfg, overrides=overrides).built[0][0].cfg.samples == 400


def spy_on(monkeypatch, module, name: str) -> list[dict]:
    """Replace ``module.name`` by a spy that calls it and logs, for each call
    made from ``bench``, the arguments passed to it by parameter name."""
    original = getattr(module, name)
    signature = inspect.signature(original)
    calls = []

    def spy(*args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == bench.__name__:
            calls.append(signature.bind(*args, **kwargs).arguments)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


# every optional scenario field that a library argument stands for: the
# config it sits in, its key path, a value to give, the module and name of
# the library call that takes it, the argument's name there and the decoded
# value passed
OPTIONAL_FIELDS = [
    (synthetic_config, ("average", "seed"), 7, bench, "TimeAverageConfig", "seed", 7),
    (synthetic_config, ("average", "scheme"), "uniform-grid", bench, "TimeAverageConfig",
     "scheme", "uniform-grid"),
    (sampled_quantum_config, ("system", "sampler", "spectrum"), "equally-spaced", quantum,
     "random_spectrum", "kind", "equally-spaced"),
    (sampled_quantum_config, ("system", "sampler", "spacing"), 2, quantum, "random_spectrum",
     "spacing", 2.0),
    (sampled_quantum_config, ("gap_tol",), 1e-6, quantum, "gap_table", "gap_tol", 1e-6),
    (classical_pure_config, ("system", "map", "lattice"), 64, classical, "cat_map", "lattice",
     64),
    (ensemble_config, ("system", "ensemble", "sampler", "lattice"), 8.0, classical,
     "contaminated_cat_ensemble", "lattice", 8),
    (explicit_ensemble_config, ("system", "ensemble", "weights"), [0.25, 0.25, 0.5], classical,
     "ClassicalEnsemble", "weights", np.array([0.25, 0.25, 0.5])),
    (explicit_ensemble_config, ("system", "ensemble", "chaotic_flags"), [True, False, False],
     classical, "ClassicalEnsemble", "chaotic_flags", np.array([True, False, False])),
    (synthetic_config, ("system", "probe", "dominant_weight"), 0.9, bench, "synthetic_probe",
     "dominant_weight", 0.9),
    (synthetic_config, ("system", "probe", "mode_count"), 2, bench, "synthetic_probe",
     "mode_count", 2),
    (synthetic_config, ("system", "probe", "amplitude"), 0.4, bench, "synthetic_probe",
     "amplitude", 0.4),
]


# optional fields whose default bench holds itself, as no library call takes
# them: each used to fail when null (a NoneType, not 'pure' or 'mixed', an
# unknown sampler None, an object expected, a string expected)
NULLABLE_FIELDS = [
    (sampled_quantum_config, ("average", "horizon")),
    (sampled_quantum_config, ("system", "sampler", "state")),
    (sampled_quantum_config, ("measurement", "sampler", "name")),
    (ensemble_config, ("system", "ensemble", "sampler", "name")),
    (eigenbasis_quantum_config, ("system", "hamiltonian", "eigenvectors")),
    (synthetic_config, ("name",)),
]


def record_dicts(cfg: dict) -> list[dict]:
    """The records of a scenario run, without their wall times."""
    return [{k: v for k, v in rec.to_dict().items() if k != "wall_time"}
            for rec in run_scenario(load_scenario(cfg))]


class TestOptionalFields:
    """An optional field is passed to the library call that takes it only
    when the scenario gives it, so that the library's default is the one
    default."""

    @pytest.mark.parametrize("make, keys, value, module, name, arg, decoded", OPTIONAL_FIELDS,
                             ids=[".".join(f[1]) for f in OPTIONAL_FIELDS])
    @pytest.mark.parametrize("state", ["absent", "null", "given"])
    def test_only_a_given_field_is_passed(self, monkeypatch, state, make, keys, value, module,
                                          name, arg, decoded):
        cfg = with_leaf(make(), keys, None if state == "null" else value)
        if state == "absent":
            parent = functools.reduce(dict.__getitem__, keys[:-1], cfg)
            del parent[keys[-1]]
        calls = spy_on(monkeypatch, module, name)
        load_scenario(cfg)
        (passed,) = calls
        if state == "given":
            assert np.asarray(passed[arg]).dtype == np.asarray(decoded).dtype
            assert np.array_equal(passed[arg], decoded)
        else:
            assert arg not in passed

    @pytest.mark.parametrize("make, keys", NULLABLE_FIELDS,
                             ids=[".".join(f[1]) for f in NULLABLE_FIELDS])
    def test_a_null_bench_field_loads_as_absent(self, make, keys):
        absent = make()
        parent = functools.reduce(dict.__getitem__, keys[:-1], absent)
        parent.pop(keys[-1], None)
        assert record_dicts(with_leaf(absent, keys, None)) == record_dicts(absent)


def plain_json(value) -> bool:
    """Whether ``value`` is built of the values ``json.loads`` returns alone:
    dicts with string keys, lists, strings, ints, floats, booleans and None."""
    if isinstance(value, dict):
        return all(type(k) is str and plain_json(v) for k, v in value.items())
    if isinstance(value, list):
        return all(plain_json(v) for v in value)
    return value is None or type(value) in (str, int, float, bool)


class TestRunScenario:
    def test_a_scenario_needs_its_points_and_builds(self):
        # with empty defaults, a hand-built scenario ran to no records at all
        with pytest.raises(TypeError):
            bench.Scenario("x", {"kind": "quantum"})

    def test_params_hold_only_plain_json_values(self):
        # records keep their params as the builders made them, with no
        # conversion pass: no numpy scalar, whose JSON form may fail, and no
        # tuple, which reads back from a file as a list. The params are made
        # at build, so the built-in suite runs here at a few samples
        scenarios = [load_scenario(make()) for make in KIND_CONFIGS]
        scenarios += builtin_scenarios({"average.samples": 64})
        for scenario in scenarios:
            for record in run_scenario(scenario):
                assert record.error is None
                assert plain_json(record.params), (scenario.name, record.params)

    def test_the_plain_check_sees_numpy_scalars_and_tuples(self):
        assert plain_json({"N": 3, "d_eff": 1.5, "map": "cat-map", "x": [None, True, {}]})
        for bad in ({"N": np.int64(3)}, {"d_eff": np.float64(1.5)}, {"s": (1, 2)},
                    {"D_G_sensitivity": {"1x": np.int64(1)}}, {1: 2}):
            assert not plain_json(bad)

    def test_qubit_record(self):
        records = run_scenario(load_scenario(qubit_config()))
        assert len(records) == 1
        rec = records[0]
        assert rec.error is None
        assert rec.report.mean_distinguishability == pytest.approx(1 / math.pi, abs=0.01)
        thm5 = rec.bounds["thm5-spectral"]
        assert thm5.value == pytest.approx(0.5 * math.sqrt(0.5), abs=1e-12)
        assert thm5.status == STATUS_SATISFIED
        assert rec.params["d_eff"] == pytest.approx(2.0, abs=1e-9)
        assert rec.params["D_G"] == 1
        assert rec.report.verdict == "equilibrates"
        assert set(BOUND_NAMES) == set(rec.bounds)
        # sensitivity report present at three tolerances
        assert set(rec.params["D_G_sensitivity"]) == {"0.1x", "1x", "10x"}

    def test_classical_rotation_single_cell(self):
        cfg = {
            "kind": "classical-pure",
            "epsilon": 0.1,
            "average": {"horizon": 256, "samples": 256, "scheme": "uniform-grid", "seed": 0},
            "system": {"map": {"name": "rotation", "angles": [0.25]}, "point": [0.05]},
            "measurement": {"partition": {"kind": "interval", "edges": [0.0, 0.9, 1.0]}},
        }
        rec = run_scenario(load_scenario(cfg))[0]
        assert rec.report.mean_distinguishability == 0.0
        assert rec.bounds["thm1-sufficiency"].status == STATUS_SATISFIED
        assert rec.bounds["thm2-necessity"].status == STATUS_SATISFIED
        assert rec.bounds["thm5-spectral"].status == STATUS_NA

    def test_ensemble_scenario_bound_status(self):
        cfg = {
            "kind": "classical-ensemble",
            "epsilon": 0.4,
            "average": {"horizon": 512, "samples": 512, "scheme": "uniform-grid", "seed": 0},
            "system": {
                "map": {"name": "cat-map"},
                "ensemble": {
                    "sampler": {"name": "contaminated-cat", "count": 300, "delta": 0.1,
                                 "seed": 4}
                },
            },
            "measurement": {
                "partition": {"kind": "grid", "edges": [[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]]}
            },
        }
        rec = run_scenario(load_scenario(cfg))[0]
        thm3 = rec.bounds["thm3-mixing"]
        assert thm3.value == pytest.approx(math.sqrt(4 * 0.1 / 2), abs=1e-12)
        assert thm3.status == STATUS_SATISFIED
        assert rec.params["delta"] == pytest.approx(0.1)
        assert rec.params["quadrature_floor"] > 0

    def test_energy_eigenstate_is_stationary(self):
        # the rounded eigenspace weights of an eigenstate can put 1/sum(w^2)
        # below 1; an eigenstate is stationary, so the spectral bound holds
        rng = np.random.default_rng(7)
        for _ in range(6):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            hamiltonian = (a + a.conj().T) / 2
            ground = np.linalg.eigh(hamiltonian)[1][:, 0]
            cfg = qubit_config(
                system={
                    "hamiltonian": {"matrix": {
                        "rows": 3, "cols": 3,
                        "data": [[z.real, z.imag] for z in hamiltonian.ravel().tolist()]}},
                    "state": {"vector": [[z.real, z.imag] for z in ground.tolist()]},
                },
                measurement={"sampler": {"name": "random", "outcomes": 2, "seed": 3}},
            )
            rec = run_scenario(load_scenario(cfg))[0]
            assert rec.error is None
            assert rec.params["d_eff"] >= 1.0
            assert rec.bounds["thm5-spectral"].status == STATUS_SATISFIED

    def test_one_gap_table_per_tolerance(self, monkeypatch):
        calls = count_gap_tables(monkeypatch)
        params = bench._build(bench._Node(sampled_quantum_config(), "scenario")).params
        assert len(calls) == 1
        assert params["D_G_sensitivity"]["1x"] == params["D_G"]

    def test_zero_gap_tol_is_the_tolerance_used(self):
        cfg = sampled_quantum_config()
        cfg["system"]["sampler"]["spectrum"] = "equally-spaced"
        assert bench._build(bench._Node(cfg, "scenario")).params["D_G"] == 7
        cfg["gap_tol"] = 0
        params = bench._build(bench._Node(cfg, "scenario")).params
        assert params["gap_tolerance"] == 0.0
        # at a literal zero tolerance every gap is its own class
        assert params["D_G"] == 1
        assert params["D_G_sensitivity"] == {"0.1x": 1, "1x": 1, "10x": 1}

    def test_empty_sweep_gives_no_records(self, monkeypatch):
        builds = count_builds(monkeypatch)
        scenario = load_scenario(synthetic_config(sweep={"system.probe.seed": []}))
        # the base config is still validated, and nothing is kept
        assert builds == ["synthetic-probe"]
        assert scenario.built == ()
        assert run_scenario(scenario) == []
        with pytest.raises(ConfigError, match=r"scenario\.system\.probe\.outcomes"):
            load_scenario(synthetic_config(
                system={"probe": {"outcomes": 0.5, "seed": 5}}, sweep={"epsilon": []}
            ))

    def test_each_sweep_point_is_built_once(self, monkeypatch):
        builds = count_builds(monkeypatch)
        scenario = load_scenario(synthetic_config(sweep={"system.probe.seed": [1, 2, 3]}))
        assert len(builds) == 3
        records = run_scenario(scenario)
        assert len(builds) == 3
        assert [r.error for r in records] == [None] * 3

    def test_running_twice_gives_equal_records(self):
        scenario = load_scenario(ensemble_config())
        first, second = run_scenario(scenario), run_scenario(scenario)
        assert first[0].params["quadrature_floor"] > 0
        assert second[0].params["quadrature_floor"] == first[0].params["quadrature_floor"]
        assert "quadrature_floor" not in scenario.built[0][0].params
        assert outputs(first) == outputs(second)

    def test_an_ensemble_floor_is_evaluated_once_a_record(self, monkeypatch):
        # the record's floor is the report's "quadrature" error, evaluated once
        floor, seen = classical.ensemble_noise_floor, []
        monkeypatch.setattr(classical, "ensemble_noise_floor",
                            lambda ens, omega: seen.append(omega) or floor(ens, omega))
        cfg = ensemble_config()
        cfg["sweep"] = {"system.ensemble.sampler.seed": [4, 5, 6]}
        records = run_scenario(load_scenario(cfg))
        assert [rec.report.equilibrium_distribution for rec in records] == seen
        for rec in records:
            assert rec.params["quadrature_floor"] == rec.report.errors["quadrature"] > 0

    def test_sweep_grid_size(self):
        scenario = load_scenario(
            synthetic_config(sweep={"system.probe.seed": [1, 2, 3], "epsilon": [0.2, 0.7]})
        )
        records = run_scenario(scenario)
        assert len(records) == 6
        assert [r.params["system.probe.seed"] for r in records] == [1, 2, 3] * 2

    def test_runtime_error_recorded_and_sweep_continues(self, monkeypatch):
        original = bench._BUILDERS["synthetic-probe"]

        def flaky(cfg, epsilon):
            if cfg.data["system"]["probe"]["seed"] == 2:
                raise np.linalg.LinAlgError("eigendecomposition did not converge")
            return original(cfg, epsilon)

        monkeypatch.setitem(bench._BUILDERS, "synthetic-probe", flaky)
        scenario = load_scenario(synthetic_config(sweep={"system.probe.seed": [1, 2, 3]}))
        records = run_scenario(scenario)
        assert len(records) == 3
        assert records[0].error is None
        assert "LinAlgError" in records[1].error
        assert all(chk.status == STATUS_NA for chk in records[1].bounds.values())
        assert records[2].error is None

    def test_sampling_error_recorded_and_sweep_continues(self, monkeypatch):
        original = bench._BUILDERS["synthetic-probe"]

        def failing_sampler(cfg, epsilon):
            rt = original(cfg, epsilon)
            if cfg.data["system"]["probe"]["seed"] != 2:
                return rt

            def sample_many(times):
                raise FloatingPointError("overflow encountered in the probe")

            return dataclasses.replace(rt, probe=core.TrajectoryProbe(sample_many, 3))

        monkeypatch.setitem(bench._BUILDERS, "synthetic-probe", failing_sampler)
        records = run_scenario(load_scenario(synthetic_config(
            sweep={"system.probe.seed": [1, 2, 3]})))
        assert [rec.error for rec in records] == [
            None, "FloatingPointError: overflow encountered in the probe", None]
        failed = records[1]
        assert (failed.report, failed.seed) == (None, 3)
        assert all(chk == BoundCheck(None, STATUS_NA) for chk in failed.bounds.values())
        assert records[2].report is not None


class TestEmission:
    def test_csv_header_and_rows(self, tmp_path):
        records = run_scenario(load_scenario(qubit_config()))
        path = tmp_path / "out.csv"
        emit_report(records, "csv", path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2
        row = lines[1].split(",")
        assert row[0] == "qubit"
        assert row[1] == "2"

    def test_csv_quotes_a_name_with_special_characters(self, tmp_path):
        # the fields were joined with "," unquoted: 14 fields under 13 columns
        name = 'run, take "2"\nagain'
        records = run_scenario(load_scenario(qubit_config(name=name)))
        path = tmp_path / "out.csv"
        emit_report(records, "csv", path)
        with open(path, newline="") as f:
            header, row = csv.reader(f)
        assert header == CSV_COLUMNS
        assert len(row) == len(CSV_COLUMNS) == 13
        assert row[0] == name

    def test_csv_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_report(run_scenario(load_scenario(qubit_config())), "csv", a)
        emit_report(run_scenario(load_scenario(qubit_config())), "csv", b)
        assert a.read_bytes() == b.read_bytes()

    def test_csv_empty_records_write_the_header_alone(self, tmp_path):
        # the columns are a fixed contract, so no record is needed to name them
        path = tmp_path / "x.csv"
        emit_report([], "csv", path)
        assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"

    def test_json_roundtrip_identical(self, tmp_path):
        records = run_scenario(
            load_scenario(synthetic_config(sweep={"system.probe.seed": [1, 2]}))
        )
        path = tmp_path / "out.json"
        emit_report(records, "json", path)
        assert load_records(path) == records

    @pytest.mark.parametrize(
        "defect, message",
        [
            (lambda text: text.replace('"bounds"', '"unbounded"', 1),
             r"^records\[0\]\.bounds: required$"),
            (lambda text: json.dumps([json.loads(text)[0], {
                **json.loads(text)[1],
                "report": {**json.loads(text)[1]["report"], "standard_error": math.nan}}]),
             r"^records\[1\]\.report\.standard_error: standard_error must be a finite number, "
             r"got nan$"),
            (lambda text: json.dumps({"records": json.loads(text)}),
             r"out\.json: expected a JSON list of records, got dict$"),
            (lambda text: text[:-3], r"out\.json: invalid JSON \("),
            (lambda text: json.dumps([{**json.loads(text)[0], "bounds": {}}]),
             r"^records\[0\]\.bounds\.thm1-sufficiency: required$"),
            # each of these used to load
            (edit_record(1, lambda r: r.update(seed=True)),
             r"^records\[1\]\.seed: seed must be an integer >= 0, got True$"),
            (edit_record(0, lambda r: r.update(wall_time="slow")),
             r"^records\[0\]\.wall_time: wall_time must be a finite number, got 'slow'$"),
            (edit_record(1, lambda r: r["bounds"]["thm1-sufficiency"].update(value="0.8")),
             r"^records\[1\]\.bounds\.thm1-sufficiency: the report gives \{'value': 0\.75, "
             r"'status': 'not-applicable'\}, got \{'value': '0\.8', "),
            (edit_record(0, lambda r: r["report"]["bound_values"].update(
                {"thm1-sufficiency": "0.8"})),
             r"^records\[0\]\.report\.bound_values\.thm1-sufficiency: thm1-sufficiency must be "
             r"a finite number, got '0\.8'$"),
            (edit_record(1, lambda r: r["report"].update(equilibrium_distribution=["0.5", "0.5"])),
             r"^records\[1\]\.report\.equilibrium_distribution: equilibrium_distribution must "
             r"be numbers, got '0\.5'$"),
            (edit_record(0, lambda r: r["report"].update(equilibrium_distribution=[True, False])),
             r"^records\[0\]\.report\.equilibrium_distribution: equilibrium_distribution must "
             r"be numbers, got True$"),
            (edit_record(1, lambda r: r["report"].update(mean_distinguishability=True)),
             r"^records\[1\]\.report\.mean_distinguishability: mean_distinguishability must be "
             r"a finite number, got True$"),
            (edit_record(0, lambda r: r.update(wall_time=math.nan)),
             r"^records\[0\]\.wall_time: wall_time must be a finite number, got nan$"),
            (edit_record(1, lambda r: r["bounds"]["thm1-sufficiency"].update(value=math.inf)),
             r"^records\[1\]\.bounds\.thm1-sufficiency: the report gives \{'value': 0\.75, "
             r"'status': 'not-applicable'\}, got \{'value': inf, "),
            (edit_record(0, lambda r: r["report"]["bound_values"].update(
                {"thm1-sufficiency": -math.inf})),
             r"^records\[0\]\.report\.bound_values\.thm1-sufficiency: thm1-sufficiency must be "
             r"a finite number, got -inf$"),
            (edit_record(1, lambda r: r["report"].update(
                mean_distinguishability=0.1, standard_error=0.01, epsilon=0.5,
                verdict="inconclusive")),
             r"^records\[1\]\.report\.verdict: the report gives 'equilibrates', "
             r"got 'inconclusive'$"),
            # values that to_dict never writes; each used to load
            (edit_record(0, lambda r: r["bounds"]["thm2-necessity"].update(status="violatd")),
             r"^records\[0\]\.bounds\.thm2-necessity: the report gives \{'value': None, "
             r"'status': 'not-applicable'\}, got \{'value': None, 'status': 'violatd'\}$"),
            (edit_record(1, lambda r: r["bounds"].update(
                {"thm9-extra": {"value": None, "status": "not-applicable"}})),
             r"^records\[1\]\.bounds\.thm9-extra: unknown bound, expected one of \("),
            (edit_record(0, lambda r: r.update(scenario=5)),
             r"^records\[0\]\.scenario: expected a string, got int$"),
            (edit_record(1, lambda r: r.update(params=[["N", 3]])),
             r"^records\[1\]\.params: expected an object, got list$"),
            (edit_record(0, lambda r: r.update(error=3)),
             r"^records\[0\]\.error: expected a string, got int$"),
            # a record holds exactly one of a report and an error
            (edit_record(0, lambda r: r.update(error="x")),
             r"^records\[0\]: a record holds exactly one of a report and an error$"),
            (edit_record(1, lambda r: r.update(report=None, bounds={
                name: {"value": None, "status": "not-applicable"} for name in BOUND_NAMES})),
             r"^records\[1\]: a record holds exactly one of a report and an error$"),
        ],
        ids=["missing-field", "nan-stderr", "top-level-object", "bad-json", "missing-bound",
             "boolean-seed", "string-wall-time", "string-bound-value", "string-bound-values-entry",
             "string-omega", "boolean-omega", "boolean-mean", "nan-wall-time",
             "infinite-bound-value", "infinite-bound-values-entry", "inconsistent-verdict",
             "unknown-status", "unknown-bound", "number-scenario", "list-params", "number-error",
             "report-and-error", "neither-report-nor-error"],
    )
    def test_load_records_names_the_malformed_field(self, tmp_path, defect, message):
        path = tmp_path / "out.json"
        emit_report(run_scenario(load_scenario(synthetic_config(
            sweep={"system.probe.seed": [1, 2]}))), "json", path)
        path.write_text(defect(path.read_text()))
        with pytest.raises(ConfigError, match=message):
            load_records(path)

    @pytest.mark.parametrize("tamper, field", [
        (lambda r: r["bounds"]["thm5-spectral"].update(status="violated"),
         "bounds.thm5-spectral"),
        (lambda r: r["bounds"]["thm5-spectral"].update(value=0.0), "bounds.thm5-spectral"),
        (lambda r: r["bounds"].update(
            {"thm2-necessity": {"value": 0.5, "status": "satisfied"}}), "bounds.thm2-necessity"),
        (lambda r: r.update(report=None, error="x", bounds={
            **r["bounds"], "thm1-sufficiency": {"value": None, "status": "not-applicable"}}),
         "bounds.thm5-spectral"),
        (lambda r: r["report"]["bound_values"].update({"thm9-extra": 0.1}),
         "report.bound_values.thm9-extra"),
    ], ids=["flipped-status", "zero-value", "inapplicable-thm2", "no-report", "unknown-value"])
    def test_load_records_refuses_what_the_report_does_not_give(self, tmp_path, tamper, field):
        # each of these loaded, and the flipped status made any_violation True
        (scenario,) = [s for s in builtin_scenarios() if s.name == "qubit-benchmark"]
        path = tmp_path / "out.json"
        emit_report(run_scenario(scenario), "json", path)
        path.write_text(edit_record(0, tamper)(path.read_text()))
        with pytest.raises(ConfigError, match=rf"^records\[0\]\.{re.escape(field)}: "):
            load_records(path)

    @pytest.mark.parametrize("tamper, field", [
        (lambda r: r.update(walltime=1.0), "walltime: unknown field; did you mean 'wall_time'?"),
        (lambda r: r["report"].update(mean_distinguishabilty=0.1),
         "report.mean_distinguishabilty: unknown field; did you mean 'mean_distinguishability'?"),
    ], ids=["record", "report"])
    def test_load_records_refuses_an_unknown_key(self, tmp_path, tamper, field):
        # each loaded equal to the clean record; params stays a free object
        path = tmp_path / "out.json"
        records = run_scenario(load_scenario(synthetic_config()))
        emit_report(records, "json", path)
        path.write_text(edit_record(0, lambda r: r["params"].update(walltime=1.0))(
            path.read_text()))
        assert load_records(path)[0].params["walltime"] == 1.0
        path.write_text(edit_record(0, tamper)(path.read_text()))
        with pytest.raises(ConfigError, match=rf"^records\[0\]\.{re.escape(field)}$"):
            load_records(path)

    def test_record_equality_compares_every_field(self):
        rec = run_scenario(load_scenario(synthetic_config()))[0]
        assert RunRecord.from_dict(rec.to_dict()) == rec
        data = rec.to_dict()
        data["wall_time"] += 1.0
        assert RunRecord.from_dict(data) != rec
        data = rec.to_dict()
        data["report"]["bound_values"]["thm1-sufficiency"] = 0.0
        data["bounds"]["thm1-sufficiency"]["value"] = 0.0
        assert RunRecord.from_dict(data) != rec

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigError, match="format"):
            emit_report([], "yaml", tmp_path / "x")

    def test_record_holds_a_report_or_an_error(self):
        report = thm5_record(0.5).report
        for rep, error in [(None, None), (report, "x")]:
            with pytest.raises(ValueError, match="exactly one of a report and an error"):
                RunRecord(scenario="s", params={}, report=rep, wall_time=0.0, seed=0,
                          error=error)

    def test_record_takes_no_bounds(self):
        # a record once stored its checks beside the report: an error record
        # with every bound violated constructed, and any_violation read True
        violated = {name: BoundCheck(0.1, STATUS_VIOLATED) for name in BOUND_NAMES}
        with pytest.raises(TypeError):
            RunRecord(scenario="s", params={}, report=None, bounds=violated,
                      wall_time=0.0, seed=0, error="x")
        failed = RunRecord(scenario="s", params={}, report=None, wall_time=0.0, seed=0,
                           error="x")
        assert failed.bounds == {name: BoundCheck(None, STATUS_NA) for name in BOUND_NAMES}


class TestCli:
    def test_run_command(self, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(qubit_config()))
        out = tmp_path / "records.csv"
        result = CliRunner().invoke(
            cli.main, ["run", str(path), "--out", str(out), "--format", "csv"]
        )
        assert result.exit_code == 0, result.output
        assert "verdict=equilibrates" in result.output
        assert out.exists()

    def test_run_rejects_sweep(self, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(synthetic_config(sweep={"epsilon": [0.1, 0.2]})))
        result = CliRunner().invoke(cli.main, ["run", str(path)])
        assert result.exit_code == 1
        assert "sweep" in result.output

    def test_sweep_command(self, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(synthetic_config(sweep={"system.probe.seed": [1, 2]})))
        out = tmp_path / "records.json"
        result = CliRunner().invoke(
            cli.main, ["sweep", str(path), "--out", str(out), "--format", "json"]
        )
        assert result.exit_code == 0, result.output
        assert len(load_records(out)) == 2

    @pytest.mark.parametrize("command, sweep, flags", [
        ("run", None, []),
        ("sweep", {"system.probe.seed": [1, 2, 3]}, []),
        ("run", None, ["--samples", "500"]),
        ("sweep", {"system.probe.seed": [1, 2, 3]}, ["--seed", "4"]),
    ], ids=["run", "sweep", "run-samples-flag", "sweep-seed-flag"])
    def test_one_build_per_sweep_point(self, tmp_path, monkeypatch, command, sweep, flags):
        path = tmp_path / "scn.json"
        cfg = synthetic_config() if sweep is None else synthetic_config(sweep=sweep)
        path.write_text(json.dumps(cfg))
        out = tmp_path / "records.json"
        builds = count_builds(monkeypatch)
        result = CliRunner().invoke(
            cli.main, [command, str(path), *flags, "--out", str(out), "--format", "json"]
        )
        assert result.exit_code == 0, result.output
        assert len(builds) == (1 if sweep is None else 3)
        # the flags act as if written into the config
        if flags:
            field = {"--samples": "samples", "--seed": "seed"}[flags[0]]
            cfg["average"][field] = int(flags[1])
        assert outputs(load_records(out)) == outputs(run_scenario(load_scenario(cfg)))

    def test_verify_builds_each_point_once(self, monkeypatch):
        points = sum(len(s.sweep_points) for s in builtin_scenarios())
        builds = count_builds(monkeypatch)
        result = CliRunner().invoke(cli.main, ["verify"])
        assert result.exit_code == 0, result.output
        assert len(builds) == points

    def test_verify_with_a_flag_builds_each_point_once(self, tmp_path, monkeypatch):
        configs = [copy.deepcopy(s.config) for s in builtin_scenarios()]
        for cfg in configs:
            cfg["average"]["samples"] = 500
        points = sum(len(s.sweep_points) for s in builtin_scenarios())
        out = tmp_path / "records.json"
        builds = count_builds(monkeypatch)
        result = CliRunner().invoke(
            cli.main, ["verify", "--samples", "500", "--out", str(out), "--format", "json"]
        )
        assert result.exit_code == 0, result.output
        assert len(builds) == points
        expected = [r for cfg in configs for r in run_scenario(load_scenario(cfg))]
        assert outputs(load_records(out)) == outputs(expected)

    @pytest.mark.parametrize("samples", [MAX_SAMPLES + 1, 10**15])
    def test_samples_flag_above_the_cap_fails(self, tmp_path, samples):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(synthetic_config()))
        result = CliRunner().invoke(cli.main, ["run", str(path), "--samples", str(samples)])
        assert result.exit_code == 1
        assert "scenario.average.samples" in result.output

    def test_gap_tol_flag_runs_a_classical_scenario(self, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(rotation_config()))
        result = CliRunner().invoke(cli.main, ["run", str(path), "--gap-tol", "1e-6"])
        assert result.exit_code == 0, result.output
        result = CliRunner().invoke(cli.main, ["verify", "--gap-tol", "1e-6", "--samples", "500"])
        assert result.exit_code == 0, result.output

    def test_non_finite_gap_tol_flag_fails(self, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(qubit_config()))
        result = CliRunner().invoke(cli.main, ["run", str(path), "--gap-tol", "nan"])
        assert result.exit_code == 1
        assert "scenario.gap_tol" in result.output

    @pytest.mark.parametrize("fmt, text", [
        ("csv", ",".join(CSV_COLUMNS) + "\n"),
        ("json", "[]\n"),
    ], ids=["csv", "json"])
    def test_sweep_over_an_empty_grid(self, tmp_path, fmt, text):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(synthetic_config(sweep={"epsilon": []})))
        out = tmp_path / f"records.{fmt}"
        result = CliRunner().invoke(
            cli.main, ["sweep", str(path), "--out", str(out), "--format", fmt]
        )
        assert result.exit_code == 0, result.output
        assert result.output == f"wrote 0 record(s) to {out}\n"
        assert out.read_text() == text

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_an_unwritable_out_is_a_cli_error(self, tmp_path, command):
        # it used to end, after the whole run, in a FileNotFoundError traceback
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(synthetic_config()))
        out = tmp_path / "missing" / "x.csv"
        args = ["run", str(path)] if command == "run" else ["verify"]
        result = CliRunner().invoke(cli.main, [*args, "--out", str(out)])
        assert result.exit_code == 1
        assert result.output.endswith(f"Error: cannot write {out} (No such file or directory)\n")

    def test_sweep_requires_grid(self, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(synthetic_config()))
        result = CliRunner().invoke(cli.main, ["sweep", str(path)])
        assert result.exit_code == 1

    def test_flag_overrides_change_seed(self, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(synthetic_config()))
        a = CliRunner().invoke(cli.main, ["run", str(path), "--seed", "1"])
        b = CliRunner().invoke(cli.main, ["run", str(path), "--seed", "1"])
        c = CliRunner().invoke(cli.main, ["run", str(path), "--seed", "9"])
        assert a.output == b.output
        assert a.output != c.output

    def test_violation_exit_code(self, tmp_path, monkeypatch):
        violated = thm5_record(0.1)
        assert violated.bounds["thm5-spectral"] == BoundCheck(0.1, STATUS_VIOLATED)
        monkeypatch.setattr(bench, "run_scenario", lambda s: [violated])
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(synthetic_config()))
        result = CliRunner().invoke(cli.main, ["run", str(path)])
        assert result.exit_code == 2

    def test_an_error_record_is_printed(self, tmp_path, monkeypatch):
        failed = RunRecord(scenario="s", params={"epsilon": 0.2}, report=None, wall_time=0.0,
                           seed=0, error="ValueError: x")
        monkeypatch.setattr(bench, "run_scenario", lambda s: [failed])
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(synthetic_config()))
        result = CliRunner().invoke(cli.main, ["run", str(path)])
        assert result.output == "s {'epsilon': 0.2}: ERROR ValueError: x\n"

    def test_an_error_record_exits_1(self, tmp_path, monkeypatch):
        # it exited 0 after printing ERROR; the records are printed and
        # written first, and an error outranks a violated bound
        failed = RunRecord(scenario="s", params={}, report=None, wall_time=0.0, seed=0,
                           error="ValueError: x")
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(synthetic_config()))
        out = tmp_path / "records.json"
        for records in ([failed], [thm5_record(0.1), failed]):
            monkeypatch.setattr(bench, "run_scenario", lambda s, records=records: records)
            result = CliRunner().invoke(cli.main, ["run", str(path), "--out", str(out),
                                                   "--format", "json"])
            assert result.exit_code == 1
            assert "s {}: ERROR ValueError: x\n" in result.output
            assert load_records(out) == records
        monkeypatch.setattr(bench, "run_scenario", lambda s: [failed])
        monkeypatch.setattr(bench, "builtin_scenarios", lambda overrides: [None])
        result = CliRunner().invoke(cli.main, ["verify"])
        assert result.exit_code == 1
        assert "checked 0 bound evaluations across 1 runs, 0 violated" in result.output

    def test_verify_with_one_sample_fails(self):
        result = CliRunner().invoke(cli.main, ["verify", "--samples", "1"])
        assert result.exit_code == 1
        assert result.output == "Error: scenario.average.samples: need at least 2 samples, got 1\n"

    def test_bounds_command(self):
        result = CliRunner().invoke(
            cli.main,
            ["bounds", "-n", "5", "--effective-dimension", "100", "--epsilon", "0.1",
             "--delta", "0.02"],
        )
        assert result.exit_code == 0, result.output
        assert "0.1" in result.output
        assert "max outcomes" in result.output and ": 5" in result.output
        assert f"{math.sqrt(5 * 0.02 / 2):.10g}" in result.output

    @pytest.mark.parametrize("flags", [
        ["--effective-dimension", "nan"],
        ["--effective-dimension", "inf", "--epsilon", "0.5"],
    ])
    def test_bounds_rejects_a_non_finite_effective_dimension(self, flags):
        result = CliRunner().invoke(cli.main, ["bounds", "--outcomes", "2", *flags])
        assert result.exit_code == 1
        assert "Error: effective_dim must be a finite number" in result.output
        assert "bound (" not in result.output

    def test_bounds_max_outcomes_beyond_the_float_range(self):
        result = CliRunner().invoke(
            cli.main,
            ["bounds", "-n", "2", "--effective-dimension", "1e308", "--epsilon", "0.9"],
        )
        assert result.exit_code == 1
        assert "Error: 4 d_eff eps^2 / D_G + 1 exceeds the largest float" in result.output
        assert "Traceback" not in result.output

    def test_bounds_notes_a_vacuous_bound(self):
        result = CliRunner().invoke(cli.main, ["bounds", "-n", "3", "--effective-dimension", "1"])
        assert result.exit_code == 0, result.output
        assert result.output.endswith(
            "note: effective dimension 1 makes this bound vacuous (>= 1/2)\n")

    def test_bounds_epsilon_needs_the_effective_dimension(self):
        result = CliRunner().invoke(cli.main, ["bounds", "--outcomes", "2", "--epsilon", "0.3"])
        assert result.exit_code == 2
        assert "--effective-dimension" in result.output

    def test_bounds_eigenvalues_sensitivity(self):
        result = CliRunner().invoke(cli.main, ["bounds", "-n", "2", "--eigenvalues", "0,1,2,3"])
        assert result.exit_code == 0, result.output
        assert result.output.count("gap-degeneracy") == 3
        assert ": 3" in result.output

    def test_bounds_eigenvalues_reuses_the_1x_degeneracy(self, monkeypatch):
        calls = count_gap_tables(monkeypatch)
        result = CliRunner().invoke(
            cli.main,
            ["bounds", "-n", "2", "--eigenvalues", "0,1,2,3", "--effective-dimension", "4"],
        )
        assert result.exit_code == 0, result.output
        assert len(calls) == 1
        assert "D_G=3," in result.output

    def test_any_violation_helper(self):
        failed = RunRecord(scenario="s", params={}, report=None, wall_time=0.0, seed=0,
                           error="x")
        satisfied, violated = thm5_record(0.5), thm5_record(0.1)
        assert satisfied.bounds["thm5-spectral"] == BoundCheck(0.5, STATUS_SATISFIED)
        assert not any_violation([failed, satisfied])
        assert any_violation([failed, violated, satisfied])


class TestBuiltinSuite:
    def test_builtin_scenarios_load(self):
        scenarios = builtin_scenarios()
        assert len(scenarios) >= 5
        kinds = {s.config["kind"] for s in scenarios}
        assert kinds == {
            "quantum", "classical-pure", "classical-ensemble", "synthetic-probe",
        }

    def test_each_record_samples_once(self, monkeypatch):
        times_calls = []
        original = core.sample_times

        def counting_times(cfg):
            times_calls.append(cfg)
            return original(cfg)

        monkeypatch.setattr(core, "sample_times", counting_times)
        for scenario in builtin_scenarios():
            for point, (rt, build_s) in zip(scenario.sweep_points, scenario.built, strict=True):
                block_calls = []

                def counting_block(times, inner=rt.probe.sample_many):
                    block_calls.append(len(times))
                    return inner(times)

                # a fresh probe, with no block kept, on this one point
                probe = dataclasses.replace(rt.probe, sample_many=counting_block)
                one = dataclasses.replace(
                    scenario, sweep_points=(point,),
                    built=((dataclasses.replace(rt, probe=probe), build_s),),
                )
                times_calls.clear()
                [record] = run_scenario(one)
                assert record.error is None
                assert (len(times_calls), block_calls) == (1, [rt.cfg.samples]), scenario.name

    def test_shipped_suite_never_violates(self):
        records = []
        for scenario in builtin_scenarios():
            records.extend(run_scenario(scenario))
        assert records
        assert all(r.error is None for r in records)
        assert not any_violation(records)


def reference_bounds(kind: str, params: dict, report: EquilibrationReport) -> dict:
    """The bound evaluation that branched on the scenario kind and read its
    inputs back out of the point's params after sampling; kept as the oracle
    of the evaluation by each bound's own rule."""
    mean = report.mean_distinguishability
    err = report.standard_error
    eps = report.epsilon
    omega = report.equilibrium_distribution
    checks = {}

    if check_sufficiency(omega, eps):
        status = STATUS_SATISFIED if mean <= eps + 3.0 * err else STATUS_VIOLATED
    else:
        status = STATUS_NA
    checks["thm1-sufficiency"] = BoundCheck(value=1.0 - eps / 2.0, status=status)

    if kind == "classical-pure":
        statistically_equilibrated = mean <= eps - 3.0 * err
        if statistically_equilibrated and not classical.check_necessity(omega, eps):
            status = STATUS_VIOLATED
        else:
            status = STATUS_SATISFIED
        checks["thm2-necessity"] = BoundCheck(value=1.0 - eps, status=status)
    else:
        checks["thm2-necessity"] = BoundCheck(value=None, status=STATUS_NA)

    if kind == "classical-ensemble" and params.get("delta", 1.0) <= 0.5:
        bound = classical.mixed_equilibration_bound(params["N"], params["delta"])
        status = STATUS_SATISFIED if mean <= bound + 3.0 * err else STATUS_VIOLATED
        checks["thm3-mixing"] = BoundCheck(value=bound, status=status)
    else:
        checks["thm3-mixing"] = BoundCheck(value=None, status=STATUS_NA)

    if kind == "quantum":
        bound = quantum.equilibration_bound(params["N"], params["D_G"], params["d_eff"])
        status = STATUS_VIOLATED if mean - 3.0 * err > bound else STATUS_SATISFIED
        checks["thm5-spectral"] = BoundCheck(value=bound, status=status)
    else:
        checks["thm5-spectral"] = BoundCheck(value=None, status=STATUS_NA)

    return checks


def own_bound_values(kind: str, epsilon: float, params: dict) -> dict:
    """The bounds a builder of ``kind`` records for a point, besides the
    universal one, from the point's params."""
    if kind == "quantum":
        return {"thm5-spectral": quantum.equilibration_bound(
            params["N"], params["D_G"], params["d_eff"])}
    if kind == "classical-pure":
        return {"thm2-necessity": 1.0 - epsilon}
    if kind == "classical-ensemble" and params["delta"] <= 0.5:
        return {"thm3-mixing": classical.mixed_equilibration_bound(params["N"], params["delta"])}
    return {}


class TestBoundRules:
    def compare(self, kind, epsilon, params, mean, err, probs) -> tuple[bool, dict]:
        """Check one point both ways; return the checks and whether the point
        is the one allowed difference: a thm3 bound b on which
        `mean <= b + 3 err` and the shared `not mean - 3 err > b` disagree."""
        own = own_bound_values(kind, epsilon, params)
        bound_values = bench._Runtime(None, None, epsilon, params, own).bound_values
        report = EquilibrationReport(mean, err, OutcomeDistribution(probs), epsilon, bound_values)
        new, ref = bench._evaluate_bounds(report), reference_bounds(kind, params, report)
        b = own.get("thm3-mixing")
        flipped = b is not None and (mean <= b + 3.0 * err) == (mean - 3.0 * err > b)
        if flipped:
            status = STATUS_VIOLATED if mean - 3.0 * err > b else STATUS_SATISFIED
            assert new["thm3-mixing"] == BoundCheck(b, status)
            ref["thm3-mixing"] = new["thm3-mixing"]
        assert list(new.items()) == list(ref.items())
        return flipped, new

    def test_random_points_match_the_kind_branching_oracle(self):
        rng = np.random.default_rng(2024)
        statuses = set()
        for _ in range(4000):
            kind = bench.KINDS[rng.integers(4)]
            n = int(rng.integers(1, 7))
            params = {"N": n, "D_G": int(rng.integers(1, 5)),
                      "d_eff": float(rng.uniform(1.0, 30.0)), "delta": float(rng.random())}
            if rng.random() < 0.5:
                probs = rng.dirichlet(np.ones(n))
            else:
                top = rng.uniform(1.0 / n, 1.0)
                probs = np.concatenate(([top], (1.0 - top) * rng.dirichlet(np.ones(n - 1))))
            err = 0.0 if rng.random() < 0.1 else float(rng.uniform(0.0, 0.05))
            mean, epsilon = float(rng.random()), float(rng.random())
            flipped, checks = self.compare(kind, epsilon, params, mean, err, probs)
            assert not flipped
            statuses.update((name, chk.status) for name, chk in checks.items())
        # every bound was seen satisfied, violated and not-applicable
        assert statuses == {(name, s) for name in BOUND_NAMES
                            for s in (STATUS_SATISFIED, STATUS_VIOLATED, STATUS_NA)}

    def test_edges_match_the_kind_branching_oracle(self):
        def around(x):
            return (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))

        flips = 0
        for epsilon in (0.0, 0.2, 0.35, 0.5, 0.9):
            tops = {t for x in (1.0 - epsilon / 2.0, 1.0 - epsilon, 0.5)
                    for t in around(x) if t <= 1.0}
            for delta in (0.1, *around(0.5)):
                params = {"N": 2, "D_G": 1, "d_eff": 2.0, "delta": delta}
                thm3 = classical.mixed_equilibration_bound(2, min(delta, 0.5))
                thm5 = quantum.equilibration_bound(2, 1, 2.0)
                for err in (0.0, 0.01, 0.1 / 3.0):
                    centres = (epsilon + 3.0 * err, epsilon - 3.0 * err,
                               thm3 + 3.0 * err, thm5 + 3.0 * err)
                    means = {m for c in centres for m in around(c) if 0.0 <= m <= 1.0}
                    for kind in bench.KINDS:
                        for top in tops:
                            for mean in means:
                                flips += self.compare(
                                    kind, epsilon, params, mean, err, [top, 1.0 - top])[0]
        # the two thm3 forms do part within an ulp of mean = b + 3 err
        assert flips > 0

    def test_builders_record_the_bounds_of_their_kind(self):
        mostly_periodic = load_scenario(
            ensemble_config(), overrides={"system.ensemble.sampler.delta": 0.9})
        for scenario in [*builtin_scenarios(), mostly_periodic]:
            for rt, _ in scenario.built:
                own = own_bound_values(scenario.config["kind"], rt.epsilon, rt.params)
                assert rt.bound_values == {"thm1-sufficiency": 1.0 - rt.epsilon / 2.0, **own}
                assert list(rt.bound_values) == [n for n in BOUND_NAMES if n in rt.bound_values]
