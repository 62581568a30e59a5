"""Scenario loading, the sweep runner, report emission and the CLI."""

import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from equilib import bench, cli
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
from equilib.core import ConfigError


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

    def test_boolean_epsilon_in_sweep_rejected(self):
        cfg = synthetic_config(sweep={"epsilon": [0.3, False]})
        with pytest.raises(ConfigError, match=r"scenario\.epsilon"):
            load_scenario(cfg)

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

    def test_auto_horizon_only_quantum(self):
        cfg = synthetic_config(average={"horizon": "auto", "samples": 100})
        with pytest.raises(ConfigError, match="horizon"):
            load_scenario(cfg)

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
        assert scenario.kind == "synthetic-probe"

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

    def test_missing_file_reference(self, tmp_path):
        cfg = qubit_config()
        cfg["system"]["state"] = {"matrix": {"file": "nowhere.json"}}
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError, match="cannot read"):
            load_scenario(path)


class TestRunScenario:
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

    def test_empty_sweep_gives_no_records(self):
        scenario = load_scenario(synthetic_config(sweep={"system.probe.seed": []}))
        assert run_scenario(scenario) == []

    def test_sweep_grid_size(self):
        scenario = load_scenario(
            synthetic_config(sweep={"system.probe.seed": [1, 2, 3], "epsilon": [0.2, 0.7]})
        )
        records = run_scenario(scenario)
        assert len(records) == 6
        assert [r.params["system.probe.seed"] for r in records] == [1, 2, 3] * 2

    def test_runtime_error_recorded_and_sweep_continues(self, monkeypatch):
        original = bench._BUILDERS["synthetic-probe"]

        def flaky(cfg):
            if cfg["system"]["probe"]["seed"] == 2:
                raise np.linalg.LinAlgError("eigendecomposition did not converge")
            return original(cfg)

        monkeypatch.setitem(bench._BUILDERS, "synthetic-probe", flaky)
        scenario = load_scenario(synthetic_config(sweep={"system.probe.seed": [1, 2, 3]}))
        records = run_scenario(scenario)
        assert len(records) == 3
        assert records[0].error is None
        assert "LinAlgError" in records[1].error
        assert all(chk.status == STATUS_NA for chk in records[1].bounds.values())
        assert records[2].error is None


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

    def test_csv_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_report(run_scenario(load_scenario(qubit_config())), "csv", a)
        emit_report(run_scenario(load_scenario(qubit_config())), "csv", b)
        assert a.read_bytes() == b.read_bytes()

    def test_csv_empty_records(self, tmp_path):
        with pytest.raises(ConfigError, match="empty"):
            emit_report([], "csv", tmp_path / "x.csv")

    def test_json_roundtrip_identical(self, tmp_path):
        records = run_scenario(
            load_scenario(synthetic_config(sweep={"system.probe.seed": [1, 2]}))
        )
        path = tmp_path / "out.json"
        emit_report(records, "json", path)
        assert load_records(path) == records

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigError, match="format"):
            emit_report([], "yaml", tmp_path / "x")

    def test_record_requires_every_bound(self):
        with pytest.raises(ConfigError, match="missing bound"):
            RunRecord(
                scenario="s", params={}, report=None,
                bounds={"thm1-sufficiency": BoundCheck(None, STATUS_NA)},
                wall_time=0.0, seed=0,
            )


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
        violated = RunRecord(
            scenario="s", params={"N": 2}, report=None,
            bounds={
                name: BoundCheck(0.1, STATUS_VIOLATED if name == "thm5-spectral" else STATUS_NA)
                for name in BOUND_NAMES
            },
            wall_time=0.0, seed=0, error="forced",
        )
        monkeypatch.setattr(bench, "run_scenario", lambda s: [violated])
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(synthetic_config()))
        result = CliRunner().invoke(cli.main, ["run", str(path)])
        assert result.exit_code == 2

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

    def test_bounds_eigenvalues_sensitivity(self):
        result = CliRunner().invoke(cli.main, ["bounds", "-n", "2", "--eigenvalues", "0,1,2,3"])
        assert result.exit_code == 0, result.output
        assert result.output.count("gap-degeneracy") == 3
        assert ": 3" in result.output

    def test_any_violation_helper(self):
        ok = RunRecord(
            scenario="s", params={}, report=None,
            bounds={name: BoundCheck(None, STATUS_NA) for name in BOUND_NAMES},
            wall_time=0.0, seed=0, error="x",
        )
        assert not any_violation([ok])


class TestBuiltinSuite:
    def test_builtin_scenarios_load(self):
        scenarios = builtin_scenarios()
        assert len(scenarios) >= 5
        kinds = {s.kind for s in scenarios}
        assert kinds == {
            "quantum", "classical-pure", "classical-ensemble", "synthetic-probe",
        }

    def test_shipped_suite_never_violates(self):
        records = []
        for scenario in builtin_scenarios():
            records.extend(run_scenario(scenario))
        assert records
        assert all(r.error is None for r in records)
        assert not any_violation(records)
