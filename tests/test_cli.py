import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from rollgeo import charts as chart_catalog
from rollgeo import suites
from rollgeo.charts import ChartMetric
from rollgeo.cli import main
from rollgeo.errors import FrameError
from rollgeo.suites import scenario_by_name, scenario_names


DELETE = object()

# Replacement values of the mutation test: wrong types, signs, shapes and sizes.
MUTANTS = (DELETE, None, "z", "", True, -3, -1, 0, 1.5, [], [1], [1, 2], [[0.5, 0.5]],
           {}, {"x": 1})

# The contact data of a scenario moved to flat 3-space.
_SOLID = {"chart": "euclidean(3)", "chart_hat": "euclidean(3)", "x": [0.1, 0.2, 0.3],
          "xhat": [0.0, 0.0, 0.0]}


@pytest.fixture()
def runner():
    return CliRunner()


def _run(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


class TestCatalog:
    def test_list_names_everything(self, runner):
        result = _run(runner, "catalog", "list")
        assert result.exit_code == 0
        for name in ("sphere-on-plane-pendulum", "heisenberg-lift",
                     "sphere-on-plane-bvp", "theorem-2-4", "first-integrals"):
            assert name in result.output

    def test_show_round_trips_json(self, runner):
        result = _run(runner, "catalog", "show", "sphere-on-plane-geodesic")
        assert result.exit_code == 0
        record = json.loads(result.output)
        assert record["kind"] == "geodesic"
        assert record["chart"] == "sphere(1)"

    def test_show_unknown_is_validation_error(self, runner):
        result = _run(runner, "catalog", "show", "no-such-scenario")
        assert result.exit_code == 3
        assert "available" in result.output


class TestRunErrors:
    def test_malformed_file_is_parse_error(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "geodesic",\n  broken')
        result = _run(runner, "run", str(bad))
        assert result.exit_code == 2
        assert "line" in result.output

    def test_unknown_name_is_parse_error(self, runner):
        result = _run(runner, "run", "no-such-scenario")
        assert result.exit_code == 2

    def test_missing_field_is_validation_error(self, runner, tmp_path):
        partial = tmp_path / "partial.json"
        partial.write_text(json.dumps({"kind": "geodesic", "chart": "sphere(1)"}))
        result = _run(runner, "run", str(partial))
        assert result.exit_code == 3
        assert "requires field" in result.output

    def test_equal_curvature_pendulum_is_validation_error(self, runner, tmp_path):
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps({
            "kind": "pendulum-2d", "chart": "euclidean(2)",
            "chart_hat": "euclidean(2)", "x": [0.0, 0.0], "xhat": [0.0, 0.0],
            "theta": 0.3, "L": 0.1, "b1": 0.0, "b2": 0.0, "a": 1.0, "T": 1.0,
        }))
        result = _run(runner, "run", str(flat))
        assert result.exit_code == 3
        assert "bracket-generating" in result.output

    @pytest.mark.parametrize("name, edit", [
        ("sphere-great-circle-develop", {**_SOLID, "direction": [0.3, 0.4, 0.5]}),
        ("paraboloid-magnetic-roll", {**_SOLID, "u": [0.6, 0.8, 0.0], "v": [0.1, 0.0, 0.2]}),
    ])
    def test_develop_and_rn_roll_take_any_dimension(self, runner, tmp_path, name, edit):
        scenario = scenario_by_name(name)
        scenario.update(edit, T=1.0)
        path = tmp_path / "solid.json"
        path.write_text(json.dumps(scenario))
        result = _run(runner, "run", str(path), "--output-dir", str(tmp_path / "out"))
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("option, value, field", [
        ("--T", "0", "'T'"),
        ("--tol", "-1", "'tol'"),
        ("--tol", "0", "'tol'"),
        ("--tol", "nan", "'tol'"),
    ])
    def test_degenerate_horizon_or_tolerance_is_validation_error(
            self, runner, tmp_path, option, value, field):
        result = _run(runner, "run", "sphere-on-plane-geodesic", option, value,
                      "--output-dir", str(tmp_path))
        assert result.exit_code == 3
        assert field in result.output
        assert "Traceback" not in result.output
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("samples", ["0", "1", "-5"])
    def test_too_few_samples_is_validation_error(self, runner, tmp_path, samples):
        result = _run(runner, "run", "sphere-on-plane-geodesic", "--T", "1",
                      "--samples", samples, "--output-dir", str(tmp_path))
        assert result.exit_code == 3
        assert "'--samples'" in result.output
        assert "Traceback" not in result.output
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("name, field, value, message", [
        ("sphere-on-plane-geodesic", "x", [1.5, 0.0, 0.0], "must have 2 entries"),
        ("sphere-on-plane-geodesic", "x", ["a", 0.0], "must be a list of numbers"),
        ("sphere-on-plane-geodesic", "chart_hat", "euclidean(3)", "same dimension"),
        ("sphere-great-circle-develop", "direction", 1.0, "must be a list of numbers"),
        ("sphere-on-plane-bvp", "true_params", [1.1, 0.15, 0.25], "must have 4 entries"),
    ])
    def test_malformed_vector_is_validation_error(self, runner, tmp_path, name, field,
                                                  value, message):
        scenario = scenario_by_name(name)
        scenario[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(scenario))
        result = _run(runner, "run", str(path), "--output-dir", str(tmp_path / "out"))
        assert result.exit_code == 3
        assert f"'{field}'" in result.output and message in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("name, edit, field", [
        ("heisenberg-lift", {"initial": {"x": [0.1], "y": [0.1], "a": [0.4, 0.7],
                                         "b": [0.5]}}, "'initial.x'"),
        ("heisenberg-lift", {"initial": {"x": [0.3, -0.2], "y": [0.1], "a": [0.4, 0.7],
                                         "b": "z"}}, "'initial.b'"),
        ("heisenberg-lift", {"initial": {"x": [0.3, -0.2], "a": [0.4, 0.7],
                                         "b": [0.5]}}, "'initial.y'"),
        ("heisenberg-lift", {"initial": [1, 2]}, "'initial'"),
        ("heisenberg-lift", {"hamiltonian": "nope"}, "'hamiltonian'"),
        ("heisenberg-lift", {"hamiltonian": "sphere(1)",  # x at the pole
                             "initial": {"x": [0.0, 0.0], "y": [0.1], "a": [0.4, 0.7],
                                         "b": [0.5]}}, "'initial.x'"),
        ("heisenberg-lift", {"hamiltonian": "euclidean(3)"}, "'hamiltonian'"),
        ("frame-bundle-lift", {"initial": {"x": [0.0, 0.0], "y": [0.0, 0.0, 0.0, 0.0],
                                           "a": [0.12, 0.15], "b": [0.1, 0.05, 0.02, 0.03]}},
         "'initial'"),
        ("sphere-on-plane-geodesic", {"ell": "z"}, "'ell'"),
        ("sphere-on-plane-geodesic", {"ell": None}, "'ell'"),
        ("sphere-on-plane-pendulum", {"theta": None}, "'theta'"),
        ("sphere-on-plane-pendulum", {"theta": True}, "'theta'"),
        ("sphere-on-plane-geodesic", {"thresholds": [1]}, "'thresholds'"),
        ("sphere-on-plane-geodesic", {"thresholds": {"speed_drift": "x"}},
         "'thresholds.speed_drift'"),
        ("sphere-on-plane-bvp", {"perturbation": -1}, "'perturbation'"),
        ("sphere-on-plane-bvp", {"seed": -3}, "'seed'"),
        ("sphere-on-plane-bvp", {"seed": 1.5}, "'seed'"),
        ("sphere-on-plane-geodesic", {"name": "a/b"}, "'name'"),
        # the scalar charge, the pendulum and the shooting parameters are 2D only
        ("sphere-on-plane-geodesic", {**_SOLID, "u": [0.6, 0.8, 0.0], "v": [0.1, 0.0, 0.2]},
         "'chart'"),
        ("sphere-on-plane-pendulum", _SOLID, "'chart'"),
        ("sphere-on-plane-bvp", _SOLID, "'chart'"),
    ])
    def test_malformed_field_is_validation_error(self, runner, tmp_path, name, edit,
                                                 field):
        scenario = scenario_by_name(name)
        scenario.update(edit)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(scenario))
        out = tmp_path / "out"
        result = _run(runner, "run", str(path), "--output-dir", str(out))
        assert result.exit_code == 3, result.output
        assert field in result.output
        assert "Traceback" not in result.output
        assert not out.exists()

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.data())
    def test_mutated_catalog_scenario_exits_with_a_documented_code(self, data):
        # One or two fields of a catalog scenario, nested ones included, are
        # replaced by a value of the wrong type, sign, shape or size, or are
        # deleted; the run is cut short so that valid mutants stay cheap.
        scenario = scenario_by_name(data.draw(st.sampled_from(scenario_names())))
        scenario["T"] = math.copysign(0.25, scenario["T"])
        for _ in range(data.draw(st.integers(1, 2))):
            owner = scenario
            key = data.draw(st.sampled_from(sorted(scenario) + ["seed"]))
            if isinstance(scenario.get(key), dict) and data.draw(st.booleans()):
                owner = scenario[key]
                if not owner:
                    continue
                key = data.draw(st.sampled_from(sorted(owner)))
            value = data.draw(st.sampled_from(MUTANTS))
            if value is DELETE:
                owner.pop(key, None)
            else:
                owner[key] = value
        runner = CliRunner()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mutant.json"
            path.write_text(json.dumps(scenario))
            result = _run(runner, "run", str(path), "--output-dir", str(Path(tmp) / "out"),
                          "--samples", "20")
        assert result.exit_code in range(5), result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("name, field, value", [
        ("sphere-on-plane-geodesic", "x", [0.0, 0.0]),  # the pole: g singular
        ("sphere-on-plane-geodesic", "x", [0.01, 0.0]),  # inside the pole band
        ("sphere-on-sphere-geodesic", "xhat", [3.14, 0.0]),
        ("sphere-on-plane-pendulum", "x", [0.0, 0.0]),
        ("sphere-on-plane-bvp", "x", [0.0, 0.0]),
        ("hyperbolic-on-plane-geodesic", "x", [0.9, 0.0]),
    ])
    def test_start_point_off_its_chart_is_validation_error(self, runner, tmp_path, name,
                                                           field, value):
        scenario = scenario_by_name(name)
        scenario[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(scenario))
        out = tmp_path / "out"
        result = _run(runner, "run", str(path), "--output-dir", str(out))
        assert result.exit_code == 3
        assert f"field '{field}'" in result.output and "outside the domain" in result.output
        assert "Traceback" not in result.output
        assert not out.exists()

    def test_singular_metric_at_start_is_validation_error(self, runner, tmp_path,
                                                          monkeypatch):
        # a chart whose metric degenerates inside its domain, on the line x0 = 0
        monkeypatch.setitem(chart_catalog._CATALOG, "degenerate", lambda: ChartMetric(
            dim=2, g=lambda x: np.diag([1.0, x[0] ** 2]), label="degenerate"))
        scenario = scenario_by_name("sphere-on-plane-geodesic")
        scenario["chart_hat"] = "degenerate"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(scenario))
        result = _run(runner, "run", str(path), "--output-dir", str(tmp_path / "out"))
        assert result.exit_code == 3
        assert "field 'xhat'" in result.output and "not positive definite" in result.output

    @pytest.mark.parametrize("kind, start", [
        ("geodesic", {"u": [1.0, 0.0]}),
        ("bvp", {"true_params": [0.0, 0.05, 0.02, 0.1]}),
        ("pendulum-2d", {"theta": 0.0, "L": 0.0}),
        ("rn-roll", {"u": [1.0, 0.0]}),
    ])
    def test_metric_degenerating_in_a_run_is_numerical_failure(self, runner, tmp_path,
                                                               monkeypatch, kind, start):
        # g = diag(1, 1 - x0) is singular at x0 = 1 and indefinite past it; a
        # start at x0 = 0.8 heading along +x0 reaches it at t = 0.2.  Its
        # derivative is supplied as zero, so the right-hand side is finite
        # before and turns non-finite there, and the integrator must fail.
        monkeypatch.setitem(chart_catalog._CATALOG, "degenerating", lambda: ChartMetric(
            dim=2, g=lambda x: np.diag([1.0, 1.0 - x[0]]), dg=lambda x: np.zeros((2, 2, 2)),
            kappa=lambda x: 1.0, label="degenerating"))
        scenario = scenario_by_name({"geodesic": "sphere-on-plane-geodesic",
                                     "bvp": "sphere-on-plane-bvp",
                                     "pendulum-2d": "sphere-on-plane-pendulum",
                                     "rn-roll": "paraboloid-magnetic-roll"}[kind])
        scenario.update(chart="degenerating", x=[0.8, 0.0], T=1.0, **start)
        path = tmp_path / "degenerating.json"
        path.write_text(json.dumps(scenario))
        result = _run(runner, "run", str(path), "--output-dir", str(tmp_path / "out"))
        assert result.exit_code == 4
        assert "integrator failed at t = 0.2" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("command, target", [
        (["run", "sphere-on-plane-geodesic"], "execute_scenario"),
        (["verify", "first-integrals"], "run_suite"),
    ])
    def test_library_error_in_a_run_is_numerical_failure(self, runner, tmp_path,
                                                         monkeypatch, command, target):
        def fail(*args, **kwargs):
            raise FrameError("frame too degenerate to reproject")

        monkeypatch.setattr(suites, target, fail)
        result = _run(runner, *command, "--output-dir", str(tmp_path))
        assert result.exit_code == 4
        assert "numerical failure: frame too degenerate" in result.output
        assert "Traceback" not in result.output

    def test_truncation_is_numerical_error_with_artifacts(self, runner, tmp_path):
        scenario = tmp_path / "poleward.json"
        scenario.write_text(json.dumps({
            "kind": "geodesic", "chart": "sphere(1)",
            "chart_hat": "euclidean(2)", "x": [0.3, 0.0], "xhat": [0.0, 0.0],
            "u": [-1.0, 0.0], "v": [0.0, 0.0], "ell": 0.0, "T": 2.0,
        }))
        out = tmp_path / "out"
        result = _run(runner, "run", str(scenario), "--output-dir", str(out),
                      "--samples", "20")
        assert result.exit_code == 4
        summary = json.loads((out / "poleward.summary.json").read_text())
        assert summary["status"] == "truncated"
        assert (out / "poleward.csv").exists()

    def test_chart_exit_bvp_writes_valid_json(self, runner, tmp_path):
        # The first shot leaves the sphere chart, so the endpoint residual is
        # infinite; the summary must still be standard JSON.
        scenario = tmp_path / "exit.json"
        scenario.write_text(json.dumps({
            "kind": "bvp", "chart": "sphere(1)", "chart_hat": "euclidean(2)",
            "x": [0.1, 0.0], "xhat": [0.0, 0.0], "true_params": [0, 0, 0, 0],
            "perturbation": 3.1, "T": 0.25, "seed": 34,
        }))
        out = tmp_path / "out"
        result = _run(runner, "run", str(scenario), "--output-dir", str(out),
                      "--samples", "20")
        assert result.exit_code == 4

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        summary = json.loads((out / "exit.summary.json").read_text(),
                             parse_constant=reject)
        assert summary["status"] == "truncated"
        assert summary["invariants"]["endpoint_residual"] is None
        assert summary["violations"]["converged"]["value"] is False


class TestRunArtifacts:
    def test_pendulum_scenario_passes(self, runner, tmp_path):
        result = _run(runner, "run", "sphere-on-plane-pendulum", "--T", "2",
                      "--output-dir", str(tmp_path), "--samples", "40")
        assert result.exit_code == 0
        summary = json.loads(
            (tmp_path / "sphere-on-plane-pendulum.summary.json").read_text())
        assert summary["status"] == "ok"
        assert summary["invariants"]["pendulum_residual"] <= 1e-6
        assert summary["artifact_version"]
        assert len(summary["scenario_sha256"]) == 64
        assert "integrator" in summary["tolerances"]
        csv = (tmp_path / "sphere-on-plane-pendulum.csv").read_text()
        header, *rows = csv.strip().splitlines()
        assert header.split(",")[:5] == ["t", "x1", "x2", "xhat1", "xhat2"]
        assert len(rows) == 40

    def test_reruns_are_byte_identical(self, runner, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        runs = {"sphere-on-plane-pendulum": ("2", "40"),
                "sphere-on-plane-geodesic": ("1", "20"),
                "sphere-on-plane-bvp": ("1", "20")}
        for out in (a, b):
            for name, (T, samples) in runs.items():
                result = _run(runner, "run", name, "--T", T, "--output-dir", str(out),
                              "--samples", samples)
                assert result.exit_code == 0, result.output
        for name in runs:
            assert (a / f"{name}.csv").read_bytes() == (b / f"{name}.csv").read_bytes()
            assert (a / f"{name}.summary.json").read_bytes() == \
                (b / f"{name}.summary.json").read_bytes()

    @pytest.mark.parametrize("name", ["sphere-great-circle-develop",
                                      "sphere-on-plane-geodesic",
                                      "sphere-on-plane-pendulum"])
    def test_backward_run_passes(self, runner, tmp_path, name):
        result = _run(runner, "run", name, "--T=-1", "--output-dir", str(tmp_path),
                      "--samples", "40")
        assert result.exit_code == 0, result.output
        summary = json.loads((tmp_path / f"{name}.summary.json").read_text())
        assert summary["status"] == "ok"
        assert summary["scenario"]["T"] == -1.0
        assert summary["samples"] == 40

    def test_json_table_format(self, runner, tmp_path):
        result = _run(runner, "run", "sphere-great-circle-develop", "--T", "1",
                      "--output-dir", str(tmp_path), "--format", "json",
                      "--samples", "10")
        assert result.exit_code == 0
        table = json.loads(
            (tmp_path / "sphere-great-circle-develop.table.json").read_text())
        assert table["header"][0] == "t"
        assert len(table["rows"]) == 10


class TestVerify:
    def test_unknown_suite_lists_available(self, runner):
        result = _run(runner, "verify", "no-such-suite")
        assert result.exit_code == 3
        assert "first-integrals" in result.output
        assert "theorem-2-4" in result.output

    @pytest.mark.parametrize("tol", ["0", "-1", "nan"])
    @pytest.mark.parametrize("suite", ["first-integrals", "theorem-2-4"])
    def test_degenerate_tolerance_is_validation_error(self, runner, tmp_path, suite, tol):
        result = _run(runner, "verify", suite, "--tol", tol, "--output-dir", str(tmp_path))
        assert result.exit_code == 3
        assert "'tol'" in result.output
        assert "Traceback" not in result.output
        assert not list(tmp_path.iterdir())

    def test_first_integrals_report(self, runner, tmp_path):
        result = _run(runner, "verify", "first-integrals",
                      "--output-dir", str(tmp_path))
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["passed"] is True
        assert all(c["speed_drift"] <= 1e-8 for c in report["cases"])
        on_disk = json.loads(
            (tmp_path / "first-integrals.report.json").read_text())
        assert on_disk == report


class TestTracedNames:
    def test_benchmark_tracer_names_resolve(self):
        # The benchmark's span tracer wraps library functions and methods by
        # name; every name it lists must stay where it looks for it.
        import ast
        import importlib
        import inspect
        from pathlib import Path

        src = (Path(__file__).parents[1] / "perfbench" / "spans.py").read_text()
        tables = {node.targets[0].id: ast.literal_eval(node.value)
                  for node in ast.parse(src).body
                  if isinstance(node, ast.Assign) and len(node.targets) == 1
                  and getattr(node.targets[0], "id", None) in ("FUNCTIONS", "METHODS")}
        assert tables["FUNCTIONS"] and tables["METHODS"]
        for modname, attr, _ in tables["FUNCTIONS"]:
            fn = getattr(importlib.import_module(modname), attr)
            assert inspect.isfunction(fn) and fn.__module__ == modname, (modname, attr)
        for modname, clsname, attr, _ in tables["METHODS"]:
            cls = getattr(importlib.import_module(modname), clsname)
            assert inspect.isfunction(vars(cls).get(attr)), (modname, clsname, attr)

    def test_benchmark_tracer_installs_and_restores(self):
        # The tracer's own lookups, solve_ivp's included, succeed; a traced call
        # records a span, and uninstalling puts every original object back.
        import importlib.util
        import sys

        import rollgeo.geometry

        path = Path(__file__).parents[1] / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)

        def bindings():
            """The identity of every module global and class member of the library."""
            out = {}
            for name, mod in list(sys.modules.items()):
                if name == "rollgeo" or name.startswith("rollgeo."):
                    for attr, value in vars(mod).items():
                        out[name, attr] = id(value)
                        if isinstance(value, type):
                            out.update({(name, attr, key): id(member)
                                        for key, member in vars(value).items()})
            return out

        before = bindings()
        tracer = spans.Tracer()
        tracer.install()
        try:
            rollgeo.geometry.christoffel(chart_catalog.sphere(1.0), np.array([1.0, 0.0]))
            assert tracer.totals()["geometry.christoffel"][0] == 1
        finally:
            tracer.uninstall()
        assert bindings() == before
