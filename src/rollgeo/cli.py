"""Scenario-driven command line front end.

Commands: ``run`` executes one scenario (a catalog name or a JSON/TOML
file) and writes a trajectory table plus a summary record; ``verify``
executes a named verification suite; ``catalog`` lists and shows the
built-in scenarios, charts, and testbeds.

Exit codes: 0 all monitored invariants within tolerance, 1 invariant
violation, 2 parse error, 3 validation error, 4 numerical failure or
chart-domain truncation (partial artifacts are still written).
"""

from __future__ import annotations

import json
import math
import pathlib
import sys

import click

from . import charts as chart_catalog
from . import submersion, suites
from .errors import RollgeoError

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4

# Errors of a run past validation: the integrator's failures and the
# library's own (a singular metric, a degenerate frame, a point off its chart).
NUMERICAL_FAILURES = (RuntimeError, FloatingPointError, RollgeoError)


def _write_atomic(path: pathlib.Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


def _finite_or_null(value):
    """``value`` with each non-finite float (a failed shot's residual) as None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def _json_text(record) -> str:
    return json.dumps(_finite_or_null(record), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def _csv_text(header: list[str], rows: list[list[float]]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("%.17g" % float(v) for v in row))
    return "\n".join(lines) + "\n"


def _load_scenario(source: str) -> dict:
    """Resolve a catalog name or read a scenario file (JSON; TOML sugar)."""
    path = pathlib.Path(source)
    if not path.exists():
        try:
            return suites.scenario_by_name(source)
        except suites.ScenarioError:
            click.echo(f"error: {source!r} is neither a file nor a catalog "
                       f"scenario; catalog: {', '.join(suites.scenario_names())}",
                       err=True)
            sys.exit(EXIT_PARSE)
    text = path.read_text()
    try:
        if path.suffix == ".toml":
            import tomllib

            scenario = tomllib.loads(text)
        else:
            scenario = json.loads(text)
    except json.JSONDecodeError as exc:
        click.echo(f"error: {path}: line {exc.lineno}, column {exc.colno}: "
                   f"{exc.msg}", err=True)
        sys.exit(EXIT_PARSE)
    except Exception as exc:
        click.echo(f"error: {path}: {exc}", err=True)
        sys.exit(EXIT_PARSE)
    if not isinstance(scenario, dict):
        click.echo(f"error: {path}: scenario must be a mapping", err=True)
        sys.exit(EXIT_PARSE)
    scenario.setdefault("name", path.stem)
    return scenario


@click.group()
@click.version_option(suites.ARTIFACT_VERSION, prog_name="rollgeo")
def main() -> None:
    """Rolling-manifold geodesics and lifted Hamiltonian flows."""


@main.command(name="run")
@click.argument("scenario")
@click.option("--tol", type=float, default=None,
              help="Override the integrator tolerance.")
@click.option("--T", "horizon", type=float, default=None,
              help="Override the time horizon.")
@click.option("--output-dir", type=click.Path(file_okay=False), default=".",
              help="Directory for the trajectory and summary artifacts.")
@click.option("--seed", type=int, default=None, help="Override the seed.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", help="Trajectory table format.")
@click.option("--samples", type=int, default=200,
              help="Number of rows in the trajectory table (at least 2).")
def run_command(scenario: str, tol, horizon, output_dir, seed, fmt, samples):
    """Run one scenario and write its trajectory and summary artifacts."""
    record = _load_scenario(scenario)
    if samples < 2:
        click.echo(f"error: option '--samples' must be at least 2, got {samples}", err=True)
        sys.exit(EXIT_VALIDATION)
    if tol is not None:
        record["tol"] = tol
    if horizon is not None:
        record["T"] = horizon
    if seed is not None:
        record["seed"] = seed
    record.setdefault("tol", 1e-9)

    try:
        summary = suites.execute_scenario(record, samples=samples)
    except suites.ScenarioError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    except NUMERICAL_FAILURES as exc:
        click.echo(f"error: numerical failure: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL)

    out = pathlib.Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    base = record.get("name", "scenario")
    table = summary.pop("table")
    if fmt == "csv":
        _write_atomic(out / f"{base}.csv",
                      _csv_text(table["header"], table["rows"]))
    else:
        _write_atomic(out / f"{base}.table.json", _json_text(table))
    _write_atomic(out / f"{base}.summary.json", _json_text(summary))

    click.echo(f"{base}: {summary['status']}")
    for key, value in sorted(summary["invariants"].items()):
        click.echo(f"  {key} = {value}")
    if summary["status"] == "truncated":
        sys.exit(EXIT_NUMERICAL)
    if summary["status"] != "ok":
        sys.exit(EXIT_INVARIANT)


@main.command(name="verify")
@click.argument("suite")
@click.option("--tol", type=float, default=None,
              help="Override the integrator tolerance.")
@click.option("--output-dir", type=click.Path(file_okay=False), default=None,
              help="Write the machine-readable report here as well.")
def verify_command(suite: str, tol, output_dir):
    """Run a named verification suite and report pass/fail per case."""
    try:
        report = suites.run_suite(suite, tol=tol)
    except suites.ScenarioError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    except NUMERICAL_FAILURES as exc:
        click.echo(f"error: numerical failure: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL)
    click.echo(_json_text(report), nl=False)
    if output_dir is not None:
        out = pathlib.Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_atomic(out / f"{suite}.report.json", _json_text(report))
    sys.exit(EXIT_OK if report["passed"] else EXIT_INVARIANT)


@main.group(name="catalog")
def catalog_group() -> None:
    """List or show the built-in scenarios, charts, and testbeds."""


@catalog_group.command(name="list")
def catalog_list() -> None:
    """List catalog scenario names with their kinds."""
    click.echo("scenarios:")
    for name in suites.scenario_names():
        click.echo(f"  {name} ({suites.SCENARIOS[name]['kind']})")
    click.echo("charts:")
    for name in chart_catalog.chart_names():
        click.echo(f"  {name}")
    click.echo("testbeds:")
    for name in submersion.testbed_names():
        click.echo(f"  {name}")
    click.echo("suites:")
    for name in suites.suite_names():
        click.echo(f"  {name}")


@catalog_group.command(name="show")
@click.argument("name")
def catalog_show(name: str) -> None:
    """Print the full definition of one catalog scenario."""
    try:
        scenario = suites.scenario_by_name(name)
    except suites.ScenarioError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    click.echo(_json_text(scenario), nl=False)


if __name__ == "__main__":
    main()
