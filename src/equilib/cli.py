"""Command-line interface: scenario execution and bound analytics.

Exit codes follow the theorem-checking contract: 0 when every evaluated
bound is respected, 2 when any bound is violated beyond its statistical
tolerance, 1 on execution errors, a record that holds one included.
"""

from __future__ import annotations

import sys

import click

from . import bench, classical, quantum
from .core import ConfigError, DomainError

EXIT_ERROR = 1
EXIT_VIOLATION = 2

# the flag of each argument that `bounds` passes a flag's value as, by the
# name that its DomainError gives
_BOUNDS_FLAGS = {"outcomes": "--outcomes", "cell_count": "--outcomes",
                 "effective_dim": "--effective-dimension", "gap_degeneracy": "--gap-degeneracy",
                 "epsilon": "--epsilon", "delta": "--delta", "eigenvalues": "--eigenvalues"}


def _flag_overrides(seed, horizon, samples, gap_tol) -> dict:
    """The config overrides of the flags that are set."""
    flags = {"average.seed": seed, "average.horizon": horizon, "average.samples": samples,
             "gap_tol": gap_tol}
    return {path: value for path, value in flags.items() if value is not None}


def _print_records(records):
    for rec in records:
        if rec.error is not None:
            click.echo(f"{rec.scenario} {rec.params}: ERROR {rec.error}")
            continue
        rep = rec.report
        states = " ".join(
            f"{name.split('-')[0]}={chk.status}"
            for name, chk in rec.bounds.items()
            if chk.status != bench.STATUS_NA
        )
        click.echo(
            f"{rec.scenario}: mean_D={rep.mean_distinguishability:.5f} "
            f"stderr={rep.standard_error:.2e} eps={rep.epsilon:g} "
            f"verdict={rep.verdict} {states}"
        )


def _finish(records, out, fmt):
    if out is not None:
        try:
            bench.emit_report(records, fmt, out)
        except OSError as exc:
            raise click.ClickException(f"cannot write {out} ({exc.strerror})") from exc
        click.echo(f"wrote {len(records)} record(s) to {out}")
    if any(rec.error is not None for rec in records):
        sys.exit(EXIT_ERROR)
    if bench.any_violation(records):
        click.echo("bound VIOLATED beyond statistical tolerance", err=True)
        sys.exit(EXIT_VIOLATION)


_common = [
    click.option("--seed", type=int, default=None, help="Override the averaging seed."),
    click.option("--horizon", type=float, default=None, help="Override the averaging horizon."),
    click.option("--samples", type=int, default=None, help="Override the sample count."),
    click.option("--gap-tol", type=float, default=None, help="Override the gap tolerance."),
    click.option("--out", type=click.Path(dir_okay=False), default=None,
                 help="Write records to this file."),
    click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
                 show_default=True, help="Output format for --out."),
]


def _with_common(fn):
    for option in reversed(_common):
        fn = option(fn)
    return fn


@click.group()
def main():
    """Equilibration bound checking for classical and quantum dynamics."""


def _run_file(config, flags, out, fmt, sweep: bool):
    """Load, run and write one scenario file, refusing a grid under `run` and
    its absence under `sweep`; a ``ConfigError`` becomes a click error."""
    try:
        scenario = bench.load_scenario(config, overrides=_flag_overrides(*flags))
        if sweep and "sweep" not in scenario.config:
            raise ConfigError("scenario has no sweep grid; use the `run` command")
        if not sweep and (len(scenario.sweep_points) != 1 or scenario.sweep_points[0]):
            raise ConfigError("scenario has a sweep grid; use the `sweep` command")
        records = bench.run_scenario(scenario)
        _print_records(records)
        _finish(records, out, fmt)
    except ConfigError as exc:
        raise click.ClickException(str(exc)) from exc


@main.command()
@click.argument("config", type=click.Path(exists=True, dir_okay=False))
@_with_common
def run(config, seed, horizon, samples, gap_tol, out, fmt):
    """Execute a single scenario (no sweep grid)."""
    _run_file(config, (seed, horizon, samples, gap_tol), out, fmt, sweep=False)


@main.command()
@click.argument("config", type=click.Path(exists=True, dir_okay=False))
@_with_common
def sweep(config, seed, horizon, samples, gap_tol, out, fmt):
    """Execute a scenario over its sweep grid."""
    _run_file(config, (seed, horizon, samples, gap_tol), out, fmt, sweep=True)


@main.command()
@_with_common
def verify(seed, horizon, samples, gap_tol, out, fmt):
    """Run the built-in scenario suite and check every bound."""
    try:
        records = []
        for scenario in bench.builtin_scenarios(_flag_overrides(seed, horizon, samples, gap_tol)):
            records.extend(bench.run_scenario(scenario))
    except ConfigError as exc:
        raise click.ClickException(str(exc)) from exc
    _print_records(records)
    statuses = [chk.status for r in records for chk in r.bounds.values()]
    click.echo(f"checked {len(statuses) - statuses.count(bench.STATUS_NA)} bound evaluations "
               f"across {len(records)} runs, {statuses.count(bench.STATUS_VIOLATED)} violated")
    _finish(records, out, fmt)


@main.command()
@click.option("--outcomes", "-n", type=int, required=True, help="Measurement outcome count N.")
@click.option("--effective-dimension", "d_eff", type=float, default=None,
              help="Effective dimension of the state.")
@click.option("--gap-degeneracy", "d_g", type=int, default=1, show_default=True,
              help="Maximum energy-gap degeneracy.")
@click.option("--epsilon", type=float, default=None, help="Equilibration tolerance.")
@click.option("--delta", type=float, default=None,
              help="Mixture weight outside the chaotic subspace.")
@click.option("--eigenvalues", type=str, default=None,
              help="Comma-separated energies; prints the gap degeneracy at 0.1x/1x/10x "
                   "of the default gap tolerance.")
def bounds(outcomes, d_eff, d_g, epsilon, delta, eigenvalues):
    """Print analytic bound values without simulating anything."""
    if epsilon is not None and d_eff is None:
        raise click.UsageError("--epsilon needs --effective-dimension")
    try:
        if eigenvalues is not None:
            try:
                values = [float(v) for v in eigenvalues.split(",")]
            except ValueError as exc:
                raise DomainError(str(exc), name="eigenvalues") from None
            table = quantum.gap_table(quantum.HamiltonianSpectrum(sorted(values)))
            for factor, deg in quantum.gap_degeneracy_sensitivity(table).items():
                click.echo(f"gap-degeneracy @ {factor:g}x tolerance "
                           f"({factor * table.tolerance:.3e}): {deg}")
            d_g = table.max_degeneracy
        if d_eff is not None:
            value = quantum.equilibration_bound(outcomes, d_g, d_eff)
            click.echo(f"spectral bound (N={outcomes}, D_G={d_g}, d_eff={d_eff:g}): "
                       f"{value:.10g}")
            if outcomes >= 2 and d_eff == 1.0:
                click.echo("note: effective dimension 1 makes this bound vacuous (>= 1/2)")
        if epsilon is not None:
            n_max = quantum.max_outcomes_for_equilibration(epsilon, d_eff, d_g)
            click.echo(f"max outcomes guaranteeing {epsilon:g}-equilibration: {n_max}")
        if delta is not None:
            value = classical.mixed_equilibration_bound(outcomes, delta)
            click.echo(f"mixing bound (N={outcomes}, delta={delta:g}): {value:.10g}")
    except ValueError as exc:
        flag = _BOUNDS_FLAGS.get(getattr(exc, "name", None))
        raise click.ClickException(f"{flag}: {exc}" if flag else str(exc)) from exc


if __name__ == "__main__":
    main()
