"""Command line interface: design, validate, analyze, simulate, tune.

Exit codes follow one rule everywhere: 0 on success, 1 when a well-formed
request produces a negative answer (a design that fails validation, a
simulation that disagrees with the closed forms, an infeasible tuning
target, a formula outside its hypotheses), and 2 when the request itself
is invalid (bad parameters or unparseable input).
"""

from __future__ import annotations

import json
import math
import sys

import click

from . import analytics, design, montecarlo
from .analytics import ScenarioParams
from .errors import (
    DomainError,
    InfeasibleError,
    MatrixFormatError,
    NotApplicableError,
    UndefinedResultError,
)
from .model import NoiseModel


def _invalid(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _failure(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


def _format_value(value: float | int) -> str:
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


@click.group()
def main():
    """Multipool screening designs: build them, check them, analyze and
    simulate their accuracy, and size their multiplicity."""


@main.command("design")
@click.option("--q", "q", type=int, required=True, help="Pool size (a supported prime power).")
@click.option("--m", "m", type=int, required=True, help="Pools per item (1 to q+1).")
@click.option(
    "--output",
    "output",
    type=click.Path(dir_okay=False, writable=True),
    required=True,
    help="Destination design file.",
)
@click.option(
    "--format",
    "file_format",
    type=click.Choice(["json", "csv"]),
    default="json",
    show_default=True,
    help="json keeps labels and metadata; csv is the dense 0/1 matrix.",
)
def cmd_design(q: int, m: int, output: str, file_format: str):
    """Construct the (q*q items, m*q pools) design and write it to a file."""
    try:
        params = design.MultipoolParams(q=q, m=m)
        matrix = design.build_multipool(params)
    except DomainError as exc:
        _invalid(str(exc))
    if file_format == "json":
        text = design.dump_matrix_json(matrix, q, m)
    else:
        text = design.dump_matrix_csv(matrix)
    with open(output, "w", newline="\n") as handle:
        handle.write(text)
    click.echo(f"items: {matrix.n}")
    click.echo(f"pools: {matrix.t}")
    click.echo(f"compression ratio: {_format_value(matrix.n / matrix.t)}")


@main.command("validate")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--q", "q", type=int, default=None, help="Expected pool size (required for csv files).")
@click.option("--m", "m", type=int, default=None, help="Expected multiplicity (required for csv files).")
def cmd_validate(path: str, q: int | None, m: int | None):
    """Check a design file for the three multipool properties."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        _invalid(str(exc))
    except UnicodeDecodeError as exc:
        _invalid(f"{path} is not UTF-8 text: {exc}")
    try:
        loaded = design.load_design(text)
    except MatrixFormatError as exc:
        location = ""
        if exc.line is not None:
            location = f" (line {exc.line}, column {exc.column})"
        _invalid(f"{exc}{location}")
    q = loaded.q if q is None else q
    m = loaded.m if m is None else m
    if q is None or m is None:
        _invalid("this file carries no q/m metadata; pass --q and --m")
    try:
        report = design.validate_multipool(loaded.matrix, q, m)
    except DomainError as exc:
        _invalid(str(exc))
    click.echo(report.summary())
    if not report.is_multipool:
        sys.exit(1)


# analyze's --statistic choices.
_STATISTICS = {statistic.cli: statistic for statistic in analytics.STATISTICS}
_INT_SWEEPS = {"m", "q", "nc"}
# The most points that a --start/--stop/--step grid may hold.
_GRID_POINTS = 1_000_000


def _parse_grid(
    sweep: str,
    start: float | None,
    stop: float | None,
    step: float | None,
    values: str | None,
) -> list[float] | list[int]:
    if values is not None:
        if start is not None or stop is not None or step is not None:
            _invalid("pass either --values or --start/--stop/--step, not both")
        try:
            parsed = [float(v) for v in values.split(",") if v.strip() != ""]
        except ValueError:
            _invalid(f"could not parse --values {values!r}")
        if not parsed:
            _invalid("--values is empty")
    else:
        if start is None or stop is None or step is None:
            _invalid("sweep grid needs --values or all of --start/--stop/--step")
        for name, value in (("start", start), ("stop", stop), ("step", step)):
            if not math.isfinite(value):
                _invalid(f"--{name} must be finite, got {value}")
        if step <= 0:
            _invalid(f"--step must be positive, got {step}")
        if stop < start:
            _invalid(f"--stop {stop} is below --start {start}")
        # A float until checked: a count past int() or memory must not be built.
        steps = (stop - start) / step + 1e-9
        if not steps < _GRID_POINTS:
            _invalid(f"--start/--stop/--step give more than {_GRID_POINTS} grid points")
        parsed = [start + i * step for i in range(int(steps) + 1)]
    if sweep in _INT_SWEEPS:
        as_ints = []
        for v in parsed:
            if not math.isfinite(v) or v != int(v):
                _invalid(f"sweep over {sweep} needs integer grid values, got {v}")
            as_ints.append(int(v))
        return as_ints
    return parsed


@main.command("analyze")
@click.option(
    "--statistic",
    type=click.Choice(sorted(_STATISTICS)),
    required=True,
    help="Which closed-form statistic to tabulate.",
)
@click.option(
    "--sweep",
    type=click.Choice(["rho", "m", "q", "nc"]),
    required=True,
    help="The parameter the grid runs over.",
)
@click.option("--start", type=float, default=None)
@click.option("--stop", type=float, default=None)
@click.option("--step", type=float, default=None)
@click.option("--values", type=str, default=None, help="Explicit comma-separated grid.")
@click.option("--rho", type=float, default=None, help="Prevalence in [0, 1].")
@click.option("--q", "q", type=int, default=None)
@click.option("--m", "m", type=int, default=None)
@click.option("--nc", "nc", type=int, default=0, show_default=True)
@click.option("--pfp", type=float, default=0.0, show_default=True, help="Per-pool false positive rate.")
@click.option("--pfn", type=float, default=0.0, show_default=True, help="Per-pool false negative rate.")
@click.option("--n", "n", type=int, default=None, help="Item count (needed by count statistics).")
@click.option(
    "--output",
    type=click.Path(dir_okay=False, writable=True),
    required=True,
    help="Destination CSV file.",
)
def cmd_analyze(statistic, sweep, start, stop, step, values, rho, q, m, nc, pfp, pfn, n, output):
    """Tabulate one statistic over a parameter grid into a CSV curve."""
    grid = _parse_grid(sweep, start, stop, step, values)
    fixed: dict[str, float | int | None] = {
        "rho": rho,
        "q": q,
        "m": m,
        "nc": nc,
        "pfp": pfp,
        "pfn": pfn,
        "n": n,
    }
    if fixed[sweep] is not None and sweep != "nc":
        _invalid(f"--{sweep} is the sweep variable; do not also fix it")
    for name in ("rho", "q", "m"):
        if name != sweep and fixed[name] is None:
            _invalid(f"--{name} is required when sweeping {sweep}")
    if not isinstance(_STATISTICS[statistic].kind, analytics.Ratio) and fixed["n"] is None:
        _invalid(f"--n is required for statistic {statistic}")

    try:
        noise = NoiseModel(p_fp=fixed["pfp"], p_fn=fixed["pfn"])
    except DomainError as exc:
        _invalid(str(exc))

    evaluate = _STATISTICS[statistic].closed_form
    rows: list[tuple] = []
    header_params = [name for name in ("rho", "q", "m", "nc", "pfp", "pfn", "n") if name != sweep]
    if fixed["n"] is None:
        header_params.remove("n")
    for point in grid:
        params = dict(fixed)
        params[sweep] = point
        try:
            scenario = ScenarioParams(
                rho=params["rho"],
                q=params["q"],
                m=params["m"],
                nc=params["nc"],
                noise=noise,
                n=params["n"],
            )
            value = evaluate(scenario)
        except NotApplicableError as exc:
            _failure(str(exc))
        except UndefinedResultError as exc:
            _failure(f"{statistic} at {sweep}={_format_value(point)}: {exc}")
        except DomainError as exc:
            _invalid(f"invalid grid point {sweep}={point}: {exc}")
        rows.append((point, value, [params[name] for name in header_params]))

    with open(output, "w", newline="\n") as handle:
        handle.write(",".join([sweep, statistic] + header_params) + "\n")
        for point, value, extras in rows:
            cells = [_format_value(point), _format_value(value)]
            cells += [_format_value(v) for v in extras]
            handle.write(",".join(cells) + "\n")
    click.echo(f"wrote {len(rows)} grid points to {output}")


@main.command("simulate")
@click.option("--q", "q", type=int, required=True)
@click.option("--m", "m", type=int, required=True)
@click.option("--nc", "nc", type=int, default=0, show_default=True)
@click.option("--rho", type=float, required=True)
@click.option("--pfp", type=float, default=0.0, show_default=True)
@click.option("--pfn", type=float, default=0.0, show_default=True)
@click.option("--trials", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True, help="Master seed.")
@click.option("--threads", type=int, default=1, show_default=True)
@click.option(
    "--output",
    type=click.Path(dir_okay=False, writable=True),
    default=None,
    help="Where to write the JSON comparison report.",
)
def cmd_simulate(q, m, nc, rho, pfp, pfn, trials, seed, threads, output):
    """Simulate the built (q, m) design and gate the closed forms against
    the empirical estimates.  Exits 1 when any comparison fails."""
    try:
        params = design.MultipoolParams(q=q, m=m)
        scenario = ScenarioParams(rho=rho, q=q, m=m, nc=nc, noise=NoiseModel(pfp, pfn), n=params.n)
        config = montecarlo.ExperimentConfig(
            scenario=scenario, design=params, trials=trials, master_seed=seed
        )
        report = montecarlo.compare(config, threads=threads)
    except DomainError as exc:
        _invalid(str(exc))
    text = json.dumps(report.to_document(), indent=2) + "\n"
    if output is not None:
        with open(output, "w", newline="\n") as handle:
            handle.write(text)
    for row in report.rows:
        flag = "pass" if row.passed else "FAIL"
        if row.kind == "bound":
            detail = (
                f"empirical={_format_value(row.empirical)} bound={_format_value(row.bound)}"
                if row.status == "ok"
                else row.status
            )
        else:
            detail = (
                f"analytic={_format_value(row.analytic)} empirical={_format_value(row.empirical)}"
                f" z={_format_value(row.z) if row.z is not None else 'n/a'}"
                if row.status == "ok"
                else row.status
            )
        click.echo(f"{flag} {row.statistic}: {detail}")
    if not report.passed:
        sys.exit(1)


@main.command("tune")
@click.option("--rho", type=float, required=True)
@click.option("--q", "q", type=int, required=True)
@click.option("--epsilon", type=float, required=True, help="Posterior false-positive budget.")
@click.option("--pfp", type=float, default=0.0, show_default=True)
@click.option("--pfn", type=float, default=0.0, show_default=True)
@click.option("--cap", type=int, default=None, help="Largest multiplicity to consider; defaults to q+1.")
def cmd_tune(rho, q, epsilon, pfp, pfn, cap):
    """Find the smallest multiplicity meeting a type I budget at nc = 0."""
    try:
        noise = NoiseModel(pfp, pfn)
        result = analytics.min_multiplicity(rho, q, noise, epsilon, cap=cap)
    except InfeasibleError as exc:
        click.echo(f"raw bound: {_format_value(exc.raw_bound)}")
        _failure(str(exc))
    except DomainError as exc:
        _invalid(str(exc))
    click.echo(f"raw bound: {_format_value(result.raw_bound)}")
    click.echo(f"multiplicity: {result.m}")
    click.echo(f"type one at m: {_format_value(result.type_one)}")
    click.echo(f"compression ratio: {_format_value(q / result.m)}")


if __name__ == "__main__":
    main()
