"""Command-line front end.

Subcommands emit the data behind the device's characteristic curves as CSV
or JSON: incidence angle and velocity divergence versus velocity, the bounce
path table, a single beamline simulation and the speed-ratio scan.

Angles are degrees and lengths millimetres at this boundary; the CSV dialect
is fixed (comma, ``.`` decimal, header row, LF line endings) so outputs are
byte-stable for identical configs.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys

import click

from . import __version__
from .beamline import scan_speed_ratio, simulate_beam, single_reflection_baseline
from .config import RunConfig, dump_default_config
from .diffraction import (
    MonochromatorSetting,
    cutoff_velocity,
    incidence_for_output,
    velocity_divergence,
)
from .errors import (
    BelowCutoffError,
    ConfigurationError,
    EmptyTransmissionError,
    EvanescentOrderError,
    GrazingSingularityError,
    MonochromatorError,
)
from .geometry import enumerate_paths, feasibility_band, group_paths_by_geometry

EXIT_CONFIG_ERROR = 2
EXIT_INFEASIBLE = 3


def _load_config(config, material, particle, theta_out_deg, order, v_center, v_width):
    override: dict = {}
    if material is not None:
        override["material"] = material
    if particle is not None:
        override["particle"] = particle
    if theta_out_deg is not None:
        override.setdefault("setting", {})["theta_out_deg"] = theta_out_deg
    if order is not None:
        override.setdefault("setting", {})["total_order"] = order
    if v_center is not None:
        override.setdefault("beam", {})["v_center_mps"] = v_center
    if v_width is not None:
        override.setdefault("beam", {})["v_width_mps"] = v_width
    base = RunConfig.from_file(config).to_dict() if config else {}
    merged = base
    for key, value in override.items():
        if isinstance(value, dict):
            merged.setdefault(key, {}).update(value)
        else:
            merged[key] = value
    return RunConfig.from_dict(merged)


def common_options(f):
    options = [
        click.option("--config", type=click.Path(exists=True, dir_okay=False), default=None,
                     help="YAML or JSON config file."),
        click.option("--material", default=None, help="Material preset name."),
        click.option("--particle", default=None, help="Particle preset name."),
        click.option("--theta-out-deg", type=float, default=None, help="Fixed exit angle."),
        click.option("--order", type=int, default=None,
                     help="Total diffraction order (signed; magnitude is used)."),
        click.option("--v-center", type=float, default=None, help="Beam centre velocity [m/s]."),
        click.option("--v-width", type=float, default=None, help="Beam full width [m/s]."),
        click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None,
                     help="Output file (stdout if omitted)."),
        click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
                     show_default=True, help="Output format."),
    ]
    for option in reversed(options):
        f = option(f)
    return f


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if cell is None else repr(float(cell)) if isinstance(cell, float) else cell
                         for cell in row])
    return buf.getvalue()


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _table_text(fmt: str, header: list[str], rows: list[list]) -> str:
    if fmt == "json":
        return _json_text([dict(zip(header, row)) for row in rows])
    return _csv_text(header, rows)


@click.group()
@click.version_option(__version__)
@click.option("--dump-default-config", is_flag=True, is_eager=True, expose_value=False,
              callback=lambda ctx, param, value: (
                  (click.echo(dump_default_config(), nl=False), ctx.exit(0)) if value else None
              ),
              help="Print the default config as YAML and exit.")
def main():
    """Matter-wave monochromator simulator."""


#: Most velocities one table or scan may list.
MAX_GRID_POINTS = 1_000_000


def _velocity_grid(v_min, v_max, v_step):
    if v_step <= 0 or v_max < v_min:
        raise ConfigurationError("need v_step > 0 and v_max >= v_min")
    steps = (v_max - v_min) / v_step
    if not steps <= MAX_GRID_POINTS - 1:
        raise ConfigurationError(
            f"velocity grid {v_min}:{v_max}:{v_step} exceeds {MAX_GRID_POINTS} points"
        )
    n = int(round(steps))
    return [v_min + i * v_step for i in range(n + 1)]


@main.command("incidence-table")
@common_options
@click.option("--orders", default="1,2,3", show_default=True,
              help="Comma-separated list of total orders.")
@click.option("--v-min", type=float, default=300.0, show_default=True)
@click.option("--v-max", type=float, default=5000.0, show_default=True)
@click.option("--v-step", type=float, default=100.0, show_default=True)
def incidence_table(config, material, particle, theta_out_deg, order, v_center, v_width,
                    out, fmt, orders, v_min, v_max, v_step):
    """Incidence angle versus velocity for each total order."""
    cfg = _load_config(config, material, particle, theta_out_deg, order, v_center, v_width)
    p = cfg.particle()
    g = cfg.grating()
    base = cfg.setting()
    order_list = [int(tok) for tok in orders.split(",") if tok.strip()]

    rows = []
    any_ok = False
    for n in order_list:
        setting = MonochromatorSetting(theta_out=base.theta_out, total_order=n)
        for v in _velocity_grid(v_min, v_max, v_step):
            try:
                theta = incidence_for_output(setting, p, g, v)
                rows.append([v, n, math.degrees(theta), "ok"])
                any_ok = True
            except BelowCutoffError:
                rows.append([v, n, None, "below_cutoff"])
    _emit(_table_text(fmt, ["velocity_mps", "order", "theta_inc_deg", "status"], rows), out)
    if not any_ok:
        raise SystemExit(EXIT_INFEASIBLE)


@main.command("divergence-table")
@common_options
@click.option("--orders", default="1,2,3", show_default=True,
              help="Comma-separated list of total orders.")
@click.option("--v-min", type=float, default=300.0, show_default=True)
@click.option("--v-max", type=float, default=5000.0, show_default=True)
@click.option("--v-step", type=float, default=100.0, show_default=True)
def divergence_table(config, material, particle, theta_out_deg, order, v_center, v_width,
                     out, fmt, orders, v_min, v_max, v_step):
    """Velocity divergence of the exit angle at the matched incidence angle."""
    cfg = _load_config(config, material, particle, theta_out_deg, order, v_center, v_width)
    p = cfg.particle()
    g = cfg.grating()
    base = cfg.setting()
    order_list = [int(tok) for tok in orders.split(",") if tok.strip()]

    rows = []
    any_ok = False
    for n in order_list:
        setting = MonochromatorSetting(theta_out=base.theta_out, total_order=n)
        for v in _velocity_grid(v_min, v_max, v_step):
            try:
                theta = incidence_for_output(setting, p, g, v)
                d = velocity_divergence(theta, abs(n), p, g, v) if n else 0.0
                rows.append([v, n, d, "ok"])
                any_ok = True
            except BelowCutoffError:
                rows.append([v, n, None, "below_cutoff"])
            except (EvanescentOrderError, GrazingSingularityError) as exc:
                rows.append([v, n, None, type(exc).__name__])
    _emit(_table_text(fmt, ["velocity_mps", "order", "dtheta_dv_rad_per_mps", "status"], rows), out)
    if not any_ok:
        raise SystemExit(EXIT_INFEASIBLE)


@main.command("paths")
@common_options
@click.option("--v", "velocity", type=float, required=True, help="Beam velocity [m/s].")
def paths_cmd(config, material, particle, theta_out_deg, order, v_center, v_width,
              out, fmt, velocity):
    """Bounce-path table (orders, angles, geometry band, transmission) at one velocity."""
    cfg = _load_config(config, material, particle, theta_out_deg, order, v_center, v_width)
    p = cfg.particle()
    g = cfg.grating()
    setting = cfg.setting()
    try:
        paths = enumerate_paths(setting, p, g, velocity)
    except BelowCutoffError:
        _emit(_table_text(fmt, _PATH_HEADER, []), out)
        raise SystemExit(EXIT_INFEASIBLE)
    groups = group_paths_by_geometry(paths)
    group_of = {path.orders: i + 1 for i, grp in enumerate(groups) for path in grp.members}

    rows = []
    for path in sorted(paths, key=lambda q: (q.geometry_ratio, q.orders)):
        band = feasibility_band(path, setting)
        rows.append([
            path.n1, path.n2, path.n3,
            math.degrees(path.alpha1), math.degrees(path.alpha2),
            path.geometry_ratio, band.lower, band.upper,
            None if path.transmission is None else 100.0 * path.transmission,
            group_of[path.orders],
        ])
    _emit(_table_text(fmt, _PATH_HEADER, rows), out)


_PATH_HEADER = [
    "n1", "n2", "n3", "alpha1_deg", "alpha2_deg", "d_over_s",
    "band_low", "band_high", "transmission_percent", "group_id",
]


@main.command("simulate")
@common_options
def simulate_cmd(config, material, particle, theta_out_deg, order, v_center, v_width, out, fmt):
    """Full beamline simulation at the configured centre velocity (JSON)."""
    cfg = _load_config(config, material, particle, theta_out_deg, order, v_center, v_width)
    try:
        result = simulate_beam(
            cfg.beam(), cfg.beamline(), cfg.particle(), cfg.grating(),
            velocity_bins=cfg.velocity_bins, offset_samples=cfg.offset_samples,
        )
        baseline = single_reflection_baseline(
            cfg.beam(), cfg.beamline(), cfg.particle(), cfg.grating(),
            theta_inc=cfg.baseline_theta_inc, order=cfg.baseline_order,
            velocity_bins=cfg.velocity_bins, offset_samples=cfg.offset_samples,
        )
    except (EmptyTransmissionError, BelowCutoffError) as exc:
        click.echo(f"infeasible: {exc}", err=True)
        raise SystemExit(EXIT_INFEASIBLE)
    payload = result.to_dict()
    payload["baseline_speed_ratio"] = baseline.speed_ratio
    _emit(_json_text(payload), out)


@main.command("scan")
@common_options
@click.option("--v-min", type=float, default=300.0, show_default=True)
@click.option("--v-max", type=float, default=5000.0, show_default=True)
@click.option("--v-step", type=float, default=100.0, show_default=True)
def scan_cmd(config, material, particle, theta_out_deg, order, v_center, v_width,
             out, fmt, v_min, v_max, v_step):
    """Speed-ratio scan over centre velocities (CSV)."""
    cfg = _load_config(config, material, particle, theta_out_deg, order, v_center, v_width)
    rows_out = scan_speed_ratio(
        _velocity_grid(v_min, v_max, v_step),
        cfg.beam().full_width,
        cfg.beamline(), cfg.particle(), cfg.grating(),
        velocity_bins=cfg.velocity_bins, offset_samples=cfg.offset_samples,
        baseline_theta_inc=cfg.baseline_theta_inc, baseline_order=cfg.baseline_order,
    )
    header = ["v_center_mps", "speed_ratio_in", "speed_ratio_out",
              "speed_ratio_baseline", "throughput", "flag"]
    table = [[r.v_center, r.input_ratio, r.final_ratio, r.baseline_ratio, r.throughput, r.flag]
             for r in rows_out]
    _emit(_table_text(fmt, header, table), out)
    if all(r.final_ratio is None for r in rows_out):
        raise SystemExit(EXIT_INFEASIBLE)


def entrypoint(argv=None) -> int:
    """Programmatic entry mapping simulator errors to exit codes."""
    try:
        main.main(args=argv, standalone_mode=False)
        return 0
    except SystemExit as exc:
        return int(exc.code or 0)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return EXIT_CONFIG_ERROR
    except ConfigurationError as exc:
        click.echo(f"config error: {exc}", err=True)
        return EXIT_CONFIG_ERROR
    except MonochromatorError as exc:
        click.echo(f"infeasible: {exc}", err=True)
        return EXIT_INFEASIBLE


def run():
    sys.exit(entrypoint())


if __name__ == "__main__":
    run()
