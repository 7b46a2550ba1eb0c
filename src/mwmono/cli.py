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
import functools
import io
import json
import math
import sys

import click

from . import __version__
from .config import RunConfig, _merge, dump_default_config, read_config
from .diffraction import (
    MonochromatorSetting,
    _MAX_ORDER,
    incidence_for_output,
    velocity_divergence,
)
from .errors import (
    BelowCutoffError,
    ConfigurationError,
    EvanescentOrderError,
    GrazingSingularityError,
    MonochromatorError,
)
from .geometry import enumerate_paths, feasibility_band, group_paths_by_geometry

EXIT_CONFIG_ERROR = 2
EXIT_INFEASIBLE = 3


def _emit(text: str, out: str | None):
    if out:
        try:
            with open(out, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigurationError(f"cannot write {out}: {exc.strerror or exc}") from None
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
    steps = (v_max - v_min) / v_step if 0 < v_step < math.inf else math.nan
    if not (0 < v_min <= v_max < math.inf and steps <= MAX_GRID_POINTS - 1):
        raise ConfigurationError(
            f"velocity grid {v_min}:{v_max}:{v_step} needs finite 0 < v_min <= v_max, "
            f"v_step > 0 and at most {MAX_GRID_POINTS} points"
        )
    n = math.floor(steps + 1e-9)  # the tolerance keeps a v_max that division leaves just short
    return [v_min + i * v_step for i in range(n + 1)]


def _parse_orders(ctx, param, value):
    try:
        orders = [int(tok) for tok in value.split(",") if tok.strip()]
    except ValueError:
        raise click.BadParameter(f"expected comma-separated integers, got {value!r}") from None
    if any(abs(n) > _MAX_ORDER for n in orders):
        raise click.BadParameter(f"every |order| must be at most {_MAX_ORDER}")
    return orders


def _override(flag, key, **attrs):
    """An option that, when given, writes its value at config ``key`` ("section/name")."""
    def write(ctx, param, value):
        if value is not None:
            *sections, last = key.split("/")
            node = ctx.ensure_object(dict)
            for section in sections:
                node = node.setdefault(section, {})
            node[last] = value
    return click.Option([flag], expose_value=False, callback=write, **attrs)


#: Every option, declared once and keyed by its flag; each command names the ones it takes.
_OPTIONS = {option.opts[0]: option for option in [
    click.Option(["--config"], type=click.Path(exists=True, dir_okay=False),
                 help="YAML or JSON config file."),
    _override("--particle", "particle", help="Particle preset name."),
    _override("--theta-out-deg", "setting/theta_out_deg", type=float,
              help="Fixed exit angle [deg]."),
    _override("--v-center", "beam/v_center_mps", type=float, help="Beam centre velocity [m/s]."),
    _override("--v-width", "beam/v_width_mps", type=float, help="Beam full width [m/s]."),
    _override("--order", "setting/total_order", type=click.IntRange(-_MAX_ORDER, _MAX_ORDER),
              help="Total diffraction order (signed; magnitude is used)."),
    click.Option(["--format", "fmt"], type=click.Choice(["csv", "json"]), default="csv",
                 show_default=True, help="Output format."),
    click.Option(["--orders"], default="1,2,3", show_default=True, callback=_parse_orders,
                 help="Comma-separated list of total orders."),
    click.Option(["--v", "velocity"], type=float, required=True, help="Beam velocity [m/s]."),
    click.Option(["--v-min"], type=float, default=300.0, show_default=True),
    click.Option(["--v-max"], type=float, default=5000.0, show_default=True),
    click.Option(["--v-step"], type=float, default=100.0, show_default=True),
    click.Option(["--out"], type=click.Path(dir_okay=False, writable=True),
                 help="Output file (stdout if omitted)."),
]}


def _command(name, *flags, help=None):
    """Register command ``name`` taking the shared options and ``flags``; the function gets
    the validated config and ``velocities`` in place of ``--v-min/--v-max/--v-step``."""
    def register(f):
        @functools.wraps(f)
        def command(config, **kwargs):
            raw = read_config(config) if config else {}
            cfg = RunConfig.from_dict(_merge(raw, click.get_current_context().ensure_object(dict)))
            if "v_step" in kwargs:
                kwargs["velocities"] = _velocity_grid(
                    kwargs.pop("v_min"), kwargs.pop("v_max"), kwargs.pop("v_step"))
            return f(cfg, **kwargs)

        shared = ("--config", "--particle", "--theta-out-deg", "--out")
        params = [_OPTIONS[flag] for flag in shared + flags]
        return main.command(name, help=help, params=params)(command)
    return register


def _order_table(name, column, value, doc):
    """Register a table command filling ``column`` of each (order, velocity) row
    with ``value(theta_inc, |order|, particle, grating, v)``; exit 3 if no row is ok."""
    @_command(name, "--format", "--orders", "--v-min", "--v-max", "--v-step", help=doc)
    def table(cfg, out, fmt, orders, velocities):
        p, g, base = cfg.particle(), cfg.grating(), cfg.setting()
        rows = []
        for n in orders:
            setting = MonochromatorSetting(theta_out=base.theta_out, total_order=n)
            for v in velocities:
                try:
                    theta = incidence_for_output(setting, p, g, v)
                    rows.append([v, n, value(theta, abs(n), p, g, v), "ok"])
                except BelowCutoffError:
                    rows.append([v, n, None, "below_cutoff"])
                except (EvanescentOrderError, GrazingSingularityError) as exc:
                    rows.append([v, n, None, type(exc).__name__])
        _emit(_table_text(fmt, ["velocity_mps", "order", column, "status"], rows), out)
        if all(row[3] != "ok" for row in rows):
            raise SystemExit(EXIT_INFEASIBLE)


_order_table("incidence-table", "theta_inc_deg", lambda theta, *_: math.degrees(theta),
             "Incidence angle versus velocity for each total order.")
_order_table("divergence-table", "dtheta_dv_rad_per_mps", velocity_divergence,
             "Velocity divergence of the exit angle at the matched incidence angle.")


@_command("paths", "--order", "--format", "--v")
def paths_cmd(cfg, out, fmt, velocity):
    """Bounce-path table (orders, angles, geometry band, transmission) at one velocity."""
    if not 0 < velocity < math.inf:
        raise ConfigurationError(f"--v must be a positive finite velocity, got {velocity}")
    p = cfg.particle()
    g = cfg.grating()
    setting = cfg.setting()
    try:
        paths = enumerate_paths(setting, p, g, velocity)
    except BelowCutoffError:
        _emit(_table_text(fmt, _PATH_HEADER, []), out)
        raise SystemExit(EXIT_INFEASIBLE)
    rows = []
    for group_id, group in enumerate(group_paths_by_geometry(paths), 1):
        for path in group.members:
            band = feasibility_band(path, setting)
            rows.append([
                path.n1, path.n2, path.n3,
                math.degrees(path.alpha1), math.degrees(path.alpha2),
                path.geometry_ratio, band.lower, band.upper,
                None if path.transmission is None else 100.0 * path.transmission,
                group_id,
            ])
    _emit(_table_text(fmt, _PATH_HEADER, rows), out)


_PATH_HEADER = [
    "n1", "n2", "n3", "alpha1_deg", "alpha2_deg", "d_over_s",
    "band_low", "band_high", "transmission_percent", "group_id",
]


@_command("simulate", "--v-center", "--v-width", "--order")
def simulate_cmd(cfg, out):
    """Full beamline simulation at the configured centre velocity (JSON)."""
    # The kernels load numpy, which only simulate and scan need.
    from .beamline import simulate_beam, single_reflection_baseline

    domain = cfg.beam(), cfg.beamline(), cfg.particle(), cfg.grating()
    grid = {"velocity_bins": cfg.velocity_bins, "offset_samples": cfg.offset_samples}
    result = simulate_beam(*domain, **grid)
    baseline = single_reflection_baseline(
        *domain, theta_inc=cfg.baseline_theta_inc, order=cfg.baseline_order, **grid
    )
    payload = result.to_dict()
    payload["baseline_speed_ratio"] = baseline.speed_ratio
    _emit(_json_text(payload), out)


@_command("scan", "--v-center", "--v-width", "--order", "--format", "--v-min", "--v-max",
          "--v-step")
def scan_cmd(cfg, out, fmt, velocities):
    """Speed-ratio scan over centre velocities (CSV or JSON)."""
    from .beamline import scan_speed_ratio

    rows_out = scan_speed_ratio(
        velocities,
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
