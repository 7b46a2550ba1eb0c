"""Command-line front end.

Subcommands emit the data behind the device's characteristic curves as CSV
or JSON: incidence angle and velocity divergence versus velocity, the bounce
path table, a single beamline simulation and the speed-ratio scan.

Angles are degrees and lengths millimetres at this boundary; the CSV dialect
is fixed (comma, ``.`` decimal, header row, LF line endings) so outputs are
byte-stable for identical configs.
"""

from __future__ import annotations

import argparse
import collections
import csv
import gc
import io
import json
import math
import os
import sys

from . import __version__
from .config import DEFAULT_CONFIG, RunConfig, dump_default_config, read_config
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
        sys.stdout.write(text)


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


def _no_result(what: str, labels) -> MonochromatorError:
    """The error of a table or scan none of whose rows succeeded: ``what``, then how many
    rows carry each of the flags or statuses ``labels``, in order of appearance."""
    counts = ", ".join(f"{n} {label}" for label, n in collections.Counter(labels).items())
    return MonochromatorError(f"{what} ({counts})")


#: Most velocities one table or scan may list, and most rows of one order table.
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


def _order(text: str) -> int:
    try:
        order = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if abs(order) > _MAX_ORDER:
        raise argparse.ArgumentTypeError(f"every |order| must be at most {_MAX_ORDER}")
    return order


def _orders(text: str) -> list[int]:
    orders = [_order(tok) for tok in text.split(",") if tok.strip()]
    if not orders:
        raise argparse.ArgumentTypeError("expected at least one order")
    return orders


#: Every option as ``add_argument`` keywords, declared once and keyed by its flag.  An
#: override's dest is the config key ("section/name") its value is merged at, when given.
_OPTIONS = {
    "--config": dict(help="YAML or JSON config file."),
    "--particle": dict(dest="particle", default=argparse.SUPPRESS, help="Particle preset name."),
    "--theta-out-deg": dict(dest="setting/theta_out_deg", type=float, default=argparse.SUPPRESS,
                            help="Fixed exit angle [deg]."),
    "--v-center": dict(dest="beam/v_center_mps", type=float, default=argparse.SUPPRESS,
                       help="Beam centre velocity [m/s]."),
    "--v-width": dict(dest="beam/v_width_mps", type=float, default=argparse.SUPPRESS,
                      help="Beam full width [m/s]."),
    "--order": dict(dest="setting/total_order", type=_order, default=argparse.SUPPRESS,
                    help="Total diffraction order (signed; magnitude is used)."),
    "--format": dict(dest="fmt", choices=["csv", "json"], default="csv",
                     help="Output format, csv or json (default: %(default)s)."),
    "--orders": dict(type=_orders, default="1,2,3",
                     help="Comma-separated list of total orders (default: %(default)s)."),
    "--v": dict(dest="velocity", type=float, required=True, help="Beam velocity [m/s]."),
    "--v-min": dict(type=float, default=300.0, help="First velocity [m/s] (default: %(default)s)."),
    "--v-max": dict(type=float, default=5000.0, help="Last velocity [m/s] (default: %(default)s)."),
    "--v-step": dict(type=float, default=100.0, help="Velocity step [m/s] (default: %(default)s)."),
    "--out": dict(help="Output file (stdout if omitted)."),
}

#: Each command's function and its flags, registered by :func:`_command`.
_COMMANDS: dict = {}


def _command(name, *flags):
    """Register command ``name`` taking ``--config``, ``--particle``, ``--theta-out-deg``,
    ``--out`` and ``flags``; the function gets the validated config and the other flags'
    values, with ``velocities`` in place of ``--v-min/--v-max/--v-step``."""
    def register(f):
        _COMMANDS[name] = f, ("--config", "--particle", "--theta-out-deg", "--out") + flags
        return f
    return register


def _order_table(name, column, value, doc):
    """Register a table command filling ``column`` of each (order, velocity) row
    with ``value(theta_inc, |order|, particle, grating, v)``; exit 3 if no row is ok."""
    def table(cfg, out, fmt, orders, velocities):
        if len(orders) * len(velocities) > MAX_GRID_POINTS:
            raise ConfigurationError(
                f"{len(orders)} orders x {len(velocities)} velocities exceed the limit of "
                f"{MAX_GRID_POINTS} table rows"
            )
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
            raise _no_result("no row ok", (row[3] for row in rows))

    table.__doc__ = doc
    _command(name, "--format", "--orders", "--v-min", "--v-max", "--v-step")(table)


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
        _emit(_table_text(fmt, _PATH_HEADER, []), out)  # the header alone, then the reason
        raise
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


@_command("scan", "--v-width", "--order", "--format", "--v-min", "--v-max", "--v-step")
def scan_cmd(cfg, out, fmt, velocities):
    """Speed-ratio scan over centre velocities (CSV or JSON)."""
    from .beamline import scan_speed_ratio

    rows_out = scan_speed_ratio(
        velocities,
        cfg.beam_width,
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
        raise _no_result("no centre simulated", (r.flag for r in rows_out))


class _UsageError(Exception):
    """A command line that names no command, an unknown flag or a bad flag value."""


class _Parser(argparse.ArgumentParser):
    """Raises usage errors for :func:`entrypoint` to report instead of exiting."""

    def __init__(self, **kwargs):
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message):
        raise _UsageError(message)

    def _parse_optional(self, arg_string):
        # Every flag is long, so a token with one leading dash ("-1,-2", "-inf") is a value.
        return super()._parse_optional(arg_string) if arg_string.startswith("--") else None


class _DumpDefaultConfig(argparse.Action):
    """Print the default config and exit before any command runs."""

    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs=0, default=argparse.SUPPRESS, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        sys.stdout.write(dump_default_config())
        parser.exit()


def _parser() -> _Parser:
    parser = _Parser(prog="mwmono", description="Matter-wave monochromator simulator.")
    parser.add_argument("--version", action="version", version=f"mwmono, version {__version__}",
                        help="Show the version and exit.")
    parser.add_argument("--dump-default-config", action=_DumpDefaultConfig,
                        help="Print the default config as YAML and exit.")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, (f, flags) in _COMMANDS.items():
        command = commands.add_parser(name, help=f.__doc__, description=f.__doc__)
        for flag in flags:
            command.add_argument(flag, metavar=flag[2:].upper(), **_OPTIONS[flag])
    return parser


def entrypoint(argv=None) -> int:
    """Programmatic entry mapping usage and simulator errors to exit codes."""
    try:
        args, extras = _parser().parse_known_args(argv)
        if extras:
            flag = extras[0].split("=")[0]
            raise _UsageError(f"No such option: {flag}" if flag.startswith("-")
                              else f"unexpected argument {extras[0]!r}")
        kwargs = vars(args)
        f, _ = _COMMANDS[kwargs.pop("command")]
        overrides = {}  # override dests are config keys ("section/name"), known by their section
        for key in [key for key in kwargs if key.split("/")[0] in DEFAULT_CONFIG]:
            *sections, last = key.split("/")
            node = overrides
            for section in sections:
                node = node.setdefault(section, {})
            node[last] = kwargs.pop(key)
        config = kwargs.pop("config")
        cfg = RunConfig.from_dict(read_config(config) if config else {}, overrides)
        if "v_step" in kwargs:
            kwargs["velocities"] = _velocity_grid(
                kwargs.pop("v_min"), kwargs.pop("v_max"), kwargs.pop("v_step"))
        f(cfg, **kwargs)
        return 0
    except SystemExit as exc:
        return int(exc.code or 0)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except MonochromatorError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


def run():
    """Entry of the ``mwmono`` script and ``python -m mwmono.cli``: run one command, then exit.

    Only this function owns its process, so only it drops what the process would pay for and
    never use; :func:`entrypoint` and the library leave their host's environment alone.
    ``OPENBLAS_NUM_THREADS`` defaults to 1 before any command imports numpy: the package makes
    no BLAS call, and numpy's OpenBLAS would otherwise start a worker thread per core when it
    loads. A value the caller set is kept.  ``gc.freeze()`` moves every object the command
    built to the permanent generation, so the collections at interpreter shutdown skip them;
    stdout is still flushed and atexit handlers still run at ``sys.exit``.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    code = entrypoint()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
