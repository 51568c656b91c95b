"""Command-line interface: analyze, simulate, sweep, fit, calibrate.

Parameter precedence is command-line flag > config file > built-in
default, and every effective value is echoed as '# key=value' header
comments in the output for provenance. Outputs are deterministic for a
fixed seed: no timestamps, repr-formatted floats (lossless re-parse),
fixed ordering. key=value lines go through tables.format_value; the rows
of the bounds table and of the sweep curve write repr directly.

Exit codes: 0 success; 2 usage errors (argparse); 3 unparseable input
(tables, config files); 4 invalid values or configuration; 5 runtime
failures.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import fields
from typing import IO, Iterator, Sequence

from . import calibration, link, sim, tables
from .estimator import (AnalysisError, ProtocolParams, SecurityBounds, analyze_columns,
                        analyze_row, require_finite)
from .tables import format_value, key_value_lines

EXIT_OK = 0
EXIT_PARSE = 3
EXIT_VALIDATION = 4
EXIT_RUNTIME = 5

PARAM_KEYS = tuple(f.name for f in fields(ProtocolParams))
LINK_KEYS = tuple(f.name for f in fields(link.LinkModel))
# The key=value input groups, each read from a --<group> FILE and from one hidden
# --<key> flag per key: group -> (keys, what they are, help suffix).
INPUT_GROUPS = {"params": (PARAM_KEYS, "protocol parameters", ""),
                "link": (LINK_KEYS, "link parameters",
                         "; default: model fitted to the bundled reference table")}
# simulate's tally sections: both intensity classes, then signal photon bins n = 0, 1, 2, >= 3.
TALLY_SECTIONS = ("signal", "decoy", "photons0", "photons1", "photons2", "photons3plus")
COUNT_KEYS = tuple(f.name for f in fields(sim.ClassTally))
BOUND_KEYS = tuple(f.name for f in fields(SecurityBounds))
# Largest sweep grid or calibrate scan; checked before anything is allocated.
MAX_GRID_POINTS = 10**7


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decoyqkd",
        description="Two-intensity decoy-state QKD: security bounds, link model, "
                    "pulse-level Monte Carlo and fringe calibration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *groups: str) -> None:
        p.add_argument("--out", metavar="FILE", help="output path (default: stdout)")
        for group in groups:
            keys, what, default = INPUT_GROUPS[group]
            p.add_argument(f"--{group}", metavar="FILE",
                           help=f"key=value file with {what} ({', '.join(keys)}){default}")
            for key in keys:
                p.add_argument(f"--{key.replace('_', '-')}", type=float, default=None,
                               dest=f"{group}_{key}", help=argparse.SUPPRESS)

    p_analyze = sub.add_parser("analyze", help="security bounds for a measured table")
    p_analyze.add_argument("--input", metavar="FILE",
                           help="measured-statistics table (default: bundled reference)")
    add_common(p_analyze, "params")

    p_simulate = sub.add_parser("simulate", help="Monte Carlo session with soundness check")
    p_simulate.add_argument("--pulses", type=float, default=1e6, help="emitted pulses")
    p_simulate.add_argument("--length-km", type=float, default=50.0, help="fiber length")
    p_simulate.add_argument("--decoy-fraction", type=float, default=0.5)
    p_simulate.add_argument("--seed", type=int, default=0, help="pseudo-random seed")
    # Accepted and ignored: a session is one cheap count-level draw.
    p_simulate.add_argument("--workers", type=int, help=argparse.SUPPRESS)
    add_common(p_simulate, "params", "link")

    p_sweep = sub.add_parser("sweep", help="key rate versus fiber length with cutoff")
    p_sweep.add_argument("--grid", default="0:150:1", metavar="START:STOP:STEP",
                         help="length grid in km (default 0:150:1)")
    add_common(p_sweep, "params", "link")

    p_fit = sub.add_parser("fit", help="fit a link model to a measured table")
    p_fit.add_argument("--input", metavar="FILE",
                       help="measured-statistics table (default: bundled reference)")
    p_fit.add_argument("--fit-y0", type=float, default=5e-7,
                       help="dark-count probability held fixed during the fit")
    add_common(p_fit, "params")

    p_cal = sub.add_parser("calibrate", help="simulate a phase scan and fit the fringe")
    p_cal.add_argument("--points", type=int, default=64, help="scan settings over 2*pi")
    p_cal.add_argument("--pulses-per-point", type=int, default=100_000)
    p_cal.add_argument("--peak", type=float, default=0.5,
                       help="target peak click probability of the scan")
    p_cal.add_argument("--true-zero", type=float, default=0.0,
                       help="true fringe zero of the simulated interferometer (rad)")
    p_cal.add_argument("--noiseless", action="store_true",
                       help="use exact expected counts instead of sampling")
    p_cal.add_argument("--session-pulses", type=float, default=2e9,
                       help="session length used for the overhead figure")
    p_cal.add_argument("--seed", type=int, default=0, help="pseudo-random seed")
    add_common(p_cal, "link")

    return parser


def _given_values(args: argparse.Namespace, group: str) -> dict[str, float]:
    """The values given for the input group's keys by its --<group> key=value
    file and by the per-key flags, a flag winning over the file; empty when
    none is given. A key given by neither keeps its dataclass default."""
    keys = INPUT_GROUPS[group][0]
    values: dict[str, float] = {}
    path = getattr(args, group)
    if path is not None:
        with open(path, encoding="utf-8") as handle:
            values = tables.read_config(handle, keys)
    flags = {key: getattr(args, f"{group}_{key}") for key in keys}
    values.update({key: value for key, value in flags.items() if value is not None})
    return values


def _resolve_params(args: argparse.Namespace) -> ProtocolParams:
    return ProtocolParams(**_given_values(args, "params"))


def _resolve_link(args: argparse.Namespace) -> link.LinkModel:
    """Explicit link inputs win; otherwise fit the bundled table at its own intensities."""
    values = _given_values(args, "link")
    if not values:
        return link.fit_link(tables.bundled_reference_table(),
                             tables.BUNDLED_REFERENCE_PARAMS)
    return link.LinkModel(**values)


@contextmanager
def _output(args: argparse.Namespace, header: Sequence[str]) -> Iterator[IO[str]]:
    """The --out file, closed on exit, or stdout, with the provenance header
    written as one '# ' line per entry."""
    with (open(args.out, "w", encoding="utf-8") if args.out
          else nullcontext(sys.stdout)) as stream:
        stream.writelines(f"# {line}\n" for line in header)
        yield stream


def _parse_grid(spec: str) -> list[float]:
    try:
        start, stop, step = (float(v) for v in spec.split(":"))
    except ValueError:
        raise ValueError(f"grid must be START:STOP:STEP, got {spec!r}") from None
    require_finite(start=start, stop=stop, step=step)
    if step <= 0 or stop < start:
        raise ValueError(f"grid {spec!r} must have positive step and stop >= start")
    intervals = (stop + 1e-9 - start) / step
    if not intervals < MAX_GRID_POINTS:  # also catches an overflow to inf
        raise ValueError(f"grid {spec!r} has more than {MAX_GRID_POINTS} points")
    grid = [round(start + i * step, 9) for i in range(math.floor(intervals) + 1)]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"grid {spec!r}: step {step!r} km merges points rounded to 1e-9 km")
    return grid


def _read_input(args: argparse.Namespace):
    """The --input table, or the bundled reference table, as an (n, 5) array."""
    if args.input is None:
        return tables.bundled_reference_table()
    with open(args.input, encoding="utf-8") as handle:
        return tables.read_stats_columns(handle)


def cmd_analyze(args: argparse.Namespace) -> int:
    table = _read_input(args)
    params = _resolve_params(args)
    length, s_mu, e_mu, s_nu, _ = table.T
    bounds = analyze_columns(params, s_mu, e_mu, s_nu)
    header = ["command=analyze", *key_value_lines("params.", params, PARAM_KEYS)]
    header += [f"warning: {km} km: s_mu={signal:g} <= s_nu={decoy:g}: signal pulses should "
               "click more often than weaker decoy pulses"
               for km, signal, _, decoy, _ in table[s_mu <= s_nu].tolist()]
    with _output(args, header) as stream:
        tables.write_bounds_table(length, bounds, stream)
    analyzed = bounds.causes.count(None)
    print(f"analyze: {length.size} row(s), {analyzed} analyzable, "
          f"{bounds.secure.sum()} secure", file=sys.stderr)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    require_finite(pulses=args.pulses)
    if not args.pulses.is_integer():
        raise ValueError(f"pulses={args.pulses!r} must be a whole number")
    params = _resolve_params(args)
    model = _resolve_link(args)
    config = sim.SimConfig(
        n_pulses=int(args.pulses), link=model, params=params,
        decoy_fraction=args.decoy_fraction, seed=args.seed, length_km=args.length_km,
    )
    tally, stats = sim.run_session(config)
    header = ["command=simulate",
              f"seed={args.seed} n_pulses={config.n_pulses} "
              f"length_km={args.length_km!r} decoy_fraction={args.decoy_fraction!r}",
              *key_value_lines("params.", params, PARAM_KEYS),
              *key_value_lines("link.", model, LINK_KEYS)]
    counts = (tally.signal, tally.decoy, *tally.signal_photons)
    lines = [line for section, tallied in zip(TALLY_SECTIONS, counts)
             for line in key_value_lines(f"{section}.", tallied, COUNT_KEYS)]
    lines += key_value_lines("stats.", stats, ("s_mu", "e_mu", "s_nu", "e_nu"))
    try:
        bounds = analyze_row(sim.session_params(params, tally), stats)
        report = sim.soundness_report(tally, bounds, params)
        e1_ok = "unavailable" if report.e1_ok is None else format_value(report.e1_ok)
        lines += [*key_value_lines("bounds.", bounds, BOUND_KEYS),
                  *key_value_lines("soundness.", report, ("true_s1", "true_e1", "s1_ok")),
                  f"soundness.e1_ok={e1_ok}", f"soundness.sound={format_value(report.sound)}"]
    except AnalysisError as exc:
        lines.append(f"analysis.error={exc}")
    with _output(args, header) as stream:
        stream.writelines(f"{line}\n" for line in lines)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    params = _resolve_params(args)
    model = _resolve_link(args)
    grid = _parse_grid(args.grid)
    sweep = link.sweep_key_rate(model, params, grid)
    cutoff = format_value(sweep.cutoff_km)
    header = ["command=sweep", *key_value_lines("params.", params, PARAM_KEYS),
              *key_value_lines("link.", model, LINK_KEYS), f"cutoff_km={cutoff}"]
    with _output(args, header) as stream:
        stream.write("length_km\tr_lower\n")
        for length, rate in zip(sweep.lengths.tolist(), sweep.rates.tolist()):
            stream.write(f"{length!r}\t{rate!r}\n")
    print(f"sweep: cutoff_km={cutoff}", file=sys.stderr)
    return EXIT_OK


def cmd_fit(args: argparse.Namespace) -> int:
    table = _read_input(args)
    params = _resolve_params(args)
    fit = link.fit_link_report(table, params, y0=args.fit_y0)
    header = ["command=fit", *key_value_lines("params.", params, PARAM_KEYS),
              f"objective={fit.objective!r}"]
    with _output(args, header) as stream:
        stream.writelines(f"{line}\n" for line in key_value_lines("", fit.model, LINK_KEYS))
    print(f"fit: converged in {fit.iterations} iterations, objective={fit.objective!r}",
          file=sys.stderr)
    return EXIT_OK


def cmd_calibrate(args: argparse.Namespace) -> int:
    if not calibration.MIN_FIT_POINTS <= args.points <= MAX_GRID_POINTS:
        raise ValueError(f"--points={args.points} must be in "
                         f"[{calibration.MIN_FIT_POINTS}, {MAX_GRID_POINTS}]")
    overhead = calibration.scan_overhead(args.points, args.pulses_per_point, args.session_pulses)
    model = _resolve_link(args)
    strong = calibration.scan_intensity_for_peak(model, peak=args.peak)
    offsets = [i * 2.0 * math.pi / (args.points - 1) for i in range(args.points)]
    curve = calibration.simulate_scan(
        model, strong, offsets, args.pulses_per_point, seed=args.seed,
        true_phase_zero=args.true_zero, noiseless=args.noiseless,
    )
    fit = calibration.fit_fringe(curve)
    points = calibration.working_points(fit)
    header = ["command=calibrate", *key_value_lines("link.", model, LINK_KEYS),
              f"points={args.points} pulses_per_point={args.pulses_per_point} "
              f"strong_mean_photons={strong!r} seed={args.seed} "
              f"noiseless={format_value(args.noiseless)}"]
    lines = [*key_value_lines("", fit, ("visibility_est", "phase_zero", "amplitude",
                                        "residual")),
             *(f"working_point_{i}={point!r}" for i, point in enumerate(points)),
             f"overhead_fraction={overhead!r}", f"saturated={format_value(curve.saturated)}"]
    with _output(args, header) as stream:
        stream.writelines(f"{line}\n" for line in lines)
    return EXIT_OK


_COMMANDS = {
    "analyze": cmd_analyze,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "fit": cmd_fit,
    "calibrate": cmd_calibrate,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except tables.TableParseError as exc:
        print(f"decoyqkd {args.command}: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, OSError) as exc:
        print(f"decoyqkd {args.command}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"decoyqkd {args.command}: runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
