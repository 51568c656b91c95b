"""Command-line interface: analyze, simulate, sweep, fit, calibrate.

Parameter precedence is command-line flag > config file > built-in
default, and every effective value is echoed as '# key=value' header
comments in the output for provenance. Outputs are deterministic for a
fixed seed: no timestamps, repr-formatted floats (lossless re-parse),
fixed ordering.

Exit codes: 0 success; 2 usage errors (argparse); 3 unparseable input
(tables, config files); 4 invalid values or configuration; 5 runtime
failures.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields
from typing import IO, Sequence

from . import calibration, link, sim, tables
from .estimator import (AnalysisError, MeasuredStats, ProtocolParams, analyze_columns,
                        analyze_row, require_finite)

EXIT_OK = 0
EXIT_PARSE = 3
EXIT_VALIDATION = 4
EXIT_RUNTIME = 5

PARAM_KEYS = ("mu", "nu", "q", "f_ec", "u_alpha", "n_mu", "n_nu")
LINK_KEYS = ("alpha_db_per_km", "excess_loss_db", "eta_det", "y0", "visibility")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decoyqkd",
        description="Two-intensity decoy-state QKD: security bounds, link model, "
                    "pulse-level Monte Carlo and fringe calibration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_link: bool = True) -> None:
        p.add_argument("--params", metavar="FILE",
                       help="key=value file with protocol parameters "
                            f"({', '.join(PARAM_KEYS)})")
        p.add_argument("--out", metavar="FILE", help="output path (default: stdout)")
        p.add_argument("--seed", type=int, default=0, help="pseudo-random seed")
        for key in PARAM_KEYS:
            p.add_argument(f"--{key.replace('_', '-')}", type=float, default=None,
                           dest=f"param_{key}", help=argparse.SUPPRESS)
        if with_link:
            p.add_argument("--link", metavar="FILE",
                           help="key=value file with link parameters "
                                f"({', '.join(LINK_KEYS)}); default: model fitted "
                                "to the bundled reference table")
            for key in LINK_KEYS:
                p.add_argument(f"--{key.replace('_', '-')}", type=float, default=None,
                               dest=f"link_{key}", help=argparse.SUPPRESS)

    p_analyze = sub.add_parser("analyze", help="security bounds for a measured table")
    p_analyze.add_argument("--input", metavar="FILE",
                           help="measured-statistics table (default: bundled reference)")
    add_common(p_analyze, with_link=False)

    p_simulate = sub.add_parser("simulate", help="Monte Carlo session with soundness check")
    p_simulate.add_argument("--pulses", type=float, default=1e6, help="emitted pulses")
    p_simulate.add_argument("--length-km", type=float, default=50.0, help="fiber length")
    p_simulate.add_argument("--decoy-fraction", type=float, default=0.5)
    # Accepted and ignored: a session is one cheap count-level draw.
    p_simulate.add_argument("--workers", type=int, help=argparse.SUPPRESS)
    add_common(p_simulate)

    p_sweep = sub.add_parser("sweep", help="key rate versus fiber length with cutoff")
    p_sweep.add_argument("--grid", default="0:150:1", metavar="START:STOP:STEP",
                         help="length grid in km (default 0:150:1)")
    add_common(p_sweep)

    p_fit = sub.add_parser("fit", help="fit a link model to a measured table")
    p_fit.add_argument("--input", metavar="FILE",
                       help="measured-statistics table (default: bundled reference)")
    p_fit.add_argument("--fit-y0", type=float, default=5e-7,
                       help="dark-count probability held fixed during the fit")
    add_common(p_fit, with_link=False)

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
    add_common(p_cal)

    return parser


def _load_config(path: str | None, allowed: Sequence[str]) -> dict[str, float]:
    if path is None:
        return {}
    with open(path, encoding="utf-8") as handle:
        return tables.read_config(handle, allowed)


def _effective(defaults: dict[str, float], file_values: dict[str, float],
               flag_values: dict[str, float | None]) -> dict[str, float]:
    merged = dict(defaults)
    merged.update(file_values)
    merged.update({k: v for k, v in flag_values.items() if v is not None})
    return merged


def _resolve_params(args: argparse.Namespace) -> ProtocolParams:
    defaults = {f.name: f.default for f in fields(ProtocolParams)}
    file_values = _load_config(args.params, PARAM_KEYS)
    flags = {key: getattr(args, f"param_{key}") for key in PARAM_KEYS}
    return ProtocolParams(**_effective(defaults, file_values, flags))


def _resolve_link(args: argparse.Namespace, params: ProtocolParams) -> link.LinkModel:
    """Explicit link inputs win; otherwise fit the bundled reference table."""
    file_values = _load_config(getattr(args, "link", None), LINK_KEYS)
    flags = {key: getattr(args, f"link_{key}") for key in LINK_KEYS}
    if not file_values and all(v is None for v in flags.values()):
        return link.fit_link(tables.bundled_reference_table(), params)
    defaults = {f.name: f.default for f in fields(link.LinkModel)}
    return link.LinkModel(**_effective(defaults, file_values, flags))


def _params_header(params: ProtocolParams) -> list[str]:
    return [f"params.{key}={getattr(params, key)!r}" for key in PARAM_KEYS]


def _link_header(model: link.LinkModel) -> list[str]:
    return [f"link.{key}={getattr(model, key)!r}" for key in LINK_KEYS]


def _open_out(args: argparse.Namespace) -> IO[str]:
    if args.out:
        return open(args.out, "w", encoding="utf-8")
    return sys.stdout


def _close_out(stream: IO[str]) -> None:
    if stream is not sys.stdout:
        stream.close()


def _parse_grid(spec: str) -> list[float]:
    try:
        start, stop, step = (float(v) for v in spec.split(":"))
    except ValueError:
        raise ValueError(f"grid must be START:STOP:STEP, got {spec!r}") from None
    require_finite(start=start, stop=stop, step=step)
    if step <= 0 or stop < start:
        raise ValueError(f"grid {spec!r} must have positive step and stop >= start")
    count = math.floor((stop + 1e-9 - start) / step) + 1
    return [round(start + i * step, 9) for i in range(count)]


def _read_input(args: argparse.Namespace, read):
    """The --input table, or the bundled reference table, through the reader `read`."""
    if args.input is None:
        return read(tables.bundled_reference_text().splitlines())
    with open(args.input, encoding="utf-8") as handle:
        return read(handle)


def cmd_analyze(args: argparse.Namespace) -> int:
    table = _read_input(args, tables.read_stats_columns)
    params = _resolve_params(args)
    length, s_mu, e_mu, s_nu, _ = table.T
    bounds = analyze_columns(params, s_mu, e_mu, s_nu)
    warnings = [f"{row[0]} km: {flag}" for row in table[s_mu <= s_nu].tolist()
                for flag in MeasuredStats(*row).warnings()]
    header = ["command=analyze", *_params_header(params)]
    header += [f"warning: {w}" for w in warnings]
    stream = _open_out(args)
    try:
        tables.write_bounds_table(length, bounds, stream, header)
    finally:
        _close_out(stream)
    analyzed = bounds.causes.count(None)
    print(f"analyze: {length.size} row(s), {analyzed} analyzable, "
          f"{bounds.secure.sum()} secure", file=sys.stderr)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    require_finite(pulses=args.pulses)
    params = _resolve_params(args)
    model = _resolve_link(args, params)
    config = sim.SimConfig(
        n_pulses=int(args.pulses), link=model, params=params,
        decoy_fraction=args.decoy_fraction, seed=args.seed, length_km=args.length_km,
    )
    tally, stats = sim.run_session(config)
    lines = ["# command=simulate",
             f"# seed={args.seed} n_pulses={config.n_pulses} "
             f"length_km={args.length_km!r} decoy_fraction={args.decoy_fraction!r}"]
    lines += [f"# {h}" for h in _params_header(params) + _link_header(model)]
    body = sim.tally_to_text(tally)
    for name in ("s_mu", "e_mu", "s_nu", "e_nu"):
        body += f"stats.{name}={getattr(stats, name)!r}\n"
    try:
        bounds = analyze_row(sim.session_params(params, tally), stats)
        report = sim.soundness_report(tally, bounds, params)
        for name in ("s_nu_lower", "s1_lower", "e1_upper", "r_lower"):
            body += f"bounds.{name}={getattr(bounds, name)!r}\n"
        body += f"bounds.secure={str(bounds.secure).lower()}\n"
        body += f"soundness.true_s1={report.true_s1!r}\n"
        body += f"soundness.true_e1={'none' if report.true_e1 is None else repr(report.true_e1)}\n"
        body += f"soundness.s1_ok={str(report.s1_ok).lower()}\n"
        body += ("soundness.e1_ok=unavailable\n" if report.e1_ok is None
                 else f"soundness.e1_ok={str(report.e1_ok).lower()}\n")
        body += f"soundness.sound={str(report.sound).lower()}\n"
    except AnalysisError as exc:
        body += f"analysis.error={exc}\n"
    stream = _open_out(args)
    try:
        stream.write("\n".join(lines) + "\n" + body)
    finally:
        _close_out(stream)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    params = _resolve_params(args)
    model = _resolve_link(args, params)
    grid = _parse_grid(args.grid)
    sweep = link.sweep_key_rate(model, params, grid)
    cutoff = "none" if sweep.cutoff_km is None else repr(sweep.cutoff_km)
    header = ["command=sweep", *_params_header(params), *_link_header(model),
              f"cutoff_km={cutoff}"]
    stream = _open_out(args)
    try:
        for comment in header:
            stream.write(f"# {comment}\n")
        stream.write("length_km\tr_lower\n")
        for length, rate in zip(sweep.lengths, sweep.rates):
            rate_text = "nan" if math.isnan(rate) else repr(float(rate))
            stream.write(f"{float(length)!r}\t{rate_text}\n")
    finally:
        _close_out(stream)
    print(f"sweep: cutoff_km={cutoff}", file=sys.stderr)
    return EXIT_OK


def cmd_fit(args: argparse.Namespace) -> int:
    rows = _read_input(args, tables.read_measured_stats)
    params = _resolve_params(args)
    fit = link.fit_link_report(rows, params, y0=args.fit_y0)
    model = fit.model
    objective = link.fit_objective(model, rows, params)
    stream = _open_out(args)
    try:
        stream.write("# command=fit\n")
        for comment in _params_header(params):
            stream.write(f"# {comment}\n")
        stream.write(f"# objective={objective!r}\n")
        for key in LINK_KEYS:
            stream.write(f"{key}={getattr(model, key)!r}\n")
    finally:
        _close_out(stream)
    print(f"fit: converged in {fit.iterations} iterations, objective={objective!r}",
          file=sys.stderr)
    return EXIT_OK


def cmd_calibrate(args: argparse.Namespace) -> int:
    if args.points < 2:
        raise ValueError(f"--points={args.points} must be >= 2")
    params = _resolve_params(args)
    model = _resolve_link(args, params)
    strong = calibration.scan_intensity_for_peak(model, peak=args.peak)
    offsets = [i * 2.0 * math.pi / (args.points - 1) for i in range(args.points)]
    curve = calibration.simulate_scan(
        model, strong, offsets, args.pulses_per_point, seed=args.seed,
        true_phase_zero=args.true_zero, noiseless=args.noiseless,
    )
    fit = calibration.fit_fringe(curve)
    points = calibration.working_points(fit)
    overhead = calibration.scan_overhead(curve, args.session_pulses)
    stream = _open_out(args)
    try:
        stream.write("# command=calibrate\n")
        for comment in _params_header(params) + _link_header(model):
            stream.write(f"# {comment}\n")
        stream.write(f"# points={args.points} pulses_per_point={args.pulses_per_point} "
                     f"strong_mean_photons={strong!r} seed={args.seed} "
                     f"noiseless={str(args.noiseless).lower()}\n")
        stream.write(f"visibility_est={fit.visibility_est!r}\n")
        stream.write(f"phase_zero={fit.phase_zero!r}\n")
        stream.write(f"amplitude={fit.amplitude!r}\n")
        stream.write(f"residual={fit.residual!r}\n")
        for i, point in enumerate(points):
            stream.write(f"working_point_{i}={point!r}\n")
        stream.write(f"overhead_fraction={overhead!r}\n")
        stream.write(f"saturated={str(curve.saturated).lower()}\n")
    finally:
        _close_out(stream)
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
