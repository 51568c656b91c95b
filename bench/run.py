#!/usr/bin/env python3
"""Benchmark of decoyqkd: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload analyze-bulk --seed 1 --seconds 35 --trace 0

Run it from anywhere inside a decoyqkd checkout; it uses the package
under the checkout's src/ and nothing installed. Inputs are generated
from --seed (bench/reference.py). A run repeats whole rounds of the
workload's operations while the next round still fits in --seconds, and
always runs at least one. Every output is checked against bench/reference.py
or against properties the method must have.

With --trace 0 the CLI commands run in fresh processes, one at a time,
and the run reports the end-to-end metrics; the times besides set-up are
counted in probes, a fixed reference computation timed around each sample,
because the host's speed drifts (README). With --trace 1 the same
rounds run in this process: plain, traced, plain. The traced round
records a span per call of decoyqkd's public functions and gives the
per-layer metrics; the plain rounds around it give the tracing overhead.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
Lines before it name the figures of the workload in its own terms.
Failed checks are listed on standard error. The exit code is 2 when
the checkout has no decoyqkd source and 1 when no round produced a
figure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref
import tracing

# decoyqkd is imported inside functions, once src/ is on the path and, in a
# traced run, inside the timed first import. `checks` imports scipy.stats,
# which loads scipy.optimize, so the rounds import it only after decoyqkd.

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

CHILD_TIMEOUT_S = 150.0
SCAN_POINTS = 64
SCAN_PULSES_PER_POINT = 100_000

# The probe's median time on the reference host in its fast state (README);
# setup_s is the fresh import's time in probes times this, so it stays in seconds.
PROBE_REFERENCE_S = 0.0345

# Fixed data of the probe's least-squares fit: a noisy fringe.
PROBE_X = np.linspace(0.0, 2.0 * math.pi, SCAN_POINTS)
PROBE_Y = (0.5 * (1.0 + 0.97 * np.cos(PROBE_X - 1.3))
           + np.random.default_rng(0).normal(0.0, 0.01, SCAN_POINTS))


def probe() -> float:
    """Seconds of a fixed reference computation that never calls decoyqkd.

    The host's speed drifts by up to 2x for seconds to minutes (README), so
    each sample is divided by the mean time of the probes just before and
    just after it. The probe mixes the kinds of work decoyqkd does: an
    interpreter loop, numpy binomial sampling and small scipy least-squares
    fits.
    """
    from scipy.optimize import least_squares
    start = time.perf_counter()
    total = 0
    for i in range(250_000):
        total += i * i
    np.random.default_rng(1).binomial(1000, 0.3, 250_000).sum()
    for _ in range(10):
        least_squares(lambda p: p[0] * (1.0 + p[1] * np.cos(PROBE_X - p[2])) - PROBE_Y,
                      [0.4, 0.9, 1.0])
    return time.perf_counter() - start


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of one run; the self-tests shrink them."""

    bulk_rows: int = 30_000
    sweep_grid: str = "0:200:0.02"
    cal_batches: int = 16
    cal_batch: int = 8
    pulses: int = 10_000_000
    setup_repeats: int = 5


@dataclass
class Round:
    """Timed samples of one round.

    cli holds (command, wall seconds, probe seconds) per fresh CLI command;
    work holds (key, items, seconds, probe seconds) per timed piece of
    in-process work. The probe seconds are the mean of the probes just
    before and just after the sample.
    """

    cli: list[tuple[str, float, float]] = field(default_factory=list)
    work: list[tuple[str, float, float, float]] = field(default_factory=list)


class Run:
    """One benchmark run: operation counts, check failures and the CLI launcher.

    `failed` counts operations that raised or exited non-zero; `failures`
    lists the checks that outputs of the other operations did not pass.
    """

    def __init__(self, workload: str, seed: int, sizes: Sizes, in_process: bool) -> None:
        self.workload, self.seed, self.sizes = workload, seed, sizes
        self.in_process = in_process
        self.tracer = None
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.peak_rss_kb = 0
        # Fresh interpreters find the checkout's package and may cache its
        # bytecode, as an installed package would, whatever the caller's setting.
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env["PYTHONPATH"] = str(SRC)
        self.dir = WORK / f"run-{workload}-{seed}-{os.getpid()}"
        self.inputs = ref.write_inputs(seed, self.dir / "inputs", sizes.bulk_rows)

    def check(self, fails: list[str]) -> None:
        self.failures += fails

    def fresh(self, argv: list[str]) -> tuple[int, float]:
        """Run a command in a fresh interpreter; exit code and wall seconds."""
        log = self.dir / "child.log"
        with open(log, "w", encoding="utf-8") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err, env=self.env,
                                    cwd=ROOT)
            # wait4 reports the child's peak RSS; polling it lets a hung child be killed.
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() - start > CHILD_TIMEOUT_S:
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.001)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            sys.stderr.write(f"{' '.join(argv)} exited {proc.returncode}:\n{log.read_text()}")
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, wall

    def cli(self, argv: list[str], in_process: bool | None = None) -> tuple[float, float] | None:
        """One decoyqkd command as an operation, between two probes.

        Its wall seconds and the probes' mean, None if it failed. It runs in
        a fresh interpreter unless in_process (default: the run's mode).
        """
        self.attempted += 1
        before = probe()
        if self.in_process if in_process is None else in_process:
            from decoyqkd import cli
            start = time.perf_counter()
            if self.tracer is None:
                code = cli.main(argv)
            else:
                code = self.tracer.call("cli.main", cli.main, argv)
            wall = time.perf_counter() - start
        else:
            code, wall = self.fresh(["-m", "decoyqkd", *argv])
        probe_s = 0.5 * (before + probe())
        if code != 0:
            self.failed += 1
            print(f"bench: decoyqkd {argv[0]} exited {code}", file=sys.stderr)
            return None
        return wall, probe_s

    def attempt(self, label: str, fn: Callable[[], object]):
        """One in-process operation; its result, None if it raised."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            self.failed += 1
            print(f"bench: {label} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            return None


# ---------------------------------------------------------------- workloads
#
# analyze-bulk:  tables and estimator do the work; link, sim, calibration none.
# fit-calibrate: link and calibration do the work; sim none.
# mc-soundness:  sim does the work; estimator a few calls; link none.

def analyze_round(run: Run, index: int) -> Round:
    import checks
    out = run.dir / "bounds.tsv"
    timed = run.cli(["analyze", "--input", str(run.inputs.bulk_path), "--out", str(out)])
    result = Round()
    if timed is None:
        return result
    text = out.read_text(encoding="utf-8")
    got = checks.parse_bounds_table(text)
    bulk = run.inputs.bulk
    run.check(checks.check_bounds(got, bulk, ref.Params(), "analyze"))
    run.check(checks.check_truth(got, bulk["y1"], bulk["e1"], ~bulk["noisy"], "analyze"))
    result.cli.append(("analyze", *timed))
    if run.in_process:
        return result

    # The same command in this process, without the import: the sample of
    # the speed-normalised rate. It must write the same table.
    again = run.dir / "bounds_in_process.tsv"
    timed = run.cli(["analyze", "--input", str(run.inputs.bulk_path), "--out", str(again)],
                    in_process=True)
    if timed is not None:
        result.work.append(("analyze in-process", float(bulk["s_mu"].size), *timed))
        if again.read_text(encoding="utf-8") != text:
            run.check(["analyze in-process: table differs from the fresh process's"])
    return result


def _calibration_cycle(link, zero: float, seed: int):
    from decoyqkd import calibration
    from decoyqkd.link import LinkModel
    model = LinkModel(**vars(link))
    strong = calibration.scan_intensity_for_peak(model, peak=0.5)
    offsets = [i * 2.0 * math.pi / (SCAN_POINTS - 1) for i in range(SCAN_POINTS)]
    curve = calibration.simulate_scan(model, strong, offsets, SCAN_PULSES_PER_POINT,
                                      seed=seed, true_phase_zero=zero)
    fit = calibration.fit_fringe(curve)
    return fit.visibility_est, fit.phase_zero, calibration.working_points(fit)


def fit_round(run: Run, index: int) -> Round:
    import checks
    result = Round()

    # Calibration cycles run in timed batches between the CLI commands, so
    # their samples spread over the round; the first cycle warms up untimed.
    batch = run.sizes.cal_batch
    setups = ref.scan_setups(run.seed * 1000 + index, run.sizes.cal_batches * batch + 1)
    results = [run.attempt("calibration 0", lambda: _calibration_cycle(*setups[0]))]

    def calibrate(batches: int) -> None:
        # Consecutive batches share the probe between them.
        before = probe()
        for _ in range(min(batches, (len(setups) - len(results)) // batch)):
            start = time.perf_counter()
            for k in range(len(results), len(results) + batch):
                results.append(run.attempt(f"calibration {k}",
                                           lambda: _calibration_cycle(*setups[k])))
            seconds = time.perf_counter() - start
            after = probe()
            result.work.append(("calibration batch", float(batch), seconds,
                                0.5 * (before + after)))
            before = after

    per_gap = -(-run.sizes.cal_batches // 4)
    bundled_cfg = run.dir / "fit_bundled.cfg"
    bundled = run.cli(["fit", "--out", str(bundled_cfg)])
    if bundled is not None:
        result.cli.append(("fit bundled", *bundled))
    calibrate(per_gap)
    for i, ((link, _), path) in enumerate(zip(run.inputs.heldout, run.inputs.heldout_paths)):
        cfg = run.dir / f"fit_heldout{i}.cfg"
        timed = run.cli(["fit", "--input", str(path), "--fit-y0", repr(link.y0),
                         "--out", str(cfg)])
        if timed is not None:
            result.cli.append((f"fit heldout{i}", *timed))
            run.check(checks.check_fit(checks.parse_link(cfg.read_text(encoding="utf-8")),
                                       link, f"fit heldout{i}"))
        calibrate(per_gap)
    if bundled is not None:
        sweep_out = run.dir / "sweep.tsv"
        timed = run.cli(["sweep", "--link", str(bundled_cfg), "--grid", run.sizes.sweep_grid,
                         "--out", str(sweep_out)])
        if timed is not None:
            result.cli.append(("sweep", *timed))
            fitted = checks.parse_link(bundled_cfg.read_text(encoding="utf-8"))
            run.check(checks.check_sweep(*checks.parse_sweep(sweep_out.read_text(encoding="utf-8")),
                                         fitted, ref.Params(), "sweep"))
    calibrate(run.sizes.cal_batches)
    for k, ((link, zero, _), res) in enumerate(zip(setups, results)):
        if res is not None:
            run.check(checks.check_fringe(*res, link.visibility, zero, f"calibration {k}"))
    return result


def _plain_tally(tally) -> dict[str, tuple[int, ...]]:
    names = {"signal": tally.signal, "decoy": tally.decoy}
    names.update(zip(("photons0", "photons1", "photons2", "photons3plus"),
                     tally.signal_photons))
    return {k: (v.emitted, v.clicked, v.sifted, v.errors) for k, v in names.items()}


def _session(config):
    """Run a session, then bound it with its own budgets and report its soundness."""
    from decoyqkd import estimator, sim
    start = time.perf_counter()
    tally, stats = sim.run_session(config)
    elapsed = time.perf_counter() - start
    params = sim.session_params(config.params, tally)
    try:
        bounds = estimator.analyze_row(params, stats)
    except estimator.AnalysisError:
        return elapsed, tally, None, None
    report = sim.soundness_report(tally, bounds, config.params)
    return elapsed, tally, bounds, report


def mc_round(run: Run, index: int) -> Round:
    import checks
    from decoyqkd import sim
    from decoyqkd.estimator import ProtocolParams
    from decoyqkd.link import LinkModel

    params, link = ref.Params(), ref.PAPER_LINK
    seeds = np.random.default_rng([run.seed, 4, index]).integers(0, 2**31, len(ref.BUNDLED_LENGTHS))
    result = Round()
    tallies = {}
    before = probe()  # consecutive sessions share the probe between them
    for length, seed in zip(ref.BUNDLED_LENGTHS, seeds):
        config = sim.SimConfig(n_pulses=run.sizes.pulses, link=LinkModel(**vars(link)),
                               params=ProtocolParams(**vars(params)), seed=int(seed),
                               length_km=length)
        res = run.attempt(f"session {length} km", lambda: _session(config))
        after = probe()
        probe_s, before = 0.5 * (before + after), after
        if res is None:
            continue
        elapsed, tally, bounds, report = res
        result.work.append((f"session {length} km", float(run.sizes.pulses), elapsed, probe_s))
        if bounds is None:
            if run.tracer is not None:
                run.tracer.counts["sim.sessions_aborted"] += 1
            produced = report_kv = None
        else:
            produced = {n: getattr(bounds, n) for n in checks.BOUND_FIELDS}
            report_kv = {"true_s1": report.true_s1, "sound": report.sound}
        tallies[length] = _plain_tally(tally)
        run.check(checks.check_session(tallies[length], run.sizes.pulses, link, params, length,
                                       produced, f"session {length} km", report_kv))

    # The CLI repeats one of the round's sessions: same seed, same tally.
    k = index % len(ref.BUNDLED_LENGTHS)
    length, seed = ref.BUNDLED_LENGTHS[k], int(seeds[k])
    out = run.dir / "simulate.txt"
    timed = run.cli(["simulate", "--link", str(run.inputs.paper_link_path),
                     "--pulses", str(run.sizes.pulses), "--length-km", repr(length),
                     "--seed", str(seed), "--workers", "1", "--out", str(out)])
    if timed is not None:
        result.cli.append(("simulate", *timed))
        kv = checks.parse_key_values(out.read_text(encoding="utf-8"))
        tally = checks.tally_from_key_values(kv)
        if "analysis.error" in kv:
            produced = None
            if run.tracer is not None:
                run.tracer.counts["sim.sessions_aborted"] += 1
        else:
            produced = {n: float(kv[f"bounds.{n}"]) for n in checks.BOUND_FIELDS}
        run.check(checks.check_session(tally, run.sizes.pulses, link, params, length,
                                       produced, f"simulate {length} km"))
        if length in tallies and tally != tallies[length]:
            run.check([f"simulate {length} km: tally differs from the in-process session "
                       "with the same seed"])
    return result


ROUNDS = {"analyze-bulk": analyze_round, "fit-calibrate": fit_round, "mc-soundness": mc_round}


# ------------------------------------------------------------------ metrics

def _per_call(spans, name: str, scale: float) -> float:
    durations = [s.duration for s in spans if s.name == name]
    return scale * sum(durations) / len(durations) if durations else 0.0


def _total(spans, name: str) -> float:
    return sum(s.duration for s in spans if s.name == name)


def _count(spans, name: str, outcome: Callable[[str], bool]) -> int:
    return sum(1 for s in spans if s.name == name and outcome(s.outcome))


def layer_metrics(tracer, import_s: float, overhead_pct: float) -> dict[str, tuple[float, str]]:
    spans = tracer.finished()
    pulses = tracer.counts["sim.pulses"]
    own = tracer.self_times()
    metrics = {
        "cli.import_s": (import_s, "s"),
        "cli.main_s": (_total(spans, "cli.main"), "s"),
        "tables.read_measured_stats_s": (_total(spans, "tables.read_measured_stats"), "s"),
        "tables.write_bounds_table_s": (_total(spans, "tables.write_bounds_table"), "s"),
        "tables.rows": (tracer.counts["tables.rows"], "count"),
        "estimator.analyze_row_us": (_per_call(spans, "estimator.analyze_row", 1e6), "us"),
        "estimator.rows_secure": (_count(spans, "estimator.analyze_row",
                                         lambda o: o == "secure"), "count"),
        "estimator.rows_aborted": (_count(spans, "estimator.analyze_row",
                                          lambda o: o.startswith("raise:")), "count"),
        "link.fit_link_s": (_total(spans, "link.fit_link"), "s"),
        "link.fit_objective_us": (_per_call(spans, "link.fit_objective", 1e6), "us"),
        "link.expected_stats_us": (_per_call(spans, "link.expected_stats", 1e6), "us"),
        "link.sweep_key_rate_s": (_total(spans, "link.sweep_key_rate"), "s"),
        "link.sweep_points": (tracer.counts["link.sweep_points"], "count"),
        "sim.run_session_s_per_1e6_pulses": (
            _total(spans, "sim.run_session") / (pulses / 1e6) if pulses else 0.0, "s/Mpulse"),
        "sim.soundness_report_us": (_per_call(spans, "sim.soundness_report", 1e6), "us"),
        "sim.pulses": (pulses, "count"),
        "sim.sessions": (_count(spans, "sim.run_session", lambda o: True), "count"),
        "sim.sessions_aborted": (tracer.counts["sim.sessions_aborted"], "count"),
        "calibration.simulate_scan_ms": (_per_call(spans, "calibration.simulate_scan", 1e3), "ms"),
        "calibration.fit_fringe_ms": (_per_call(spans, "calibration.fit_fringe", 1e3), "ms"),
        "calibration.scans": (_count(spans, "calibration.simulate_scan", lambda o: True),
                              "count"),
    }
    for layer in ("cli", "tables", "estimator", "link", "sim", "calibration"):
        metrics[f"{layer}.self_s"] = (own.get(layer, 0.0), "s")
    metrics["trace.spans"] = (len(spans), "count")
    metrics["trace.overhead_pct"] = (overhead_pct, "%")
    return metrics


def trace_targets() -> dict:
    from decoyqkd import calibration, estimator, link, sim, tables
    rows = ("tables.rows", lambda args, result: len(result))
    return {
        "tables.read_measured_stats": (tables.read_measured_stats, None, rows),
        "tables.write_bounds_table": (tables.write_bounds_table, None, None),
        "estimator.analyze_row": (estimator.analyze_row,
                                  lambda b: "secure" if b.secure else "insecure", None),
        "link.fit_link": (link.fit_link, None, None),
        "link.fit_objective": (link.fit_objective, None, None),
        "link.expected_stats": (link.expected_stats, None, None),
        "link.sweep_key_rate": (link.sweep_key_rate, None,
                                ("link.sweep_points", lambda args, r: len(r.lengths))),
        "sim.run_session": (sim.run_session, None,
                            ("sim.pulses", lambda args, r: args[0].n_pulses)),
        "sim.soundness_report": (sim.soundness_report, None, None),
        "calibration.simulate_scan": (calibration.simulate_scan, None, None),
        "calibration.fit_fringe": (calibration.fit_fringe, None, None),
        "calibration.working_points": (calibration.working_points, None, None),
    }


def typical(samples) -> dict[str, float]:
    """Median value per key over the run.

    Every key is sampled in every round, so its samples spread over the run
    and the median is less swayed by the host's slow spells (README).
    """
    by_key: dict[str, list[float]] = {}
    for key, value in samples:
        by_key.setdefault(key, []).append(value)
    return {key: statistics.median(values) for key, values in by_key.items()}


def run_untraced(run: Run, seconds: float) -> tuple[dict, list[str]]:
    # One untimed import compiles the bytecode a user's first run would leave behind.
    setup = []
    for _ in range(run.sizes.setup_repeats + 1):
        before = probe()
        code, wall = run.fresh(["-c", "import decoyqkd.cli"])
        setup.append((code, wall, 0.5 * (before + probe())))
    if any(code != 0 for code, _, _ in setup):
        raise RuntimeError("import decoyqkd.cli failed in a fresh interpreter")
    setup_wall = statistics.median(wall for _, wall, _ in setup[1:])
    setup_s = PROBE_REFERENCE_S * statistics.median(wall / p for _, wall, p in setup[1:])

    rounds = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        rounds.append(ROUNDS[run.workload](run, len(rounds)))
        took = time.perf_counter() - began
        if time.perf_counter() - start + took > seconds:
            break

    cli = typical((k, s) for r in rounds for k, s, _ in r.cli)
    cli_cost = typical((k, s / p) for r in rounds for k, s, p in r.cli)
    work = typical((k, s) for r in rounds for k, _, s, _ in r.work)
    cost = typical((k, s / p) for r in rounds for k, _, s, p in r.work)
    items = {k: n for r in rounds for k, n, _, _ in r.work}
    if not cli or not work or not run.peak_rss_kb:
        raise RuntimeError("no round produced a figure")
    rate = sum(items.values()) / sum(work.values())
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (run.peak_rss_kb / 1024.0, "MB"),
        "cli_wall_probes": (sum(cli_cost.values()), "probe"),
        "items_per_probe": (sum(items.values()) / sum(cost.values()), "1/probe"),
    }
    probe_s = statistics.median(p for r in rounds for *_, p in r.work + r.cli)
    lines = [f"rounds {len(rounds)}", f"setup wall {setup_wall:.4f} s",
             f"peak_rss_mb {run.peak_rss_kb / 1024.0:.1f} MB", f"probe_ms {probe_s * 1e3:.2f} ms"]
    lines += [f"{k} {v:.4f} s, {cli_cost[k]:.2f} probes" for k, v in cli.items()]
    lines.append(f"cli_wall_s {sum(cli.values()):.4f} s")
    if run.workload == "analyze-bulk":
        rows = items["analyze in-process"]
        lines += [f"analyze_rows_per_s {rows / cli['analyze']:.1f} rows/s",
                  f"in-process analyze_rows_per_s {rate:.1f} rows/s"]
    elif run.workload == "fit-calibrate":
        fits = [v for k, v in cli.items() if k.startswith("fit")]
        lines += [f"fit_wall_s {statistics.median(fits):.4f} s" if fits else "fit_wall_s none",
                  f"sweep_wall_s {cli.get('sweep', math.nan):.4f} s",
                  f"calibrations_per_s {rate:.2f} 1/s"]
    else:
        lines += [f"mc_pulses_per_s {rate:.4g} pulses/s",
                  f"simulate_wall_s {cli.get('simulate', math.nan):.4f} s"]
    return metrics, lines


def run_traced(run: Run) -> tuple[dict, list[str]]:
    start = time.perf_counter()
    import decoyqkd.cli  # noqa: F401 - timed: the first import of the program
    import_s = time.perf_counter() - start

    round_fn = ROUNDS[run.workload]
    plain = []
    tracer = tracing.Tracer()
    for phase in ("plain", "traced", "plain"):
        began = time.perf_counter()
        if phase == "traced":
            tracer.install(trace_targets())
            run.tracer = tracer
            try:
                round_fn(run, 0)
            finally:
                tracer.uninstall()
                run.tracer = None
            traced_s = time.perf_counter() - began
        else:
            round_fn(run, 0)
            plain.append(time.perf_counter() - began)
    overhead_pct = 100.0 * (traced_s / statistics.mean(plain) - 1.0)
    spans_path = WORK / "spans" / f"{run.workload}-seed{run.seed}.tsv"
    tracer.dump(spans_path)
    metrics = layer_metrics(tracer, import_s, overhead_pct)
    lines = [f"spans {spans_path.relative_to(ROOT)}",
             f"round plain {statistics.mean(plain):.3f} s, traced {traced_s:.3f} s"]
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(ROUNDS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return bench(args.workload, args.seed, args.seconds, bool(args.trace), Sizes())


def bench(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes) -> int:
    """Run one workload and print its figures; the process exit code."""
    if not (SRC / "decoyqkd" / "__init__.py").is_file():
        print(f"bench: no decoyqkd source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    run = Run(workload, seed, sizes, in_process=trace)
    try:
        metrics, lines = run_traced(run) if trace else run_untraced(run, seconds)
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    for failure in run.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    for line in lines:
        print(f"{workload}: {line}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
