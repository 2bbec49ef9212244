"""Benchmark of the qsr toolkit: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload close --seed 1 --seconds 10 --trace 0

Workloads are ``close``, ``close-wide``, ``decide`` and ``audit`` (see
``workloads.py``).  The load is a closed loop: one caller, one process, no
threads; each call starts when the previous one has returned.  ``qsr`` is
imported from ``src/`` of the checkout that holds this file.

A run loads the toolkit several times (set-up), draws the workload's batch
from the seed, runs passes over the batch, checks every output against the
oracle outside the timed region, and times a ``qsr`` command on one of the
batch's inputs.  The pass count follows from ``--seconds`` and a fixed
nominal pass time, so a given ``--seconds`` always measures the same work.
End-to-end times are in reference seconds (see ``clock.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` instead runs one
plain pass, one pass with span wrappers and one with call counters, replays
the recorded composition arguments, times ``classify`` with one and two
workers, and reports the per-layer metrics.  The last line of standard
output is the result, one JSON object; the line before it has the details
(sample counts, Python version, CPU count, seed).  Both also go to
``.bench_out/``, the spans of a traced run as JSON lines.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calculi
import clock
import tracing
from workloads import WORKLOADS, Env

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

BUILTINS = ("pc1", "rcc5", "appendixB1", "appendixB2")
SETUP_REPS = 5  # set-ups of a traced run, for registry.parse_ms
REPEATS = 6  # set-ups and qsr commands timed in a run, spread over its passes
# attributes a span keeps of the result of the runner's own calls
SPAN_ATTRS = {
    "search.decide": lambda out: out.nodes_explored,
    "models.completeness": lambda out: out.networks_checked,
}


def setup(specs: dict, models: dict) -> tuple[Env, float, float]:
    """Import ``qsr`` afresh, load every calculus and model, fill the dense tables.

    Returns the loaded environment, the set-up time and the part of it spent
    parsing spec and model text.
    """
    for name in [m for m in sys.modules if m == "qsr" or m.startswith("qsr.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    qsr = importlib.import_module("qsr")
    loaded = {name: qsr.builtin(name) for name in BUILTINS}
    t_parse = time.perf_counter()
    for name, text in specs.items():
        loaded[name] = qsr.parse_spec(text)
    interps = {name: qsr.parse_model(text, loaded[calc]) for name, (text, calc) in models.items()}
    parse_s = time.perf_counter() - t_parse
    for calc in loaded.values():
        # the first call builds whatever tables the calculus precomputes
        calc.compose_masks(0, 0)
        calc.converse_mask(0)
    total = time.perf_counter() - t0
    if Path(qsr.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"qsr was imported from {qsr.__file__}, not from {SRC}")
    return Env(qsr, loaded, interps, specs, models), total, parse_s


class CallFailed:
    """Stands for the output of a call that raised."""

    def __init__(self, exc: BaseException) -> None:
        self.reason = f"raised {exc!r}"


def run_pass(items, tracer=None, calibrated=False) -> tuple[list[float], list, float]:
    """Call every item once: per-item seconds, outputs and the pass wall time.

    With ``calibrated`` a calibration loop runs before each call and after the
    last, and the per-item times are in reference seconds.
    """
    times, outs, samples = [], [], []
    gc.collect()
    t_pass = time.perf_counter()
    for item in items:
        if calibrated:
            samples.append(clock.calibrate())
        span = tracer.begin(item.span) if tracer is not None and item.span else None
        t0 = time.perf_counter()
        try:
            out = item.call()
        except Exception as exc:  # a failing item is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            out = CallFailed(exc)
        times.append(time.perf_counter() - t0)
        if span is not None:
            attrs = SPAN_ATTRS.get(item.span)
            tracer.end(span, attrs(out) if attrs and not isinstance(out, CallFailed) else None)
        outs.append(out)
    if calibrated:
        samples.append(clock.calibrate())
        times = [t / speed for t, speed in zip(times, clock.speeds(samples))]
    return times, outs, time.perf_counter() - t_pass


def digests_of(items, outs) -> list:
    return [out.reason if isinstance(out, CallFailed) else item.digest(out)
            for item, out in zip(items, outs)]


def check_pass(items, outs) -> list[str | None]:
    """The oracle's verdict on every output of one pass: None, or why it is wrong."""
    reasons = []
    for item, out in zip(items, outs):
        if isinstance(out, CallFailed):
            reasons.append(out.reason)
            continue
        try:
            reasons.append(item.check(out))
        except Exception as exc:  # an output the oracle cannot read is wrong
            reasons.append(f"check raised {exc!r}")
    return reasons


def repeat_failures(first_reasons, first_digests, digests) -> list[str]:
    """A repeated pass fails where the first one failed or where its output differs."""
    return [reason or "output differs from the first pass"
            for reason, first, digest in zip(first_reasons, first_digests, digests)
            if reason or digest != first]


def run_cli(cli, workdir: Path) -> tuple[float, str | None]:
    """Wall time of one ``qsr`` command, and why its output is wrong, if it is."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "qsr.cli", *cli.args], cwd=workdir, env=env,
                          capture_output=True, text=True, timeout=120)
    seconds = time.perf_counter() - t0
    reason = cli.check(proc.returncode, proc.stdout)
    return seconds, None if reason is None else f"qsr {' '.join(cli.args)}: {reason}"


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and that percentile.

    With fewer than 20 samples no listed percentile qualifies; the maximum
    is reported then.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for pct in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return ordered[rank - 1], pct
    return ordered[-1], 100.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kB on Linux


def measure(workload, env: Env, setup_s: float, seconds: int, out_dir: Path,
            reload) -> tuple[dict, dict, int, list[str]]:
    """The end-to-end metrics of plain passes, in reference seconds (see ``clock``).

    Set-up and the ``qsr`` command are repeated after every pass, so that each
    is sampled across the whole run.  Each pass uses the toolkit as the latest
    set-up loaded it.
    """
    passes = max(2, round(seconds / workload.pass_s))
    item_times, pass_times, walls, later = [], [], [], []
    setup_times, cli_times, cli_raw, cli_failures = [setup_s], [], [], []
    for p in range(passes):
        items = workload.items(env)
        times, outs, wall = run_pass(items, calibrated=True)
        item_times += times
        pass_times.append(sum(times))
        walls.append(wall)
        if p == 0:
            first_items, first_outs = items, outs
            cli = workload.cli(env, first_items, first_outs)
            for name, text in cli.files.items():
                (out_dir / name).write_text(text, encoding="utf-8")
        else:
            later.append(digests_of(items, outs))
        del items, outs
        for _ in range(math.ceil(REPEATS / passes)):
            (env, raw), speed = clock.around(reload)
            setup_times.append(raw / speed)
            (raw, failure), speed = clock.around(lambda: run_cli(cli, out_dir))
            cli_raw.append(raw)
            cli_times.append(raw / speed)
            if failure:
                cli_failures.append(failure)
    rss = peak_rss_mb()

    # the oracle runs after the timed passes; later passes must repeat the first
    t_oracle = time.perf_counter()
    reasons = check_pass(first_items, first_outs)
    digests = digests_of(first_items, first_outs)
    failures = [r for r in reasons if r]
    for pass_digests in later:
        failures += repeat_failures(reasons, digests, pass_digests)
    failures += cli_failures
    attempted = len(item_times) + len(cli_times)
    oracle_s = time.perf_counter() - t_oracle

    tail_s, tail_pct = tail(item_times)
    metrics = {
        "wall_s": (statistics.median(pass_times), "s"),
        "item_ms_p50": (statistics.median(item_times) * 1e3, "ms"),
        "item_ms_tail": (tail_s * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss, "MB"),
        "cli_s": (statistics.median(cli_times), "s"),
        "pass_share": (1 - len(failures) / attempted, "share"),
    }
    details = {
        "passes": passes,
        "batch": len(first_items),
        "item_samples": len(item_times),
        "item_tail_percentile": tail_pct,
        "pass_walls_raw_s": walls,
        "setup_samples": len(setup_times),
        "cli_command": "qsr " + " ".join(cli.args),
        "cli_samples": len(cli_times),
        "cli_walls_raw_s": cli_raw,
        "oracle_s": oracle_s,
    }
    return metrics, details, attempted, failures


def measure_traced(workload, env: Env, out_dir: Path, seed: int) -> tuple[dict, dict, int, list[str]]:
    """The per-layer metrics: a plain pass, a span pass and a counter pass."""
    qsr = env.qsr
    items = workload.items(env)
    times, outs, _ = run_pass(items, calibrated=True)
    plain_s = sum(times)
    reasons, digests = check_pass(items, outs), digests_of(items, outs)
    failures = [r for r in reasons if r]

    tracer = tracing.Tracer()
    items = workload.items(env)
    patches = tracing.install_spans(qsr, tracer)
    try:
        times, outs, _ = run_pass(items, tracer, calibrated=True)
        traced_s = sum(times)
    finally:
        patches.restore()
    failures += repeat_failures(reasons, digests, digests_of(items, outs))

    compose_logs, converse_logs = {}, {}
    items = workload.items(env)
    patches = tracing.install_counters(qsr, compose_logs, converse_logs)
    try:
        _, outs, _ = run_pass(items)
    finally:
        patches.restore()
    failures += repeat_failures(reasons, digests, digests_of(items, outs))
    attempted = 3 * len(items)

    metrics = tracing.layer_metrics(tracer, compose_logs, converse_logs)
    compose_ns = tracing.replay_ns(compose_logs, "compose_masks", env.fresh)
    converse_ns = tracing.replay_ns(converse_logs, "converse_mask", env.fresh)
    for path in ("dense", "large"):
        metrics[f"core.compose_ns.{path}"] = (compose_ns[path], "ns")
        metrics[f"core.converse_ns.{path}"] = (converse_ns[path], "ns")
    metrics["trace.span_overhead_share"] = ((traced_s - plain_s) / plain_s, "share")

    classify = {}
    for label, name, jobs in (("r13", "IA13", 1), ("r16", "appendixB2xcycb", 1), ("r39", "pc1xIA13", 1),
                              ("r13", "IA13", 2), ("r39", "pc1xIA13", 2)):
        classify[label, jobs] = time_classify(env, name, jobs)
    for (label, jobs), (seconds, _) in classify.items():
        key = "axioms.classify_ms" if jobs == 1 else "axioms.classify_ms_jobs2"
        metrics[f"{key}.{label}"] = (seconds * 1e3, "ms")
    seconds, universe = classify["r39", 1]
    metrics["axioms.tuples_per_s"] = (universe / seconds, "1/s")
    metrics["cli.import_s"] = (time_import(), "s")

    tracer.write(out_dir / f"spans-{workload.name}-seed{seed}.jsonl")
    details = {"plain_pass_s": plain_s, "span_pass_s": traced_s, "spans": len(tracer.spans),
               "batch": len(items), "replay_cap": tracing.REPLAY_CAP, "setup_samples": SETUP_REPS}
    return metrics, details, attempted, failures


def time_classify(env: Env, name: str, jobs: int, reps: int = 3) -> tuple[float, int]:
    """Median seconds of ``classify`` on a freshly loaded calculus, and the tuples it checks."""
    samples = []
    for _ in range(reps):
        calc = env.fresh(name)
        t0 = time.perf_counter()
        report = env.qsr.classify(calc, jobs=jobs)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples), sum(r.universe for r in report.records.values())


def time_import(reps: int = 5) -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import qsr.cli"], env=env, check=True, timeout=60)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    # inputs: drawn from the seed, before and outside any timing
    specs, models = calculi.texts(random.Random(f"calculi/{args.seed}"))
    workload = WORKLOADS[args.workload](args.seed)

    sys.path.insert(0, str(SRC))
    try:
        setups = [clock.around(lambda: setup(specs, models))
                  for _ in range(SETUP_REPS if args.trace else 1)]
    except ImportError as exc:
        print(f"error: cannot load qsr from {SRC}: {exc}", file=sys.stderr)
        return 2
    env = setups[-1][0][0]
    out_dir = OUT / f"{args.workload}-seed{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.trace:
        metrics, details, attempted, failures = measure_traced(workload, env, out_dir, args.seed)
        metrics["registry.parse_ms"] = (statistics.median(s[2] for s, _ in setups) * 1e3, "ms")
    else:
        # the calibration loop, the calls and the qsr commands share one CPU
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        metrics, details, attempted, failures = measure(
            workload, env, setups[0][0][1] / setups[0][1], args.seconds, out_dir,
            lambda: setup(specs, models)[:2])

    details.update({
        "run_s": time.perf_counter() - started,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "cpus": os.cpu_count(),
        "failures": failures[:20],
    })
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (out_dir / f"result-trace{args.trace}.json").write_text(
        json.dumps({"details": details, "result": result}, indent=1), encoding="utf-8")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
