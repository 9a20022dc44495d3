"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload bulk-mine --seed 1 --seconds 30 \
        --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` is a separate
run that installs the tracing wrappers and prints the per-layer metrics
(see ``layers.py``), the span reconciliation and the tracing overhead.
Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The run
exits non-zero, printing no result, when it cannot measure (for example
when the program's sources are missing, or the open-loop generator fell
behind its bound).

The end-to-end metrics share one schema across workloads, and each is
measured on every workload (see ``README.md`` in this directory for what
each means where):

* ``setup_s``      median time of the set-up, timed once before the
  measured phase and again at even points through it;
* ``peak_rss_mb``  peak RSS of the process hosting the program;
* ``ok_ratio``     operations that succeeded / attempted;
* ``write_p50_ms`` median latency of the workload's write operation;
* ``read_p50_ms``  median latency of the workload's read operation;
* ``work_per_s``   units of work completed per second of operation time.

Times are reported at reference host speed (``measure.HostClock``): the
raw median times the ratio of the reference calibration-loop time to the
calibration probed between operations of the same run, raised to the
power the workload gives the metric in ``HOST_SCALING`` (serve-mixed
half-scales its open-loop latencies).  Serve-mixed also corrects each
sample for the CPU time the hypervisor took from the machine during its
segment (``STEAL_ELASTICITY``).  Raw values are printed beside them.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import measure  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("bulk-mine", "curation-stream", "serve-mixed")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
#: Spans must reconcile with the traced wall to within this share.
RECONCILE_TOLERANCE = 0.001
#: Set-ups timed per untraced run: one before the measured phase, the
#: rest at even points through it (their time is not counted in it).
SETUP_SAMPLES = 6


def _workload_type(workload: str):
    if workload == "bulk-mine":
        from bulk_mine import BulkMine
        return BulkMine
    if workload == "curation-stream":
        from curation_stream import CurationStream
        return CurationStream
    from serve_mixed import ServeMixed
    return ServeMixed


def _median_ms(values: list[float]) -> float:
    return statistics.median(values) * 1e3


def _scaled_median(values: list[float], factors: list[float]) -> float:
    return statistics.median(value * factor
                             for value, factor in zip(values, factors))


def _end_to_end(workload_type, outcome: measure.Outcome, workload,
                factors: "_Factors", rss_mb: float) -> dict:
    """The shared end-to-end schema, from the workload's own samples
    and the per-sample factors that scale them to reference host speed,
    each raised to the metric's power in the workload's
    ``HOST_SCALING``."""
    samples, work = workload.samples, workload.work
    for name, unit in workload_type.UNITS.items():
        if samples[name]:
            outcome.timing(name, samples[name],
                           scale=1.0 if unit == "s" else 1e3, unit=unit)
    outcome.timing("setup_s", workload.setup_s, scale=1.0, unit="s")
    write = workload_type.WRITE
    read = workload_type.READ
    units = sum(amount for amount, _ in work)
    seconds = sum(elapsed for _, elapsed in work)
    outcome.measured[workload_type.WORK] = measure.Metric(
        units / seconds, "1/s", len(work))
    scaling = workload_type.HOST_SCALING
    elasticity = getattr(workload_type, "STEAL_ELASTICITY", {})

    def raised(name: str, stamped: list[float],
               sample: str) -> list[float]:
        """Per-sample factors of metric ``name``: the host-speed factor
        to its power, times the stolen-time correction where the
        workload gives one."""
        result = [factor ** scaling[name] for factor in stamped]
        if name in elasticity:
            result = [factor * math.exp(-elasticity[name] * share)
                      for factor, share
                      in zip(result, workload.stolen[sample])]
        return result

    scaled_seconds = sum(elapsed * factor for (_, elapsed), factor
                         in zip(work, raised("work_per_s", factors.work,
                                             "work")))
    outcome.diagnostics["speed_factor_median"] = statistics.median(
        factors.work)
    outcome.diagnostics["host_scaling"] = scaling
    attempted = max(1, outcome.attempted)
    return {
        "setup_s": (_scaled_median(workload.setup_s,
                                   raised("setup_s", factors.setup,
                                          "setup")),
                    "s", len(workload.setup_s)),
        "peak_rss_mb": (rss_mb, "MB", 1),
        "ok_ratio": ((attempted - outcome.failed) / attempted, "ratio",
                     attempted),
        "write_p50_ms": (_scaled_median(
            samples[write], raised("write_p50_ms", factors.samples[write],
                                   write))
            * 1e3, "ms", len(samples[write])),
        "read_p50_ms": (_scaled_median(
            samples[read], raised("read_p50_ms", factors.samples[read],
                                  read))
            * 1e3, "ms", len(samples[read])),
        "work_per_s": (units / scaled_seconds, "1/s", len(work)),
    }


class _Factors:
    """Per-sample speed factors kept aligned with a workload's sample
    lists (set-ups included): each new sample gets the mean of the
    probes taken just before and just after its step."""

    def __init__(self, workload) -> None:
        self.samples = {name: [] for name in workload.samples}
        self.work: list[float] = []
        self.setup: list[float] = []

    def stamp(self, workload, factor: float) -> None:
        for name, values in workload.samples.items():
            stamped = self.samples[name]
            stamped.extend([factor] * (len(values) - len(stamped)))
        self.work.extend([factor] * (len(workload.work) - len(self.work)))
        self.setup.extend([factor]
                          * (len(workload.setup_s) - len(self.setup)))

    def probed(self, workload, clock: measure.HostClock, action) -> None:
        """Run ``action`` between two host-speed probes and stamp what
        it added."""
        before = clock.current()
        action()
        self.stamp(workload, (before + clock.current()) / 2)


def _loop(workload, seconds: float, clock: measure.HostClock,
          factors: _Factors, *, steps: int | None = None,
          setup_samples: int = 0) -> tuple[float, int]:
    """Run the measured steps, probing host speed between them: exactly
    ``steps`` steps when given, else the workload's planned steps, else
    whole steps until ``seconds`` of them passed (at least two).
    ``setup_samples`` further set-ups are timed at even points of the
    run, the last after its final step; none before the peak RSS is
    read, which happens after the workload's fixed amount of work
    (``RSS_AFTER_STEPS``) or at the end.  Returns ``(peak RSS, steps
    run)``."""
    planned = workload.plan(seconds) if hasattr(workload, "plan") else None
    if steps is None:
        steps = planned
    spent = 0.0
    done = 0
    sampled = 0
    rss = None

    def progress() -> float:
        return done / steps if steps is not None else spent / seconds

    while (done < steps if steps is not None
           else done < 2 or spent < seconds):
        started = time.perf_counter()
        factors.probed(workload, clock, workload.step)
        spent += time.perf_counter() - started
        done += 1
        if done == workload.RSS_AFTER_STEPS:
            rss = workload.peak_rss_mb()
        while (rss is not None and sampled < setup_samples
               and progress() >= (sampled + 1) / setup_samples):
            factors.probed(workload, clock, workload.setup_sample)
            sampled += 1
    if rss is None:
        rss = workload.peak_rss_mb()
    for _ in range(sampled, setup_samples):
        factors.probed(workload, clock, workload.setup_sample)
    return rss, done


def run(args, workload_type, workdir: str, outcome: measure.Outcome,
        clock: measure.HostClock):
    """Untraced run: set-up, measured steps with further set-ups spread
    through them, output checks."""
    workload = workload_type(args.seed, workdir, root=ROOT, scale=args.scale)
    try:
        factors = _Factors(workload)
        factors.probed(workload, clock, workload.setup)
        rss, _steps = _loop(workload, args.seconds, clock, factors,
                            setup_samples=SETUP_SAMPLES - 1)
        workload.finish(outcome)
    finally:
        workload.close()
    if outcome.generator_fell_behind:
        raise SystemExit("open-loop generator fell behind its bound: "
                         + json.dumps(
                             outcome.diagnostics["generator_lateness"]))
    outcome.attempted += workload.attempted
    outcome.failed += workload.failed
    outcome.diagnostics["sizes"] = workload.sizes
    return _end_to_end(workload_type, outcome, workload, factors, rss)


def run_traced(args, workload_type, workdir: str, outcome: measure.Outcome,
               clock: measure.HostClock) -> dict:
    """Traced run: set-up and half the time traced, then a fresh
    untraced set-up and the same number of steps, so both halves do the
    same work from the same state and their difference is the tracing
    overhead.  In process the wrappers are installed here; serve-mixed
    starts a traced server for the first half and an unmodified one for
    the second."""
    server = workload_type.__name__ == "ServeMixed"
    tracer = None if server else tracing.install(tracing.Tracer())
    window_start = tracing._now()
    workload = workload_type(args.seed, workdir, root=ROOT, scale=args.scale,
                             span=tracer.span if tracer else None)
    try:
        spans_path = os.path.join(workdir, "server-spans.json")
        factors = _Factors(workload)
        if server:
            factors.probed(workload, clock,
                           lambda: workload.setup(trace_out=spans_path))
            window_start = workload.setup_started_ns
        else:
            factors.probed(workload, clock, workload.setup)
        wal_before = _wal_size(workload)
        _rss, steps = _loop(workload, args.seconds / 2, clock, factors)
        window_end = tracing._now()
        marks = {name: len(values)
                 for name, values in workload.samples.items()}
        layer = {"window": (window_start, window_end),
                 "wal_bytes": _wal_size(workload) - wal_before,
                 "events": sum(units for units, _ in workload.work)}
        if server:
            layer["extras"] = workload_type.server_extras(
                workload.finish(outcome))
            with open(spans_path, encoding="utf-8") as handle:
                dumped = json.load(handle)
            tracer = tracing.Tracer()
            tracer.spans = [tuple(span) for span in dumped["spans"]]
            tracer.counts.update(dumped["counts"])
        else:
            # Uninstalled first, so the checks' own work is not counted.
            tracer.uninstall()
            workload.finish(outcome)
        layer["tracer"] = tracer
        factors.probed(workload, clock, workload.setup)
        _loop(workload, args.seconds / 2, clock, factors, steps=steps)
        workload.finish(outcome)
    finally:
        workload.close()
    outcome.attempted += workload.attempted
    outcome.failed += workload.failed
    outcome.diagnostics["sizes"] = workload.sizes
    # Both halves scaled as the workload's write latency is, so a
    # slow-host episode in one half is not counted as overhead.
    power = workload_type.HOST_SCALING["write_p50_ms"]
    scaled = {name: [value * factor ** power for value, factor
                     in zip(values, factors.samples[name])]
              for name, values in workload.samples.items()}
    traced = {name: values[:marks[name]] for name, values in scaled.items()}
    untraced = {name: values[marks[name]:]
                for name, values in scaled.items()}
    layer["overhead"] = _overhead(workload_type, traced, untraced)
    layer["write_leg"] = workload_type.WRITE
    return layer


def _wal_size(workload) -> int:
    path = getattr(workload, "wal_path", None)
    return os.path.getsize(path) if path and os.path.exists(path) else 0


def _overhead(workload_type, traced: dict, untraced: dict) -> dict:
    result = {}
    for leg in (workload_type.WRITE, workload_type.READ):
        if traced[leg] and untraced[leg]:
            with_tracing = _median_ms(traced[leg])
            without = _median_ms(untraced[leg])
            result[leg] = {"traced_ms": with_tracing,
                           "untraced_ms": without,
                           "overhead_pct": (with_tracing - without)
                           / without * 100.0}
    return result


def _per_layer(workload: str, layer: dict, outcome: measure.Outcome,
               out_path: str) -> dict:
    tracer = layer["tracer"]
    recon = tracing.reconcile(tracer.spans, layer["window"])
    extras = dict(layer.get("extras", {}))
    wall = recon["wall_ns"]
    extras["trace.unattributed_pct"] = recon["unattributed_ns"] / wall * 100
    if layer["wal_bytes"] and layer["events"]:
        extras["journal.bytes_per_event"] = (layer["wal_bytes"]
                                             / layer["events"])
    overhead = layer["overhead"]
    if layer["write_leg"] in overhead:
        extras["trace.overhead_pct"] = \
            overhead[layer["write_leg"]]["overhead_pct"]
    metrics, absent, missing = layers.compute(workload, recon,
                                              tracer.counts, extras)
    for name, entry in metrics.items():
        entry["moves"] = layers.MOVES[name]
        if name in absent:
            entry["absent"] = absent[name]
    # The sum holds by construction unless child spans overlap (a
    # wrapper installed twice, a span left open across a thread).
    reconciled = abs(recon["residual_ns"]) <= RECONCILE_TOLERANCE * wall
    outcome.check("spans_reconcile", reconciled,
                  f"self {sum(recon['self_ns'].values()) / 1e6:.1f} ms + "
                  f"unattributed {recon['unattributed_ns'] / 1e6:.1f} ms - "
                  f"overlap {recon['overlap_ns'] / 1e6:.1f} ms = wall "
                  f"{wall / 1e6:.1f} ms (residual "
                  f"{recon['residual_ns'] / 1e6:.3f} ms)")
    # What can go wrong: operation time that no traced layer claims,
    # because a boundary is not instrumented or a wrapper missed.
    unclaimed = recon["root_self_ns"] / max(1, recon["root_ns"])
    bound = layers.UNCLAIMED_BOUND[workload]
    outcome.check("spans_attributed", unclaimed <= bound,
                  f"{unclaimed:.1%} of operation time is the operations' "
                  f"own (bound {bound:.0%})")
    outcome.check("boundaries_recorded", not missing,
                  "zero count at: " + ", ".join(missing) if missing
                  else "every expected boundary recorded")
    outcome.diagnostics["per_layer"] = {
        "wall_ms": wall / 1e6,
        "self_ms": {name: value / 1e6
                    for name, value in sorted(recon["self_ns"].items())},
        "calls": recon["calls"],
        "unattributed_ms": recon["unattributed_ns"] / 1e6,
        "unclaimed_share": unclaimed,
        "overlap_ms": recon["overlap_ns"] / 1e6,
        "overhead": overhead,
        "spans_file": os.path.relpath(out_path, ROOT),
    }
    tracer.dump(out_path)
    return metrics


def _print_table(args, outcome: measure.Outcome, metrics: dict) -> None:
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    if not args.trace:
        print("  measured (workload's own names; timings are medians):")
        tails = outcome.diagnostics.get("tails", {})
        for name, metric in outcome.measured.items():
            extra = ""
            if name in tails:
                extra = (f"  p{tails[name]['percentile']:g} "
                         f"{tails[name]['value']:.4f}")
            print(f"    {name:24s} {metric.value:12.4f} {metric.unit:6s} "
                  f"n={metric.samples}{extra}")
    print("  reported:")
    for name, entry in metrics.items():
        if "samples" in entry:
            suffix = f" n={entry['samples']}"
        elif "absent" in entry:
            suffix = f" absent: {entry['absent']}"
        else:
            suffix = f" moves {entry['moves']}"
        print(f"    {name:28s} {entry['value']:12.4f} "
              f"{entry['unit']:6s}{suffix}")
    for name, (passed, detail) in outcome.checks.items():
        print(f"  check {name}: {'ok' if passed else 'FAILED'} ({detail})")
    print("diagnostics " + json.dumps(outcome.diagnostics, sort_keys=True,
                                      default=str))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor (the smoke test uses a "
                             "tiny one; measured runs use 1)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        # Measure the checkout's own sources, never an installed copy.
        raise SystemExit(f"no program sources under {ROOT}/src/repro")

    workload_type = _workload_type(args.workload)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    outcome = measure.Outcome()
    outcome.diagnostics["stamp"] = measure.stamp(ROOT)
    clock = measure.HostClock()
    gc.collect()
    try:
        if args.trace:
            layer = run_traced(args, workload_type, workdir, outcome, clock)
            out_path = os.path.join(
                OUT_DIR, f"spans-{args.workload}-{args.seed}.json")
            metrics = _per_layer(args.workload, layer, outcome, out_path)
        else:
            end_to_end = run(args, workload_type, workdir, outcome, clock)
            metrics = {name: {"value": value, "unit": unit,
                              "samples": samples}
                       for name, (value, unit, samples)
                       in end_to_end.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    outcome.diagnostics["calibration"] = clock.summary()
    _print_table(args, outcome, metrics)
    measure.emit({
        "correct": all(passed for passed, _ in outcome.checks.values()),
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in metrics.items()},
    })
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
