"""Statistics, run diagnostics and result printing shared by workloads."""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field

#: Tail percentiles tried from the highest down; a tail is quoted only
#: where at least ten samples lie beyond it.
TAIL_CANDIDATES = (99.9, 99.0, 90.0)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100.0
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (
        position - lower)


def tail(values: list[float]) -> tuple[float, float] | None:
    """``(q, value)`` at the highest candidate percentile with at least
    ten samples beyond it, or ``None`` when there are too few."""
    for q in TAIL_CANDIDATES:
        if len(values) * (1.0 - q / 100.0) >= 10:
            return q, percentile(values, q)
    return None


@dataclass
class Metric:
    value: float
    unit: str
    samples: int


@dataclass
class Outcome:
    """What one workload run produced."""

    #: Every metric the workload measured, by its own name.
    measured: dict[str, Metric] = field(default_factory=dict)
    #: Output checks: name -> (passed, detail).
    checks: dict[str, tuple[bool, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    diagnostics: dict = field(default_factory=dict)
    generator_fell_behind: bool = False

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        """Record an output check; a check run twice (the traced run's
        two servers) passes only if both runs pass."""
        if name in self.checks:
            earlier, earlier_detail = self.checks[name]
            passed = earlier and passed
            detail = f"{earlier_detail}; {detail}"
        self.checks[name] = (bool(passed), detail)

    def timing(self, name: str, seconds: list[float], *, scale: float = 1e3,
               unit: str = "ms") -> None:
        """Record the median of ``seconds`` (scaled) under ``name``, and
        its tail, where one exists, in the diagnostics."""
        if not seconds:
            raise RuntimeError(f"no samples for {name}")
        median = statistics.median(seconds) * scale
        self.measured[name] = Metric(median, unit, len(seconds))
        found = tail(seconds)
        if found is not None:
            self.diagnostics.setdefault("tails", {})[name] = {
                "percentile": found[0], "value": found[1] * scale,
                "unit": unit, "samples": len(seconds)}


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None


_NULL = _NullSpan()


def null_span(name: str) -> _NullSpan:
    """Stands in for ``Tracer.span`` in untraced runs."""
    return _NULL


#: Iterations of the calibration loop and repeats per probe.
CAL_ITERATIONS = 20_000
CAL_REPEATS = 9
#: Seconds the calibration loop takes at reference host speed: its
#: median on the 2-CPU host the workloads were sized on, outside slow
#: episodes.  A constant: never recomputed per run.
REFERENCE_CAL_S = 0.00135


def _calibration_loop() -> float:
    started = time.perf_counter()
    total = 0
    for index in range(CAL_ITERATIONS):
        total += index * index % 7
    return time.perf_counter() - started


class HostClock:
    """Tracks host speed with a fixed pure-Python calibration loop.

    On a shared host the same code runs up to ~2x slower for minutes at
    a time.  Each timing is therefore reported scaled to reference
    speed, ``raw * REFERENCE_CAL_S / calibration``, where the
    calibration is the loop's median time probed just before the
    operation (at most ``interval`` seconds before it; never while an
    operation is being timed).  The raw values and a summary of every
    probe are printed beside the metrics, so a slow-host episode can be
    told from a regression.
    """

    def __init__(self, interval: float = 0.5) -> None:
        self.interval = interval
        self.readings: list[float] = []
        self._last_probe = float("-inf")

    def probe(self) -> float:
        """Probe now; returns the factor from raw to reference speed."""
        value = statistics.median(_calibration_loop()
                                  for _ in range(CAL_REPEATS))
        self.readings.append(value)
        self._last_probe = time.perf_counter()
        return REFERENCE_CAL_S / value

    def current(self) -> float:
        """The factor of the latest probe, probing first when the last
        one is older than ``interval``."""
        if time.perf_counter() - self._last_probe >= self.interval:
            return self.probe()
        return REFERENCE_CAL_S / self.readings[-1]

    def summary(self) -> dict:
        if not self.readings:
            return {"probes": 0}
        return {"probes": len(self.readings),
                "reference_s": REFERENCE_CAL_S,
                "min_s": min(self.readings),
                "median_s": statistics.median(self.readings),
                "max_s": max(self.readings)}


def cpu_ticks() -> list[int] | None:
    """The host's aggregate CPU time counters (the ``cpu`` line of
    ``/proc/stat``), or ``None`` where the system does not report
    them."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            return [int(field) for field in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def stolen_share(before: list[int] | None,
                 after: list[int] | None) -> float:
    """Share of the CPU time this machine wanted between two
    :func:`cpu_ticks` readings that the hypervisor ran something else
    instead: steal / (busy + steal).  It does not grow with the
    program's own demand, so a slower program does not raise it."""
    if before is None or after is None or len(before) < 8:
        return 0.0
    delta = [new - old for new, old in zip(after, before)]
    user, nice, system, _idle, _iowait, irq, softirq, steal = delta[:8]
    wanted = user + nice + system + irq + softirq + steal
    return steal / wanted if wanted > 0 else 0.0


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set size in MiB of this process, or of ``pid``
    read from ``/proc`` while it still runs."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def stamp(root: str) -> dict:
    """Provenance: git sha (when the checkout is a repository), CPU
    count and Python version."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return {"git_sha": "unknown (not a git checkout)",
                "cpus": os.cpu_count(), "python": platform.python_version()}
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"git_sha": sha, "cpus": os.cpu_count(),
            "python": platform.python_version()}


def emit(payload: dict) -> None:
    """Print the result object as the last line of standard output."""
    print(json.dumps(payload, sort_keys=True), flush=True)
