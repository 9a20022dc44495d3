"""curation-stream: the paper's incremental maintenance, in process.

Why this workload: delta compilation, the maintenance walks of the
paper's Figures 12/13, rule derivation and the journal append dominate
here, while encode and search barely run after set-up.  Every exact read
follows a flush, so it misses the per-revision catalog memo and pays
the catalog build.  Estimate reads run beside an in-flight asynchronous
flush, on the path the serving tier reads without locks.

One writer submits curator batches (see ``inputs.CuratorStream``) to a
journaled session with the default fsync and snapshot cadence.  A cycle
is three synchronous rounds (submit a batch, ``flush``, then the first
``top_rules`` + ``query``) and one asynchronous round: submit a batch,
``flush_async``, poll ``pending() == 0`` with a sleep, then time one
``estimate()`` issued while the flush future is still unresolved.
Estimates issued after the flush already finished are counted apart.
"""

from __future__ import annotations

import gc
import os
import shutil
import time

from repro import CorrelationService

import inputs
from bulk_mine import build_relation, config
from measure import null_span, peak_rss_mb

N_TUPLES = 8_000
BATCH_EVENTS = 24
SYNC_ROUNDS = 3
SESSION = "curation"
POLL_SECONDS = 0.0002


class CurationStream:
    """Runs the workload; see the module docstring."""

    UNITS = {"flush_ms": "ms", "exact_read_ms": "ms", "estimate_ms": "ms"}
    WRITE = "flush_ms"
    READ = "exact_read_ms"
    WORK = "events_per_s"
    #: Power of the host-speed factor applied to each end-to-end metric:
    #: every timed call runs in this process, on the CPU, so all scale
    #: fully.
    HOST_SCALING = {"setup_s": 1.0, "write_p50_ms": 1.0,
                    "read_p50_ms": 1.0, "work_per_s": 1.0}
    #: Peak RSS is read after a fixed amount of work: the relation and
    #: the provenance log grow with every event.
    RSS_AFTER_STEPS = 50

    def __init__(self, seed: int, workdir: str, *, root: str = "",
                 scale: float = 1.0, span=None) -> None:
        self.workdir = workdir
        self.span = span if span is not None else null_span
        self.n_tuples = max(300, int(N_TUPLES * scale))
        self.seed = seed
        self.rows = inputs.paper_relation_rows(seed, self.n_tuples)
        self.batches = None
        self.setup_s: list[float] = []
        self.samples: dict[str, list[float]] = {
            "flush_ms": [], "exact_read_ms": [], "estimate_ms": []}
        self.work: list[tuple[int, float]] = []
        self.attempted = 0
        self.failed = 0
        self.flush_finished_first = 0
        self.rules_added = 0
        self.rules_dropped = 0
        self.journal_dir = ""
        self.service = None
        self.sizes = {"tuples": self.n_tuples,
                      "batch_events": BATCH_EVENTS,
                      "sync_rounds_per_async_round": SYNC_ROUNDS}

    def setup(self) -> None:
        """Timed set-up of the session the measured rounds use.  The
        curator stream starts over with it."""
        self.close()
        self.journal_dir = os.path.join(self.workdir, "journal")
        self.service = self._set_up(self.journal_dir)
        self.batches = inputs.CuratorStream(self.rows, self.seed).batches(
            BATCH_EVENTS)

    def setup_sample(self) -> None:
        """One more timed set-up, beside the measured session, then
        released."""
        directory = os.path.join(self.workdir, "journal-sample")
        service = self._set_up(directory)
        service.drop(SESSION)
        service.close()
        shutil.rmtree(directory)

    def _set_up(self, directory: str) -> CorrelationService:
        gc.collect()
        with self.span("op.setup"):
            started = time.perf_counter()
            service = CorrelationService(config=config(),
                                         journal_dir=directory)
            service.create(SESSION, build_relation(self.rows))
            # The first estimate builds the sketches; a served session
            # pays that once, before traffic.
            service.estimate(SESSION, n=10)
            self.setup_s.append(time.perf_counter() - started)
        return service

    @property
    def wal_path(self) -> str:
        return os.path.join(self.journal_dir, SESSION, "events.wal")

    def step(self) -> None:
        for _ in range(SYNC_ROUNDS):
            self._sync_round()
        self._async_round()

    def _account(self, report) -> None:
        self.rules_added += len(report.rules_added)
        self.rules_dropped += len(report.rules_dropped)

    def _sync_round(self) -> None:
        service = self.service
        batch = next(self.batches)
        self.attempted += 2
        try:
            with self.span("op.flush"):
                started = time.perf_counter()
                for event in batch:
                    service.submit(SESSION, event)
                submitted = time.perf_counter()
                report = service.flush(SESSION)
                flushed = time.perf_counter()
        except Exception:
            self.failed += 2
            raise
        self._account(report)
        try:
            with self.span("op.read"):
                read_started = time.perf_counter()
                top = service.top_rules(SESSION, 10)
                strong = service.query(SESSION).min_confidence(0.9).all()
                read = time.perf_counter() - read_started
        except Exception:
            self.failed += 1
            raise
        if not top or not strong:
            self.failed += 1
        self.samples["flush_ms"].append(flushed - submitted)
        self.samples["exact_read_ms"].append(read)
        self.work.append((len(batch), flushed - started + read))

    def _async_round(self) -> None:
        service = self.service
        batch = next(self.batches)
        self.attempted += 2
        started = time.perf_counter()
        for event in batch:
            service.submit(SESSION, event)
        future = service.flush_async(SESSION)
        while service.pending(SESSION) > 0:
            time.sleep(POLL_SECONDS)
        finished_first = future.done()
        try:
            with self.span("op.estimate"):
                estimate_started = time.perf_counter()
                estimate = service.estimate(SESSION, n=10)
                estimated = time.perf_counter() - estimate_started
        except Exception:
            self.failed += 1
            raise
        try:
            report = future.result()
        except Exception:
            self.failed += 1
            raise
        self._account(report)
        if not estimate.rules:
            self.failed += 1
        if finished_first:
            self.flush_finished_first += 1
        else:
            self.samples["estimate_ms"].append(estimated)
        self.work.append((len(batch), time.perf_counter() - started))

    @staticmethod
    def peak_rss_mb() -> float:
        return peak_rss_mb()

    def finish(self, outcome) -> None:
        service = self.service
        verify = service.verify(SESSION)
        outcome.check("verify_equals_remine", verify.equivalent,
                      verify.explain() if not verify.equivalent
                      else "incremental rules == full re-mine")
        rules = len(service.snapshot(SESSION).rules)
        outcome.check("catalog_non_empty", rules > 0, f"{rules} rules")
        crossed = self.rules_added + self.rules_dropped
        outcome.check("rules_crossed_threshold", crossed > 0,
                      f"{self.rules_added} added, {self.rules_dropped} "
                      f"dropped")
        outcome.check("estimates_measured",
                      len(self.samples["estimate_ms"]) > 0,
                      f"{len(self.samples['estimate_ms'])} during a "
                      f"flush, {self.flush_finished_first} after it")
        outcome.diagnostics["estimate_flush_finished_first"] = \
            self.flush_finished_first
        self.close()

    def close(self) -> None:
        """Release the session (also after a failed run)."""
        if self.service is not None:
            self.service.close()
            self.service = None
        shutil.rmtree(self.journal_dir, ignore_errors=True)
