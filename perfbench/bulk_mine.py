"""bulk-mine: cold start of the paper-shaped relation, mines and restarts.

Why this workload: ingest, encode, the frequent-itemset search and
persistence do nearly all the work here and almost none on the other
workloads, so a faster mine path must show on ``write_p50_ms`` here and
nowhere else.  Recovery re-mines the snapshot and replays the journal
suffix, so ``read_p50_ms`` (time to the first answer after a restart)
moves with both the mine path and replay.

Set-up (timed): build the relation, create a journaled session
(initial mine, base snapshot), and flush enough small curator batches
that the journal holds a snapshot at the default cadence plus a
non-empty suffix after it.  The restarts read the first set-up's
journal; the runner times further set-ups spread through the run
(``setup_sample``).  Measured loop: a mine (rows in memory ->
``CorrelationService.create`` returns the first snapshot) alternates
with a restart (``restore_session`` on the prepared journal -> first
exact read).
"""

from __future__ import annotations

import gc
import os
import shutil
import time

from repro import AnnotatedRelation, CorrelationService, EngineConfig

import inputs
from measure import null_span, peak_rss_mb

N_TUPLES = 12_000
#: The service's default periodic-snapshot cadence, plus a suffix.
SNAPSHOT_EVERY = 64
SUFFIX_RECORDS = 16
EVENTS_PER_RECORD = 4
SESSION = "bulk"


def build_relation(rows) -> AnnotatedRelation:
    relation = AnnotatedRelation()
    for values, annotations in rows:
        relation.insert(values, annotations)
    return relation


def config() -> EngineConfig:
    return EngineConfig(min_support=inputs.MIN_SUPPORT,
                        min_confidence=inputs.MIN_CONFIDENCE)


def has_rule(signature, lhs, rhs) -> bool:
    lhs = tuple(sorted(lhs))
    return any(entry[1] == lhs and entry[2] == rhs for entry in signature)


class BulkMine:
    """Runs the workload; see the module docstring."""

    #: sample list -> unit; durations are recorded in seconds.
    UNITS = {"mine_s": "s", "recover_s": "s"}
    WRITE = "mine_s"
    READ = "recover_s"
    WORK = "tuples_per_s"
    #: Power of the host-speed factor applied to each end-to-end metric:
    #: every timed call runs in this process, on the CPU, so all scale
    #: fully.
    HOST_SCALING = {"setup_s": 1.0, "write_p50_ms": 1.0,
                    "read_p50_ms": 1.0, "work_per_s": 1.0}
    #: Peak RSS is read after a fixed amount of work.
    RSS_AFTER_STEPS = 4

    def __init__(self, seed: int, workdir: str, *, root: str = "",
                 scale: float = 1.0, span=None) -> None:
        self.workdir = workdir
        self.span = span if span is not None else null_span
        self.n_tuples = max(200, int(N_TUPLES * scale))
        self.rows = inputs.paper_relation_rows(seed, self.n_tuples)
        batches = inputs.CuratorStream(self.rows, seed).batches(
            EVENTS_PER_RECORD)
        self.records = [next(batches)
                        for _ in range(SNAPSHOT_EVERY + SUFFIX_RECORDS)]
        self.setup_s: list[float] = []
        self.samples: dict[str, list[float]] = {"mine_s": [],
                                                "recover_s": []}
        #: (units of work, seconds) per measured operation.
        self.work: list[tuple[int, float]] = []
        self.attempted = 0
        self.failed = 0
        self.signatures: set = set()
        self.first_signature = None
        self.restart_mismatches = 0
        self.journal_dir = ""
        self.sizes = {"tuples": self.n_tuples,
                      "journal_records": len(self.records),
                      "events_per_record": EVENTS_PER_RECORD,
                      "snapshot_every": SNAPSHOT_EVERY}

    def setup(self) -> None:
        """Timed set-up; the restarts read the journal it leaves."""
        self.journal_dir = os.path.join(self.workdir, "journal")
        shutil.rmtree(self.journal_dir, ignore_errors=True)
        service = self._set_up(self.journal_dir)
        self.live_signature = service.snapshot(SESSION).signature
        self.live_seq = service.journal_status(SESSION)["last_seq"]
        service.drop(SESSION)
        service.close()

    def setup_sample(self) -> None:
        """One more timed set-up, into a journal of its own that is then
        removed."""
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
            for record in self.records:
                for event in record:
                    service.submit(SESSION, event)
                service.flush(SESSION)
            self.setup_s.append(time.perf_counter() - started)
        return service

    def step(self) -> None:
        """One operation: mines and restarts alternate."""
        if len(self.samples["mine_s"]) <= len(self.samples["recover_s"]):
            self._mine()
        else:
            self._restart()

    def _timed(self, sample: str, operation) -> None:
        """Run ``operation`` as one measured operation; a raise counts
        as failed and ends the run."""
        self.attempted += 1
        gc.collect()
        try:
            with self.span("op." + sample):
                started = time.perf_counter()
                result = operation()
                elapsed = time.perf_counter() - started
        except Exception:
            self.failed += 1
            raise
        self.samples[sample].append(elapsed)
        self.work.append((self.n_tuples, elapsed))
        return result

    def _mine(self) -> None:
        service = CorrelationService(config=config())
        snapshot = self._timed("mine_s", lambda: service.create(
            SESSION, build_relation(self.rows)))
        self.signatures.add(snapshot.signature)
        self.first_signature = self.first_signature or snapshot.signature
        service.drop(SESSION)
        service.close()

    def _restart(self) -> None:
        service = CorrelationService(config=config(),
                                     journal_dir=self.journal_dir)

        def restart():
            result = service.restore_session(SESSION)
            return (result, service.snapshot(SESSION),
                    service.top_rules(SESSION, 10))

        result, snapshot, top = self._timed("recover_s", restart)
        if (snapshot.signature != self.live_signature
                or result.last_seq != self.live_seq
                or result.snapshot_seq != SNAPSHOT_EVERY
                or result.replay.records == 0 or not top):
            self.restart_mismatches += 1
        service.drop(SESSION)
        service.close()

    @staticmethod
    def peak_rss_mb() -> float:
        return peak_rss_mb()

    def finish(self, outcome) -> None:
        outcome.check("mines_agree", len(self.signatures) == 1,
                      f"{len(self.signatures)} distinct signatures over "
                      f"{len(self.samples['mine_s'])} mines")
        missing = [f"{lhs}->{rhs}" for lhs, rhs in inputs.EXPECTED_RULES
                   if not has_rule(self.first_signature, lhs, rhs)]
        outcome.check("planted_rules_found", not missing,
                      "missing: " + ", ".join(missing) if missing
                      else f"{len(inputs.EXPECTED_RULES)} planted rules")
        outcome.check("restart_equals_live", self.restart_mismatches == 0,
                      f"{self.restart_mismatches} of "
                      f"{len(self.samples['recover_s'])} restarts differ "
                      f"from the live session at seq {self.live_seq}")
        self.close()

    def close(self) -> None:
        """Remove the prepared journal (also after a failed run); every
        measured operation already released its own session."""
        shutil.rmtree(self.journal_dir, ignore_errors=True)
