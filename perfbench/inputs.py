"""Seeded inputs for the benchmark workloads.

The benchmark owns its generator so that changes to the program's own
synthetic-data helpers cannot change what is measured.  Everything is
drawn from one ``random.Random(seed)``: the same seed gives the same
relation and the same curator stream, event for event.

The relation has the shape of the paper's evaluation data (its
Figure 4/7 setting): six columns of 40 opaque values with a skewed
background, data-to-annotation rules planted at support 0.44-0.49 and
confidence above 0.9, annotation-to-annotation rules on top, and
independent noise annotations.  Mined at alpha = 0.4, beta = 0.8.

One extra planted rule, ``c5v25 -> Annot_6``, sits near the thresholds.
The curator stream moves the share of ``c5v25`` tuples that carry
``Annot_6`` along a triangle wave across beta, so that rule is
dropped and re-added several times per run while every other planted
rule stays put: the catalog never drains, and the incremental
maintenance path sees rules cross the threshold in both directions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro import (
    AddAnnotatedTuples,
    AddAnnotations,
    RemoveAnnotations,
    RemoveTuples,
)

MIN_SUPPORT = 0.4
MIN_CONFIDENCE = 0.8

N_COLUMNS = 6
VALUES_PER_COLUMN = 40
SKEW = 1.2

#: (pattern {column: value}, annotation, pattern rate, confidence).
#: Patterns sit on value 25, which the skewed background almost never
#: draws (p ~ 0.006), and the rates keep every itemset's support clear
#: of the thresholds: rules at >= 0.43 against alpha = 0.4, products of
#: independent patterns at <= 0.25 against the 0.3 keep floor
#: (margin 0.75 x alpha).  So which itemsets are frequent, and hence
#: what a mine costs, does not change from seed to seed.
PLANTED_D2A = (
    (((0, 25), (1, 25)), "Annot_1", 0.50, 0.97),
    (((2, 25),), "Annot_2", 0.47, 0.95),
    (((3, 25), (4, 25)), "Annot_3", 0.47, 0.95),
    # The borderline rule the curator stream drives across beta.
    (((5, 25),), "Annot_6", 0.50, 0.92),
)
#: (lhs annotations, rhs annotation, confidence).
PLANTED_A2A = (
    (("Annot_1",), "Annot_4", 0.95),
    (("Annot_2", "Annot_3"), "Annot_5", 0.92),
)
NOISE_ANNOTATIONS = tuple(f"Annot_N{index}" for index in range(4))
NOISE_RATE = 0.05

#: Rules every mine of the relation must find: (lhs tokens, rhs).
#: Each has expected support >= 0.44 and confidence >= 0.95.
EXPECTED_RULES = (
    (("c0v25", "c1v25"), "Annot_1"),
    (("c2v25",), "Annot_2"),
    (("c3v25", "c4v25"), "Annot_3"),
    (("Annot_1",), "Annot_4"),
)
BORDERLINE_LHS = "c5v25"
BORDERLINE_RHS = "Annot_6"
#: The borderline share's triangle wave: its range around beta and the
#: events per full period (several periods fit in one measured run).
SHARE_LOW = 0.72
SHARE_HIGH = 0.88
PERIOD_EVENTS = 1200
#: Share of the initial tuples that curator annotation edits target.
HOT_FRACTION = 0.25

Row = tuple[tuple[str, ...], frozenset[str]]


def _value_weights() -> list[float]:
    return [1.0 / (value + 1) ** SKEW for value in range(VALUES_PER_COLUMN)]


def draw_row(rng: random.Random, weights: list[float]) -> Row:
    """One tuple drawn from the planted model."""
    values = rng.choices(range(VALUES_PER_COLUMN), weights=weights,
                         k=N_COLUMNS)
    annotations: set[str] = set()
    for pattern, annotation, rate, confidence in PLANTED_D2A:
        if rng.random() < rate:
            for column, value in pattern:
                values[column] = value
            if rng.random() < confidence:
                annotations.add(annotation)
    for lhs, rhs, confidence in PLANTED_A2A:
        if all(annotation in annotations for annotation in lhs) \
                and rng.random() < confidence:
            annotations.add(rhs)
    for noise in NOISE_ANNOTATIONS:
        if rng.random() < NOISE_RATE:
            annotations.add(noise)
    return (tuple(f"c{column}v{value}" for column, value
                  in enumerate(values)),
            frozenset(annotations))


def paper_relation_rows(seed: int, n_tuples: int) -> list[Row]:
    """The paper-shaped relation as ``(values, annotations)`` rows."""
    rng = random.Random(seed)
    weights = _value_weights()
    return [draw_row(rng, weights) for _ in range(n_tuples)]


@dataclass
class CuratorStream:
    """An endless, seeded stream of curator events over a relation.

    The stream simulates the relation's state (live tids, annotations)
    so every event it emits is valid when applied in emission order:
    removals name attached pairs, deletes name live tuples, and the tid
    of each insert is predicted exactly.  Event mix per event:

    * 55% toggle ``Annot_6`` on hot ``c5v25`` tuples toward a triangle-
      wave target share that crosses beta (the borderline rule);
    * 15% detach a planted annotation from a hot tuple, or re-attach a
      detached one (bounded pool, so planted rules keep their support);
    * 15% attach a noise annotation to a hot tuple, or detach one
      attached earlier (bounded pool);
    * 12% insert 1-3 tuples drawn from the planted model;
    * 3% delete one cold tuple.
    """

    rows: list[Row]
    seed: int
    _rng: random.Random = field(init=False, repr=False)
    _weights: list[float] = field(init=False, repr=False)
    _annotations: dict[int, set[str]] = field(init=False, repr=False)
    _emitted: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed * 7919 + 17)
        self._weights = _value_weights()
        self._annotations = {tid: set(annotations) for tid, (_, annotations)
                             in enumerate(self.rows)}
        self._tid_range = len(self.rows)
        tids = list(range(len(self.rows)))
        self._rng.shuffle(tids)
        hot_count = max(1, int(len(tids) * HOT_FRACTION))
        self._hot = tids[:hot_count]
        self._cold = tids[hot_count:]
        self._border = [tid for tid in self._hot
                        if BORDERLINE_LHS in self.rows[tid][0]]
        self._border_all = sum(1 for values, _ in self.rows
                               if BORDERLINE_LHS in values)
        self._border_on = sum(
            1 for values, annotations in self.rows
            if BORDERLINE_LHS in values and BORDERLINE_RHS in annotations)
        self._inserted_values: dict[int, tuple[str, ...]] = {}
        self._detached: list[tuple[int, str]] = []
        self._noisy: list[tuple[int, str]] = []

    def target_share(self) -> float:
        """Borderline target share of ``c5v25`` tuples carrying
        ``Annot_6`` at the current stream position."""
        phase = (self._emitted % PERIOD_EVENTS) / PERIOD_EVENTS
        wave = 1.0 - abs(2.0 * phase - 1.0)  # 0 -> 1 -> 0
        # Start at the top and come down first: the rule begins valid.
        return SHARE_HIGH - (SHARE_HIGH - SHARE_LOW) * wave

    def batches(self, size: int):
        """Yield lists of ``size`` events, forever."""
        while True:
            yield [self.next_event() for _ in range(size)]

    def next_event(self):
        rng = self._rng
        self._emitted += 1
        roll = rng.random()
        event = None
        if roll < 0.55:
            event = self._borderline_toggle()
        elif roll < 0.70:
            event = self._planted_toggle()
        elif roll < 0.85:
            event = self._noise_toggle()
        elif roll < 0.97:
            event = self._insert()
        else:
            event = self._delete()
        return event if event is not None else self._insert()

    # -- event kinds -------------------------------------------------------

    def _borderline_toggle(self):
        rng = self._rng
        share = self._border_on / max(1, self._border_all)
        adding = share < self.target_share()
        pairs = []
        for _ in range(rng.randint(1, 4)):
            tid = rng.choice(self._border)
            carried = BORDERLINE_RHS in self._annotations[tid]
            if carried != adding and all(p[0] != tid for p in pairs):
                pairs.append((tid, BORDERLINE_RHS))
        if not pairs:
            return None
        for tid, annotation in pairs:
            if adding:
                self._annotations[tid].add(annotation)
            else:
                self._annotations[tid].discard(annotation)
        self._border_on += len(pairs) if adding else -len(pairs)
        return (AddAnnotations.build(pairs) if adding
                else RemoveAnnotations.build(pairs))

    def _planted_toggle(self):
        rng = self._rng
        if self._detached and (len(self._detached) >= 48
                               or rng.random() < 0.5):
            tid, annotation = self._detached.pop(
                rng.randrange(len(self._detached)))
            self._annotations[tid].add(annotation)
            return AddAnnotations.build([(tid, annotation)])
        tid = rng.choice(self._hot)
        carried = sorted(a for a in self._annotations[tid]
                         if a in ("Annot_1", "Annot_2", "Annot_3"))
        if not carried:
            return None
        annotation = rng.choice(carried)
        self._annotations[tid].discard(annotation)
        self._detached.append((tid, annotation))
        return RemoveAnnotations.build([(tid, annotation)])

    def _noise_toggle(self):
        rng = self._rng
        if self._noisy and (len(self._noisy) >= 48 or rng.random() < 0.5):
            tid, annotation = self._noisy.pop(rng.randrange(len(self._noisy)))
            self._annotations[tid].discard(annotation)
            return RemoveAnnotations.build([(tid, annotation)])
        tid = rng.choice(self._hot)
        annotation = rng.choice(NOISE_ANNOTATIONS)
        if annotation in self._annotations[tid]:
            return None
        self._annotations[tid].add(annotation)
        self._noisy.append((tid, annotation))
        return AddAnnotations.build([(tid, annotation)])

    def _insert(self):
        rows = [draw_row(self._rng, self._weights)
                for _ in range(self._rng.randint(1, 3))]
        for values, annotations in rows:
            tid = self._tid_range
            self._tid_range += 1
            self._annotations[tid] = set(annotations)
            self._inserted_values[tid] = values
            self._cold.append(tid)
            if BORDERLINE_LHS in values:
                self._border_all += 1
                self._border_on += BORDERLINE_RHS in annotations
        return AddAnnotatedTuples.build(rows)

    def _delete(self):
        rng = self._rng
        if len(self._cold) < 2:
            return None
        index = rng.randrange(len(self._cold))
        self._cold[index], self._cold[-1] = self._cold[-1], self._cold[index]
        tid = self._cold.pop()
        annotations = self._annotations.pop(tid)
        values = (self.rows[tid][0] if tid < len(self.rows)
                  else self._inserted_values.pop(tid))
        if BORDERLINE_LHS in values:
            self._border_all -= 1
            self._border_on -= BORDERLINE_RHS in annotations
        return RemoveTuples.build([tid])
