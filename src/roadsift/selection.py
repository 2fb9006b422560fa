"""Test-selection strategies and the three experiment protocols.

Selection strategies see a TestPool's tests as ids and static features
only. A protocol learns a verdict by executing the test (TestPool.execute,
which records the id in `revealed`); once it has finished, it reads the
truth of the tests it predicted but skipped with reveal_post_mortem, to
report its filter's confusion matrix. FIX builds a fixed-size suite, REACH
executes until N unsafe tests are found, and the real-time loop generates
tests under a time budget with an optional continuously retrained model.

Every time charge is a declared cost (CostModel) or a simulated drive time,
so experiment results are deterministic and fast.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from contextlib import closing
from dataclasses import dataclass, field
from itertools import islice, repeat
from typing import ClassVar

import numpy as np

from .features import (
    FEATURE_NAMES,
    SAFE_CODE,
    UNSAFE_CODE,
    FeatureVector,
    features_from_segments,
    label_code,
)
from .ml.evaluate import confusion_from_predictions
from .ml.models import ClassifierSpec, TrainedClassifier, fit
from .oracle import (
    DriverConfig,
    TestCase,
    generate_road,
    interpolate_spine,  # unused here; perfbench/tracer.py wraps it under this name
    segment_spine,
)
from .oracle import _simulate  # deterministic oracle core
from .workers import in_order


class InsufficientClassRows(ValueError):
    """Pool composition requests more rows of a class than available."""


class STooLarge(ValueError):
    """FIX suite size exceeds the pool."""


class NTooLarge(ValueError):
    """REACH target exceeds the pool's unsafe count."""


class BudgetTooSmall(ValueError):
    """Real-time budget cannot cover the adaptive warm-up."""


@dataclass(frozen=True)
class VisibleTest:
    """What a selector may see: identity and static features only."""
    id: str
    features: FeatureVector


class TestPool:
    """Tests with hidden verdicts, revealed one execution at a time."""

    __test__ = False          # not a pytest class despite the name

    def __init__(self, tests: list[TestCase]):
        self._visible = []
        self._labels = {}
        self._durations = {}
        self.revealed: set[str] = set()
        for tc in tests:
            self._visible.append(VisibleTest(tc.id, tc.features))
            self._labels[tc.id] = label_code(tc.outcome.label)
            self._durations[tc.id] = tc.outcome.duration
        self.composition = (
            sum(1 for v in self._labels.values() if v == SAFE_CODE),
            sum(1 for v in self._labels.values() if v == UNSAFE_CODE))

    def __len__(self) -> int:
        return len(self._visible)

    @property
    def tests(self) -> list[VisibleTest]:
        return list(self._visible)

    @property
    def unsafe_count(self) -> int:
        return self.composition[1]

    def execute(self, test_id: str) -> tuple[int, float]:
        """Run the test: reveal its label and charge its drive duration."""
        self.revealed.add(test_id)
        return self._labels[test_id], self._durations[test_id]

    def reveal_post_mortem(self, test_id: str) -> int:
        """Ground truth for reporting after a protocol has finished."""
        return self._labels[test_id]


def build_pool(tests: list[TestCase], counts: tuple[int, int], rng_seed: int,
               exclude_ids: set[str] | frozenset[str] = frozenset()) -> TestPool:
    """Stratified pool with exactly (n_safe, n_unsafe) tests, sampled without
    replacement and disjoint from exclude_ids (e.g. the training set)."""
    n_safe, n_unsafe = counts
    rng = np.random.default_rng(rng_seed)
    by_class: tuple[list, list] = ([], [])
    for t in tests:
        if t.id not in exclude_ids:
            by_class[label_code(t.outcome.label)].append(t)
    safe, unsafe = by_class[SAFE_CODE], by_class[UNSAFE_CODE]
    if len(safe) < n_safe or len(unsafe) < n_unsafe:
        raise InsufficientClassRows(
            f"need {n_safe}/{n_unsafe} safe/unsafe, "
            f"have {len(safe)}/{len(unsafe)}")
    chosen = ([safe[i] for i in rng.choice(len(safe), n_safe, replace=False)]
              + [unsafe[i] for i in rng.choice(len(unsafe), n_unsafe, replace=False)])
    chosen.sort(key=lambda t: t.id)
    return TestPool(chosen)


# ---------------------------------------------------------------------------
# strategies: order(pool, rng) gives the draw order; a strategy that also
# has accepts(test) filters, and the protocols then report its confusion

class RandomStrategy:
    """Seeded uniform draw order, no filtering."""

    def order(self, pool: TestPool, rng: np.random.Generator) -> list[VisibleTest]:
        tests = pool.tests
        return [tests[i] for i in rng.permutation(len(tests))]


class RoadLengthStrategy:
    """Longest roads first; ties broken by test id."""

    def order(self, pool: TestPool, rng: np.random.Generator) -> list[VisibleTest]:
        return sorted(pool.tests,
                      key=lambda t: (-t.features.length, t.id))


class ModelStrategy(RandomStrategy):
    """Draws randomly but keeps only tests the model predicts unsafe.

    order() predicts the whole pool in one batch; accepts() reads those
    predictions, so it only answers for tests of the last ordered pool."""

    def __init__(self, model: TrainedClassifier):
        self.model = model
        self._codes: dict[str, int] = {}

    def order(self, pool: TestPool, rng: np.random.Generator) -> list[VisibleTest]:
        tests = pool.tests
        codes = self.model.predict_matrix(
            self.model.feature_matrix([t.features for t in tests]))
        self._codes = dict(zip((t.id for t in tests), codes.tolist()))
        return super().order(pool, rng)

    def accepts(self, test: VisibleTest) -> bool:
        return self._codes[test.id] == UNSAFE_CODE


def _screen(pool: TestPool, strategy, rng_seed: int, predicted: dict[str, int]
            ) -> Iterator[tuple[VisibleTest, bool]]:
    """The tests in the order FIX and REACH take them, each with a flag that
    says it was skipped: the draws the strategy's filter keeps, in draw
    order, then the draws it skipped, in skip order. A draw is judged, and
    its verdict recorded in predicted, only when the next test is asked
    for. A strategy without accepts keeps every draw."""
    accepts = getattr(strategy, "accepts", None)
    skipped: list[VisibleTest] = []
    for test in strategy.order(pool, np.random.default_rng(rng_seed)):
        if accepts is not None:
            keep = accepts(test)
            predicted[test.id] = UNSAFE_CODE if keep else SAFE_CODE
            if not keep:
                skipped.append(test)
                continue
        yield test, False
    for test in skipped:
        yield test, True


def _filter_confusion(pool: TestPool, predicted: dict[str, int]
                      ) -> tuple[int, int, int, int] | None:
    """(tp, fp, tn, fn) of a filter's verdicts on the tests it judged, scored
    against ground truth read after the protocol has finished; None when
    nothing was judged, i.e. the strategy does not filter."""
    if not predicted:
        return None
    return confusion_from_predictions(
        np.array([pool.reveal_post_mortem(tid) for tid in predicted]),
        np.array(list(predicted.values())))


# ---------------------------------------------------------------------------
# FIX

@dataclass(frozen=True)
class FixResult:
    suite_ids: tuple[str, ...]
    unsafe_ratio: float
    confusion: tuple[int, int, int, int] | None   # (tp, fp, tn, fn), filters only
    drawn: int
    backfilled: int


def run_fix(pool: TestPool, strategy, S: int, rng_seed: int) -> FixResult:
    """Build a suite of exactly S tests: the first S of the screen, so a
    filtering strategy backfills from its skipped draws when the pool runs
    dry. Labels are revealed only after the suite is final."""
    if S < 1:
        raise ValueError(f"S must be >= 1, got {S}")
    if S > len(pool):
        raise STooLarge(f"S={S} exceeds pool size {len(pool)}")
    predicted: dict[str, int] = {}
    suite = list(islice(_screen(pool, strategy, rng_seed, predicted), S))
    labels = [pool.execute(test.id)[0] for test, _ in suite]

    return FixResult(
        suite_ids=tuple(test.id for test, _ in suite),
        unsafe_ratio=labels.count(UNSAFE_CODE) / S,
        confusion=_filter_confusion(pool, predicted),
        drawn=len(predicted) if predicted else S,
        backfilled=sum(skipped for _, skipped in suite))


# ---------------------------------------------------------------------------
# REACH

@dataclass(frozen=True)
class CostModel:
    overhead_s: float = 10.0        # fixed per-execution harness cost
    # constants, the same in every experiment
    generation_s: ClassVar[float] = 0.2       # per generated road (incl. features)
    prediction_s: ClassVar[float] = 0.01      # per model call
    retrain_base_s: ClassVar[float] = 0.1     # adaptive refit, plus per-row term
    retrain_per_row_s: ClassVar[float] = 1e-4

    def __post_init__(self):
        if not (math.isfinite(self.overhead_s) and self.overhead_s >= 0.0):
            raise ValueError(
                f"overhead_s must be finite and >= 0, got {self.overhead_s}")


@dataclass(frozen=True)
class ReachResult:
    executed_count: int
    elapsed_cost_safe: float
    elapsed_cost_unsafe: float
    prediction_cost: float
    confusion: tuple[int, int, int, int] | None
    fallback_used: bool


def run_reach(pool: TestPool, strategy, N: int, cost_model: CostModel,
              rng_seed: int) -> ReachResult:
    """Execute tests from the screen until N unsafe verdicts are revealed.
    A filtering strategy skips predicted-safe draws at prediction cost only;
    if the pool is exhausted before N unsafe executed, the skipped tests run
    in skip order (flagged as fallback)."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if N > pool.unsafe_count:
        raise NTooLarge(f"N={N} exceeds pool unsafe count {pool.unsafe_count}")
    predicted: dict[str, int] = {}
    screen = _screen(pool, strategy, rng_seed, predicted)
    cost_safe = cost_unsafe = pred_cost = 0.0
    executed = unsafe_seen = 0
    fallback_used = False
    while unsafe_seen < N:          # checked before the next draw is judged
        test, skipped = next(screen)
        fallback_used |= skipped
        label, duration = pool.execute(test.id)
        executed += 1
        if label == UNSAFE_CODE:
            unsafe_seen += 1
            cost_unsafe += duration + cost_model.overhead_s
        else:
            cost_safe += duration + cost_model.overhead_s
    # one charge per judged draw, added in turn: a product rounds otherwise
    for _ in predicted:
        pred_cost += cost_model.prediction_s

    return ReachResult(
        executed_count=executed,
        elapsed_cost_safe=cost_safe,
        elapsed_cost_unsafe=cost_unsafe,
        prediction_cost=pred_cost,
        confusion=_filter_confusion(pool, predicted),
        fallback_used=fallback_used)


@dataclass(frozen=True)
class CostEffectiveness:
    ratio: float            # failing / passing, inf when nothing passed
    failing_fraction: float


def cost_effectiveness(labels: list[int]) -> CostEffectiveness:
    """failing/passing ratio over executed tests; all-failing reports an
    infinity marker."""
    failing = sum(1 for v in labels if v == UNSAFE_CODE)
    passing = len(labels) - failing
    if failing == 0:
        return CostEffectiveness(0.0, 0.0)
    if passing == 0:
        return CostEffectiveness(math.inf, 1.0)
    return CostEffectiveness(failing / passing, failing / len(labels))


# ---------------------------------------------------------------------------
# real-time loop

@dataclass
class VirtualClock:
    """Deterministic per-category time accounting."""
    categories: dict[str, float] = field(default_factory=dict)

    def charge(self, category: str, seconds: float) -> None:
        self.categories[category] = self.categories.get(category, 0.0) + seconds

    @property
    def total(self) -> float:
        return sum(self.categories.values())

    def fractions(self) -> dict[str, float]:
        total = self.total
        keys = ("execution_unsafe", "execution_safe", "generation",
                "prediction", "retraining")
        if total <= 0.0:
            return {k: 0.0 for k in keys}
        return {k: self.categories.get(k, 0.0) / total for k in keys}


@dataclass(frozen=True)
class RealTimeConfig:
    mode: str                                  # one of MODES
    budget_s: float
    model: TrainedClassifier | None = None     # pretrained
    warmup_n: int = 60                         # adaptive
    retrain_every: int = 1                     # adaptive
    cost: CostModel = field(default_factory=CostModel)
    driver: DriverConfig = field(default_factory=DriverConfig)
    MODES: ClassVar[tuple[str, ...]] = ("baseline", "pretrained", "adaptive")
    spec: ClassVar[ClassifierSpec] = ClassifierSpec("logistic")   # adaptive refits

    def __post_init__(self):
        if not (math.isfinite(self.budget_s) and self.budget_s > 0.0):
            raise ValueError(
                f"budget_s must be finite and > 0, got {self.budget_s}")
        if self.mode not in self.MODES:
            raise ValueError(f"unknown real-time mode {self.mode!r}")
        if self.mode == "pretrained" and self.model is None:
            raise ValueError("pretrained mode needs a model")
        if self.mode != "pretrained" and self.model is not None:
            raise ValueError(f"{self.mode} mode reads no model")
        if self.warmup_n < 0:
            raise ValueError(f"warmup_n must be >= 0, got {self.warmup_n}")
        if self.retrain_every < 1:
            raise ValueError(f"retrain_every must be >= 1, got {self.retrain_every}")


@dataclass(frozen=True)
class RealTimeResult:
    executed_unsafe: int
    executed_safe: int
    rejected: int
    generated: int
    time_fractions: dict[str, float]
    confusion: tuple[int, int, int, int] | None
    post_mortem_accuracy: float | None
    clock: dict[str, float]


def _road_seeds(rng_seed: int) -> Iterator[int]:
    """Per-road seeds, drawn in doubling blocks; generate_state is
    prefix-stable, so road i gets the same seed whatever the block size."""
    seed_seq = np.random.SeedSequence(rng_seed)
    drawn = 0
    while True:
        block = seed_seq.generate_state(max(64, 2 * drawn))
        yield from (int(seed) for seed in block[drawn:])
        drawn = len(block)


def _road(seed: int, driver: DriverConfig) -> tuple[FeatureVector, int, float]:
    """Everything the real-time loop needs of one road before it predicts:
    its features, and the verdict code and duration of its drive."""
    road, spine = generate_road(seed)
    features = features_from_segments(spine, segment_spine(spine))
    outcome = _simulate(spine, driver, road.lane_width, keep_trace=False)
    return features, label_code(outcome.label), outcome.duration


def run_realtime(cfg: RealTimeConfig, rng_seed: int) -> RealTimeResult:
    """Generate-predict-execute loop under a time budget.

    Baseline executes everything. Pretrained executes only predicted-unsafe
    roads. Adaptive executes its first warmup_n roads, and every road until
    it has a model, without a prediction; it refits after every
    retrain_every executions once both classes have been seen. Rejected
    roads are driven post-mortem, off the clock, so the confusion matrix
    and accuracy cover every predicted road.

    Each step charges its declared cost to a virtual clock: generation,
    prediction and retraining from cfg.cost, an execution its simulated
    drive time plus overhead. The run is therefore bit-reproducible. A
    road, its features and its drive depend on its seed alone, so they are
    prepared (_road) through workers.in_order, in worker processes ahead of
    the loop where there are CPUs for them; the results do not depend on
    how many there are.
    """
    adaptive = cfg.mode == "adaptive"
    model = cfg.model
    if adaptive and cfg.warmup_n * (cfg.cost.generation_s + 1.0) > cfg.budget_s:
        raise BudgetTooSmall(
            f"budget {cfg.budget_s}s cannot cover warm-up of {cfg.warmup_n}")

    clock = VirtualClock()
    X_rows: list[np.ndarray] = []
    y_rows: list[int] = []
    since_retrain = 0

    executed_unsafe = executed_safe = generated = 0
    predictions: list[int] = []
    truths: list[int] = []
    rejected: list[int] = []         # truths of the roads predicted safe

    with closing(in_order(_road, zip(_road_seeds(rng_seed),
                                     repeat(cfg.driver)))) as roads:
        while clock.total < cfg.budget_s:
            features, truth, duration = next(roads)
            clock.charge("generation", cfg.cost.generation_s)
            generated += 1

            predicted = None
            if model is not None and not (adaptive and generated <= cfg.warmup_n):
                predicted = int(model.predict_matrix(
                    model.feature_matrix([features]))[0])
                clock.charge("prediction", cfg.cost.prediction_s)
                if predicted != UNSAFE_CODE:
                    rejected.append(truth)
                    continue

            if truth == UNSAFE_CODE:
                executed_unsafe += 1
                clock.charge("execution_unsafe", duration + cfg.cost.overhead_s)
            else:
                executed_safe += 1
                clock.charge("execution_safe", duration + cfg.cost.overhead_s)
            if predicted is not None:
                predictions.append(predicted)
                truths.append(truth)
            if adaptive:
                X_rows.append(features.as_array())
                y_rows.append(truth)
                since_retrain += 1
                if since_retrain >= cfg.retrain_every and len(set(y_rows)) == 2:
                    model = fit(cfg.spec, np.vstack(X_rows), np.asarray(y_rows),
                                FEATURE_NAMES, rng_seed)
                    clock.charge("retraining", cfg.cost.retrain_base_s
                                 + cfg.cost.retrain_per_row_s * len(y_rows))
                    since_retrain = 0

    # post-mortem: the rejected roads' drives, off the clock, as ground truth
    predictions += [SAFE_CODE] * len(rejected)
    truths += rejected
    confusion = post_mortem_accuracy = None
    if predictions:
        confusion = confusion_from_predictions(
            np.array(truths), np.array(predictions))
        tp, fp, tn, fn = confusion
        post_mortem_accuracy = (tp + tn) / max(tp + fp + tn + fn, 1)

    return RealTimeResult(
        executed_unsafe=executed_unsafe,
        executed_safe=executed_safe,
        rejected=len(rejected),
        generated=generated,
        time_fractions=clock.fractions(),
        confusion=confusion,
        post_mortem_accuracy=post_mortem_accuracy,
        clock=dict(clock.categories))
