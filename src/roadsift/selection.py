"""Test-selection strategies and the three experiment protocols.

A TestPool hides ground-truth labels behind an execute() call, so selection
strategies can only see features until a test is actually "run". FIX builds
a fixed-size suite, REACH executes until N unsafe tests are found, and the
real-time loop generates tests under a virtual time budget with an optional
continuously retrained model.

All time accounting runs on a virtual clock charged with declared costs, so
experiment results are deterministic and fast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .features import FEATURE_NAMES
from .geometry import GeometryConfig
from .ml.evaluate import confusion_from_predictions
from .ml.models import SAFE_CODE, UNSAFE_CODE, ClassifierSpec, TrainedClassifier, fit
from .oracle import (
    UNSAFE,
    DriverConfig,
    GeneratorBounds,
    TestCase,
    generate_road,
    interpolate_spine,  # unused here; perfbench/tracer.py wraps it under this name
    segment_spine,
)
from .oracle import _simulate  # deterministic oracle core
from .features import features_from_segments


class InsufficientClassRows(ValueError):
    """Pool composition requests more rows of a class than available."""


class STooLarge(ValueError):
    """FIX suite size exceeds the pool."""


class NTooLarge(ValueError):
    """REACH target exceeds the pool's unsafe count."""


class BudgetTooSmall(ValueError):
    """Real-time budget cannot cover the adaptive warm-up."""


class HiddenLabelError(RuntimeError):
    """A strategy touched a label before executing the test."""


@dataclass(frozen=True)
class VisibleTest:
    """What a selector may see: identity and static features only."""
    id: str
    features: dict[str, float]


class TestPool:
    """Tests with hidden verdicts, revealed one execution at a time."""

    __test__ = False          # not a pytest class despite the name

    def __init__(self, tests: list[TestCase]):
        self._visible = []
        self._labels = {}
        self._durations = {}
        self.revealed: set[str] = set()
        for tc in tests:
            if tc.features is None or tc.outcome is None:
                raise ValueError(f"pool test {tc.id} is not labelled")
            self._visible.append(VisibleTest(tc.id, tc.features.as_dict()))
            self._labels[tc.id] = UNSAFE_CODE if tc.outcome.label == UNSAFE else SAFE_CODE
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

    def peek_guard(self, test_id: str) -> None:
        if test_id not in self.revealed:
            raise HiddenLabelError(f"label of {test_id} not yet revealed")


def build_pool(tests: list[TestCase], counts: tuple[int, int], rng_seed: int,
               exclude_ids: set[str] | frozenset[str] = frozenset()) -> TestPool:
    """Stratified pool with exactly (n_safe, n_unsafe) tests, sampled without
    replacement and disjoint from exclude_ids (e.g. the training set)."""
    n_safe, n_unsafe = counts
    rng = np.random.default_rng(rng_seed)
    safe = [t for t in tests
            if t.id not in exclude_ids and t.outcome.label != UNSAFE]
    unsafe = [t for t in tests
              if t.id not in exclude_ids and t.outcome.label == UNSAFE]
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
                      key=lambda t: (-t.features["length"], t.id))


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
    """Build a suite of exactly S tests. Baselines take the first S in their
    order; filtering strategies keep only predicted-unsafe draws, then
    backfill from the rejects when the pool runs dry. Labels are revealed
    only after the suite is final."""
    if S > len(pool):
        raise STooLarge(f"S={S} exceeds pool size {len(pool)}")
    rng = np.random.default_rng(rng_seed)
    order = strategy.order(pool, rng)

    accepts = getattr(strategy, "accepts", None)
    suite: list[VisibleTest] = []
    rejected: list[VisibleTest] = []
    drawn = 0
    for test in order:
        if len(suite) >= S:
            break
        drawn += 1
        if accepts is None or accepts(test):
            suite.append(test)
        else:
            rejected.append(test)
    backfilled = 0
    while len(suite) < S:
        suite.append(rejected[backfilled])
        backfilled += 1

    labels = {t.id: pool.execute(t.id)[0] for t in suite}
    unsafe_ratio = sum(1 for v in labels.values() if v == UNSAFE_CODE) / S

    confusion = None
    if accepts is not None:
        y_true, y_pred = [], []
        kept_ids = {t.id for t in suite[:S - backfilled]}
        for test in order[:drawn]:
            truth = (labels[test.id] if test.id in labels
                     else pool.reveal_post_mortem(test.id))
            y_true.append(truth)
            y_pred.append(UNSAFE_CODE if test.id in kept_ids else SAFE_CODE)
        confusion = confusion_from_predictions(np.array(y_true), np.array(y_pred))

    return FixResult(
        suite_ids=tuple(t.id for t in suite),
        unsafe_ratio=unsafe_ratio,
        confusion=confusion,
        drawn=drawn,
        backfilled=backfilled)


# ---------------------------------------------------------------------------
# REACH

@dataclass(frozen=True)
class CostModel:
    overhead_s: float = 10.0        # fixed per-execution harness cost
    generation_s: float = 0.2       # per generated road (incl. features)
    prediction_s: float = 0.01      # per model call
    retrain_base_s: float = 0.1     # adaptive refit, plus per-row term
    retrain_per_row_s: float = 1e-4


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
    """Execute tests until N unsafe verdicts are revealed. Filtering
    strategies skip predicted-safe draws at prediction cost only; if the
    pool is exhausted before N unsafe executed, previously skipped tests run
    in skip order (flagged as fallback)."""
    if N > pool.unsafe_count:
        raise NTooLarge(f"N={N} exceeds pool unsafe count {pool.unsafe_count}")
    rng = np.random.default_rng(rng_seed)
    order = strategy.order(pool, rng)

    cost_safe = cost_unsafe = pred_cost = 0.0
    executed = 0
    unsafe_seen = 0
    skipped: list[VisibleTest] = []
    predictions: dict[str, int] = {}
    truths: dict[str, int] = {}
    accepts = getattr(strategy, "accepts", None)
    fallback_used = False

    def run_one(test: VisibleTest):
        nonlocal executed, unsafe_seen, cost_safe, cost_unsafe
        label, duration = pool.execute(test.id)
        executed += 1
        charge = duration + cost_model.overhead_s
        if label == UNSAFE_CODE:
            unsafe_seen += 1
            cost_unsafe += charge
        else:
            cost_safe += charge
        truths[test.id] = label

    for test in order:
        if unsafe_seen >= N:
            break
        if accepts is not None:
            pred_cost += cost_model.prediction_s
            keep = accepts(test)
            predictions[test.id] = UNSAFE_CODE if keep else SAFE_CODE
            if not keep:
                skipped.append(test)
                continue
        run_one(test)

    if unsafe_seen < N:
        fallback_used = True
        for test in skipped:
            if unsafe_seen >= N:
                break
            run_one(test)

    confusion = None
    if accepts is not None:
        y_true, y_pred = [], []
        for tid, pred in predictions.items():
            truth = truths.get(tid)
            if truth is None:
                truth = pool.reveal_post_mortem(tid)
            y_true.append(truth)
            y_pred.append(pred)
        confusion = confusion_from_predictions(np.array(y_true), np.array(y_pred))

    return ReachResult(
        executed_count=executed,
        elapsed_cost_safe=cost_safe,
        elapsed_cost_unsafe=cost_unsafe,
        prediction_cost=pred_cost,
        confusion=confusion,
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
    mode: str                                  # "baseline" | "pretrained" | "adaptive"
    budget_s: float
    model: TrainedClassifier | None = None     # pretrained
    spec: ClassifierSpec | None = None         # adaptive
    warmup_n: int = 60
    retrain_every: int = 1
    cost: CostModel = field(default_factory=CostModel)
    driver: DriverConfig = field(default_factory=DriverConfig)
    bounds: GeneratorBounds = field(default_factory=GeneratorBounds)
    geometry: GeometryConfig = field(default_factory=GeometryConfig)
    wall_clock: bool = False      # charge measured wall time instead of the
                                  # declared costs; non-deterministic

    def __post_init__(self):
        if self.budget_s <= 0.0:
            raise ValueError("budget must be positive")
        if self.mode not in ("baseline", "pretrained", "adaptive"):
            raise ValueError(f"unknown real-time mode {self.mode!r}")
        if self.mode == "pretrained" and self.model is None:
            raise ValueError("pretrained mode needs a model")
        if self.mode == "adaptive" and self.spec is None:
            raise ValueError("adaptive mode needs a classifier spec")
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


def run_realtime(cfg: RealTimeConfig, rng_seed: int) -> RealTimeResult:
    """Generate-predict-execute loop under a time budget.

    Baseline executes everything. Pretrained executes only predicted-unsafe
    roads. Adaptive starts by executing warmup_n roads unconditionally, then
    refits after every retrain_every executions, charging retraining time.
    Rejected roads are executed post-mortem (off the clock) so the full
    confusion matrix and accuracy are reportable.

    With the default virtual clock every charge is a declared cost and the
    run is bit-reproducible; wall_clock=True instead measures the harness
    operations (generation, prediction, retraining) with real timers.
    """
    import time as _time

    clock = VirtualClock()
    # per-road seeds are drawn in doubling blocks; generate_state is
    # prefix-stable, so road i gets the same seed whatever the block size
    seed_seq = np.random.SeedSequence(rng_seed)
    seeds = seed_seq.generate_state(64)
    seed_i = 0

    adaptive = cfg.mode == "adaptive"
    model = cfg.model if cfg.mode == "pretrained" else None
    if adaptive and cfg.warmup_n * (cfg.cost.generation_s + 1.0) > cfg.budget_s:
        raise BudgetTooSmall(
            f"budget {cfg.budget_s}s cannot cover warm-up of {cfg.warmup_n}")

    def timed(category, declared, fn, *args):
        """Run fn, charging either the declared cost or the measured wall time."""
        if not cfg.wall_clock:
            out = fn(*args)
            clock.charge(category, declared)
            return out
        start = _time.perf_counter()
        out = fn(*args)
        clock.charge(category, _time.perf_counter() - start)
        return out

    X_rows: list[np.ndarray] = []
    y_rows: list[int] = []
    since_retrain = 0

    executed_unsafe = executed_safe = rejected_n = generated = 0
    predictions: list[int] = []
    truths: list[int] = []
    rejected_spines: list[tuple] = []          # (spine, predicted)

    def refit():
        nonlocal model, since_retrain
        y_arr = np.asarray(y_rows)
        if len(np.unique(y_arr)) < 2:
            return
        X_arr = np.vstack(X_rows)
        model = timed("retraining",
                      cfg.cost.retrain_base_s
                      + cfg.cost.retrain_per_row_s * len(y_arr),
                      fit, cfg.spec, X_arr, y_arr, FEATURE_NAMES, rng_seed)
        since_retrain = 0

    def make_road():
        nonlocal seeds
        if seed_i == len(seeds):
            seeds = seed_seq.generate_state(2 * len(seeds))
        _, spine = generate_road(int(seeds[seed_i]), cfg.bounds, cfg.geometry)
        segments = segment_spine(spine, cfg.geometry)
        return spine, features_from_segments(spine, segments)

    while clock.total < cfg.budget_s:
        spine, vec = timed("generation", cfg.cost.generation_s, make_road)
        seed_i += 1
        generated += 1
        row = vec.as_array()

        in_warmup = adaptive and (generated <= cfg.warmup_n or model is None)
        if cfg.mode == "baseline":
            execute = True
            predicted = None
        elif in_warmup:
            execute = True
            predicted = None
        else:
            predicted = int(timed("prediction", cfg.cost.prediction_s,
                                  model.predict_matrix, row[None, :])[0])
            execute = predicted == UNSAFE_CODE

        if execute:
            outcome = _simulate(spine, cfg.driver, cfg.bounds.lane_width,
                                keep_trace=False)
            truth = UNSAFE_CODE if outcome.label == UNSAFE else SAFE_CODE
            # execution cost is the simulated drive in either clock mode
            charge = outcome.duration + cfg.cost.overhead_s
            if truth == UNSAFE_CODE:
                executed_unsafe += 1
                clock.charge("execution_unsafe", charge)
            else:
                executed_safe += 1
                clock.charge("execution_safe", charge)
            if predicted is not None:
                predictions.append(predicted)
                truths.append(truth)
            if adaptive:
                X_rows.append(row)
                y_rows.append(truth)
                since_retrain += 1
                if since_retrain >= cfg.retrain_every:
                    refit()
        else:
            rejected_n += 1
            rejected_spines.append((spine, predicted))

    # post-mortem: drive the rejected tests off the clock for ground truth
    post_mortem_accuracy = None
    confusion = None
    if cfg.mode != "baseline":
        for spine, predicted in rejected_spines:
            outcome = _simulate(spine, cfg.driver, cfg.bounds.lane_width,
                                keep_trace=False)
            predictions.append(predicted)
            truths.append(UNSAFE_CODE if outcome.label == UNSAFE else SAFE_CODE)
        if predictions:
            confusion = confusion_from_predictions(
                np.array(truths), np.array(predictions))
            tp, fp, tn, fn = confusion
            post_mortem_accuracy = (tp + tn) / max(tp + fp + tn + fn, 1)

    return RealTimeResult(
        executed_unsafe=executed_unsafe,
        executed_safe=executed_safe,
        rejected=rejected_n,
        generated=generated,
        time_fractions=clock.fractions(),
        confusion=confusion,
        post_mortem_accuracy=post_mortem_accuracy,
        clock=dict(clock.categories))
