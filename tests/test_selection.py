import json
import math
import multiprocessing
import threading
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadsift.ml import UNSAFE_CODE, load_model, save_model
from roadsift.ml.models import TrainedClassifier
from roadsift import oracle
from roadsift.oracle import UNSAFE, DriveTimeout
from roadsift.selection import (
    BudgetTooSmall,
    CostModel,
    InsufficientClassRows,
    ModelStrategy,
    NTooLarge,
    RandomStrategy,
    RealTimeConfig,
    RoadLengthStrategy,
    STooLarge,
    TestPool,
    build_pool,
    cost_effectiveness,
    run_fix,
    run_reach,
    run_realtime,
)

from conftest import StubStrategy


def perfect_stub(tests):
    return StubStrategy({t.id: (UNSAFE_CODE if t.outcome.label == UNSAFE else 0)
                         for t in tests})


def flipping_stub(tests, pool, precision, rng_seed):
    """Exact-recall selector whose unsafe predictions carry the target
    precision under the pool's composition, built by flipping safe labels
    up at the matching rate."""
    rng = np.random.default_rng(rng_seed)
    pool_ids = {t.id for t in pool.tests}
    members = [t for t in tests if t.id in pool_ids]
    n_safe, n_unsafe = pool.composition
    if precision >= 1.0:
        flip = 0.0
    else:
        flip = (1.0 - precision) / precision * n_unsafe / n_safe
    table = {}
    for t in members:
        if t.outcome.label == UNSAFE:
            table[t.id] = UNSAFE_CODE
        else:
            table[t.id] = UNSAFE_CODE if rng.random() < flip else 0
    return StubStrategy(table)


@pytest.fixture(scope="module")
def pool_6040(moderate_tests, moderate_model):
    _, train_ids = moderate_model
    return build_pool(moderate_tests, (72, 48), rng_seed=5,
                      exclude_ids=train_ids)


class TestPoolBuild:
    def test_exact_counts(self, moderate_tests):
        pool = build_pool(moderate_tests, (50, 30), rng_seed=0)
        assert pool.composition == (50, 30)
        assert len(pool) == 80

    def test_disjoint_from_training(self, moderate_tests):
        exclude = {t.id for t in moderate_tests[:200]}
        pool = build_pool(moderate_tests, (40, 30), rng_seed=1,
                          exclude_ids=exclude)
        assert all(t.id not in exclude for t in pool.tests)

    def test_insufficient_rows(self, moderate_tests):
        with pytest.raises(InsufficientClassRows):
            build_pool(moderate_tests, (10_000, 10), rng_seed=0)

    def test_visible_tests_carry_no_labels(self, moderate_tests):
        pool = build_pool(moderate_tests, (20, 10), rng_seed=2)
        visible = pool.tests[0]
        assert not hasattr(visible, "label")
        assert not hasattr(visible, "outcome")


class TestFix:
    def test_s_too_large(self, pool_6040):
        with pytest.raises(STooLarge):
            run_fix(pool_6040, RandomStrategy(), len(pool_6040) + 1, 0)

    @pytest.mark.parametrize("S", [0, -3])
    def test_s_below_one(self, pool_6040, S):
        with pytest.raises(ValueError, match=f"S must be >= 1, got {S}"):
            run_fix(pool_6040, RandomStrategy(), S, 0)

    def test_perfect_selector_all_unsafe(self, moderate_tests, pool_6040):
        res = run_fix(pool_6040, perfect_stub(moderate_tests), 30, 3)
        assert res.unsafe_ratio == 1.0
        assert res.backfilled == 0

    def test_random_binomial_expectation(self, pool_6040):
        # 48/120 unsafe pool: the mean suite ratio over 30 seeds sits near 0.4
        ratios = [run_fix(pool_6040, RandomStrategy(), 100, seed).unsafe_ratio
                  for seed in range(30)]
        assert np.mean(ratios) == pytest.approx(0.4, abs=0.05)

    def test_length_baseline_is_deterministic(self, pool_6040):
        a = run_fix(pool_6040, RoadLengthStrategy(), 40, 0)
        b = run_fix(pool_6040, RoadLengthStrategy(), 40, 99)
        assert a.suite_ids == b.suite_ids

    def test_model_beats_random_sign_test(self, moderate_tests, moderate_model,
                                          pool_6040):
        model, _ = moderate_model
        wins = 0
        ties = 0
        for seed in range(30):
            ml = run_fix(pool_6040, ModelStrategy(model), 40, seed).unsafe_ratio
            rnd = run_fix(pool_6040, RandomStrategy(), 40, seed).unsafe_ratio
            if ml > rnd:
                wins += 1
            elif ml == rnd:
                ties += 1
        n = 30 - ties
        # one-sided sign test at alpha = 0.05
        p = sum(math.comb(n, k) for k in range(wins, n + 1)) / 2.0 ** n
        assert p < 0.05

    def test_backfill_flagged_on_exhaustion(self, moderate_tests):
        # selector that rejects everything: suite filled from rejects
        pool = build_pool(moderate_tests, (30, 10), rng_seed=4)
        nothing = StubStrategy({t.id: 0 for t in moderate_tests})
        res = run_fix(pool, nothing, 12, 1)
        assert res.backfilled == 12
        assert len(res.suite_ids) == 12

    def test_model_strategy_predicts_the_pool_once(self, moderate_model,
                                                   pool_6040, monkeypatch):
        model, _ = moderate_model
        expected = {t.id: model.predict_matrix(
                        model.feature_matrix([t.features]))[0] == UNSAFE_CODE
                    for t in pool_6040.tests}
        rows = []
        predict_matrix = TrainedClassifier.predict_matrix

        def counted(self, X):
            rows.append(len(X))
            return predict_matrix(self, X)

        monkeypatch.setattr(TrainedClassifier, "predict_matrix", counted)
        strategy = ModelStrategy(model)
        run_fix(pool_6040, strategy, 30, 7)
        run_reach(pool_6040, strategy, 10, CostModel(), 7)
        assert rows == [len(pool_6040), len(pool_6040)]
        assert {t.id: strategy.accepts(t) for t in pool_6040.tests} == expected

    def test_confusion_consistent(self, moderate_tests, moderate_model, pool_6040):
        model, _ = moderate_model
        res = run_fix(pool_6040, ModelStrategy(model), 30, 7)
        tp, fp, tn, fn = res.confusion
        assert tp + fp + tn + fn == res.drawn

    def test_confusion_reveals_only_the_suite(self, moderate_tests,
                                              moderate_model):
        # the confusion reads the truth of rejected draws post-mortem;
        # only the suite itself is executed
        model, train_ids = moderate_model
        pool = build_pool(moderate_tests, (72, 48), rng_seed=5,
                          exclude_ids=train_ids)
        res = run_fix(pool, ModelStrategy(model), 30, 7)
        assert res.drawn > len(res.suite_ids) - res.backfilled
        assert pool.revealed == set(res.suite_ids)


class TestReach:
    def test_n_too_large(self, pool_6040):
        with pytest.raises(NTooLarge):
            run_reach(pool_6040, RandomStrategy(), pool_6040.unsafe_count + 1,
                      CostModel(), 0)

    @pytest.mark.parametrize("N", [0, -2])
    def test_n_below_one(self, pool_6040, N):
        with pytest.raises(ValueError, match=f"N must be >= 1, got {N}"):
            run_reach(pool_6040, RandomStrategy(), N, CostModel(), 0)

    @pytest.mark.parametrize("overhead_s", [-50.0, math.nan, math.inf])
    def test_overhead_finite_and_not_negative(self, overhead_s):
        with pytest.raises(ValueError, match="overhead_s"):
            CostModel(overhead_s=overhead_s)

    def test_perfect_selector_exact(self, moderate_tests, pool_6040):
        res = run_reach(pool_6040, perfect_stub(moderate_tests), 10,
                        CostModel(), 2)
        assert res.executed_count == 10
        assert res.elapsed_cost_safe == 0.0

    def test_cost_accounting_identity(self, moderate_tests, pool_6040):
        cost = CostModel(overhead_s=10.0)
        res = run_reach(pool_6040, RandomStrategy(), 10, cost, 5)
        revealed = pool_6040.revealed
        durations = {t.id: t.outcome.duration for t in moderate_tests}
        labels = {t.id: t.outcome.label for t in moderate_tests}
        # recompute the charges from revealed executions of this run
        # (pool is shared; rebuild a fresh pool for exactness)
        pool = build_pool(moderate_tests, (72, 48), rng_seed=99)
        res = run_reach(pool, RandomStrategy(), 10, cost, 5)
        total = 0.0
        for tid in pool.revealed:
            total += durations[tid] + cost.overhead_s
        assert res.elapsed_cost_safe + res.elapsed_cost_unsafe == pytest.approx(
            total, abs=1e-9)

    def test_confusion_reveals_only_executed(self, moderate_tests,
                                             moderate_model):
        model, train_ids = moderate_model
        pool = build_pool(moderate_tests, (72, 48), rng_seed=5,
                          exclude_ids=train_ids)
        executed = []
        execute = pool.execute

        def recording(test_id):
            executed.append(test_id)
            return execute(test_id)

        pool.execute = recording
        res = run_reach(pool, ModelStrategy(model), 10, CostModel(), 7)
        tp, fp, tn, fn = res.confusion
        assert tn + fn > 0                  # some draws were skipped
        assert len(executed) == res.executed_count
        assert pool.revealed == set(executed)

    def test_precision_law(self, moderate_tests, moderate_model):
        # executed_count concentrates near N / precision
        _, train_ids = moderate_model
        for p in (0.5, 0.8, 1.0):
            counts = []
            for seed in range(30):
                pool = build_pool(moderate_tests, (60, 40), rng_seed=seed,
                                  exclude_ids=train_ids)
                stub = flipping_stub(moderate_tests, pool, p, seed + 1000)
                res = run_reach(pool, stub, 10, CostModel(), seed)
                counts.append(res.executed_count)
            mean = float(np.mean(counts))
            assert mean == pytest.approx(10.0 / p, rel=0.2)


class TestCostEffectiveness:
    def test_eight_failing_two_passing(self):
        ce = cost_effectiveness([UNSAFE_CODE] * 8 + [0] * 2)
        assert ce.ratio == pytest.approx(4.0)
        assert ce.failing_fraction == pytest.approx(0.8)

    def test_none_failing(self):
        ce = cost_effectiveness([0, 0, 0])
        assert ce.ratio == 0.0

    def test_all_failing(self):
        ce = cost_effectiveness([UNSAFE_CODE] * 5)
        assert math.isinf(ce.ratio)
        assert ce.failing_fraction == 1.0


class TestRealTime:
    BUDGET = 900.0

    def test_baseline_mostly_executes(self):
        res = run_realtime(RealTimeConfig(mode="baseline", budget_s=self.BUDGET),
                           rng_seed=1)
        frac = res.time_fractions
        assert frac["execution_unsafe"] + frac["execution_safe"] >= 0.90
        assert res.rejected == 0
        assert res.confusion is None
        assert res.post_mortem_accuracy is None
        assert res.generated == res.executed_safe + res.executed_unsafe

    def test_conservation_and_fraction_sum(self, moderate_model):
        model, _ = moderate_model
        res = run_realtime(
            RealTimeConfig(mode="pretrained", budget_s=self.BUDGET, model=model),
            rng_seed=2)
        assert res.generated == (res.executed_unsafe + res.executed_safe
                                 + res.rejected)
        assert sum(res.time_fractions.values()) == pytest.approx(1.0, abs=1e-9)
        # executed roads are the predicted-unsafe ones, rejected roads the
        # predicted-safe ones, and every generated road was predicted
        tp, fp, tn, fn = res.confusion
        assert tp + fp == res.executed_safe + res.executed_unsafe
        assert tn + fn == res.rejected > 0
        assert sum(res.confusion) == res.generated

    def test_reproducible(self, moderate_model):
        model, _ = moderate_model
        cfg = RealTimeConfig(mode="pretrained", budget_s=self.BUDGET, model=model)
        assert run_realtime(cfg, rng_seed=3) == run_realtime(cfg, rng_seed=3)

    def test_pretrained_reads_features_by_name(self, moderate_model, tmp_path):
        # reversing a model file's feature names together with its weights
        # and standardisation gives the same model
        model, _ = moderate_model
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        for values in (payload["feature_names"], payload["parameters"]["weights"],
                       *payload["standardization"].values()):
            values.reverse()
        reversed_path = tmp_path / "reversed.json"
        reversed_path.write_text(json.dumps(payload))
        results = [run_realtime(RealTimeConfig(mode="pretrained", budget_s=300.0,
                                               model=load_model(p)), rng_seed=1)
                   for p in (path, reversed_path)]
        assert results[0] == results[1]

    def test_adaptive_retrains_and_reports(self):
        cfg = RealTimeConfig(mode="adaptive", budget_s=self.BUDGET, warmup_n=12)
        res = run_realtime(cfg, rng_seed=4)
        assert res.time_fractions["retraining"] > 0.0
        assert res.post_mortem_accuracy is not None
        tp, fp, tn, fn = res.confusion
        assert tp + fp + tn + fn == res.generated - 12

    def test_budget_too_small_for_warmup(self):
        with pytest.raises(BudgetTooSmall):
            run_realtime(RealTimeConfig(mode="adaptive", budget_s=10.0,
                                        warmup_n=60), rng_seed=0)

    def test_mode_validation(self, moderate_model):
        with pytest.raises(ValueError):
            RealTimeConfig(mode="nonsense", budget_s=100.0)
        with pytest.raises(ValueError):
            RealTimeConfig(mode="pretrained", budget_s=100.0)
        with pytest.raises(ValueError):
            RealTimeConfig(mode="baseline", budget_s=-5.0)
        with pytest.raises(ValueError):
            RealTimeConfig(mode="adaptive", budget_s=100.0, model=moderate_model)

    @pytest.mark.parametrize("budget_s", [0.0, math.nan, math.inf, -math.inf])
    def test_budget_finite_and_positive(self, budget_s):
        # an infinite budget would never end the loop
        with pytest.raises(ValueError, match="budget_s"):
            RealTimeConfig(mode="baseline", budget_s=budget_s)

    @pytest.mark.parametrize("bad", [{"retrain_every": 0}, {"warmup_n": -1}])
    def test_retrain_and_warmup_validation(self, bad):
        with pytest.raises(ValueError):
            RealTimeConfig(mode="adaptive", budget_s=100.0, **bad)

    def test_road_seeds_continue_past_first_block(self, monkeypatch):
        # seeds are drawn lazily in growing blocks; road i must still get
        # element i of the run's seed sequence. The recorder sees only the
        # roads prepared in this process, so the run is pinned there
        seen = []
        real = oracle.generate_road

        def recording(seed, *args):
            seen.append(seed)
            return real(seed, *args)

        monkeypatch.setattr(oracle, "generate_road", recording)
        monkeypatch.setattr("roadsift.workers._cpu_count", lambda: 1)
        res = run_realtime(RealTimeConfig(mode="baseline", budget_s=3000.0),
                           rng_seed=8)
        assert len(seen) == res.generated > 64
        expected = np.random.SeedSequence(8).generate_state(len(seen))
        assert seen == [int(s) for s in expected]


class TestRealTimeWorkers:
    """Roads prepared in worker processes give the results of roads prepared
    in-process, and no worker outlives the run."""

    @staticmethod
    def run(workers, cfg, seed):
        with patch("roadsift.workers._cpu_count", lambda: workers):
            return run_realtime(cfg, seed)

    @settings(max_examples=6, deadline=None)
    @given(mode=st.sampled_from(RealTimeConfig.MODES),
           budget_s=st.floats(30.0, 400.0), warmup_n=st.integers(0, 4),
           seed=st.integers(0, 999))
    def test_pool_matches_in_process(self, moderate_model, mode, budget_s,
                                     warmup_n, seed):
        kwargs = {"pretrained": {"model": moderate_model[0]},
                  "adaptive": {"warmup_n": warmup_n}}.get(mode, {})
        cfg = RealTimeConfig(mode=mode, budget_s=budget_s, **kwargs)
        assert self.run(2, cfg, seed) == self.run(1, cfg, seed)

    @pytest.mark.parametrize("other_thread", [False, True])
    def test_roads_are_prepared_in_workers(self, monkeypatch, other_thread):
        # a fork beside another thread could copy a lock it holds, so then
        # the roads are prepared in this process
        seen = []
        real = oracle.generate_road

        def recording(seed, *args):
            seen.append(seed)
            return real(seed, *args)

        monkeypatch.setattr(oracle, "generate_road", recording)
        cfg = RealTimeConfig(mode="baseline", budget_s=300.0)
        if other_thread:
            done = threading.Event()
            thread = threading.Thread(target=done.wait)
            thread.start()
            try:
                res = self.run(2, cfg, 1)
            finally:
                done.set()
                thread.join(timeout=10)
            assert not thread.is_alive()
        else:
            res = self.run(2, cfg, 1)
        assert res.generated > 0
        assert len(seen) == (res.generated if other_thread else 0)
        assert multiprocessing.active_children() == []

    def test_road_error_surfaces_at_its_road(self, monkeypatch):
        # road 5 of seed 1 raises, wherever it was prepared
        bad = int(np.random.SeedSequence(1).generate_state(6)[5])
        real = oracle.generate_road

        def failing(seed, *args):
            if seed == bad:
                raise DriveTimeout(f"road {seed} timed out")
            return real(seed, *args)

        monkeypatch.setattr(oracle, "generate_road", failing)
        cfg = RealTimeConfig(mode="baseline", budget_s=900.0)
        raised = []
        for workers in (2, 1):
            with pytest.raises(DriveTimeout) as info:
                self.run(workers, cfg, 1)
            raised.append((type(info.value), str(info.value)))
            assert multiprocessing.active_children() == []
        assert raised[0] == raised[1] == (DriveTimeout, f"road {bad} timed out")


def _strategy(kind, model):
    return {"random": RandomStrategy, "road_length": RoadLengthStrategy,
            "model": lambda: ModelStrategy(model)}[kind]()


def _predictions(prediction_cost):
    """The number of predictions behind a charged prediction cost."""
    return round(prediction_cost / CostModel.prediction_s)


class TestCountsAddUp:
    """Each protocol's counts add up, on small pools and budgets."""

    @settings(max_examples=20)
    @given(n_safe=st.integers(0, 12), n_unsafe=st.integers(0, 12),
           kind=st.sampled_from(["random", "road_length", "model"]),
           data=st.data())
    def test_fix(self, moderate_tests, moderate_model, n_safe, n_unsafe, kind,
                 data):
        pool = build_pool(moderate_tests, (n_safe, n_unsafe),
                          data.draw(st.integers(0, 999), label="pool_seed"))
        S = data.draw(st.integers(1, max(len(pool), 1)), label="S")
        if S > len(pool):
            with pytest.raises(STooLarge):
                run_fix(pool, _strategy(kind, moderate_model[0]), S, 0)
            return
        res = run_fix(pool, _strategy(kind, moderate_model[0]), S,
                      data.draw(st.integers(0, 999), label="seed"))
        assert len(set(res.suite_ids)) == len(res.suite_ids) == S
        assert set(res.suite_ids) <= {t.id for t in pool.tests}
        unsafe = sum(pool.reveal_post_mortem(tid) == UNSAFE_CODE
                     for tid in res.suite_ids)
        assert res.unsafe_ratio == unsafe / S
        if kind == "model":
            assert sum(res.confusion) == res.drawn
        else:
            assert (res.drawn, res.backfilled, res.confusion) == (S, 0, None)

    @settings(max_examples=20)
    @given(n_safe=st.integers(0, 12), n_unsafe=st.integers(1, 12),
           kind=st.sampled_from(["random", "road_length", "model"]),
           data=st.data())
    def test_reach(self, moderate_tests, moderate_model, n_safe, n_unsafe,
                   kind, data):
        pool = build_pool(moderate_tests, (n_safe, n_unsafe),
                          data.draw(st.integers(0, 999), label="pool_seed"))
        N = data.draw(st.integers(1, n_unsafe), label="N")
        res = run_reach(pool, _strategy(kind, moderate_model[0]), N,
                        CostModel(), data.draw(st.integers(0, 999), label="seed"))
        assert sum(pool.reveal_post_mortem(tid) == UNSAFE_CODE
                   for tid in pool.revealed) == N
        assert res.executed_count == len(pool.revealed)
        if kind == "model":
            assert sum(res.confusion) == _predictions(res.prediction_cost) > 0
        else:
            assert res.confusion is None and res.prediction_cost == 0.0

    @settings(max_examples=10)
    @given(mode=st.sampled_from(RealTimeConfig.MODES),
           budget_s=st.floats(30.0, 240.0), warmup_n=st.integers(0, 4),
           seed=st.integers(0, 999))
    def test_realtime(self, moderate_model, mode, budget_s, warmup_n, seed):
        kwargs = {"pretrained": {"model": moderate_model[0]},
                  "adaptive": {"warmup_n": warmup_n}}.get(mode, {})
        res = run_realtime(RealTimeConfig(mode=mode, budget_s=budget_s,
                                          **kwargs), seed)
        assert (res.executed_safe + res.executed_unsafe + res.rejected
                == res.generated)
        assert sum(res.time_fractions.values()) == pytest.approx(1.0, abs=1e-12)
        predicted = _predictions(res.clock.get("prediction", 0.0))
        assert (0 if res.confusion is None else sum(res.confusion)) == predicted
        assert res.rejected <= predicted


class TestSkipOrder:
    """A filter's kept draws come first, in draw order, then its skipped
    draws, in skip order, for verdict tables drawn by hypothesis."""

    @staticmethod
    def screen(moderate_tests, data):
        pool = build_pool(moderate_tests,
                          (data.draw(st.integers(0, 8), label="n_safe"),
                           data.draw(st.integers(1, 8), label="n_unsafe")),
                          data.draw(st.integers(0, 999), label="pool_seed"))
        verdicts = data.draw(st.lists(st.sampled_from([0, UNSAFE_CODE]),
                                      min_size=len(pool), max_size=len(pool)),
                             label="verdicts")
        stub = StubStrategy(dict(zip((t.id for t in pool.tests), verdicts)))
        seed = data.draw(st.integers(0, 999), label="seed")
        order = [t.id for t in stub.order(pool, np.random.default_rng(seed))]
        kept = [tid for tid in order if stub.predictions[tid] == UNSAFE_CODE]
        skipped = [tid for tid in order if tid not in kept]
        return pool, stub, seed, order, kept, skipped

    @settings(max_examples=25)
    @given(data=st.data())
    def test_fix_suite(self, moderate_tests, data):
        pool, stub, seed, order, kept, skipped = self.screen(moderate_tests,
                                                             data)
        S = data.draw(st.integers(1, len(pool)), label="S")
        res = run_fix(pool, stub, S, seed)
        assert list(res.suite_ids) == (kept + skipped)[:S]
        assert res.backfilled == max(0, S - len(kept))
        judged = order.index(kept[S - 1]) + 1 if S <= len(kept) else len(order)
        assert res.drawn == sum(res.confusion) == judged

    @settings(max_examples=25)
    @given(data=st.data())
    def test_reach_executions(self, moderate_tests, data):
        pool, stub, seed, order, kept, skipped = self.screen(moderate_tests,
                                                             data)
        N = data.draw(st.integers(1, pool.unsafe_count), label="N")
        executed = []
        execute = pool.execute

        def recording(test_id):
            executed.append(test_id)
            return execute(test_id)

        pool.execute = recording
        res = run_reach(pool, stub, N, CostModel(), seed)
        screened = kept + skipped
        unsafe = [tid for tid in screened
                  if pool.reveal_post_mortem(tid) == UNSAFE_CODE]
        assert executed == screened[:screened.index(unsafe[N - 1]) + 1]
        assert res.executed_count == len(executed)
        assert res.fallback_used == (len(executed) > len(kept))
        # every draw judged before the N-th unsafe execution, or the whole
        # pool when the skipped draws had to run; one charge per judgement
        judged = (order.index(executed[-1]) + 1 if not res.fallback_used
                  else len(order))
        assert sum(res.confusion) == judged
        charged = 0.0
        for _ in range(judged):
            charged += CostModel.prediction_s
        assert res.prediction_cost == charged
