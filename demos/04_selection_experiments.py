#!/usr/bin/env python3
"""The three selection protocols side by side.

FIX: build a fixed-size suite; quality = fraction of unsafe tests in it.
REACH: execute until N unsafe verdicts; quality = how few runs that took.
Real-time: generate-predict-execute under a virtual time budget, optionally
retraining the model as verdicts arrive.
"""

import numpy as np

from roadsift.ml import ClassifierSpec, dataset_from_tests, fit, oversample_minority
from roadsift.oracle import DriverConfig, build_dataset
from roadsift.selection import (
    CostModel,
    ModelStrategy,
    RandomStrategy,
    RealTimeConfig,
    RoadLengthStrategy,
    build_pool,
    cost_effectiveness,
    run_fix,
    run_reach,
    run_realtime,
)

print("labelling 450 roads and training a logistic selector on 250 of them...")
tests = build_dataset(450, DriverConfig(risk_factor=1.5), rng_seed=77,
                      keep_traces=False)
train = oversample_minority(dataset_from_tests(tests[:250]), 1)
model = fit(ClassifierSpec("logistic"), train.X, train.y, train.feature_names, 1)
train_ids = {t.id for t in tests[:250]}

strategies = [("random", RandomStrategy()),
              ("road_length", RoadLengthStrategy()),
              ("model", ModelStrategy(model))]

# --- FIX: suite of 40 from a 100/30 pool, 10 repetitions ---
print("\nFIX (S=40, pool 70 safe / 40 unsafe, 10 seeds):")
for name, strategy in strategies:
    ratios = []
    for seed in range(10):
        pool = build_pool(tests, (70, 40), rng_seed=seed, exclude_ids=train_ids)
        ratios.append(run_fix(pool, strategy, 40, seed).unsafe_ratio)
    print(f"  {name:12s} mean unsafe ratio {np.mean(ratios):.3f} "
          f"+- {np.std(ratios):.3f}")

# --- REACH: N=10 from the same pools ---
print("\nREACH (N=10):")
cost = CostModel()
for name, strategy in strategies:
    executed, wasted = [], []
    for seed in range(10):
        pool = build_pool(tests, (70, 40), rng_seed=seed, exclude_ids=train_ids)
        res = run_reach(pool, strategy, 10, cost, seed)
        executed.append(res.executed_count)
        wasted.append(res.elapsed_cost_safe)
    print(f"  {name:12s} mean executed {np.mean(executed):5.1f}, "
          f"mean safe-test cost {np.mean(wasted):7.1f} s")

pool = build_pool(tests, (70, 40), rng_seed=99, exclude_ids=train_ids)
res = run_reach(pool, ModelStrategy(model), 10, cost, 99)
labels = [pool.reveal_post_mortem(tid) for tid in pool.revealed]
ce = cost_effectiveness(labels)
print(f"  model run cost-effectiveness: {ce.ratio:.2f} "
      f"({ce.failing_fraction:.0%} failing)")

# --- real-time under a 2500 s virtual budget ---
print("\nreal-time (2500 s virtual budget):")
for mode, extra in [("baseline", {}),
                    ("pretrained", {"model": model}),
                    ("adaptive", {"warmup_n": 30})]:
    cfg = RealTimeConfig(mode=mode, budget_s=2500.0, **extra)
    res = run_realtime(cfg, rng_seed=13)
    frac = res.time_fractions
    extra_txt = ""
    if res.post_mortem_accuracy is not None:
        extra_txt = f", post-mortem accuracy {res.post_mortem_accuracy:.2f}"
    print(f"  {mode:10s} unsafe {res.executed_unsafe:3d} / safe "
          f"{res.executed_safe:3d} executed, {res.rejected:3d} rejected; "
          f"exec time share {frac['execution_unsafe'] + frac['execution_safe']:.0%}"
          f"{extra_txt}")
