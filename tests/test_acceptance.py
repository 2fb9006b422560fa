"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The heavyweight fixtures (labelled datasets, trained model) are
session-scoped and shared.
"""

import functools
import json
import math
import time

import numpy as np
import pytest

from roadsift.canbus import (
    BIG_ENDIAN,
    DEFAULT_DBC,
    LITTLE_ENDIAN,
    CanSignalDef,
    PlaybackRecord,
    decode_signal,
    encode_signal,
    parse_dbc,
    read_playback_csv,
    write_playback_csv,
)
from roadsift.cli import main
from roadsift.features import features_from_segments
from roadsift import geometry
from roadsift.geometry import STRAIGHT, interpolate_spine, segment_spine
from roadsift.ml import (
    ClassifierSpec,
    LabeledDataset,
    UNSAFE_CODE,
    dataset_from_tests,
    fit,
    grid_sizes,
    holdout_evaluate,
    iter_cells,
    kfold_evaluate,
    oversample_minority,
    rank_features,
    report_from_confusion,
    skip_reason,
    split,
    stratified_folds,
)
from roadsift.oracle import UNSAFE, DriverConfig, generate_road
from roadsift.oracle import build_dataset as oracle_build_dataset
from roadsift.selection import (
    CostModel,
    ModelStrategy,
    RandomStrategy,
    RealTimeConfig,
    build_pool,
    run_fix,
    run_reach,
    run_realtime,
)

from conftest import StubStrategy

RADIUS_FEATURES = ("median_radius", "std_radius", "max_radius", "min_radius",
                   "mean_radius")
ANGLE_STATISTICS = ("median_angle", "std_angle", "max_angle", "min_angle",
                    "mean_angle")


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[ACCEPTANCE] criterion {number:2d} ({name}): FAIL")
                raise
            print(f"[ACCEPTANCE] criterion {number:2d} ({name}): PASS")
        return wrapper
    return decorate


def sign_test_p(wins: int, n: int) -> float:
    """One-sided sign test: P[X >= wins] under X ~ Binomial(n, 1/2)."""
    return sum(math.comb(n, k) for k in range(wins, n + 1)) / 2.0 ** n


@pytest.fixture(scope="session")
def big_dataset():
    """Oracle-labelled dataset at rf 1.5, large enough for the 500/500
    training set plus every pool composition the experiments need."""
    tests = oracle_build_dataset(2600, DriverConfig(risk_factor=1.5),
                                 rng_seed=2024, keep_traces=False)
    return tests


@pytest.fixture(scope="session")
def trained_logistic(big_dataset):
    """Logistic model on a balanced 500/500 training set; returns the model
    and the training ids (pools must exclude them)."""
    rng = np.random.default_rng(77)
    safe = [t for t in big_dataset if t.outcome.label != UNSAFE]
    unsafe = [t for t in big_dataset if t.outcome.label == UNSAFE]
    assert len(safe) >= 500 and len(unsafe) >= 500
    train_tests = ([safe[i] for i in rng.choice(len(safe), 500, replace=False)]
                   + [unsafe[i] for i in rng.choice(len(unsafe), 500, replace=False)])
    ds = dataset_from_tests(train_tests)
    model = fit(ClassifierSpec("logistic"), ds.X, ds.y, ds.feature_names,
                rng_seed=77)
    return model, {t.id for t in train_tests}


@criterion(1, "geometry oracle equivalence")
def test_criterion_1_geometry_equivalence(monkeypatch):
    started = time.perf_counter()
    for seed in range(200):
        road, _ = generate_road(seed)
        spine = interpolate_spine(road)
        segments = segment_spine(spine)
        vec = features_from_segments(spine, segments)

        xy = spine.xy
        heading = spine.heading
        s = spine.s

        # lengths by direct polyline sums
        steps = np.hypot(np.diff(xy[:, 0]), np.diff(xy[:, 1]))
        assert float(np.sum(steps)) == pytest.approx(vec.length, rel=1e-6)
        direct = math.hypot(xy[-1, 0] - xy[0, 0], xy[-1, 1] - xy[0, 1])
        assert direct == pytest.approx(vec.direct_distance, rel=1e-6, abs=1e-9)

        # finite-difference pass: chord headings on a 4x finer resampling of
        # the same road; segment boundaries located by projecting the coarse
        # boundary point onto the fine polyline. Central differences in the
        # interior, one-sided at the ends, 4th-order where the stencil fits.
        with monkeypatch.context() as m:
            m.setattr(geometry, "SAMPLING_STEP", 0.25)
            fine = interpolate_spine(road)
        fxy = fine.xy
        h_fd = np.empty(len(fxy))
        h_fd[1:-1] = np.arctan2(fxy[2:, 1] - fxy[:-2, 1],
                                fxy[2:, 0] - fxy[:-2, 0])
        h_fd[0] = math.atan2(fxy[1, 1] - fxy[0, 1], fxy[1, 0] - fxy[0, 0])
        h_fd[-1] = math.atan2(fxy[-1, 1] - fxy[-2, 1], fxy[-1, 0] - fxy[-2, 0])
        dx4 = -fxy[4:, 0] + 8 * fxy[3:-1, 0] - 8 * fxy[1:-3, 0] + fxy[:-4, 0]
        dy4 = -fxy[4:, 1] + 8 * fxy[3:-1, 1] - 8 * fxy[1:-3, 1] + fxy[:-4, 1]
        h_fd[2:-2] = np.arctan2(dy4, dx4)
        cum_h = np.concatenate(
            [[h_fd[0]], h_fd[0] + np.cumsum(
                np.mod(np.diff(h_fd) + np.pi, 2 * np.pi) - np.pi)])

        def heading_at(point):
            d = np.hypot(fxy[:, 0] - point[0], fxy[:, 1] - point[1])
            nearest = int(np.argmin(d))
            best = None
            for i in (nearest - 1, nearest):
                if not 0 <= i <= len(fxy) - 2:
                    continue
                seg_vec = fxy[i + 1] - fxy[i]
                den = max(float(seg_vec @ seg_vec), 1e-15)
                t = float(np.clip((point - fxy[i]) @ seg_vec / den, 0.0, 1.0))
                foot = fxy[i] + t * seg_vec
                miss = float(np.hypot(*(point - foot)))
                value = cum_h[i] + t * (cum_h[i + 1] - cum_h[i])
                if best is None or miss < best[0]:
                    best = (miss, value)
            return best[1]

        angles = []
        for seg in segments:
            a, b = seg.start_index, seg.end_index
            inc = np.mod(np.diff(heading[a:b + 1]) + np.pi, 2 * np.pi) - np.pi
            angle_deg = math.degrees(abs(float(np.sum(inc))))
            angles.append((seg, angle_deg))
            assert angle_deg == pytest.approx(seg.turn_angle, rel=1e-6, abs=1e-9)
            if seg.kind != STRAIGHT:
                angle_fd = abs(heading_at(xy[b]) - heading_at(xy[a]))
                radius_fd = float(s[b] - s[a]) / max(angle_fd, 1e-12)
                assert radius_fd == pytest.approx(seg.radius, rel=0.01)

        # attribute and statistic features recomputed from the brute-force pass
        turn = [(sg, ang) for sg, ang in angles if sg.kind != STRAIGHT]
        total = sum(ang for _, ang in turn)
        assert total == pytest.approx(vec.total_angle, rel=1e-6, abs=1e-9)
        if turn:
            arr = np.array([ang for _, ang in turn])
            assert float(np.mean(arr)) == pytest.approx(vec.mean_angle, rel=1e-6)
            assert float(np.median(arr)) == pytest.approx(vec.median_angle, rel=1e-6)
            assert float(np.max(arr)) == pytest.approx(vec.max_angle, rel=1e-6)
            assert float(np.min(arr)) == pytest.approx(vec.min_angle, rel=1e-6)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"


@criterion(2, "diversity analytic check")
def test_criterion_2_diversity():
    from conftest import analytic_arc_spine, straight_points
    from roadsift.features import extract_diversity, extract_features
    from roadsift.geometry import RoadPoints

    spine = analytic_arc_spine(radius=10.0, arc_deg=180.0, step=1.0)
    segs = segment_spine(spine)
    div = extract_diversity(segs)
    assert div["full_road_diversity"] == pytest.approx(math.pi * 50.0, rel=0.01)

    vec = extract_features(RoadPoints(points=straight_points()))
    assert vec.full_road_diversity == 0.0


@criterion(3, "ml sanity")
def test_criterion_3_ml_sanity():
    rng = np.random.default_rng(0)
    names = ("f0", "f1")

    # linearly separable -> logistic near-perfect
    X = rng.normal(size=(400, 2))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
    ds = LabeledDataset(X, y, names, tuple(f"t{i}" for i in range(400)))
    train, test = split(ds, 0.8, 3)
    model = fit(ClassifierSpec("logistic"), train.X, train.y, names, 1)
    assert holdout_evaluate(model, test).f1_unsafe >= 0.99

    # XOR -> tree learns it, logistic cannot
    centers = [(-1, -1, 0), (1, 1, 0), (-1, 1, 1), (1, -1, 1)]
    Xx, yx = [], []
    for cx, cy, label in centers:
        Xx.append(rng.normal(scale=0.25, size=(100, 2)) + (cx, cy))
        yx.extend([label] * 100)
    dx = LabeledDataset(np.vstack(Xx), np.array(yx), names,
                        tuple(f"x{i}" for i in range(400)))
    trx, tex = split(dx, 0.8, 5)
    tree = fit(ClassifierSpec("decision_tree", {"M": 1}), trx.X, trx.y, names, 1)
    logistic = fit(ClassifierSpec("logistic"), trx.X, trx.y, names, 1)
    assert holdout_evaluate(tree, tex).accuracy >= 0.95
    assert holdout_evaluate(logistic, tex).accuracy <= 0.60

    # oversampling balances exactly
    ds_im = LabeledDataset(rng.normal(size=(140, 2)),
                           np.array([0] * 100 + [1] * 40), names,
                           tuple(f"o{i}" for i in range(140)))
    balanced = oversample_minority(ds_im, 1)
    assert balanced.class_counts() == (100, 100)

    # 10-fold partition laws on 20 random datasets
    for trial in range(20):
        n = int(rng.integers(40, 250))
        n_unsafe = int(rng.integers(10, n - 10))
        labels = np.array([1] * n_unsafe + [0] * (n - n_unsafe))
        folds = stratified_folds(labels, 10, trial)
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1
        merged = np.concatenate(folds)
        assert len(merged) == n and len(set(merged.tolist())) == n


@criterion(4, "grid-search enumeration")
def test_criterion_4_grid_enumeration():
    sizes = grid_sizes()
    assert sizes["decision_tree"] == 100
    assert sizes["random_forest"] == 500
    swept = ("decision_tree", "random_forest", "gradient_boosting",
             "logistic", "linear_svm")
    assert sum(sizes[f] for f in swept) >= 700

    # skipped cells appear only for the declared-incompatible pairs
    for family in swept:
        for params in iter_cells(family):
            reason = skip_reason(family, params)
            if family in ("decision_tree", "random_forest",
                          "gradient_boosting"):
                assert reason is None
    assert sum(1 for c in iter_cells("logistic")
               if skip_reason("logistic", c)) == 81
    assert sum(1 for c in iter_cells("linear_svm")
               if skip_reason("linear_svm", c)) == 4


@criterion(5, "FIX selection directional reproduction")
def test_criterion_5_fix_directional(big_dataset, trained_logistic):
    started = time.perf_counter()
    model, train_ids = trained_logistic
    compositions = {"95/5": (285, 15), "80/20": (240, 60),
                    "60/40": (180, 120), "30/70": (90, 210)}
    S = 50
    improvement_95_5 = None
    for name, counts in compositions.items():
        wins = ties = 0
        ml_ratios, random_ratios = [], []
        for seed in range(30):
            pool = build_pool(big_dataset, counts, rng_seed=seed * 13 + 1,
                              exclude_ids=train_ids)
            ml = run_fix(pool, ModelStrategy(model), S, seed).unsafe_ratio
            rnd = run_fix(pool, RandomStrategy(), S, seed).unsafe_ratio
            ml_ratios.append(ml)
            random_ratios.append(rnd)
            if ml > rnd:
                wins += 1
            elif ml == rnd:
                ties += 1
        assert np.mean(ml_ratios) > np.mean(random_ratios), name
        p = sign_test_p(wins, 30 - ties)
        assert p < 0.05, f"{name}: sign test p={p:.4f}"
        if name == "95/5":
            improvement_95_5 = np.mean(ml_ratios) / max(np.mean(random_ratios), 1e-12)
    assert improvement_95_5 >= 1.5, f"95/5 improvement {improvement_95_5:.2f}x"
    elapsed = time.perf_counter() - started
    assert elapsed < 180.0, f"criterion 5 took {elapsed:.1f}s"


@criterion(6, "REACH executed-count law")
def test_criterion_6_reach_law(big_dataset, trained_logistic):
    _, train_ids = trained_logistic
    N = 10
    for p in (0.5, 0.8, 1.0):
        counts = []
        for seed in range(30):
            pool = build_pool(big_dataset, (120, 80), rng_seed=seed * 7 + 3,
                              exclude_ids=train_ids)
            pool_ids = {t.id for t in pool.tests}
            n_safe, n_unsafe = pool.composition
            flip = 0.0 if p >= 1.0 else (1.0 - p) / p * n_unsafe / n_safe
            rng = np.random.default_rng(seed + 5000)
            table = {}
            for t in big_dataset:
                if t.id not in pool_ids:
                    continue
                if t.outcome.label == UNSAFE:
                    table[t.id] = UNSAFE_CODE
                else:
                    table[t.id] = UNSAFE_CODE if rng.random() < flip else 0
            res = run_reach(pool, StubStrategy(table), N, CostModel(), seed)
            counts.append(res.executed_count)
        mean = float(np.mean(counts))
        assert mean == pytest.approx(N / p, rel=0.2), f"precision {p}"
        if p == 1.0:
            assert all(c == N for c in counts)


@criterion(7, "real-time directional reproduction")
def test_criterion_7_realtime(trained_logistic):
    model, _ = trained_logistic
    budget = 8000.0
    base = run_realtime(RealTimeConfig(mode="baseline", budget_s=budget),
                        rng_seed=31)
    pre = run_realtime(RealTimeConfig(mode="pretrained", budget_s=budget,
                                      model=model), rng_seed=31)
    ada = run_realtime(RealTimeConfig(mode="adaptive", budget_s=budget,
                                      warmup_n=60), rng_seed=31)
    exec_fraction = (base.time_fractions["execution_unsafe"]
                     + base.time_fractions["execution_safe"])
    assert exec_fraction >= 0.90
    assert pre.executed_unsafe > base.executed_unsafe
    assert ada.post_mortem_accuracy is not None
    assert abs(ada.post_mortem_accuracy - pre.post_mortem_accuracy) <= 0.05


@criterion(8, "metric identities")
def test_criterion_8_metric_identities():
    # precision 65% / recall 80% arithmetic
    report = report_from_confusion(tp=260, fp=140, tn=535, fn=65)
    assert report.precision_unsafe == pytest.approx(0.65, abs=1e-9)
    assert report.recall_unsafe == pytest.approx(0.80, abs=1e-9)

    # a cumulative selection-run matrix with known hand-computed rates
    report = report_from_confusion(tp=40, fp=260, tn=549, fn=10)
    assert report.precision_unsafe == pytest.approx(40 / 300, abs=1e-9)
    assert report.recall_unsafe == pytest.approx(40 / 50, abs=1e-9)
    assert report.precision_safe == pytest.approx(549 / 559, abs=1e-9)
    assert report.recall_safe == pytest.approx(549 / 809, abs=1e-9)
    assert report.accuracy == pytest.approx(589 / 859, abs=1e-9)
    f1_u = 2 * (40 / 300) * (40 / 50) / ((40 / 300) + (40 / 50))
    f1_s = 2 * (549 / 559) * (549 / 809) / ((549 / 559) + (549 / 809))
    assert report.f1_unsafe == pytest.approx(f1_u, abs=1e-9)
    weighted = (50 * f1_u + 809 * f1_s) / 859
    assert report.weighted_avg_f1 == pytest.approx(weighted, abs=1e-9)


@criterion(9, "feature-ranking behaviour")
def test_criterion_9_feature_ranking(big_dataset):
    # perfect predictor: IG equals the label entropy, |corr| = 1
    rng = np.random.default_rng(3)
    y = np.array([0, 1] * 80)
    X = np.column_stack([y.astype(float), rng.normal(size=160)])
    ds = LabeledDataset(X, y, ("mirror", "noise"),
                        tuple(f"p{i}" for i in range(160)))
    result = rank_features(ds)
    assert dict(result.information_gain)["mirror"] == pytest.approx(1.0, abs=1e-12)
    assert dict(result.correlation)["mirror"] == pytest.approx(1.0, abs=1e-12)

    # oracle dataset: some radius feature above every angle statistic
    oracle_ds = dataset_from_tests(big_dataset)
    ranking = rank_features(oracle_ds)
    for ranked in (ranking.information_gain, ranking.correlation):
        position = {name: i for i, (name, _) in enumerate(ranked)}
        best_radius = min(position[f] for f in RADIUS_FEATURES)
        assert all(best_radius < position[f] for f in ANGLE_STATISTICS)


@criterion(10, "CAN bit-exactness")
def test_criterion_10_can_bits(tmp_path):
    db = parse_dbc(DEFAULT_DBC)
    sig = db.by_name("VEHICLE_DYNAMICS").signal("speed_kmh")
    frame = bytearray(8)
    encode_signal(sig, 100.0, frame)
    assert bytes(frame) == bytes([0x10, 0x27, 0, 0, 0, 0, 0, 0])

    # codec round trip over 10,000 random definition/value pairs
    rng = np.random.default_rng(9)
    for _ in range(10_000):
        bit_length = int(rng.integers(1, 33))
        order = LITTLE_ENDIAN if rng.random() < 0.5 else BIG_ENDIAN
        signed = bool(rng.random() < 0.5)
        scale = float(rng.choice([0.01, 0.1, 0.25, 1.0, 2.0]))
        offset = float(rng.choice([-50.0, 0.0, 12.5]))
        if order == LITTLE_ENDIAN:
            start = int(rng.integers(0, 64 - bit_length + 1))
        else:
            byte_i = int(rng.integers(0, 8))
            bit_i = int(rng.integers(0, 8))
            if byte_i * 8 + (7 - bit_i) + bit_length > 64:
                continue
            start = byte_i * 8 + bit_i
        if signed:
            raw_lo, raw_hi = -(2 ** (bit_length - 1)), 2 ** (bit_length - 1) - 1
        else:
            raw_lo, raw_hi = 0, 2 ** bit_length - 1
        lo, hi = raw_lo * scale + offset, raw_hi * scale + offset
        sig = CanSignalDef("s", start, bit_length, order, signed, scale,
                           offset, lo, hi)
        value = float(rng.uniform(lo, hi))
        buf = bytearray(8)
        encode_signal(sig, value, buf)
        assert abs(decode_signal(sig, buf) - value) <= scale / 2 + 1e-9

        # non-overlap against an 0xAA pre-fill
        marked = bytearray([0xAA] * 8)
        encode_signal(sig, value, marked)
        own = set(sig.bit_positions())
        for pos in range(64):
            if pos in own:
                continue
            byte_j, bit_j = divmod(pos, 8)
            assert (marked[byte_j] >> bit_j & 1) == ((0xAA >> bit_j) & 1)

    # playback CSV and binary framing round-trip byte-identically
    records = [PlaybackRecord(i * 20, 0x100 + i % 3, 8,
                              bytes(rng.integers(0, 256, 8, dtype=np.uint8)))
               for i in range(200)]
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_playback_csv(records, p1)
    write_playback_csv(read_playback_csv(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()

    import io
    from roadsift.canbus import playback, read_frames
    buf = io.BytesIO()
    playback(records, buf)
    assert read_frames(buf.getvalue()) == records


@criterion(11, "end-to-end determinism")
def test_criterion_11_end_to_end_determinism(tmp_path):
    def pipeline(root):
        run = root / "run"
        assert main(["generate", "-n", "16", "--rf", "1.5", "--seed", "808",
                     "--out", str(run)]) == 0
        bench = root / "bench"
        assert main(["benchmark", "--features", str(run / "features.csv"),
                     "--models", "logistic,naive_bayes", "--k", "3",
                     "--seed", "5", "--out", str(bench)]) == 0
        exp_cfg = root / "exp.json"
        exp_cfg.write_text(json.dumps({
            "protocol": "fix",
            "dataset": str(run / "simulation.full.json"),
            "pool": {"safe": 6, "unsafe": 4},
            "strategy": "model",
            "model": str(bench / "best_model.json"),
            "S": 5,
            "repetitions": 5,
        }))
        exp = root / "exp"
        assert main(["experiment", "--config", str(exp_cfg), "--seed", "2",
                     "--out", str(exp)]) == 0
        can = root / "can"
        assert main(["can-convert", "--simulation",
                     str(run / "simulation.full.json"),
                     "--out", str(can)]) == 0
        artifacts = {}
        for path in sorted(root.rglob("*")):
            if path.is_file() and path != exp_cfg:
                artifacts[str(path.relative_to(root))] = path.read_bytes()
        return artifacts

    first = pipeline(tmp_path / "one")
    second = pipeline(tmp_path / "two")
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"artifact differs: {name}"
