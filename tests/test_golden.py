"""Golden artifacts: the sha256 digests that fixed seeds give today.

Any change to road generation, driving, feature extraction, dataset output
(with and without traces) and its reading back, road files, CAN conversion
and wire framing, the six-family benchmark, the random-forest and boosting
benchmarks and the logistic and SVM grids on a second data set, the
decision-tree, logistic and SVM grids, the real-time
loop or FIX / REACH selection, with or without a model, shows up here as a
changed digest, so an intended change must update a digest in the same
commit and say why.

The linear SVM grid (6cc44726… → 92180393…) and the benchmark
(0c2383e2… → 352f01ad…) changed when the linear SVM began to be solved to
its optimum, by Newton steps, an interior-point method or a linear program,
instead of taking 1000 subgradient steps. The SVM's weighted F1 on data set
1 moved from 0.776 to 0.750; the benchmark still picks random_forest.

The traced sets at risk factors 0.5 and 2.5 were recorded while the drive
still clamped with the builtins min and max, before those clamps became
conditional expressions, and held unchanged after.

The real-time baseline and pretrained digests were recorded while the
loop still prepared every road in-process, before roads were prepared in
worker processes, and held unchanged after.

The logistic and SVM grid digests on the second data set were recorded
while feature-sign search still started each proximal Newton step's search
from theta's signs alone, before the first step started from the signs of
the model's minimiser without the l1 term, and held unchanged after.

The Motorola and signed CAN digest was recorded while the conversion still
clamped with the builtins min and max and the playback writer formatted
every line whole, before each signal's quantisation was compiled and each
frame's text formatted once per file, and held unchanged after.

The digests were recorded with numpy 2.4.6 and scipy 1.17.1 on glibc
2.36, on an x86-64 CPU with AVX-512 and FMA. numpy picks some vector math
kernels by CPU, and glibc's libm picks FMA code paths, so on another CPU
the digests of generated datasets and of boosting can change. The CI
workflow installs those numpy and scipy versions.
"""

import hashlib
import json

import pytest

from roadsift.cli import main


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_generate_default_risk(tmp_path):
    out = tmp_path / "run"
    assert main(["generate", "-n", "40", "--seed", "8", "--no-traces",
                 "--out", str(out)]) == 0
    assert sha256(out / "features.csv") == (
        "7a5ded396d6e0116f423349df516217a42d79eafdf75e62787077e8383472c0a")
    assert sha256(out / "simulation.full.json") == (
        "3cc1a11a46aaaac0836a89ade0a78ab7575f03f196c238b7a24182e70bcc5191")


@pytest.fixture(scope="module")
def data_set_1(tmp_path_factory):
    out = tmp_path_factory.mktemp("set1")
    assert main(["generate", "-n", "40", "--rf", "1.5", "--no-traces",
                 "--seed", "150", "--out", str(out)]) == 0
    return out / "features.csv"


def test_generate_risk_factor_1_5(data_set_1):
    assert sha256(data_set_1) == (
        "a6f27bb311622331b779c9071c19f97341e946cffa15c13308d7e6cc6e85f4ea")


def grid_digest(features, tmp_path, family):
    grid = tmp_path / "grid.csv"
    assert main(["grid-search", "--family", family,
                 "--features", str(features), "--k", "10", "--seed", "160",
                 "--out", str(grid)]) == 0
    return sha256(grid)


def test_decision_tree_grid(data_set_1, tmp_path):
    assert grid_digest(data_set_1, tmp_path, "decision_tree") == (
        "7a322a5122fa855d786c26f1b3a70d25e4c68c0853590cab013880dc1fdaedcc")


@pytest.mark.parametrize("family, digest", [
    ("logistic",
     "d0cd06c0a404bbd5c3127facfcadcbfa3033f42fad653f1cdd0a163182bb63fc"),
    ("linear_svm",
     "921803934631cd5608378911116906404b9f82657e6a49caa914f0b3b254d467"),
], ids=["logistic", "linear_svm"])
def test_linear_grid(data_set_1, tmp_path, family, digest):
    assert grid_digest(data_set_1, tmp_path, family) == digest


def test_benchmark(data_set_1, tmp_path):
    out = tmp_path / "bm"
    assert main(["benchmark", "--features", str(data_set_1), "--k", "10",
                 "--seed", "160", "--out", str(out)]) == 0
    reports = sorted(out.glob("*.report.json"))
    assert len(reports) == 6
    every = hashlib.sha256()
    for path in reports + [out / "best_model.json"]:
        every.update(path.read_bytes())
    assert every.hexdigest() == (
        "352f01ad5040b99fbbca299f926bf09419369a0267820783890de6561572a039")


@pytest.fixture(scope="module")
def data_set_2(tmp_path_factory):
    # more rows than data set 1, and other seeds
    out = tmp_path_factory.mktemp("set2")
    assert main(["generate", "-n", "60", "--rf", "1.5", "--no-traces",
                 "--seed", "7", "--out", str(out)]) == 0
    return out / "features.csv"


@pytest.mark.parametrize("family, digest", [
    ("logistic",
     "574cbdece14629cbe294facf8513460ce9352872cce9e66fdf05fe29908fa0bc"),
    ("linear_svm",
     "cc0d79e44b782c2c28aa8f1da27d9300cb2de3d4060c49fbd18a3cf0218c0742"),
], ids=["logistic", "linear_svm"])
def test_linear_grid_data_set_2(data_set_2, tmp_path, family, digest):
    grid = tmp_path / "grid.csv"
    assert main(["grid-search", "--family", family,
                 "--features", str(data_set_2), "--k", "3", "--seed", "5",
                 "--out", str(grid)]) == 0
    assert sha256(grid) == digest


def ensemble_digest(features, tmp_path, family):
    """Digest of one family's 3-fold report and its best_model.json, whose
    bytes hold each tree's key order."""
    out = tmp_path / "bm"
    assert main(["benchmark", "--features", str(features),
                 "--models", family, "--k", "3", "--seed", "5",
                 "--out", str(out)]) == 0
    every = hashlib.sha256()
    for path in [out / f"{family}.report.json", out / "best_model.json"]:
        every.update(path.read_bytes())
    return every.hexdigest()


def test_forest_benchmark_data_set_2(data_set_2, tmp_path):
    assert ensemble_digest(data_set_2, tmp_path, "random_forest") == (
        "ec61da73f4dab971f2e5ab6ccaa50f6d7f761941ebccfe202348129a64576aa1")


def test_boosting_benchmark_data_set_2(data_set_2, tmp_path):
    assert ensemble_digest(data_set_2, tmp_path, "gradient_boosting") == (
        "ed6d36010d8af3e807a08fd0fa75e435fe55ba9192415c97416a1cb07f1ee62e")


@pytest.fixture(scope="module")
def traced_set(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    assert main(["generate", "-n", "20", "--rf", "1.5", "--seed", "7",
                 "--out", str(out)]) == 0
    return out


def test_generate_with_traces(traced_set):
    assert sha256(traced_set / "features.csv") == (
        "ea2e8e54fd869e0f8bee4f026641005030edba4dadfd68fc2f206e2e28388988")
    assert sha256(traced_set / "simulation.full.json") == (
        "61ac165e43e8878ab0a59e58f82cc0c5b0e8458906a97c6fac52644f7716a3fa")
    assert sha256(traced_set / "roads" / "test_00000.json") == (
        "04047341494d1753648e3773aa2833f36aff384b5ffe9fbbd50f582a8dc378be")


# At rf 1.5 the steering clamp binds on one side only, 4 times in the 5.2k
# steps above; at rf 2.5 it binds on both sides. The friction-circle
# yaw-rate cap binds at rf 1.5 and 2.5. At rf 0.5 all 20 drives are safe
# and neither binds. The 1e-6 distance floor and the speed floor bind on
# none of these sets: test_oracle's reference-drive property, which
# compares every step with the builtin min/max form, covers them, not
# these digests.
@pytest.mark.parametrize("rf, features, simulation", [
    ("0.5", "6f8731584e38f53820d22f9336d390964bea915b24a11729d042ae9156d8dde4",
     "b15ea44db083ceb595cd2975848ce9827b2aac1cba5a9da6a097b764fda6691d"),
    ("2.5", "af93552576a8f9d560f5870b98d187a5f6aee20e771cb5ee7a1287cbc2b8890c",
     "83cd40940b9818b161ae5290bcdafaf3d3f03a174fc6935f6951314d8c4d77f1"),
], ids=["rf_0_5", "rf_2_5"])
def test_generate_with_traces_at_risk_extremes(tmp_path, rf, features,
                                               simulation):
    out = tmp_path / "run"
    assert main(["generate", "-n", "20", "--rf", rf, "--seed", "7",
                 "--out", str(out)]) == 0
    assert sha256(out / "features.csv") == features
    assert sha256(out / "simulation.full.json") == simulation


def test_can_convert(traced_set, tmp_path):
    out = tmp_path / "can"
    assert main(["can-convert", "--simulation",
                 str(traced_set / "simulation.full.json"),
                 "--out", str(out)]) == 0
    assert sha256(out / "test_00000.canplayback.csv") == (
        "b3b2e00a4cc3e18cb6d58bab8a0c776bdcc0b7d1989b2ca62cff5a1fb97527c3")
    playbacks = sorted(out.glob("*.canplayback.csv"))
    assert len(playbacks) == 20
    every = hashlib.sha256()
    for path in playbacks:
        every.update(path.read_bytes())
    assert every.hexdigest() == (
        "e235827452c0f5f5eef61e36fc6559b2cc5c020c2caffdbe2dffbaaa01ed6ecf")
    frames = tmp_path / "frames.bin"
    assert main(["can-play", "--playback", str(playbacks[0]),
                 "--target", f"file://{frames}", "--pacing", "fast"]) == 0
    assert sha256(frames) == (
        "57717ad7c90b524929c8b8c85da450f2068258db245250a504e5a6b7721e28a9")


def test_extract_features_from_simulation(traced_set, tmp_path):
    out = tmp_path / "features.csv"
    assert main(["extract-features", "--simulation",
                 str(traced_set / "simulation.full.json"),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (traced_set / "features.csv").read_bytes()


def realtime_digest(tmp_path, mode_keys):
    """Digest of the aggregate of one real-time repetition at seed 3 with a
    600 s budget."""
    cfg = tmp_path / "rt.json"
    cfg.write_text(json.dumps({"protocol": "realtime", "budget_s": 600.0,
                               "repetitions": 1, **mode_keys}))
    out = tmp_path / "rt"
    assert main(["experiment", "--config", str(cfg), "--seed", "3",
                 "--out", str(out)]) == 0
    return sha256(out / "aggregate.csv")


def test_realtime_adaptive(tmp_path):
    assert realtime_digest(tmp_path, {"mode": "adaptive", "warmup_n": 8}) == (
        "ebcb389ca9f696098ff8587cd17cb45027253a2ed444ca006d1dde2fe5c8995d")


def test_realtime_baseline(tmp_path):
    assert realtime_digest(tmp_path, {"mode": "baseline"}) == (
        "cc10c93b3c593db74317dd100110daa412bef71c9ae83632b4121570460d3a4e")


def test_realtime_pretrained(data_set_1, tmp_path):
    # a logistic model of data set 1, run at that set's risk factor
    assert main(["benchmark", "--features", str(data_set_1),
                 "--models", "logistic", "--k", "3", "--seed", "1",
                 "--out", str(tmp_path / "bm")]) == 0
    assert realtime_digest(tmp_path, {
        "mode": "pretrained", "rf": 1.5,
        "model": str(tmp_path / "bm" / "best_model.json")}) == (
        "cf6db30b70d6083b4c01b8c497e428af3d5e166ffbebf4564cc943ebd1cf9486")


def selection_digest(traced_set, tmp_path, protocol, strategy, target):
    """Digest of the aggregate of 5 repetitions on a pool of the traced
    set's 8 safe and 7 unsafe tests."""
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "protocol": protocol,
        "dataset": str(traced_set / "simulation.full.json"),
        "pool": {"safe": 8, "unsafe": 7}, "repetitions": 5,
        **strategy, **target}))
    out = tmp_path / protocol
    assert main(["experiment", "--config", str(cfg), "--seed", "11",
                 "--out", str(out)]) == 0
    return sha256(out / "aggregate.csv")


@pytest.mark.parametrize("protocol, target, digest", [
    ("fix", {"S": 6},
     "aa70629a6371e42bebdc1b472fc2ae9e754d59deae1aef2d4f2c3b0313af4a14"),
    ("reach", {"N": 4},
     "8fea5286c65e22520f2c851190479f391c6270a212e855bfc0883ec8ed295fb4"),
    # the filter keeps 7 of the 15 draws in every repetition, so FIX
    # backfills 5 skipped tests
    ("fix", {"S": 12},
     "566d7c03665ce3ee82c53dc7218e7e6a1ba47a0a5002748c27c24108ba5ddbe0"),
], ids=["fix", "reach", "fix_backfill"])
def test_model_strategy(traced_set, tmp_path, protocol, target, digest):
    assert main(["benchmark", "--features", str(traced_set / "features.csv"),
                 "--models", "logistic", "--k", "3", "--seed", "1",
                 "--out", str(tmp_path / "bm")]) == 0
    strategy = {"strategy": "model",
                "model": str(tmp_path / "bm" / "best_model.json")}
    assert selection_digest(traced_set, tmp_path, protocol, strategy,
                            target) == digest


@pytest.mark.parametrize("protocol, strategy, target, digest", [
    ("fix", "random", {"S": 6},
     "9f3ce4cdc7ca980497abec0b400facfb9c042c2ca327f49961710f599183effb"),
    ("fix", "road_length", {"S": 6},
     "356260154bed9f899032da459e8da096f689d68b46e490b733ac55c8b674c9e7"),
    ("reach", "random", {"N": 4},
     "bb8c0471da88c9b1d62bced2df7dd7cfe7a7d69139468106383c13bbda197958"),
    ("reach", "road_length", {"N": 4},
     "cefe11876f84f602deeb1318435979b458570b344bf373aacd84d08b1d9d647c"),
], ids=["fix_random", "fix_road_length", "reach_random", "reach_road_length"])
def test_strategy_without_filter(traced_set, tmp_path, protocol, strategy,
                                 target, digest):
    assert selection_digest(traced_set, tmp_path, protocol,
                            {"strategy": strategy}, target) == digest


# Big-endian signed signals, one of them crossing a byte boundary from an
# odd bit, and an Intel signal sharing a message with one; a mapping with
# negative factors, whose clamp binds at a signal's minimum; a 7 ms period.
# The default DBC is all Intel, so only this set reaches the Motorola bit
# positions.
MOTOROLA_DBC = """\
BO_ 512 MOTION: 8 SIM
 SG_ heading_deg : 7|16@0- (0.01,0) [-327.68|327.67] "deg" DUT
 SG_ reverse_speed : 23|12@0- (0.05,0) [-20|100] "m/s" DUT

BO_ 300 CONTROL: 4 SIM
 SG_ steer_rad : 13|10@0- (0.001,0.1) [-0.4|0.6] "rad" DUT
 SG_ throttle_pct : 0|5@1+ (4,0) [0|100] "%" DUT
"""

MOTOROLA_MAPPING = [
    {"field": "heading", "message": "MOTION", "signal": "heading_deg",
     "factor": 57.29577951308232},
    {"field": "speed", "message": "MOTION", "signal": "reverse_speed",
     "factor": -1.0},
    {"field": "steering", "message": "CONTROL", "signal": "steer_rad",
     "factor": -1.0},
    {"field": "throttle", "message": "CONTROL", "signal": "throttle_pct",
     "factor": 100.0},
]


def test_can_convert_motorola_signed(traced_set, tmp_path):
    dbc = tmp_path / "motorola.dbc"
    dbc.write_text(MOTOROLA_DBC)
    mapping = tmp_path / "mapping.json"
    mapping.write_text(json.dumps(MOTOROLA_MAPPING))
    out = tmp_path / "can"
    assert main(["can-convert", "--simulation",
                 str(traced_set / "simulation.full.json"), "--dbc", str(dbc),
                 "--mapping", str(mapping), "--period-ms", "7",
                 "--out", str(out)]) == 0
    playbacks = sorted(out.glob("*.canplayback.csv"))
    assert len(playbacks) == 20
    every = hashlib.sha256()
    for path in playbacks:
        every.update(path.read_bytes())
    assert every.hexdigest() == (
        "29149f12734bcb29255cf2ed361eec52ee45b8fa001fb174a8e201759930fe32")
