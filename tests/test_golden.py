"""Golden artifacts: the sha256 digests that fixed seeds give today.

Any change to road generation, driving, feature extraction, dataset output
or the decision tree shows up here as a changed digest, so an intended
change must update a digest in the same commit and say why.
"""

import hashlib

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


def test_decision_tree_grid(data_set_1, tmp_path):
    grid = tmp_path / "grid.csv"
    assert main(["grid-search", "--family", "decision_tree",
                 "--features", str(data_set_1), "--k", "10", "--seed", "160",
                 "--out", str(grid)]) == 0
    assert sha256(grid) == (
        "7a322a5122fa855d786c26f1b3a70d25e4c68c0853590cab013880dc1fdaedcc")
