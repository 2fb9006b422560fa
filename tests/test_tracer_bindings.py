"""The benchmark's tracer still finds every entry point it wraps.

perfbench/tracer.py replaces package functions by name for a traced pass;
a rename or a moved import in src/ would make `--trace 1` fail with
MissingEntryPoint, so the bindings are checked here.
"""

from pathlib import Path

import roadsift.ml
import roadsift.oracle
from roadsift.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_resolves_and_restores_entry_points(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    original = roadsift.oracle._simulate
    recorder = tracer.Tracer()         # raises MissingEntryPoint on a gap
    recorder.install()
    try:
        assert main(["generate", "-n", "3", "--seed", "1",
                     "--out", str(tmp_path / "run")]) == 0
    finally:
        recorder.uninstall()

    names = {span[0] for span in recorder.spans}
    assert "oracle.generate_road" in names
    drives = [span[4] for span in recorder.spans if span[0] == "oracle.drive"]
    assert drives and all(tag["steps"] > 0 for tag in drives)
    assert roadsift.oracle._simulate is original


def test_tracer_names_the_families_in_their_order(monkeypatch):
    # the tracer's per-family metric names are fixed in BENCHMARK.json
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    assert roadsift.ml.FAMILIES == tracer.FAMILIES
