"""Benchmark for roadsift: runs one workload of real CLI commands in-process
through `roadsift.cli.main`, checks their outputs and prints its metrics.

    python3 perfbench/run.py --workload label|train|select --seed N \
        --seconds S --trace 0|1

One closed-loop client: each command starts after the previous one ends.
With --trace 0 the last stdout line is a JSON object holding the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of the traced passes.
The lines before it print every metric by name and unit, the output digests
and any failed check. Run records and spans go to .perfbench/runs/.
METRICS.md describes each metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
# A shared host swings in speed by tens of percent over seconds to minutes.
# A fixed probe, timed after every command, samples that speed; each pass's
# times are scaled to the speed at which one probe takes PROBE_REF_S.
PROBE_REF_S = 0.004
PROBES_PER_COMMAND = 4          # plus PROBES_PER_S per second of command time
PROBES_PER_S = 4


def _probe_s(numpy) -> float:
    """Wall time of a fixed job of Python arithmetic and small numpy array
    operations that shares no code with roadsift."""
    start = perf_counter()
    x = 0.0
    for i in range(30000):
        x += math.sin(i * 0.001)
    a = numpy.arange(2000.0)
    for _ in range(75):
        a = numpy.sqrt(a * a + 1.0)
    return perf_counter() - start


def _git_sha() -> str | None:
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


class Runner:
    """Runs CLI commands, checks and digests their outputs, counts operations,
    and samples the machine-speed probe after each command."""

    def __init__(self, cli, tracer, probe):
        self.cli = cli
        self.tracer = tracer
        self.probe = probe
        self.probes: list[float] = []
        self.traced = False
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.log: list[dict] = []

    def sample(self, n: int) -> None:
        self.probes += [self.probe() for _ in range(n)]

    def __call__(self, cmd) -> tuple[int, float]:
        """Run one command; returns its exit code and wall seconds."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            span = self.tracer.open(f"cli.{cmd.argv[0]}") if self.traced else None
            start = perf_counter()
            try:
                code = self.cli.main(cmd.argv)
            finally:
                elapsed = perf_counter() - start
                if span is not None:
                    self.tracer.close(span)
        self.sample(PROBES_PER_COMMAND + int(PROBES_PER_S * elapsed))
        self.log.append({"key": cmd.key, "argv": cmd.argv, "exit": code,
                         "seconds": elapsed, "stdout": out.getvalue(),
                         "stderr": err.getvalue()})
        return code, elapsed

    def verify(self, cmd, code: int, scope: str) -> None:
        """Exit code, output checks and digest agreement for one command;
        digests must agree between invocations with one scope and key."""
        problems = [] if code == 0 else [f"exit code {code}"]
        if code == 0:
            try:
                problems += cmd.check()
            except Exception:             # a check that cannot read its output
                problems.append(traceback.format_exc(limit=2))
            for path in cmd.digests:
                key = f"{scope}/{cmd.key}:{path.name}"
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                if self.digests.setdefault(key, digest) != digest:
                    problems.append(f"{key}: digest {digest} differs from "
                                    f"{self.digests[key]}")
        if problems:
            self.failures.append(f"{cmd.key}: " + "; ".join(problems))


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    start = perf_counter()
    from roadsift import cli
    import_s = perf_counter() - start
    import numpy
    import scipy
    from tracer import MissingEntryPoint, Tracer, layer_metrics, unit_of
    from workloads import WORKLOADS

    try:
        tracer = Tracer() if trace else None   # resolves every entry point
    except MissingEntryPoint as exc:
        raise SystemExit(f"error: {exc}")
    runner = Runner(cli, tracer, lambda: _probe_s(numpy))
    workload = WORKLOADS[workload_name](seed)
    runs_dir = ROOT / ".perfbench" / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{workload_name}-seed{seed}-trace{int(trace)}"
    work = ROOT / ".perfbench" / f"work-{tag}-{os.getpid()}"

    def run_checked(cmd):
        runner.verify(cmd, runner(cmd)[0], "setup")

    passes = []   # (set, traced, stage1_s, stage2_s, probe mean), times as measured
    try:
        builds = []
        for i in range(SETUP_REPEATS):
            setup_dir = work / f"setup{i}"
            setup_dir.mkdir(parents=True)
            start = perf_counter()
            workload.setup(run_checked, setup_dir)
            builds.append(perf_counter() - start)
            runner.sample(PROBES_PER_COMMAND)
        setup_probe = statistics.fmean(runner.probes)

        # round-robin over input sets; a traced run pairs an untraced and a
        # traced pass on each set, so the tracing overhead can be read off
        per_set = 2 if trace else 1
        min_passes = 2 if trace else workload.sets
        start = perf_counter()
        i = 0
        # stop before a pass that would, at the mean pass time, end late
        while (i < min_passes or i % per_set
               or (perf_counter() - start) * (i + 1) / i <= seconds):
            set_index = (i // per_set) % workload.sets
            traced = trace and i % 2 == 1
            out = work / f"pass{i}"
            out.mkdir(parents=True)
            cmds = workload.commands(set_index, out)
            first_probe = len(runner.probes)
            runner.traced = traced
            if traced:
                tracer.install()
            try:
                results = [(cmd, *runner(cmd)) for cmd in cmds]
            finally:
                if traced:
                    tracer.uninstall()
                runner.traced = False
            stage = {1: 0.0, 2: 0.0}
            for cmd, code, elapsed in results:
                stage[cmd.stage] += elapsed
                runner.verify(cmd, code, f"set{set_index}")
            shutil.rmtree(out)
            passes.append((set_index, traced, stage[1], stage[2],
                           statistics.fmean(runner.probes[first_probe:])))
            i += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def by_set(stage, traced, scaled=True):
        """Median over the passes of each input set, mean over the sets."""
        sets = {}
        for p in passes:
            if p[1] == traced:
                speed = PROBE_REF_S / p[4] if scaled else 1.0
                sets.setdefault(p[0], []).append(p[1 + stage] * speed)
        return statistics.fmean(statistics.median(v) for v in sets.values())

    wall = {"setup_s": import_s + statistics.median(builds),
            "stage1_s": by_set(1, False, False), "stage2_s": by_set(2, False, False)}
    if trace:
        traced_passes = sum(1 for p in passes if p[1])
        metrics = layer_metrics(tracer.spans, traced_passes)
        metrics["trace.overhead_s"] = (by_set(1, True, False) + by_set(2, True, False)
                                       - wall["stage1_s"] - wall["stage2_s"])
        metrics["trace.spans"] = len(tracer.spans) / traced_passes
        (runs_dir / f"{tag}-spans.json").write_text(json.dumps(
            {"fields": ["name", "parent", "start", "end", "tags"],
             "spans": tracer.spans}))
    else:
        metrics = {"setup_s": wall["setup_s"] * PROBE_REF_S / setup_probe,
                   "stage1_s": by_set(1, False), "stage2_s": by_set(2, False),
                   "peak_rss_mb":
                       resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    units = {k: unit_of(k) for k in metrics}

    failed = len(runner.failures)
    derived = {} if trace else workload.derived(metrics["stage1_s"],
                                                metrics["stage2_s"])
    derived["ops_failed_ratio"] = (failed / runner.attempted, "1")
    record = {
        "workload": workload_name, "seed": seed, "seconds": seconds,
        "trace": trace, "git_sha": _git_sha(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_pins": {v: os.environ[v] for v in THREAD_VARS},
        "import_s": import_s, "setup_build_s": builds, "wall": wall,
        "passes": [dict(zip(("set", "traced", "stage1_s", "stage2_s", "probe_s"), p))
                   for p in passes],
        "probes": runner.probes,
        "metrics": metrics, "derived": {k: v[0] for k, v in derived.items()},
        "digests": runner.digests, "failures": runner.failures,
        "commands": runner.log,
    }
    (runs_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    for key, digest in sorted(runner.digests.items()):
        print(f"digest {key} {digest}")
    for problem in runner.failures:
        print(f"FAILED {problem}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    for name, value in wall.items():
        print(f"wall.{name} {value:.6g} s")
    print(f"probe_mean_s {statistics.fmean(runner.probes):.6g} s")
    for name, (value, unit) in derived.items():
        print(f"{name} {value:.6g} {unit}")
    return {"correct": failed == 0, "attempted": runner.attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("label", "train", "select"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "roadsift" / "cli.py").is_file():
        print(f"error: no roadsift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # pin the BLAS / OpenMP pools before numpy loads
    for var in THREAD_VARS:
        os.environ[var] = "1"
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
