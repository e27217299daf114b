"""maskrd benchmark: one workload, timed in-process through ``maskrd.cli.main``.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The workloads are listed in BENCHMARK.json and defined in workloads.py. A
pass is one ``cli.main(argv)`` call writing its CSV into a fresh directory
under .bench_runs/. Passes repeat until --seconds have passed (at least
MIN_PASSES). A pass fails if main returns non-zero or raises, if its CSV
fails the workload's check, or if its payload hash differs from the first
pass of the run.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, with nothing
wrapped. Timed items (passes, and the fresh interpreters started after each
pass, at least SETUP_SAMPLES, to import maskrd and build the CLI parser)
alternate with runs of a fixed reference load (speed.py), and each item's
time is scaled to the reference speed by the reference runs on either side
of it. wall_s and setup_s are the medians of the scaled times; the medians
of the raw times are printed beside them and kept in the record.

--trace 1 alternates untraced and traced passes for --seconds and reports
the per-layer metrics: per-function call counts, self times (median over
traced passes) and exact work counts, plus trace.overhead_s, the median
over pairs of the traced minus the untraced pass time, both scaled to the
reference speed.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. A fuller record (environment, every pass
with its payload hash, set-up samples, and the exact counts and all spans
of a traced run) is written to .bench_runs/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import speed
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

MIN_PASSES = 3
MIN_TRACE_PASSES = 2
SETUP_SAMPLES = 15
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import maskrd.cli
maskrd.cli.build_parser()
print(time.perf_counter() - t0)
"""


def setup_sample() -> float:
    """Import-and-parser time of one fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                         cwd=ROOT, capture_output=True, text=True,
                         check=True, timeout=60)
    return float(out.stdout)


def environment(workload: str, seed: int) -> dict:
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = out.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": commit,
        "workload": workload,
        "seed": seed,
    }


class Runner:
    """Runs passes of one case and keeps per-pass records."""

    def __init__(self, case, work_dir: Path):
        self.case = case
        self.work_dir = work_dir
        self.passes = []
        self._checked = {}  # payload sha256 -> problems found in it

    def run(self, seconds: float, min_passes: int, tr=None, after_pass=None,
            scale=None) -> list:
        from maskrd import cli

        done = []
        deadline = time.perf_counter() + seconds
        while len(done) < min_passes or time.perf_counter() < deadline:
            index = len(self.passes)
            out = self.work_dir / f"pass{index}"
            argv = list(self.case.argv) + ["--out", str(out)]
            record = {"index": index, "traced": tr is not None, "problems": []}
            if tr is not None:
                tr.run = index
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
            except Exception:
                traceback.print_exc()
                code = None
            record["wall_s"] = time.perf_counter() - t0
            if scale is not None:
                record["scaled_s"] = scale.after(record["wall_s"])
            if code != 0:
                record["problems"].append(f"cli.main returned {code}")
            else:
                self._check(out / self.case.csv, record)
            shutil.rmtree(out, ignore_errors=True)
            self.passes.append(record)
            done.append(record)
            if after_pass is not None:
                after_pass()
        return done

    def _check(self, path: Path, record: dict) -> None:
        try:
            sha = checks.payload_stats(path)["sha256"]
        except OSError as exc:
            record["problems"].append(f"no output: {exc}")
            return
        record["sha256"] = sha
        first = next((p["sha256"] for p in self.passes if "sha256" in p), sha)
        if sha != first:
            record["problems"].append("payload differs from the first pass")
        if sha not in self._checked:
            self._checked[sha] = self.case.check(str(path))
        record["problems"].extend(self._checked[sha])


def end_to_end(runner: Runner, case, seconds: float) -> tuple:
    # Set-up samples are taken between passes, so that they spread over the
    # run like the passes do; one untimed warm-up fills the file cache.
    setup_sample()
    scale = speed.SpeedScale()
    setups = []

    def sample_setup():
        raw = setup_sample()
        setups.append({"raw_s": raw, "scaled_s": scale.after(raw)})

    timed = runner.run(seconds, MIN_PASSES, after_pass=sample_setup, scale=scale)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setups) < SETUP_SAMPLES:
        sample_setup()
    wall = statistics.median(p["scaled_s"] for p in timed)
    failed = sum(1 for p in runner.passes if p["problems"])
    raw = {"raw_wall_s": statistics.median(p["wall_s"] for p in timed),
           "raw_setup_s": statistics.median(s["raw_s"] for s in setups),
           "reference_s": statistics.median(scale.refs)}
    return {"setups": setups, "references": scale.refs, "raw_medians": raw}, {
        "wall_s": wall,
        "setup_s": statistics.median(s["scaled_s"] for s in setups),
        "peak_rss_mb": peak_rss,
        "pass_rate": 1 - failed / len(runner.passes),
        "work_per_s": case.work / wall,
    }


def per_layer(runner: Runner, seconds: float, names) -> tuple:
    # Untraced and traced passes alternate, so that each pair sees the same
    # machine speed and their difference is the tracing overhead.
    tr = tracer.Tracer()
    scale = speed.SpeedScale()
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_TRACE_PASSES or time.perf_counter() < deadline:
        untraced += runner.run(0, 1, scale=scale)
        tr.install()
        try:
            traced += runner.run(0, 1, tr, scale=scale)
        finally:
            tr.remove()
    profiles = [tracer.profile([s for s in tr.spans if s["run"] == p["index"]])
                for p in traced]
    counts = tracer.exact_counts(profiles[0])
    for p, prof in zip(traced, profiles):
        if tracer.exact_counts(prof) != counts:
            p["problems"].append("work counts differ from the first traced pass")
    overhead = statistics.median(t["scaled_s"] - u["scaled_s"]
                                 for t, u in zip(traced, untraced))
    values = {name: overhead if name == "trace.overhead_s"
              else tracer.layer_value(profiles, name) for name in names}
    return values, counts, tr.spans


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "maskrd" / "__init__.py").is_file():
        print(f"error: no maskrd sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    case = workloads.WORKLOADS[args.workload](args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    runner = Runner(case, RUNS / "work" / tag)
    spans = timing = counts = None
    try:
        if args.trace:
            listed = spec["per_layer"]
            values, counts, spans = per_layer(runner, args.seconds,
                                              [m["name"] for m in listed])
        else:
            listed = spec["end_to_end"]
            timing, values = end_to_end(runner, case, args.seconds)
    finally:
        shutil.rmtree(runner.work_dir, ignore_errors=True)

    failed = sum(1 for p in runner.passes if p["problems"])
    result = {
        "correct": failed == 0,
        "attempted": len(runner.passes),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }
    env = environment(args.workload, args.seed)
    record = {"env": env, "result": result, "passes": runner.passes,
              "work": {case.work_unit: case.work}, "timing": timing,
              "exact_counts": counts, "spans": spans}
    if not args.trace:
        wall = values["wall_s"]
        record["named_metrics"] = {
            "error_rate": failed / len(runner.passes),
            f"{case.work_unit}_per_s": case.work / wall,
            **timing["raw_medians"],
        }
    results_dir = RUNS / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{tag}.json").write_text(json.dumps(record))

    for p in runner.passes:
        for problem in p["problems"]:
            print(f"pass {p['index']}: {problem}", file=sys.stderr)
    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"work per pass: {case.work} {case.work_unit}")
    for name, value in record.get("named_metrics", {}).items():
        print(f"{name}: {value:.6g}")
    for m in listed:
        print(f"{m['name']}: {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
