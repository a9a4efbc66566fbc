"""nestseg benchmark: one workload, measured end to end through the CLI.

    python3 perfbench/run.py --workload gnm-1m --seed 1 --seconds 30 --trace 0

Generates GRAPHS seeded edge lists for the workload (untimed), then
calls `nestseg.cli.main(argv)` on them in turn in fresh child
interpreters, one after another (closed loop, one client), until
--seconds have passed and at least MIN_SAMPLES calls are done.
check.py verifies every distinct output.  With --trace 0 the
end-to-end metrics are printed; with
--trace 1 untraced and traced calls alternate and the per-layer metrics
are printed.  The last stdout line is the JSON result.  Every sample,
the input and output hashes, the machine and the times of a fixed
calibration loop go to
.perfbench/results/<workload>-seed<seed>-trace<trace>.json.

On a shared host the CPU speed can drift by ~50% within minutes, far
more than a change should be allowed to move the result.  So the
calibration loop is timed before the first child and after every child,
and each child's import, wall and CPU times are reported in reference
seconds: scaled by REF_CALIBRATION_S over the loop's mean time around
the child (`setup_s`, `wall_ref_s`, `cpu_ref_s`; the raw times are kept
beside them).  The loop is benchmark code, so a change to the program
moves these exactly as it moves the raw times.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

import check
import gen
import spans

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
NPROC = len(os.sched_getaffinity(0))
SETUP_RUNS = 6        # import-only children per run, on top of one per call
IMPORTS_PER_ROUND = 2  # of them after each round of calls
MIN_SAMPLES = 3       # measured calls per run (trace: untraced/traced pairs, 1)
GRAPHS = 3            # seeded graphs per run; calls cycle through them
START_LIMIT_S = 130.0  # start no call expected to end after this
KILL_LIMIT_S = 150.0   # kill a call still running at this point; the output
                       # checks (up to ~15 s) still end by 180 s

CALIBRATION_LOOPS = 3   # loops timed on each side of a call; their median counts
REF_CALIBRATION_S = 0.06  # about the loop's time on a quiet host: one reference second

END_TO_END = {"wall_ref_s": "s", "cpu_ref_s": "s", "peak_rss_mib": "MiB",
              "setup_s": "s"}


@dataclasses.dataclass(frozen=True)
class Workload:
    """A seeded G(n, m) input and the CLI command run on it.

    A `run` workload has k and scheme; a `compare` workload sweeps k to
    k_max over every scheme.
    """
    n: int
    m: int
    weighted: bool
    stream: int
    k: int
    scheme: str = ""
    k_max: int = 0

    def argv(self, input_path: str, output_path: str) -> list[str]:
        if self.k_max:
            return ["compare", "--input", input_path, "--k-min", str(self.k),
                    "--k-max", str(self.k_max), "--output", output_path]
        return ["run", "--input", input_path, "-k", str(self.k),
                "--scheme", self.scheme, "--output", output_path]

    def check(self, report: dict, g: check.Graph) -> None:
        if self.k_max:
            check.check_compare(report, g, list(range(self.k, self.k_max + 1)))
        else:
            check.check_run(report, g, self.k, self.scheme)


# Why each workload exists is in perfbench/README.md and BENCHMARK.json.
WORKLOADS = {
    "gnm-1m": Workload(n=100_000, m=1_000_000, weighted=False, stream=1,
                       k=5, scheme="sum"),
    "dp-sparse": Workload(n=20_000, m=30_000, weighted=False, stream=2,
                          k=16, scheme="min"),
    "compare-sweep": Workload(n=3_000, m=12_000, weighted=True, stream=3,
                              k=2, k_max=10),
}


@dataclasses.dataclass
class Sample:
    mode: str
    graph: int
    result: dict | None   # the child's JSON, None if it printed none
    error: str = ""
    output: Path | None = None
    output_sha256: str = ""
    calibration_s: float = 0.0  # mean calibration time before and after the call


def spawn(mode: str, argv: list[str], timeout: float, graph: int = 0) -> Sample:
    """Run perfbench/child.py in a fresh interpreter and wait for it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(NPROC)
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), mode, "--", *argv]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return Sample(mode, graph, None, f"timed out after {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return Sample(mode, graph, None,
                      f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
    result = json.loads(lines[-1])
    if not Path(result["module"]).resolve().is_relative_to(ROOT / "src"):
        return Sample(mode, graph, None, f"imported nestseg from {result['module']}")
    if result.get("rc", 0) != 0:
        return Sample(mode, graph, result,
                      f"main returned {result['rc']}: {proc.stderr.strip()[-400:]}")
    return Sample(mode, graph, result)


def calibrate() -> float:
    """Median time of CALIBRATION_LOOPS runs of a fixed CPU-bound loop."""
    return statistics.median(calibration_loop() for _ in range(CALIBRATION_LOOPS))


def calibration_loop() -> float:
    """Time a fixed CPU-bound loop in this process.

    Interpreted integer arithmetic, then numpy operations on small
    arrays: the kinds of work the workloads' hot loops do.  Large-array
    work is left out, since the host slows it differently.
    """
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    a = np.arange(1.0, 4001.0)
    b = a[::-1].copy()
    for j in range(2500):
        n = 4000 - j % 2000
        int(np.argmin(b[:n] + a[:n] * a[:n] / b[:n]))
    return time.perf_counter() - start


def measure(wl: Workload, inputs: list[Path], tmp: Path, seconds: float,
            trace: bool, started: float) -> tuple[list[Sample], list[Sample], list[float]]:
    """Closed loop of CLI calls; returns the calls, the import-only
    children and the calibration times.

    Round r calls the CLI on inputs[r % len(inputs)], so the medians span
    several graphs of the workload and not one graph's quirks.  Without
    trace, the SETUP_RUNS import-only children are spread over the run,
    IMPORTS_PER_ROUND after each round, so that one slow stretch of the
    host does not hold all of them.  The calibration loop is timed before
    the first child and after every child, so each child, call or
    import-only, sits between two calibrations.
    """
    spawn("import", [], START_LIMIT_S)  # untimed: writes the bytecode cache
    calibration = [calibrate()]

    def timed(mode: str, argv: list[str], timeout: float, graph: int = 0) -> Sample:
        s = spawn(mode, argv, timeout, graph)
        calibration.append(calibrate())
        s.calibration_s = (calibration[-2] + calibration[-1]) / 2
        return s

    def import_only() -> Sample:
        s = timed("import", [], START_LIMIT_S)
        if s.result is None:
            raise RuntimeError(f"importing nestseg.cli failed: {s.error}")
        return s

    imports: list[Sample] = []
    pending = 0 if trace else SETUP_RUNS
    modes = ["run", "trace"] if trace else ["run"]
    samples: list[Sample] = []
    begin = time.perf_counter()
    while True:
        graph = len(samples) // len(modes) % len(inputs)
        for mode in modes:
            out = tmp / f"out{len(samples)}.json"
            left = KILL_LIMIT_S - (time.perf_counter() - started)
            s = timed(mode, wl.argv(str(inputs[graph]), str(out)), left, graph)
            s.output = out
            samples.append(s)
        for _ in range(min(pending, IMPORTS_PER_ROUND)):
            imports.append(import_only())
            pending -= 1
        rounds = len(samples) // len(modes)
        spent = time.perf_counter() - begin
        per_round = spent / rounds
        if rounds >= (1 if trace else MIN_SAMPLES) and spent + per_round > seconds:
            break
        if time.perf_counter() - started + per_round > START_LIMIT_S:
            break
    imports.extend(import_only() for _ in range(pending))
    return samples, imports, calibration


def check_outputs(wl: Workload, edges: list[gen.EdgeList],
                  samples: list[Sample]) -> dict:
    """Check each distinct output once; mark the samples whose output fails."""
    verdicts: dict[str, str] = {}   # "<graph>:<output sha256>" -> verdict
    graphs: dict[int, check.Graph] = {}
    for s in samples:
        if s.error:
            continue
        if not s.output.is_file():
            s.error = "no output file written"
            continue
        data = s.output.read_bytes()
        s.output_sha256 = gen.sha256(data)
        key = f"{s.graph}:{s.output_sha256}"
        if key not in verdicts:
            if s.graph not in graphs:
                graphs[s.graph] = check.load(edges[s.graph])
            try:
                wl.check(json.loads(data), graphs[s.graph])
                verdicts[key] = "ok"
            except Exception as exc:  # any malformed report is a failed call
                verdicts[key] = f"{type(exc).__name__}: {exc}"[:600]
        if verdicts[key] != "ok":
            s.error = "output check failed: " + verdicts[key]
    return verdicts


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"value": statistics.median(values), "n": len(values), "q1": q1, "q3": q3}


def end_to_end(samples: list[Sample], imports: list[Sample]) -> dict:
    """The END_TO_END metrics, then the raw times beside them.

    Times in reference seconds are the raw times scaled by
    REF_CALIBRATION_S over the calibration around their child.
    `setup_s` counts the import of every child that imported: the
    import-only ones and every measured call.
    """
    calls = [s for s in samples if not s.error] or \
            [s for s in samples if s.result is not None]
    importers = imports + [s for s in samples if s.result is not None]

    def ref(of: list[Sample], name: str) -> list[float]:
        return [s.result[name] * REF_CALIBRATION_S / s.calibration_s for s in of]

    values = {
        "wall_ref_s": ref(calls, "wall_s"),
        "cpu_ref_s": ref(calls, "cpu_s"),
        "peak_rss_mib": [s.result["peak_rss_mib"] for s in calls],
        "setup_s": ref(importers, "import_s"),
        "wall_s": [s.result["wall_s"] for s in calls],
        "cpu_s": [s.result["cpu_s"] for s in calls],
        "import_s": [s.result["import_s"] for s in importers],
    }
    units = dict(END_TO_END, wall_s="s", cpu_s="s", import_s="s")
    return {name: dict(summary(values[name]), unit=unit) for name, unit in units.items()}


def per_layer(samples: list[Sample]) -> dict:
    traced = [s.result for s in samples if s.mode == "trace" and not s.error] or \
             [s.result for s in samples if s.mode == "trace" and s.result is not None]
    plain = [s.result["wall_s"] for s in samples
             if s.mode == "run" and s.result is not None]
    rows = [spans.layer_metrics(r["spans"], r["counts"]) for r in traced]
    untraced = statistics.median(plain or [r["wall_s"] for r in traced])
    for r, row in zip(traced, rows):
        row["trace.traced_wall_s"] = r["wall_s"]
        row["trace.untraced_wall_s"] = untraced
        row["trace.coverage"] = spans.stage_time(r["spans"]) / untraced
        row["trace.overhead"] = r["wall_s"] / untraced - 1.0
    return {name: dict(summary([row[name] for row in rows]), unit=unit)
            for name, unit in spans.LAYER_METRICS.items()}


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    tree = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {"nproc": NPROC, "cpu_model": cpu, "platform": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas_thread_cap": NPROC,
            "git_commit": git_commit(), "src_sha256": tree.hexdigest()}


def git_commit() -> str | None:
    """HEAD of the checkout if it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not (ROOT / "src" / "nestseg" / "cli.py").is_file():
        print(f"error: no nestseg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        edges, inputs, input_info = [], [], []
        for i in range(GRAPHS):
            edges.append(gen.gnm(wl.n, wl.m, wl.weighted, (args.seed, wl.stream, i)))
            data = edges[-1].to_bytes()
            inputs.append(Path(tmp) / f"{args.workload}-seed{args.seed}-{i}.txt")
            inputs[-1].write_bytes(data)
            input_info.append({"file": inputs[-1].name, "bytes": len(data),
                               "sha256": gen.sha256(data), "n": wl.n, "m": wl.m})
        del data
        samples, imports, calibration = measure(wl, inputs, Path(tmp), args.seconds,
                                   bool(args.trace), started)
        verdicts = check_outputs(wl, edges, samples)

    wanted = "trace" if args.trace else "run"
    if not any(s.result for s in samples if s.mode == wanted):
        print(f"error: no CLI call completed: {samples[-1].error}", file=sys.stderr)
        return 1
    metrics = per_layer(samples) if args.trace else end_to_end(samples, imports)
    reported = spans.LAYER_METRICS if args.trace else END_TO_END
    failed = sum(1 for s in samples if s.error)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(),
        "inputs": input_info, "argv": wl.argv("<input>", "<output>"),
        "attempted": len(samples), "failed": failed,
        "error_rate": failed / len(samples), "outputs": verdicts,
        "import_samples": [{"import_s": s.result["import_s"],
                            "calibration_s": s.calibration_s} for s in imports],
        "calibration_s": calibration,
        "metrics": metrics,
        "samples": [{"mode": s.mode, "graph": s.graph, "error": s.error,
                     "output_sha256": s.output_sha256,
                     "calibration_s": s.calibration_s,
                     **{k: v for k, v in (s.result or {}).items()
                        if k not in ("spans", "counts")}} for s in samples],
    }
    if args.trace:
        record["spans"] = [s.result["spans"] for s in samples
                           if s.mode == "trace" and s.result is not None]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORK / "results" / name).write_text(json.dumps(record, indent=1) + "\n")

    for s in samples:
        if s.error:
            print(f"FAILED {s.mode}: {s.error}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"calls={len(samples)} error_rate={failed}/{len(samples)}="
          f"{failed / len(samples):.3f} calibration_s="
          f"{statistics.median(calibration):.4f} inputs_sha256="
          f"{','.join(i['sha256'][:12] for i in input_info)}")
    for metric, v in metrics.items():
        print(f"{metric:32s} {v['value']:14.6g} {v['unit']:6s} "
              f"n={v['n']} q1={v['q1']:.6g} q3={v['q3']:.6g}")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(samples), "failed": failed,
        "metrics": {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]}
                    for k in reported}}))
    return 0


if __name__ == "__main__":
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the running child before this process ends
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
