"""Cold-process benchmark of the noma_secrecy package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each pass is a fresh ``python3 -I``
interpreter that imports the package from ``src`` and runs the workload's
ops once, with every cache cold, as a CLI invocation does. After a warm-up
import, a run makes a fixed number of passes, planned from S and the
workload's nominal pass time, so a given seed and S always give the same
ops, and so the same ``attempted`` and ``failed``; the passes take about S
seconds on the reference box. Outputs are checked afterwards, in this process. The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the per-layer ones,
which come from passes whose package calls are wrapped in spans).
A record of the run, with its context, is written under perfbench/results/.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))
import inputs  # noqa: E402
import spans  # noqa: E402

MIN_PASSES = 4          # measured passes in a run, at the least (two of each kind when tracing)
# Wall time of one pass, child start-up included, on the reference box (see
# README.md). The pass count is planned from it, never from the clock.
NOMINAL_PASS_S = {"validate-mc": 2.2, "fair-split": 3.0, "sop-curves": 8.5}
LAST_START_S = 100.0    # start no pass after this, so a run on a slow box still ends inside 180 s
PASS_TIMEOUT_S = 45.0
P90_MIN_OPS = 100       # below this a p90 has fewer than ten ops beyond it

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_ms_p50": "ms", "peak_rss_mb": "MB"}
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class PassFailed(RuntimeError):
    """A child interpreter crashed or timed out; the run cannot be measured."""


def run_pass(spec: dict, workdir: Path, index: int, traced: bool) -> dict:
    spec = dict(spec, trace=traced, spans_path=str(RESULTS / f"{spec['workload']}-pass{index}.spans.json"))
    spec_path, result_path = workdir / "spec.json", workdir / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    if "out_path" in spec:
        Path(spec["out_path"]).unlink(missing_ok=True)
    command = [sys.executable, "-I", str(HERE / "child.py"), str(spec_path), str(result_path)]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass {index} did not finish in {PASS_TIMEOUT_S:g} s") from exc
    if proc.returncode != 0 or not result_path.exists():
        raise PassFailed(f"pass {index} exited {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["traced"] = traced
    if traced:
        result["spans"] = json.loads(Path(spec["spans_path"]).read_text(encoding="utf-8"))
    return result


@contextlib.contextmanager
def work_directory(spec: dict):
    """A working directory for one run's spec, config and CLI output, removed afterwards."""
    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        if spec["workload"] == "validate-mc":
            config_path = workdir / "validate.cfg"
            config_path.write_text(spec["config_text"], encoding="utf-8")
            spec.update(config_path=str(config_path), out_path=str(workdir / "validate.csv"))
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def load_checks():
    """The output checks, which import the package (from src) and scipy into this process."""
    sys.path.insert(0, str(SRC))
    import checks

    return checks


def planned_passes(workload: str, seconds: float) -> int:
    """Measured passes in a run: about `seconds` of passes on the reference box."""
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))


def warm_up() -> None:
    """Import the package once, untimed, in a throw-away interpreter.

    This brings the interpreter and numpy files into the OS page cache and
    writes the package's bytecode, which a user pays once, not per invocation.
    """
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import noma_secrecy.cli"
    proc = subprocess.run([sys.executable, "-I", "-c", code], cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise PassFailed(f"warm-up import exited {proc.returncode}:\n{proc.stderr.strip()}")


def run_passes(spec: dict, workdir: Path, seconds: float, trace: bool) -> tuple:
    """(measured passes, whether the run was cut short); --trace 1 alternates plain and traced passes."""
    start = time.monotonic()
    warm_up()
    done = []
    for index in range(1, planned_passes(spec["workload"], seconds) + 1):
        if time.monotonic() - start >= LAST_START_S:
            return done, True
        done.append(run_pass(spec, workdir, index, trace and index % 2 == 0))
    return done, False


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "noma_secrecy").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def run_context(spec: dict, args, passes: list) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    why = None
    manifest = ROOT / "BENCHMARK.json"
    if manifest.exists():
        reasons = {w["name"]: w["why"] for w in json.loads(manifest.read_text(encoding="utf-8"))["workloads"]}
        why = reasons.get(args.workload)
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "seed": args.seed,
        "seconds": args.seconds,
        "passes": len(passes),
        "planned_passes": planned_passes(args.workload, args.seconds),
        "ops_per_pass": spec["ops_per_pass"],
        "ops_per_run": spec["ops_per_pass"] * len(passes),
        "samples_per_point": spec.get("samples_per_point"),
        "workload_why": why,
    }


def end_to_end(plain: list, failed: int, attempted: int) -> dict:
    op_ms = [ns / 1e6 for p in plain for ns in p["op_ns"]]
    return {
        "setup_s": statistics.median(p["setup_ns"] / 1e9 for p in plain),
        "wall_s": statistics.median(p["wall_ns"] / 1e9 for p in plain),
        "op_ms_p50": spans.percentile(op_ms, 50),
        "op_ms_p90": spans.percentile(op_ms, 90) if len(op_ms) >= P90_MIN_OPS else None,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "fail_ratio": failed / attempted,
    }


def per_layer(plain: list, traced: list, problems: list) -> dict:
    per_pass = [spans.pass_metrics(p["spans"], p["op_ns"], p["wall_ns"]) for p in traced]
    counts = [spans.span_counts(p["spans"]) for p in traced]
    if any(c != counts[0] for c in counts):
        problems.append("operation counts differ between traced passes of the same inputs")
    metrics = spans.combine_passes(per_pass)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(p["wall_ns"] / 1e9 for p in plain)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so a running pass's child is killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "noma_secrecy" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'noma_secrecy'}; run from a full checkout",
              file=sys.stderr)
        return 2

    spec = inputs.generate(args.workload, args.seed)
    try:
        with work_directory(spec) as workdir:
            passes, cut_short = run_passes(spec, workdir, args.seconds, bool(args.trace))
    except PassFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if cut_short:
        print(f"perfbench: cut short after {len(passes)} of {planned_passes(args.workload, args.seconds)} "
              f"passes, at {LAST_START_S:g} s", file=sys.stderr)
    if args.trace and not any(p["traced"] for p in passes):
        print(f"perfbench: no traced pass started within {LAST_START_S:g} s", file=sys.stderr)
        return 1

    verdicts, problems = load_checks().check_run(spec, [p["outputs"] for p in passes])
    attempted = sum(len(v) for v in verdicts)
    failed = sum(1 for v in verdicts for ok in v if not ok)
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    summary = end_to_end(plain, failed, attempted)
    layers = per_layer(plain, traced, problems) if traced else {}
    failed_ops = [i for i, ok in enumerate(verdicts[0]) if not ok]

    title = f"perfbench {args.workload} seed={args.seed} trace={args.trace}"
    print(f"{title}: {len(passes)} measured passes ({len(traced)} traced), "
          f"{attempted} ops, {failed} failed")
    units = dict(END_TO_END_UNITS, op_ms_p90="ms", fail_ratio="ratio")
    for name, value in summary.items():
        shown = f"n/a (fewer than {P90_MIN_OPS} ops)" if value is None else f"{value:.6g} {units[name]}"
        print(f"  {name:<44} {shown}")
    for name, value in layers.items():
        print(f"  {name:<44} {value:.6g} {spans.unit_of(name)}")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    if failed_ops:
        print(f"  failed ops (index within a pass): {failed_ops}")

    if args.trace:
        metrics = {name: {"value": value, "unit": spans.unit_of(name)} for name, value in layers.items()}
    else:
        metrics = {name: {"value": summary[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload,
        "context": run_context(spec, args, passes),
        "end_to_end": summary,
        "per_layer": layers,
        "problems": problems,
        "failed_ops": failed_ops,
        "passes": [
            {"traced": p["traced"], "setup_s": p["setup_ns"] / 1e9, "wall_s": p["wall_ns"] / 1e9,
             "cpu_s": p["cpu_ns"] / 1e9, "ops": len(p["op_ns"]), "peak_rss_mb": p["peak_rss_mb"]}
            for p in passes
        ],
        "result": result,
    }
    record_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"  record: {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
