"""Self-checks of the benchmark itself; takes about a minute.

    python3 perfbench/selfcheck.py

Checks that
  1. the input generator is deterministic per seed and differs between seeds;
  2. operation counts repeat exactly across two traced passes of each workload;
  3. an op that raises is counted as failed and its pass goes on;
  4. the output checks flag a wrong answer on each workload;
  5. BENCHMARK.json names exactly the metrics run.py reports, with the same units.
Prints one line per check and exits 0 only when all hold.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

# ROADMAP item 2's corner: exact_sop_far raises RuntimeError (error 1e-9 after 2048 nodes).
RAISING_CONFIG = {"lambda1": 8.5e-5, "lambda2": 1e-6, "rho_t": 2.05e9, "rth1": 4.0, "rth2": 4.0}


def check_determinism() -> str:
    for workload in inputs.WORKLOADS:
        first, again = inputs.generate(workload, 7), inputs.generate(workload, 7)
        if first != again:
            return f"{workload}: seed 7 gave two different inputs"
        if first == inputs.generate(workload, 8):
            return f"{workload}: seeds 7 and 8 gave the same inputs"
    return ""


def check_traced_counts(traced_runs: dict) -> str:
    for workload, passes in traced_runs.items():
        counts = [spans.span_counts(p["spans"]) for p in passes]
        if counts[0] != counts[1]:
            return f"{workload}: span counts differ between two traced passes"
        if not counts[0]:
            return f"{workload}: a traced pass recorded no spans"
    return ""


def check_raising_op(checks) -> str:
    spec = inputs.generate("fair-split", 1)
    spec.update(configs=[RAISING_CONFIG, spec["configs"][0]], ops_per_pass=2)
    with run.work_directory(spec) as workdir:
        outputs = run.run_pass(spec, workdir, 0, False)["outputs"]
    if not outputs[0].get("error", "").startswith("RuntimeError"):
        return f"the corner config did not raise RuntimeError: {outputs[0]}"
    verdicts, problems = checks.check_run(spec, [outputs])
    if verdicts != [[False, True]] or problems:
        return f"a raising op was not counted as one failed op: {verdicts} {problems}"
    return ""


def _flip_exit_code(output: dict) -> None:
    output["exit_code"] = 0 if output["exit_code"] else 1


def _raise_objective(output: dict) -> None:
    output["objective"] *= 1.01


def _shift_curve_point(output: dict) -> None:
    output["near"] = [output["near"][0] + 1e-8] + output["near"][1:]


CORRUPTIONS = {"validate-mc": _flip_exit_code, "fair-split": _raise_objective, "sop-curves": _shift_curve_point}


def check_wrong_answers(checks, traced_runs: dict, specs: dict) -> str:
    missed = []
    for workload, corrupt in CORRUPTIONS.items():
        outputs = traced_runs[workload][0]["outputs"]
        index = next(i for i, output in enumerate(outputs) if "error" not in output)
        spec = dict(specs[workload])
        if "configs" in spec:
            spec["configs"] = [spec["configs"][index]]
        output = dict(outputs[index])
        corrupt(output)
        verdicts, problems = checks.check_run(spec, [[output]])
        if not problems and all(verdicts[0]):
            missed.append(workload)
    return f"a wrong answer passed the checks on {missed}" if missed else ""


def check_manifest(traced_runs: dict) -> str:
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    if end_to_end != run.END_TO_END_UNITS:
        return f"end_to_end in BENCHMARK.json {end_to_end} != run.py {run.END_TO_END_UNITS}"
    passes = traced_runs["fair-split"]
    layers = run.per_layer(passes, passes, [])
    reported = {name: spans.unit_of(name) for name in layers}
    listed = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    if listed != reported:
        return f"per_layer differs: only listed {set(listed) - set(reported)}, only reported " \
               f"{set(reported) - set(listed)}, units {[n for n in listed if listed[n] != reported.get(n)]}"
    return ""


def main() -> int:
    checks = run.load_checks()
    specs, traced_runs = {}, {}
    for workload in inputs.WORKLOADS:
        spec = inputs.generate(workload, 2)
        with run.work_directory(spec) as workdir:
            traced_runs[workload] = [run.run_pass(spec, workdir, i, True) for i in (1, 2)]
        specs[workload] = spec
    results = {
        "inputs are deterministic per seed": check_determinism(),
        "operation counts repeat across traced passes": check_traced_counts(traced_runs),
        "a raising op is counted, not fatal": check_raising_op(checks),
        "the checks flag wrong answers": check_wrong_answers(checks, traced_runs, specs),
        "BENCHMARK.json matches the reported metrics": check_manifest(traced_runs),
    }
    for name, problem in results.items():
        print(f"{'FAIL' if problem else 'ok  '} {name}{': ' + problem if problem else ''}")
    return 1 if any(results.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
