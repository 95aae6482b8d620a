"""One benchmark pass in a fresh interpreter.

    python3 -I perfbench/child.py SPEC.json RESULT.json

Times the import of the package from the checkout's ``src`` (the set-up a
CLI user pays on every invocation), then runs the workload's ops once each
with the caches cold, and writes per-op latencies, outputs and peak memory
to RESULT.json. Output checks are not done here: they run in the parent,
outside every timed region. With ``"trace": true`` in the spec, the public
calls of each package layer are wrapped first and the spans written to the
spec's ``spans_path``.
"""
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _peak_rss_mb() -> float:
    # VmHWM is the high-water mark of this process image; ru_maxrss can carry
    # the spawning parent's peak over the exec.
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _validate_ops(spec):
    from noma_secrecy import cli

    argv = ["validate", "--config", spec["config_path"], "--out", spec["out_path"]]
    # cli.main is looked up at call time, so a traced pass times the wrapper.
    return [lambda: cli.main(argv)], lambda index, exit_code: {"exit_code": exit_code}


def _stats_and_targets(config):
    from noma_secrecy.channel import ChannelStats
    from noma_secrecy.sop import TargetRates

    stats = ChannelStats(config["lambda1"], config["lambda2"], config["rho_t"])
    return stats, TargetRates(config["rth1"], config["rth2"])


def _fair_split_ops(spec):
    from noma_secrecy import optimize

    def solve(stats, targets):
        return lambda: optimize.minmax_pa(stats, targets)

    def describe(index, outcome):
        return {"selected": outcome.selected, "objective": outcome.objective}

    return [solve(*_stats_and_targets(c)) for c in spec["configs"]], describe


def _sop_curve_ops(spec):
    import hashlib

    import numpy as np
    from noma_secrecy import sop
    from noma_secrecy.rates import ALPHA_MAX, ALPHA_MIN

    grid = np.linspace(ALPHA_MIN, ALPHA_MAX, spec["curve_points"])

    def curves(stats, targets):
        return lambda: (sop.exact_sop_near(stats, grid, targets), sop.exact_sop_far(stats, grid, targets))

    ops = [curves(*_stats_and_targets(c)) for c in spec["configs"]]

    def describe(index, pair):
        near, far = pair
        indices = spec["configs"][index]["check_indices"]
        return {
            "alpha": [float(grid[i]) for i in indices],
            "near": [float(near.value[i]) for i in indices],
            "far": [float(far.value[i]) for i in indices],
            "quad_error": float(max(near.quad_error.max(), far.quad_error.max())),
            "digest": hashlib.sha256(near.value.tobytes() + far.value.tobytes()).hexdigest(),
        }

    return ops, describe


_WORKLOADS = {"validate-mc": _validate_ops, "fair-split": _fair_split_ops, "sop-curves": _sop_curve_ops}


def main(spec_path: str, result_path: str) -> int:
    sys.path.insert(0, SRC)
    start = time.perf_counter_ns()
    import noma_secrecy
    import noma_secrecy.cli  # noqa: F401  (the CLI entry point is part of what a user loads)
    setup_ns = time.perf_counter_ns() - start

    import json

    sys.path.insert(0, HERE)
    if not os.path.abspath(noma_secrecy.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported noma_secrecy from {noma_secrecy.__file__}, not from {SRC}")
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    wall_start, cpu_start = time.perf_counter_ns(), time.process_time_ns()
    ops, describe = _WORKLOADS[spec["workload"]](spec)
    op_ns, outputs = [], []
    for index, op in enumerate(ops):
        op_start = time.perf_counter_ns()
        try:
            result = op()
        except Exception as exc:  # an op that raises is a failed op; the pass goes on
            op_ns.append(time.perf_counter_ns() - op_start)
            outputs.append({"error": f"{type(exc).__name__}: {exc}"})
            continue
        op_ns.append(time.perf_counter_ns() - op_start)
        outputs.append(describe(index, result))
    wall_ns = time.perf_counter_ns() - wall_start
    cpu_ns = time.process_time_ns() - cpu_start

    if spec["workload"] == "validate-mc" and "error" not in outputs[0]:
        with open(spec["out_path"], encoding="utf-8") as handle:
            outputs[0]["csv"] = handle.read()
    if tracer is not None:
        with open(spec["spans_path"], "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle, separators=(",", ":"))
    result = {
        "setup_ns": setup_ns,
        "wall_ns": wall_ns,
        "cpu_ns": cpu_ns,
        "op_ns": op_ns,
        "peak_rss_mb": _peak_rss_mb(),
        "outputs": outputs,
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit("usage: child.py SPEC.json RESULT.json")
    sys.exit(main(sys.argv[1], sys.argv[2]))
