"""In-memory spans around the package's public calls, and their analysis.

The tracer edits no package source. It wraps each public function of the
traced modules (the names in their ``__all__``) and rebinds the wrapper in
every module namespace where a caller looks the name up, so
``noma_secrecy.montecarlo.sample_gains`` and ``noma_secrecy.optimize.exact_sop_far``
are both timed. A span is (name, start_ns, end_ns, parent_index, extra).
"""
from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import time

LAYERS = ("cli", "config", "channel", "rates", "montecarlo", "sop", "optimize")
SOP_CALLS = ("sop.exact_sop_near", "sop.exact_sop_far")
NODE_FILL = "sop.leggauss"


def _size(value) -> int:
    size = getattr(value, "size", None)
    return int(size) if size is not None else 1


def _quad_error_max(value) -> float:
    error = value.quad_error
    return float(error.max()) if hasattr(error, "max") else float(error)


def _sop_extra(args, kwargs, result) -> dict:
    alpha = args[1] if len(args) > 1 else kwargs["alpha"]
    ndim = getattr(alpha, "ndim", 0)
    return {"mode": "curve" if ndim else "scalar", "points": _size(alpha),
            "quad_error": _quad_error_max(result)}


def _empirical_extra(args, kwargs, result) -> dict:
    sim = args[3] if len(args) > 3 else kwargs["sim"]
    return {"samples": sim.realizations, "kept": result.n}


# What each span records about its call, read after its end time is taken.
_EXTRAS = {
    "channel.sample_gains": lambda args, kwargs, result: {"samples": _size(result.g1)},
    "rates.sinr_proposed": lambda args, kwargs, result: {"samples": _size(result.g11)},
    "rates.rates_from_sinrs": lambda args, kwargs, result: {"samples": _size(result.r11)},
    "montecarlo.empirical_sop": _empirical_extra,
    "sop.exact_sop_near": _sop_extra,
    "sop.exact_sop_far": _sop_extra,
}


class Tracer:
    """Records one span per wrapped call; single-threaded, like the package."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []

    def _wrap(self, fn, name: str):
        spans, stack, extra_of = self.spans, self._stack, _EXTRAS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, {"error": type(exc).__name__})
                raise
            end = clock()
            stack.pop()
            extra = extra_of(args, kwargs, result) if extra_of is not None else None
            spans[index] = (name, start, end, parent, extra)
            return result

        return wrapper

    def install(self, package: str = "noma_secrecy") -> None:
        """Wrap the public functions of every traced layer."""
        modules = [importlib.import_module(f"{package}.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = self._wrap(fn, f"{layer}.{attr}")
        for namespace in modules + [importlib.import_module(package)]:
            for attr, value in list(vars(namespace).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(namespace, attr, wrapper)
        # The sop layer fills its Gauss-Legendre node cache lazily, through
        # numpy; timing that call separates the one-off fill from the quadrature.
        legendre = importlib.import_module("numpy.polynomial.legendre")
        legendre.leggauss = self._wrap(legendre.leggauss, NODE_FILL)


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (q in [0, 100]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def pass_metrics(spans: list, op_ns: list, wall_ns: int) -> dict:
    """Per-layer metrics of one traced pass.

    Self time is a span's duration minus the durations of its direct
    children; glue is the pass's timed region outside every op.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    self_ns = [end - start - child_ns[i] for i, (_, start, end, _, _) in enumerate(spans)]

    def under(index: int, name: str) -> bool:
        parent = spans[index][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    by_name: dict = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def total_self(indices) -> int:
        return sum(self_ns[i] for i in indices)

    def total_extra(indices, key: str) -> int:
        return sum(spans[i][4][key] for i in indices if spans[i][4] and key in spans[i][4])

    def durations_ns(indices) -> list:
        return [spans[i][2] - spans[i][1] for i in indices]

    def per_sample(name: str, key: str = "samples") -> float:
        indices = by_name.get(name, ())
        return _ratio(total_self(indices), total_extra(indices, key))

    sop = [i for name in SOP_CALLS for i in by_name.get(name, ())]
    scalar = [i for i in sop if spans[i][4] and spans[i][4].get("mode") == "scalar"]
    curve = [i for i in sop if spans[i][4] and spans[i][4].get("mode") == "curve"]
    solves = calls("optimize.minmax_pa")
    equal = by_name.get("optimize.equal_sop_alpha", ())
    optimal = by_name.get("optimize.optimal_pa_near", []) + by_name.get("optimize.optimal_pa_far", [])
    empirical = by_name.get("montecarlo.empirical_sop", ())
    errors = [spans[i][4]["quad_error"] for i in sop if spans[i][4] and "quad_error" in spans[i][4]]
    first_sop = min(sop, key=lambda i: spans[i][1]) if sop else None

    layer_self = {layer: 0 for layer in LAYERS}
    for i, span in enumerate(spans):
        layer_self[span[0].split(".", 1)[0]] += self_ns[i]
    glue_ns = wall_ns - sum(op_ns)

    metrics = {
        "channel.sample_gains.calls": calls("channel.sample_gains"),
        "channel.sample_gains.ns_per_sample": per_sample("channel.sample_gains"),
        "rates.sinr_proposed.ns_per_sample": per_sample("rates.sinr_proposed"),
        "rates.rates_from_sinrs.ns_per_sample": per_sample("rates.rates_from_sinrs"),
        "montecarlo.empirical_sop.calls": len(empirical),
        "montecarlo.empirical_sop.self_ns_per_sample": per_sample("montecarlo.empirical_sop"),
        "montecarlo.kept_ratio": _ratio(total_extra(empirical, "kept"), total_extra(empirical, "samples")),
        "sop.scalar.calls": len(scalar),
        "sop.scalar.us_p50": percentile(durations_ns(scalar), 50) / 1e3,
        "sop.scalar.us_p90": percentile(durations_ns(scalar), 90) / 1e3,
        "optimize.sop_calls_per_solve": _ratio(sum(under(i, "optimize.minmax_pa") for i in sop), solves),
        "optimize.equal_sop_alpha.sop_calls_per_solve": _ratio(
            sum(under(i, "optimize.equal_sop_alpha") for i in sop), len(equal)),
        "optimize.equal_sop_alpha.ms_p50": percentile(durations_ns(equal), 50) / 1e6,
        "optimize.optimal_pa.ms_p50": percentile(durations_ns(optimal), 50) / 1e6,
        "sop.curve.calls": len(curve),
        "sop.curve.ns_per_point": _ratio(total_self(curve), total_extra(curve, "points")),
        "sop.first_call_ms": (spans[first_sop][2] - spans[first_sop][1]) / 1e6 if first_sop is not None else 0.0,
        "sop.node_fill_ms": sum(durations_ns(by_name.get(NODE_FILL, ()))) / 1e6,
        "sop.quad_error_max": max(errors, default=0.0),
        "config.load_config.ms": sum(durations_ns(by_name.get("config.load_config", ()))) / 1e6,
        "cli.main.self_ms": total_self(by_name.get("cli.main", ())) / 1e6,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer] / 1e9
    metrics["bench.glue_s"] = glue_ns / 1e9
    metrics["trace.wall_s"] = wall_ns / 1e9
    metrics["trace.accounted_share"] = _ratio(sum(layer_self.values()) + glue_ns, wall_ns)
    return metrics


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    last = name.rsplit(".", 1)[-1]
    if last == "calls" or last == "sop_calls_per_solve":
        return "count"
    if last.startswith("ns_per_") or "_ns_per_" in last:
        return "ns"
    if last.startswith("us_"):
        return "us"
    if last == "ms" or last.startswith("ms_") or last.endswith("_ms"):
        return "ms"
    if last.endswith("_s"):
        return "s"
    if last == "quad_error_max":
        return "prob"
    return "ratio"


def span_counts(spans: list) -> dict:
    """Calls per span name, with sop calls split by scalar or curve mode."""
    counts: dict = {}
    for name, _, _, _, extra in spans:
        key = f"{name}[{extra['mode']}]" if extra and "mode" in extra else name
        counts[key] = counts.get(key, 0) + 1
    return counts


def combine_passes(per_pass: list) -> dict:
    """Median of each metric over the traced passes of one run."""
    return {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
