"""Traced run: wrap gaussify's public functions from outside the program.

Every listed function is replaced, for the duration of one command, at every
module-global binding of the same function object across ``gaussify.*`` (the
defining module and each ``from ... import`` site, e.g. ``protocol.pad`` and
``cli.run``). Each wrapper records a span -- name, start, end, parent span,
command index and a small info dict -- in memory; the runner writes them out
when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

import stats

TRACED = {
    "cli": ("main",),
    "protocol": ("run", "one_step", "one_step_single_mode"),
    "fock": ("beamsplitter_unitary", "pad"),
    "measurements": ("success_effect",),
    "measures": ("logarithmic_negativity", "purity", "fidelity", "gaussianity_distance", "wigner"),
    "gaussian": ("covariance_of_state", "to_fock_density", "ideal_step_covariance"),
}

# (metric, unit, end-to-end metric it should move, on which workload)
LAYER_METRICS = (
    ("cli.main.calls", "count", "op_p50_s on pure-and-grids; no change elsewhere"),
    ("cli.self_s", "s", "op_p50_s on pure-and-grids; no change elsewhere"),
    ("cli.bytes_out", "B", "op_p50_s on pure-and-grids; no change elsewhere"),
    ("protocol.run.total_s", "s", "ops_per_s on lossy-adaptive and eta-sweep"),
    ("protocol.step_density.calls", "count", "ops_per_s on lossy-adaptive, about half of eta-sweep"),
    ("protocol.step_density.self_s", "s", "ops_per_s on lossy-adaptive, about half of eta-sweep"),
    ("protocol.step_pure.calls", "count", "op_p50_s on pure-and-grids"),
    ("protocol.step_pure.self_s", "s", "op_p50_s on pure-and-grids"),
    ("protocol.step_single.calls", "count", "op_p50_s on pure-and-grids"),
    ("protocol.step_single.self_s", "s", "op_p50_s on pure-and-grids"),
    ("protocol.step_yield", "ratio", "ops_per_s, leak_breach_frac, peak_rss_mb on lossy-adaptive; "
     "identically 1 on eta-sweep"),
    ("protocol.cutoff_max", "dim", "ops_per_s, leak_breach_frac, peak_rss_mb on lossy-adaptive"),
    ("protocol.cutoff_mean", "dim", "ops_per_s, leak_breach_frac, peak_rss_mb on lossy-adaptive"),
    ("protocol.leak_breach_frac", "ratio", "reach: steps over the leak threshold, on lossy-adaptive"),
    ("fock.beamsplitter_unitary.calls", "count", "ops_per_s on eta-sweep, op_p50_s on pure-and-grids"),
    ("fock.beamsplitter_unitary.self_s", "s", "ops_per_s on eta-sweep, op_p50_s on pure-and-grids"),
    ("fock.pad.calls", "count", "ops_per_s on lossy-adaptive"),
    ("measurements.success_effect.calls", "count", "ops_per_s on eta-sweep and lossy-adaptive"),
    ("measurements.success_effect.self_s", "s", "ops_per_s on eta-sweep and lossy-adaptive"),
    ("measures.logarithmic_negativity.calls", "count", "ops_per_s on eta-sweep"),
    ("measures.logarithmic_negativity.self_s", "s", "ops_per_s on eta-sweep"),
    ("measures.purity.self_s", "s", "ops_per_s on eta-sweep"),
    ("measures.fidelity.self_s", "s", "ops_per_s on eta-sweep"),
    ("measures.gaussianity_distance.calls", "count", "ops_per_s on eta-sweep"),
    ("measures.gaussianity_distance.total_s", "s", "ops_per_s on eta-sweep"),
    ("measures.wigner.calls", "count", "op_p50_s on pure-and-grids"),
    ("measures.wigner.self_s", "s", "op_p50_s on pure-and-grids"),
    ("measures.wigner.points_per_s", "1/s", "op_p50_s on pure-and-grids"),
    ("gaussian.covariance_of_state.calls", "count", "ops_per_s on eta-sweep"),
    ("gaussian.covariance_of_state.self_s", "s", "ops_per_s on eta-sweep"),
    ("gaussian.to_fock_density.calls", "count", "ops_per_s on eta-sweep"),
    ("gaussian.to_fock_density.self_s", "s", "ops_per_s on eta-sweep"),
    ("gaussian.ideal_step_covariance.calls", "count", "op_p50_s on pure-and-grids"),
    ("trace.overhead_frac", "ratio", "none: (traced - untraced) / untraced command wall time"),
    ("trace.unaccounted_frac", "ratio", "none: command wall time outside cli.main spans"),
)


class Tracer:
    """Span recorder whose wrappers are installed around one command at a time."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._root = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._wrappers = {}  # original function -> wrapper
        self._patched = []  # (module, attribute, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, qualname: str, fn):
        from gaussify.fock import PureState

        tracer = self

        def label(args, kwargs):
            if qualname == "protocol.one_step":
                kind = "pure" if isinstance(args[0], PureState) else "density"
                return f"protocol.step_{kind}", {"cutoff": args[0].dims.dims[0]}
            if qualname == "protocol.one_step_single_mode":
                return "protocol.step_single", {"cutoff": args[0].dims.dims[0]}
            if qualname == "measures.wigner":
                n = args[3] if len(args) > 3 else kwargs["resolution"]
                return qualname, {"points": int(n) ** 2}
            return qualname, {}

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name, info = label(args, kwargs)
            stack = tracer._stack()
            # Thread-pool workers start with an empty stack; their spans
            # belong to the command's root span.
            parent = stack[-1] if stack else tracer._root
            sid = next(tracer._ids)
            if parent is None:
                tracer._root = sid
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                leak = getattr(result, "leak", None)
                if leak is not None:
                    info["leak"] = float(leak)
                return result
            except BaseException as exc:
                info["error"] = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    {"id": sid, "parent": parent, "name": name, "start": start,
                     "end": end, "op": tracer.op, "info": info}
                )

        return traced

    def install(self, op: int) -> None:
        self.op = op
        self._root = None
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "gaussify" or n.startswith("gaussify."))]
        for short, names in TRACED.items():
            defining = sys.modules[f"gaussify.{short}"]
            for name in names:
                fn = getattr(defining, name)
                if fn not in self._wrappers:
                    self._wrappers[fn] = self._wrap(f"{short}.{name}", fn)
                wrapper = self._wrappers[fn]
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()
        self.op = None
        self._root = None


def layer_metrics(spans, op_walls, untraced_walls, bytes_out, leak_threshold) -> dict:
    """Per-layer metrics from the spans of a traced run.

    op_walls and untraced_walls are the wall times of the same commands run
    with and without tracing; bytes_out is the CLI's output size.
    """
    selfs = stats.self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    points = 0
    for s in spans:
        calls[s["name"]] += 1
        self_s[s["name"]] += selfs[s["id"]]
        total_s[s["name"]] += s["end"] - s["start"]
        if s["name"] == "measures.wigner":
            points += s["info"]["points"]
    steps = stats.step_counts(spans, leak_threshold)
    traced = sum(op_walls)
    out = {
        "cli.main.calls": calls["cli.main"],
        "cli.self_s": self_s["cli.main"],
        "cli.bytes_out": bytes_out,
        "protocol.run.total_s": total_s["protocol.run"],
        "protocol.step_yield": stats.ratio(steps["completed"], steps["calls"]),
        "protocol.cutoff_max": steps["cutoff_max"],
        "protocol.cutoff_mean": steps["cutoff_mean"],
        "protocol.leak_breach_frac": stats.ratio(steps["breaches"], steps["completed"]),
        "fock.pad.calls": calls["fock.pad"],
        "measures.gaussianity_distance.calls": calls["measures.gaussianity_distance"],
        "measures.gaussianity_distance.total_s": total_s["measures.gaussianity_distance"],
        "measures.wigner.points_per_s": stats.ratio(points, total_s["measures.wigner"]),
        "gaussian.ideal_step_covariance.calls": calls["gaussian.ideal_step_covariance"],
        "trace.overhead_frac": stats.ratio(traced - sum(untraced_walls), sum(untraced_walls)),
        "trace.unaccounted_frac": stats.ratio(traced - total_s["cli.main"], traced),
    }
    for name, unit, _ in LAYER_METRICS:
        if name in out:
            continue
        base, _, kind = name.rpartition(".")
        out[name] = calls[base] if kind == "calls" else self_s[base]
    return out
