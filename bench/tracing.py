"""Spans and counters for the traced run, installed from outside `stad`.

`install(tracer)` rebinds module and class attributes of `stad` to thin
wrappers. Each name is rebound in the module that looks it up at call
time: `vmf` imports `bessel_ratio`, `normalize_rows` and `log_sum_exp` by
name, `gauss` imports them too, plus `mixing_update` from `vmf` and
`cho_factor` from scipy. The returned function restores the originals.

A span is (name, start, end, parent index, timed). Spans live in memory
until the process writes them out. `timed` marks spans opened during a
step that counts towards the per-step figures (the steps after the
window has filled); per-step figures divide totals over those steps by
their number.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import Counter
from time import perf_counter

from stad import gauss, mathcore, vmf

# Documented in gauss.kf_update_weighted: a total weight at or below this
# is an empty cluster, and the prior is returned unchanged.
EMPTY_CLUSTER_WEIGHT = 1e-8

BESSEL_BRANCHES = {"_log_i_series": "series", "_log_i_uniform": "uniform",
                   "_log_i_hankel": "hankel"}

_ALL = ("ms", "self_ms", "calls")
# Span name -> statistics reported per step: inclusive ms, self ms, calls.
LAYERS = {
    "stream.read_stream": ("ms",),
    "mathcore.bessel_ratio": _ALL,
    **{f"mathcore.bessel.{b}": ("ms",) for b in BESSEL_BRANCHES.values()},
    "mathcore.normalize_rows": ("ms",),
    "mathcore.log_sum_exp": ("ms",),
    "vmf.adapt": _ALL,
    "vmf.predict": _ALL,
    "vmf.coordinate_ascent_sweep": ("ms", "self_ms"),
    **{f"vmf.{f}": _ALL for f in ("assignment_step", "expected_prototype",
                                  "mixing_update", "kappa_update", "predict_probs")},
    "gauss.adapt": _ALL,
    "gauss.predict": _ALL,
    "gauss.coordinate_sweep": ("ms", "self_ms"),
    **{f"gauss.{f}": _ALL for f in ("kf_predict", "kf_update_weighted", "kf_smooth",
                                    "gauss_assignments", "gauss_m_step")},
}
INIT_SPANS = ("vmf.init", "gauss.init")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.timed = False
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.timed)

    def count(self, name: str, n: float = 1) -> None:
        if self.timed:
            self.counts[name] += n

    def wrap(self, name: str, fn, on_call=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def counting(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, timed in self.spans:
                fh.write(json.dumps([name, start, end, parent, timed]) + "\n")

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its child spans."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def per_layer(self, timed_steps: int) -> dict[str, float]:
        """Per-step totals of every layer span and counter."""
        steps = max(timed_steps, 1)
        totals = {f"{name}.{stat}_per_step": 0.0
                  for name, stats in LAYERS.items() for stat in stats}
        init: dict[str, list[float]] = {name: [] for name in INIT_SPANS}
        for (name, start, end, _, timed), own in zip(self.spans, self.self_times()):
            if name in init:
                init[name].append(1e3 * (end - start))
            stats = LAYERS.get(name, ()) if timed else ()
            if "ms" in stats:
                totals[f"{name}.ms_per_step"] += 1e3 * (end - start)
            if "self_ms" in stats:
                totals[f"{name}.self_ms_per_step"] += 1e3 * own
            if "calls" in stats:
                totals[f"{name}.calls_per_step"] += 1
        out = {key: total / steps for key, total in totals.items()}
        for name, times in init.items():
            out[f"{name}_ms"] = sum(times) / len(times) if times else 0.0
        for branch in BESSEL_BRANCHES.values():
            out[f"mathcore.bessel.{branch}.elems_per_step"] = (
                self.counts[f"bessel.{branch}.elems"] / steps)
        calls = self.counts["kf_update_weighted.calls"]
        out["gauss.kf_update_weighted.skipped_frac"] = (
            self.counts["kf_update_weighted.skipped"] / calls if calls else 0.0)
        out["gauss.cho_factor.calls_per_step"] = self.counts["cho_factor.calls"] / steps
        out["stream.read_stream.mb_per_step"] = self.counts["stream.bytes"] / 1e6 / steps
        return out


def install(tracer: Tracer):
    """Wrap the layer functions of `stad`; returns a function that undoes it."""
    saved: list = []

    def rebind(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for attr, branch in BESSEL_BRANCHES.items():
        def elems(args, kwargs, branch=branch):
            tracer.count(f"bessel.{branch}.elems", args[1].size)

        rebind(mathcore, attr,
               tracer.wrap(f"mathcore.bessel.{branch}", getattr(mathcore, attr), elems))

    bessel_ratio = tracer.wrap("mathcore.bessel_ratio", mathcore.bessel_ratio)
    normalize_rows = tracer.wrap("mathcore.normalize_rows", mathcore.normalize_rows)
    log_sum_exp = tracer.wrap("mathcore.log_sum_exp", mathcore.log_sum_exp)
    mixing_update = tracer.wrap("vmf.mixing_update", vmf.mixing_update)
    rebind(vmf, "bessel_ratio", bessel_ratio)
    for module in (vmf, gauss):
        rebind(module, "normalize_rows", normalize_rows)
        rebind(module, "log_sum_exp", log_sum_exp)
        rebind(module, "mixing_update", mixing_update)
    for attr in ("assignment_step", "expected_prototype", "kappa_update", "predict_probs"):
        rebind(vmf, attr, tracer.wrap(f"vmf.{attr}", getattr(vmf, attr)))

    def kf_weight(args, kwargs):
        resp_col = args[3] if len(args) > 3 else kwargs["resp_col"]
        tracer.count("kf_update_weighted.calls")
        if float(resp_col.sum()) <= EMPTY_CLUSTER_WEIGHT:
            tracer.count("kf_update_weighted.skipped")

    for attr in ("kf_predict", "kf_smooth", "gauss_assignments", "gauss_m_step"):
        rebind(gauss, attr, tracer.wrap(f"gauss.{attr}", getattr(gauss, attr)))
    rebind(gauss, "kf_update_weighted",
           tracer.wrap("gauss.kf_update_weighted", gauss.kf_update_weighted, kf_weight))
    rebind(gauss, "cho_factor", tracer.counting("cho_factor.calls", gauss.cho_factor))

    for cls, prefix, sweep in ((vmf.VmfModel, "vmf", "coordinate_ascent_sweep"),
                               (gauss.GaussModel, "gauss", "coordinate_sweep")):
        for attr in ("adapt", "predict", sweep):
            rebind(cls, attr, tracer.wrap(f"{prefix}.{attr}", getattr(cls, attr)))

    def uninstall():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall
