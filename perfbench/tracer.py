"""In-memory span tracer for the traced benchmark run.

`Tracer.install` wraps every public function of the `subnyq` layers at every
module attribute that refers to it, because callers look functions up by the
name their own module imported (`waterfill.s_tilde_single`,
`sampling.hermitian_eig`, `cli.snr_ratio`, ...).  It also swaps the
`ThreadPoolExecutor` name in the library modules for a subclass that carries
the submitting span into the worker, so a span on a pool thread records the
span that caused it.  No library code changes.

Each thread appends its spans to its own list, so recording takes no lock;
counts are derived from the lists after the sweep.  A span is
[name, start, end, parent, extra, top]: parent is (thread, index) or None,
extra holds probe data (cells, translates, curve key), and top marks a
top-level library span (a non-cli span called from cli or from no span).
Span times are wall times, so on a pool thread they include waits for the
interpreter lock.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor

PACKAGE = "subnyq"
LAYERS = ("cli", "sampling", "linalg", "waterfill", "oracle", "spectra")
CURVE_BUILDS = ("sampling.s_tilde_single", "sampling.eigen_curves_multi",
                "sampling.polyphase_conditional_psd")

# Metric name -> span name, for the per-function call counts and times.
FUNCTION_METRICS = {
    "linalg.eigh": "linalg.hermitian_eig",
    "sampling.eigen_curves_multi": "sampling.eigen_curves_multi",
    "waterfill.solve": "waterfill.solve_theta_for_rate",
    "sampling.polyphase_conditional_psd": "sampling.polyphase_conditional_psd",
    "waterfill.polyphase_lower_bound": "waterfill.polyphase_lower_bound",
    "sampling.s_tilde_single": "sampling.s_tilde_single",
    "sampling.mmse_single": "sampling.mmse_single",
    "sampling.maximal_af_sets": "sampling.maximal_af_sets",
    "oracle.block_idrf_oracle": "oracle.block_idrf_oracle",
    "oracle.finite_window_mmse_average": "oracle.finite_window_mmse_average",
    "spectra.snr_ratio": "spectra.snr_ratio",
    "spectra.superlevel_set_of_measure": "spectra.superlevel_set_of_measure",
}
CELL_METRICS = ("sampling.eigen_curves_multi", "sampling.polyphase_conditional_psd",
                "sampling.s_tilde_single")


class _ThreadState:
    __slots__ = ("tid", "spans", "stack", "inherited")

    def __init__(self, tid: int, spans: list):
        self.tid = tid
        self.spans = spans
        self.stack: list[int] = []
        self.inherited = None


def _gain_key(H):
    return None if H is None else H.segments


def _translates(Sx, Sn, gains, fs: float) -> int:
    """2*ceil((support + fs/2)/fs) + 3: translates a build sums over.

    Computed from the inputs, not counted inside the library.  The support
    radius is that of the source and noise, clipped to the widest filter
    when every branch has one.
    """
    radius = max(Sx.f_max, Sn.f_max)
    if gains and all(g is not None for g in gains):
        extent = max((max(abs(lo), abs(hi)) for g in gains for lo, hi, _ in g.segments),
                     default=0.0)
        radius = min(radius, extent)
    return 2 * math.ceil((radius + fs / 2.0) / fs) + 3


def _probe_s_tilde(a, result):
    return {"cells": len(result.vals), "fs": a["fs"],
            "translates": _translates(a["Sx"], a["Sn"], [a.get("H")], a["fs"]),
            "key": ("s_tilde", a["Sx"].segments, a["Sn"].segments,
                    _gain_key(a.get("H")), a["fs"])}


def _probe_polyphase(a, result):
    return {"cells": len(result.vals), "fs": a["fs"],
            "translates": _translates(a["Sx"], a["Sn"], [a.get("H")], a["fs"]),
            "key": ("polyphase", a["Sx"].segments, a["Sn"].segments,
                    _gain_key(a.get("H")), a["fs"], a["delta"], a.get("k_max"))}


def _probe_eigen(a, result):
    spec = a["spec"]
    return {"cells": int(result.lam.shape[0]), "fs": spec.fs,
            "translates": _translates(a["Sx"], a["Sn"], spec.branches, spec.fs),
            "key": ("eigen", a["Sx"].segments, a["Sn"].segments,
                    tuple(_gain_key(b) for b in spec.branches), spec.fs,
                    a.get("N_grid"))}


PROBES = {
    "sampling.s_tilde_single": _probe_s_tilde,
    "sampling.polyphase_conditional_psd": _probe_polyphase,
    "sampling.eigen_curves_multi": _probe_eigen,
}


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads: list[list] = []  # one span list per thread
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            spans: list = []
            with self._lock:
                tid = len(self.threads)
                self.threads.append(spans)
            st = self._local.st = _ThreadState(tid, spans)
        return st

    def current(self):
        st = self._state()
        return (st.tid, st.stack[-1]) if st.stack else st.inherited

    def _wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        probe = PROBES.get(name)
        sig = inspect.signature(fn) if probe else None
        tracer = self
        library = layer != "cli"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            parent = (st.tid, st.stack[-1]) if st.stack else st.inherited
            top = library and (parent is None or
                               tracer.threads[parent[0]][parent[1]][0].startswith("cli."))
            rec = [name, 0.0, 0.0, parent, None, top]
            st.stack.append(len(st.spans))
            st.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                st.stack.pop()
            if probe is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec[4] = probe(bound.arguments, result)
            return result

        return wrapper

    def _traced_executor(self):
        tracer = self

        class TracedExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def run():
                    st = tracer._state()
                    saved, st.inherited = st.inherited, parent
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        st.inherited = saved

                return super().submit(run)

        return TracedExecutor

    # -- installation ------------------------------------------------------

    def _patch(self, module, attr: str, value):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self):
        package = importlib.import_module(PACKAGE)
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(layer, obj)
        executor = self._traced_executor()
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
                elif obj is ThreadPoolExecutor:
                    self._patch(mod, attr, executor)

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- output ------------------------------------------------------------

    def spans(self):
        """Yield (thread, index, span) over every recorded span."""
        for tid, spans in enumerate(self.threads):
            for idx, rec in enumerate(spans):
                yield tid, idx, rec

    def write(self, path: str):
        """One JSON array per span: name, start, end, thread, parent."""
        with open(path, "w") as fh:
            for tid, _, (name, start, end, parent, _, _) in self.spans():
                fh.write(json.dumps([name, start, end, tid, parent]))
                fh.write("\n")


def _union(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(tracer: Tracer, sweep_wall: float) -> tuple[dict, dict]:
    """(counts, times) of one traced sweep; sweep_wall covers its CLI calls.

    Counts, and ratios of counts, repeat exactly between runs of the same
    inputs; times do not.  A layer's time counts each of its outermost spans
    once; a layer's self time subtracts from each of its spans the union of
    its child spans.
    """
    records = {(tid, idx): rec for tid, idx, rec in tracer.spans()}
    children: dict = {}
    for key, rec in records.items():
        if rec[3] is not None:
            children.setdefault(rec[3], []).append((rec[1], rec[2]))

    layer_above: dict = {}

    def layers_above(key) -> frozenset:
        """Layers of every ancestor span, memoised; ancestors may sit on
        other threads, so walk up to the first known one, then back down."""
        path = []
        while key is not None and key not in layer_above:
            path.append(key)
            key = records[key][3]
        for k in reversed(path):
            parent = records[k][3]
            layer_above[k] = (frozenset() if parent is None else
                              layer_above[parent] | {records[parent][0].split(".")[0]})
        return layer_above[path[0] if path else key]

    calls: dict = {}
    fn_time: dict = {}
    layer_time: dict = {}
    self_time: dict = {}
    cells: dict = {}
    translates = 0
    build_fs = set()
    build_keys = set()
    builds = 0
    top = []
    for key, (name, start, end, parent, extra, is_top) in records.items():
        dur = end - start
        layer = name.split(".")[0]
        calls[name] = calls.get(name, 0) + 1
        fn_time[name] = fn_time.get(name, 0.0) + dur
        if layer not in layers_above(key):
            layer_time[layer] = layer_time.get(layer, 0.0) + dur
        self_time[layer] = self_time.get(layer, 0.0) + dur - _union(children.get(key, ()))
        if extra is not None:
            cells[name] = cells.get(name, 0) + extra["cells"]
            translates += extra["translates"]
        if name in CURVE_BUILDS:
            builds += 1
            build_fs.add(extra["fs"])
            build_keys.add(extra["key"])
        if is_top:
            top.append((start, end, key[0]))

    counts = {}
    times = {}
    for metric, span in FUNCTION_METRICS.items():
        counts[f"{metric}.calls"] = calls.get(span, 0)
        times[f"{metric}.s"] = fn_time.get(span, 0.0)
    for metric in CELL_METRICS:
        counts[f"{metric}.cells"] = cells.get(metric, 0)
    counts["sampling.translates.computed"] = translates
    rate_evals = calls.get("waterfill.rate_of_theta", 0)
    solves = calls.get("waterfill.solve_theta_for_rate", 0)
    counts["waterfill.rate_evals"] = rate_evals
    counts["waterfill.rate_evals_per_solve"] = rate_evals / solves if solves else 0.0
    counts["sampling.curves_per_fs"] = builds / len(build_fs) if build_fs else 0.0
    counts["sampling.builds_per_curve"] = builds / len(build_keys) if build_keys else 0.0
    times["linalg.s"] = layer_time.get("linalg", 0.0)
    times["waterfill.self_s"] = self_time.get("waterfill", 0.0)
    times["cli.load_config_s"] = fn_time.get("cli.load_config", 0.0)

    union = _union((s, e) for s, e, _ in top)
    times["cli.self_s"] = sweep_wall - union
    times["cli.overlap"] = sum(e - s for s, e, _ in top) / union if union else 1.0
    counts["cli.worker_threads"] = len({tid for _, _, tid in top})
    return counts, times
