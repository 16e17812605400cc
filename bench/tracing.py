"""Span recorder and the wrappers that time calls into each wwlab layer.

Nothing here edits the library: :func:`install` replaces, at run time, the
module attributes through which one layer calls another with timing
wrappers. Spans stay in memory as plain lists and are aggregated into
per-layer metrics by :func:`layer_metrics` when the run ends.

A span is ``[id, parent_id, name, start, end, attrs]``; ``parent_id`` is the
span open on the caller's stack (``-1`` at top level). Self time is a span's
duration minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import hashlib
import inspect
import json
import time

# (span name, module, attribute). A function is wrapped wherever a wwlab
# module holds it under that name, so every import site is covered.
FUNCTIONS = (
    ("systems.build_system", "systems", "build_system"),
    ("supbrackets.grid_sup_rows", "supbrackets", "_grid_sup_rows"),
    ("supbrackets.sup_norm_trig", "supbrackets", "sup_norm_trig"),
    ("averages.cube_product", "averages", "cube_product"),
    ("averages.ww_average", "averages", "ww_average"),
    ("averages.weak_ww_average", "averages", "weak_ww_average"),
    ("recurrence.uniform_mrec_bracket", "recurrence", "uniform_mrec_bracket"),
    ("recurrence.return_times_average", "recurrence", "return_times_average"),
    ("analysis.run_named_check", "analysis", "run_named_check"),
    ("analysis.hilbert_partial_sums", "analysis", "hilbert_partial_sums"),
    ("cli.run_experiment", "cli", "run_experiment"),
    ("cli.cache_lookup", "cli", "cache_lookup"),
    ("cli.cache_store", "cli", "cache_store"),
)
METHODS = (
    ("systems.orbit_table", "orbit_table"),
    ("systems.power_indices", "power_indices"),
)
# Evaluations whose arguments form the repeat key.
EVALUATIONS = ("averages.ww_average", "averages.weak_ww_average",
               "recurrence.uniform_mrec_bracket")
_KEY_IGNORED = ("threads", "budget")


class Recorder:
    """Collects spans on a parent stack; one instance per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self._stack: list = []
        self._seen_keys: set = set()

    def open(self, name: str, attrs: dict | None = None) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        span = [len(self.spans), parent, name, self.clock(), None, attrs or {}]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[4] = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span[2]!r} closed out of order")

    def mark_repeat(self, key: str) -> bool:
        """True when ``key`` was evaluated before in this run."""
        if key in self._seen_keys:
            return True
        self._seen_keys.add(key)
        return False


def _digest(value) -> str:
    """Stable text for one argument of an evaluation."""
    spec = getattr(value, "spec", None)
    if isinstance(spec, dict):  # a FiniteSystem
        return json.dumps(spec, sort_keys=True)
    values = getattr(value, "values", None)
    if values is not None and hasattr(values, "tobytes"):  # an Observable
        return hashlib.sha256(values.tobytes()).hexdigest()[:16]
    return repr(value)


def evaluation_key(name: str, fn, args, kwargs) -> str:
    """(function, system, observable, k, N, seed, ...) with resource knobs dropped."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    parts = [name] + [f"{k}={_digest(v)}" for k, v in bound.arguments.items()
                      if k not in _KEY_IGNORED]
    return "|".join(parts)


def _attrs_before(name: str, fn, recorder: Recorder, args, kwargs) -> dict:
    if name in EVALUATIONS:
        return {"repeat": recorder.mark_repeat(evaluation_key(name, fn, args, kwargs))}
    if name == "supbrackets.grid_sup_rows":
        rows, n = args[0].shape
        oversample = args[1] if len(args) > 1 else kwargs["oversample"]
        K = int(oversample) * n
        return {"rows": rows, "fft_points": rows * K, "bytes": rows * K * 16}
    if name == "systems.orbit_table":
        system, n_max = args[0], args[1] if len(args) > 1 else kwargs["n_max"]
        if n_max in system._orbit_cache:  # returned without allocating
            return {}
        return {"bytes": (int(n_max) + 1) * system.size * 8}
    return {}


def _attrs_after(name: str, fn, result, args, kwargs) -> dict:
    if name == "recurrence.uniform_mrec_bracket":
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        max_cycles = bound.arguments.get("max_cycles")
        cycles = max(len(getattr(result, "trace", None) or []) - 1, 0)
        return {"cycles": cycles, "capped": max_cycles is not None and cycles >= max_cycles}
    return {}


def _wrap(name: str, fn, recorder: Recorder):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(name, _attrs_before(name, fn, recorder, args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        span[5].update(_attrs_after(name, fn, result, args, kwargs))
        return result

    return wrapper


def install(wwlab_modules: dict, recorder: Recorder):
    """Wrap every traced entry point; returns a callable that undoes it.

    ``wwlab_modules`` maps short module names ("systems", "cli", ...) to the
    imported modules. A traced name the library no longer has raises
    AttributeError: its metrics would otherwise read 0, which looks like a gain.
    """
    functions = [(name, getattr(wwlab_modules[module], attr)) for name, module, attr in FUNCTIONS]
    system_cls = wwlab_modules["systems"].FiniteSystem
    methods = [(name, attr, getattr(system_cls, attr)) for name, attr in METHODS]
    undo = []
    for name, original in functions:
        wrapper = _wrap(name, original, recorder)
        for mod in wwlab_modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    undo.append((mod, key, original))
    for name, attr, original in methods:
        setattr(system_cls, attr, _wrap(name, original, recorder))
        undo.append((system_cls, attr, original))

    def uninstall():
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return uninstall


# -- aggregation -------------------------------------------------------------


def self_times(spans: list) -> dict:
    """Span id -> duration minus the durations of its direct children."""
    own = {s[0]: s[4] - s[3] for s in spans}
    for s in spans:
        if s[1] >= 0:
            own[s[1]] -= s[4] - s[3]
    return own


# name -> (which time: "incl" or "self", counters summed from attrs)
_REPORTED = {
    "systems.orbit_table": ("incl", ("bytes",)),
    "systems.power_indices": ("incl", ()),
    "systems.build_system": ("incl", ()),
    "supbrackets.grid_sup_rows": ("incl", ("rows", "fft_points", "bytes")),
    "supbrackets.sup_norm_trig": ("incl", ()),
    "averages.cube_product": ("incl", ()),
    "averages.ww_average": ("self", ()),
    "averages.weak_ww_average": ("self", ()),
    "recurrence.uniform_mrec_bracket": ("incl", ()),
    "recurrence.return_times_average": ("incl", ()),
    "analysis.run_named_check": ("self", ()),
    "analysis.hilbert_partial_sums": ("incl", ()),
    "cli.run_experiment": ("self", ()),
    "cli.cache_lookup": ("incl", ()),
    "cli.cache_store": ("incl", ()),
}


def layer_metrics(spans: list) -> dict:
    """Per-layer counts and seconds from a finished run's spans."""
    own = self_times(spans)
    out: dict = {}
    for name, (which, counters) in _REPORTED.items():
        mine = [s for s in spans if s[2] == name]
        out[f"{name}.calls"] = len(mine)
        out[f"{name}.s"] = sum(own[s[0]] if which == "self" else s[4] - s[3] for s in mine)
        for counter in counters:
            out[f"{name}.{counter}"] = sum(s[5].get(counter, 0) for s in mine)
    mrec = [s for s in spans if s[2] == "recurrence.uniform_mrec_bracket"]
    out["recurrence.ascent.cycles"] = sum(s[5].get("cycles", 0) for s in mrec)
    out["recurrence.ascent.capped_share"] = (
        sum(bool(s[5].get("capped")) for s in mrec) / len(mrec) if mrec else 0.0)
    evals = [s for s in spans if s[2] in EVALUATIONS]
    repeats = [s for s in evals if s[5].get("repeat")]
    out["analysis.repeat_evals"] = len(repeats)
    out["analysis.repeat_evals.s"] = sum(s[4] - s[3] for s in repeats)
    out["analysis.unique_eval_share"] = (len(evals) - len(repeats)) / len(evals) if evals else 1.0
    out["analysis.evaluations"] = len(evals)
    return out
