"""Configuration-driven experiment runner.

A config names a system, observables, an operation, and an N schedule; the
runner dispatches to the library, caches the per-N outputs under a content
hash of the semantic fields, and renders tables, CSV/JSON reports, or
log-log plot data.  Thread count and budget are resource knobs, not
semantics, so they stay out of the hash.  A cached record also carries a
digest of the numerics modules' source, so a record computed before an edit
to the numerics is recomputed after it.

Exit codes: 0 when everything ran and passed, 1 when a check or selftest
reported a failure, 2 for a malformed config (one the schema table below
refuses), a value the library refuses, or a budget refusal.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from ._util import BudgetExceeded
from .analysis import (_ceil_power, available_checks, check_defaults, check_parameters, decay_fit,
                       hilbert_partial_sums, precsim_fit, run_named_check, PhaseWeights, ReturnTimesWeights)
from .averages import CubeAssignment, off_diagonal_average, weak_ww_average, ww_average
from .boxes import level_sweep
from .recurrence import ExponentVector, polyphase_mrec_sup, return_times_average, uniform_mrec_bracket
from .systems import (MAX_PRODUCT_POINTS, Observable, build_system, character_observable, integrate,
                      product_system, random_mean_zero, tensor_observable)

_OPS = (
    "ww", "weak_ww", "offdiag", "mrec", "polyphase", "return_times",
    "hilbert", "check", "boxsweep", "decay", "precsim",
)


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


# -- the config schema --------------------------------------------------------
#
# Every value a config can hold has a rule and a default here, and
# ExperimentConfig checks a config against them before anything is built.  A
# rule is a tuple led by its JSON type:
#   ("int", lo, hi)             an integer in [lo, hi]: never true, 1.5 or "1"
#   ("number", lo, hi)          a finite number in (lo, hi]; lo None: any
#   ("bool",), ("json",)        true or false; any JSON value
#   ("list", rule, lo, hi)      lo to hi entries (hi None: no cap), each of the rule
#   ("object", fields)          an object with keys among ``fields``: {key: (rule, default)}
#   ("system",), ("function",)  a spec of a kind in _SYSTEMS / _FUNCTIONS, every field given
# A callable default is computed from the config.

_I64 = (1 << 63) - 1
_INT, _NAT, _POS = ("int", -_I64, _I64), ("int", 0, _I64), ("int", 1, _I64)
_NUMBER, _INTS = ("number", None, None), ("list", _INT, 1, None)
_SIZE = ("int", 1, MAX_PRODUCT_POINTS)  # at most 2^20 points, the cap on product systems
_SYSTEM, _FUNCTION = ("system",), ("function",)
_SPECS = ("object", "system", "function")

_SYSTEMS = {  # kind: the fields its systems._BUILDERS entry reads
    "cyclic_shift": {"p": _SIZE},
    "rotation_approx": {"p": _SIZE, "j": ("int", -MAX_PRODUCT_POINTS, MAX_PRODUCT_POINTS)},
    "skew_product": {"p": ("int", 1, 1 << 10)},
    "random_permutation": {"size": _SIZE, "seed": _NAT},
    "identity": {"size": _SIZE},
    "product": {"a": _SYSTEM, "b": _SYSTEM},
}
_FUNCTIONS = {  # kind: fields; a tensor lives on the product of system and system_b
    "random": {"seed": _NAT},
    "character": {"j": _INT},
    "table": {"values": ("list", ("list", _NUMBER, 2, 2), 1, None)},  # [re, im] per point
    "tensor": {"left": _FUNCTION, "right": _FUNCTION},
}
_FIELDS = {  # field: (rule, default)
    "system": (_SYSTEM, None),
    "system_b": (_SYSTEM, None),
    "functions": (("list", _FUNCTION, 0, None), lambda c: []),  # none: one random:<seed>
    "k": (_POS, 1),
    "degree": (_POS, 1),
    "schedule": (("list", _POS, 1, None), lambda c: [16, 32, 64]),  # strictly increasing
    "oversample": (("int", 4, _I64), 16),
    "seed": (_NAT, 0),
    "sigma": (("number", 0, 1), 1.0),
    "x_point": (_NAT, 0),
    "extra": (("json",), lambda c: {}),  # an object; _check_extra reads its keys
}
_CHECK_OWN = ("k", "schedule", "oversample", "seed", "sigma")  # a check config leaves these None
_EXPONENTS = (_INTS, lambda c: list(range(1, max(len(c.functions), 1) + 1)))  # one per function
_COMPANION = (_FUNCTION, lambda c: {"kind": "random", "seed": c.seed + 1})
_RETURN_WEIGHTS = {"g": _COMPANION, "y_point": (_NAT, 0), "steps": (_INTS, [1])}
_EXTRAS = {  # op: {extra key: (rule, default)}
    "mrec": {"restarts": (_NAT, 2)},
    "precsim": {"k_rhs": (_POS, lambda c: c.k)},
    "polyphase": {"exponents": _EXPONENTS},
    "return_times": {"exponents": _EXPONENTS, "g": _COMPANION, "poly": (_INTS, [0, 1])},
    "hilbert": {"exponents": _EXPONENTS, "phase_t": (("list", _NUMBER, 0, None), None),
                "return_weights": (("object", _RETURN_WEIGHTS), None)},
    "boxsweep": {"k_values": (("list", _POS, 1, None), [1, 2, 3]), "H_max": (_POS, 5), "q_max": (_POS, 15)},
}
# A check's extra keys are its parameters.  One named like a config field
# takes the field's rule, one listed here this rule, and any other the type
# of its declared default (a default of None takes any JSON value).
_CHECK_EXTRAS = {"H": _INTS, "H_values": _INTS, "exponents": _INTS, "b_steps": _INTS, "zeta": _INTS,
                 "N_cap": _POS, "N_values": ("list", _POS, 1, None), "pairs": ("list", ("list", _POS, 2, 2), 1, None)}
_DEFAULT_RULES = {bool: ("bool",), int: _INT, float: _NUMBER, tuple: ("list", _NUMBER, 0, None)}


def _default(default, config):
    return default(config) if callable(default) else default


def _with_defaults(given: dict, rules: dict, config) -> dict:
    """Each key ``rules`` declares: its value in ``given`` (checked already), or its default."""
    return {key: given[key] if key in given else _default(d, config) for key, (_, d) in rules.items()}


def _describe(rule) -> str:
    kind, *bounds = rule
    if kind == "int":
        return f"an integer in [{bounds[0]}, {bounds[1]}]".replace(f"-{_I64}", "-(2^63-1)").replace(str(_I64), "2^63-1")
    if kind == "number":
        return "a finite number" + ("" if bounds[0] is None else f" in ({bounds[0]}, {bounds[1]}]")
    if kind == "list":  # bounds[1] entries or more (bounds[2] None), or exactly bounds[1]
        return "a list" + (f" of {'at least ' if bounds[2] is None else ''}{bounds[1]} entries" if bounds[1] else "")
    return "true or false" if kind == "bool" else "a JSON object"


def _check(value, rule, name: str) -> None:
    """Raise ConfigError unless ``value`` satisfies ``rule``; ``name`` says where it sits."""
    kind, typ = rule[0], type(value)
    if kind == "int":
        ok = typ is int and rule[1] <= value <= rule[2]
    elif kind == "number":
        finite = typ is float and math.isfinite(value) or typ is int and abs(value) <= _I64
        ok = finite and (rule[1] is None or rule[1] < value <= rule[2])
    elif kind == "list":
        ok = typ is list and rule[2] <= len(value) <= (rule[3] or len(value))
    else:
        ok = kind == "json" or typ is (bool if kind == "bool" else dict)
    if not ok:
        raise ConfigError(f"{name} must be {_describe(rule)}, not {value!r}")
    if kind == "list":
        for i, item in enumerate(value):
            _check(item, rule[1], f"{name}[{i}]")
    if kind not in _SPECS:
        return
    if kind == "object":
        fields = {key: r for key, (r, _) in rule[1].items()}
    else:
        table = _SYSTEMS if kind == "system" else _FUNCTIONS
        spec_kind = value.get("kind")
        if type(spec_kind) is not str or spec_kind not in table:
            raise ConfigError(f"{name}: unknown {kind} kind {spec_kind!r}; known: {', '.join(table)}")
        fields = {"kind": ("json",), **table[spec_kind]}
        missing = [repr(key) for key in fields if key not in value]
        if missing:
            raise ConfigError(f"{name}: a {spec_kind} spec needs {', '.join(missing)}")
    for key, item in value.items():
        if key not in fields:
            raise ConfigError(f"{name}: unknown key {key!r}; known: {', '.join(fields) or 'none'}")
        _check(item, fields[key], f"{name}.{key}" if fields[key][0] in _SPECS else f"{name} key {key!r}")


def _check_extra(config) -> None:
    """Check ``extra`` against its op's keys in _EXTRAS, or against the named check's parameters."""
    if config.op != "check":
        return _check(config.extra, ("object", _EXTRAS.get(config.op, {})), "extra")
    if type(config.extra) is not dict:
        raise ConfigError(f"extra must be a JSON object, not {config.extra!r}")
    params = check_defaults(config.check_name)
    for key, value in config.extra.items():
        if key in _OBJECT_PARAMS:
            raise ConfigError(f"extra key {key!r} cannot be given as JSON")
        if key not in params and not (key == "H" and "H_values" in params):
            raise ConfigError(f"check {config.check_name!r} reads no extra key {key!r}; it reads {', '.join(params)}")
        rule = _FIELDS[key][0] if key in _FIELDS else _CHECK_EXTRAS.get(key) or \
            _DEFAULT_RULES.get(type(params[key]), ("json",))
        _check([value] if key == "H" and type(value) is not list else value, rule, f"extra key {key!r}")


@dataclass
class ExperimentConfig:
    """A `wwlab run` config, checked against the schema above as it is made.

    A field left out or null takes its default from _FIELDS, except that a
    check config keeps the _CHECK_OWN fields None, so the check falls back
    on its own defaults.
    """

    op: str | None = None
    system: dict | None = None
    system_b: dict | None = None
    functions: list | None = None
    k: int | None = None
    degree: int | None = None
    schedule: list | None = None
    oversample: int | None = None
    seed: int | None = None
    sigma: float | None = None
    x_point: int | None = None
    check_name: str | None = None
    extra: dict | None = None

    def __post_init__(self):
        if type(self.op) is not str or self.op not in _OPS:
            raise ConfigError(f"unknown op {self.op!r}; known: {', '.join(_OPS)}")
        if self.op == "check" and (type(self.check_name) is not str or self.check_name not in available_checks()):
            raise ConfigError(f"op 'check' needs a check name (check:<name>), not {self.check_name!r}; "
                              f"known: {', '.join(available_checks())}")
        if self.op != "check" and self.check_name is not None:
            raise ConfigError(f"only op 'check' reads a check_name, not op {self.op!r}")
        for name, (rule, default) in _FIELDS.items():
            if getattr(self, name) is not None:
                _check(getattr(self, name), rule, name)
            elif default is not None and not (self.op == "check" and name in _CHECK_OWN):
                setattr(self, name, _default(default, self))
        if self.schedule is not None and any(b <= a for a, b in zip(self.schedule, self.schedule[1:])):
            raise ConfigError("schedule must be strictly increasing")
        _check_extra(self)

    def canonical_dict(self) -> dict:
        return asdict(self)

    def canonical_json(self) -> str:
        return json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("a config must be a JSON object")
        bad = set(data) - set(cls.__dataclass_fields__)
        if bad:
            raise ConfigError(f"unknown config field(s): {', '.join(sorted(bad))}")
        return cls(**data)


@dataclass
class ResultRecord:
    config_hash: str
    op: str
    rows: list
    summary: dict
    wall_time: float
    library_version: str
    config: dict
    numerics_digest: str = ""  # stamped by cache_store; outside content()

    def content(self) -> dict:
        """The deterministic part: everything except timing."""
        return {"config_hash": self.config_hash, "rows": self.rows, "summary": self.summary}


# -- spec parsing ------------------------------------------------------------


def parse_system(text: str) -> dict:
    """Shorthand like cyclic:521, rotation:89:1, skew:23, random:64:3, identity:4: a kind's first word."""
    short, *args = text.split(":")
    kind = next((kind for kind in _SYSTEMS if kind.split("_")[0] == short and kind != "product"), None)
    if kind is None:
        raise ConfigError(f"unknown system shorthand {short!r}")
    try:  # the arguments fill the kind's fields in their order in _SYSTEMS
        return {"kind": kind, **{key: int(arg) for key, arg in zip(_SYSTEMS[kind], args)}}
    except ValueError as exc:
        raise ConfigError(f"bad system spec {text!r}: {exc}") from None


def parse_function(text: str) -> dict:
    """Shorthand like random:7, character:2, table:1,2j,-1."""
    kind, _, arg = text.partition(":")
    if kind not in ("random", "character", "table"):
        raise ConfigError(f"unknown function shorthand {kind!r}")
    try:
        if kind == "table":
            return {"kind": "table", "values": [[v.real, v.imag] for v in map(complex, arg.split(","))]}
        return {"kind": kind, **{key: int(arg) for key in _FUNCTIONS[kind]}}
    except ValueError as exc:
        raise ConfigError(f"bad function spec {text!r}: {exc}") from None


def parse_schedule(text: str) -> list:
    """Either a comma list (16,32,64) or a geometric range (16..256x2)."""
    if ".." in text:
        head, _, ratio_s = text.partition("x")
        lo_s, _, hi_s = head.partition("..")
        try:
            lo, hi = int(lo_s), int(hi_s)
            ratio = float(ratio_s) if ratio_s else 2.0
        except ValueError as exc:
            raise ConfigError(f"bad schedule {text!r}: {exc}") from None
        if lo < 1 or hi < lo or ratio <= 1.0:
            raise ConfigError(f"bad schedule range {text!r}")
        out = []
        N = float(lo)
        while round(N) <= hi:
            if not out or round(N) > out[-1]:
                out.append(int(round(N)))
            N *= ratio
        return out
    try:
        return [int(v) for v in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad schedule {text!r}: {exc}") from None


def _build_function(spec: dict, system, label: str):
    kind = spec["kind"]
    if kind == "table":
        vals = np.array([complex(re, im) for re, im in spec["values"]])
        if system is not None and len(vals) != system.size:
            raise ConfigError(f"{label}: table length {len(vals)} != system size {system.size}")
        return Observable(vals)
    if kind == "tensor":
        raise ConfigError(f"{label}: a tensor function stands only in 'functions', on system and system_b")
    if system is None:
        raise ConfigError(f"{label}: a {kind} function needs a system")
    return random_mean_zero(system, spec["seed"]) if kind == "random" else character_observable(system, spec["j"])


def _resolve_scene(config: ExperimentConfig):
    """Build the working system and observables for an operation that needs a system."""
    if not config.system:
        raise ConfigError(f"op {config.op!r} needs a system")
    sys_a = build_system(config.system)
    sys_b = build_system(config.system_b) if config.system_b else None
    specs = config.functions or [{"kind": "random", "seed": config.seed}]
    if not any(s["kind"] == "tensor" for s in specs):
        return sys_a, sys_b, [_build_function(s, sys_a, f"functions[{i}]") for i, s in enumerate(specs)]
    if sys_b is None:
        raise ConfigError("tensor functions need both 'system' and 'system_b'")
    working = product_system(sys_a, sys_b)
    functions = [
        tensor_observable(_build_function(s["left"], sys_a, f"functions[{i}].left"),
                          _build_function(s["right"], sys_b, f"functions[{i}].right"))
        if s["kind"] == "tensor" else _build_function(s, working, f"functions[{i}]")
        for i, s in enumerate(specs)
    ]
    return working, sys_b, functions


# -- the runner --------------------------------------------------------------


def _bracket_rows(values):
    return [{"N": int(N), "lower": float(b.lower), "upper": float(b.upper)} for N, b in values]


def run_experiment(config: ExperimentConfig, threads: int = 1, budget=None) -> ResultRecord:
    """Dispatch a config to the library and wrap the outputs in a record."""
    t0 = time.perf_counter()
    op = config.op
    extra = _with_defaults(config.extra, _EXTRAS.get(op, {}), config)
    rows: list = []
    summary: dict = {}
    averaging = dict(threads=threads, budget=budget)

    if op in ("ww", "weak_ww", "decay", "precsim"):
        system, _, functions = _resolve_scene(config)
        f = functions[0]
        average = weak_ww_average if op == "weak_ww" else ww_average
        rows = _bracket_rows([(N, average(system, f, config.k, N, config.oversample, **averaging))
                              for N in config.schedule])
        if op == "decay":
            fit = decay_fit([(r["N"], r["upper"]) for r in rows])
            summary["fit"] = {**asdict(fit), "window": list(fit.window)}
        elif op == "precsim":
            g = functions[1] if len(functions) > 1 else f
            # the fit probes g at every transformed length ceil(N^beta) the
            # exponent grid can produce, so evaluate g there too
            lengths = set(config.schedule)
            for N in config.schedule:
                lengths.update(_ceil_power(N, i, 12) for i in range(1, 13))
            g_rows = []
            for N in sorted(lengths):
                b = ww_average(system, g, extra["k_rhs"], N, config.oversample, **averaging)
                g_rows.append({"N": N, "lower": b.lower, "upper": b.upper})
            witness = precsim_fit([(r["N"], r["upper"]) for r in rows], [(r["N"], r["lower"]) for r in g_rows])
            summary["witness"] = None if witness is None else asdict(witness)
            rows = rows + [dict(r, side="rhs") for r in g_rows]

    elif op == "offdiag":
        system, _, functions = _resolve_scene(config)
        order = len(functions).bit_length() - 1
        if config.k < 2:
            raise ConfigError("op 'offdiag' needs k >= 2")
        if len(functions) == 1:  # the diagonal assignment: the order-k average itself
            out = [(N, ww_average(system, functions[0], config.k, N, config.oversample, **averaging))
                   for N in config.schedule]
        elif len(functions) == 1 << order and order == config.k - 1:
            assignment = CubeAssignment(dict(zip(itertools.product((0, 1), repeat=order), functions)))
            out = [(N, off_diagonal_average(system, assignment, N, config.oversample, **averaging))
                   for N in config.schedule]
        else:
            raise ConfigError(f"op 'offdiag' at k={config.k} needs 1 or 2^{config.k - 1} functions")
        rows = _bracket_rows(out)

    elif op == "mrec":
        system, _, functions = _resolve_scene(config)
        for N in config.schedule:
            m = uniform_mrec_bracket(system, functions[0], config.k, N,
                                     restarts=extra["restarts"], seed=config.seed, budget=budget)
            rows.append({"N": N, "lower": m.lower, "upper": m.upper, "method": m.method})

    elif op in ("polyphase", "return_times", "hilbert"):
        # orbit products prod_j f_j o T^{a_j n}, one exponent per function
        system, sys_y, functions = _resolve_scene(config)
        exponents = ExponentVector(tuple(extra["exponents"]))
        if op == "polyphase":
            rows = _bracket_rows([(N, polyphase_mrec_sup(system, functions, exponents, config.degree, N,
                                                         config.oversample, budget=budget))
                                  for N in config.schedule])
        elif op == "return_times":
            if sys_y is None:
                raise ConfigError("op 'return_times' needs 'system' (base) and 'system_b' (companion)")
            g = _build_function(extra["g"], sys_y, "extra.g")
            for N in config.schedule:
                obs = return_times_average(sys_y, g, extra["poly"], system, functions, exponents,
                                           config.x_point, N, budget)
                norm = integrate(sys_y, obs, p=2)
                rows.append({"N": N, "lower": norm, "upper": norm})
            summary["x_point"] = config.x_point
        else:
            weights = None
            if extra["phase_t"] is not None:
                weights = PhaseWeights(tuple(extra["phase_t"]))
            elif extra["return_weights"] is not None:
                if sys_y is None:
                    raise ConfigError("return-time weights need 'system_b'")
                rw = _with_defaults(extra["return_weights"], _RETURN_WEIGHTS, config)
                g = _build_function(rw["g"], sys_y, "extra.return_weights.g")
                weights = ReturnTimesWeights(sys_y, rw["y_point"], (g,) * len(rw["steps"]), tuple(rw["steps"]))
            sums = hilbert_partial_sums(system, config.x_point, functions, exponents,
                                        config.sigma, config.schedule[-1], weights, budget=budget)
            wanted = set(config.schedule)
            for N, value in sums.entries:
                if N in wanted:
                    rows.append({"N": N, "lower": abs(value), "upper": abs(value),
                                 "re": value.real, "im": value.imag})
            summary["sigma"] = config.sigma

    elif op == "check":
        summary, rows = _run_check(config, threads, budget)

    else:  # boxsweep
        rows = list(level_sweep(tuple(extra["k_values"]), extra["H_max"], extra["q_max"], budget))
        mismatches = sum(row["exact"] != row["brute"] or row["slack"] < 0 for row in rows)
        summary = {"rows": len(rows), "mismatches": mismatches, "verdict": mismatches == 0}

    wall = time.perf_counter() - t0
    return ResultRecord(config.config_hash, op, rows, summary, wall, __version__, config.canonical_dict())


# A check config's systems go to the first parameter of their tuple that the
# check declares, and its observables fill f, g (or f1, f2) in order; an input
# that no declared parameter takes is refused.
_SYSTEM_SLOTS = ("system", "system_a")
_COMPANION_SLOTS = ("system_b", "system_y")
_FUNCTION_SLOTS = ("f", "f1", "g", "f2")
# parameters that hold library objects, which --extra's JSON cannot give
_OBJECT_PARAMS = frozenset(_SYSTEM_SLOTS + _COMPANION_SLOTS + _FUNCTION_SLOTS + (
    "functions", "assignment", "sequence", "partition", "schedule", "g_list", "threads", "budget"))


def _run_check(config: ExperimentConfig, threads: int, budget):
    """Run a named check on the config, routed into the parameters it declares.

    A given system or observable that none of them reads is refused with
    ConfigError, as is a scenario the check rejects (ValueError or
    TypeError); ExperimentConfig matched the extra keys to them already.
    With no observable given, the check draws its own.
    """
    name, specs = config.check_name, config.functions
    params = check_parameters(name)

    def slot(names, what):
        found = [p for p in names if p in params]
        if not found:
            raise ConfigError(f"check {name!r} reads no {what}; it reads {', '.join(params)}")
        return found[0]

    given = {"k": config.k, "oversample": config.oversample, "seed": config.seed, "sigma": config.sigma,
             "threads": threads, "budget": budget}
    if config.schedule is not None:
        given.update(N_values=tuple(config.schedule), N=config.schedule[-1])
    kwargs = {key: value for key, value in given.items() if key in params and value is not None}
    built = None
    if any(s["kind"] == "tensor" for s in specs):
        system, _, built = _resolve_scene(config)  # tensors live on the product system
        companion = None
    else:
        system = build_system(config.system) if config.system else None
        companion = build_system(config.system_b) if config.system_b else None

    def build(i, home):
        return built[i] if built else _build_function(specs[i], home, f"functions[{i}]")

    if system is not None:
        kwargs[slot(_SYSTEM_SLOTS, "system")] = system
    if companion is not None:
        kwargs[slot(_COMPANION_SLOTS, "system_b")] = companion
    if specs and "sequence" in params:
        if len(specs) > 1 or specs[0]["kind"] != "table":
            raise ConfigError(f"check {name!r} reads one table: observable, as its sequence")
        kwargs["sequence"] = np.asarray(build(0, None).values)
    elif specs and "functions" in params:
        kwargs["functions"] = [build(i, system) for i in range(len(specs))]
    elif specs and "assignment" in params:
        order = len(specs).bit_length() - 1
        if order < 1 or len(specs) != 2**order:
            raise ConfigError(f"check {name!r} reads one observable per vertex of a cube, not {len(specs)}")
        vertices = itertools.product((0, 1), repeat=order)
        kwargs["assignment"] = CubeAssignment({v: build(i, system) for i, v in enumerate(vertices)})
    elif specs:
        slots = [p for p in _FUNCTION_SLOTS if p in params]
        if len(specs) > len(slots):
            raise ConfigError(f"check {name!r} reads {len(slots)} observable(s), not {len(specs)}")
        for i, p in enumerate(slots[: len(specs)]):
            kwargs[p] = build(i, companion if p == "g" else system)
    for key, value in config.extra.items():
        if key == "H":  # a list of windows; --H gives one
            key, value = slot(("H_values", "H"), "window H"), value if isinstance(value, list) else [value]
        kwargs[key] = ExponentVector(tuple(value)) if key == "exponents" else value
    try:
        check = run_named_check(name, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"check {name!r}: {exc}") from exc
    rows = [{"N": r.N, "lower": r.lhs, "upper": r.rhs_core, "c": r.c_N, "slack": r.slack,
             "slack_outer": r.slack_outer, "label": r.label} for r in check.rows]
    summary = {"name": check.name, "verdict": bool(check.verdict), "c_max": check.c_max,
               "endpoint_policy": check.endpoint_policy, "constant_free": check.constant_free,
               "notes": check.notes}
    return summary, rows


# -- cache -------------------------------------------------------------------

_NUMERICS_MODULES = ("systems", "supbrackets", "averages", "recurrence", "analysis", "boxes")


@functools.cache
def numerics_digest() -> str:
    """blake2b of the numerics modules' source, read once per process."""
    h = hashlib.blake2b(digest_size=16)
    here = os.path.dirname(os.path.abspath(__file__))
    for name in _NUMERICS_MODULES:
        with open(os.path.join(here, f"{name}.py"), "rb") as fh:
            source = fh.read()
        h.update(f"{name}:{len(source)}:".encode())
        h.update(source)
    return h.hexdigest()


def cache_lookup(cache_dir: str, config_hash: str, log=print):
    path = os.path.join(cache_dir, f"{config_hash}.json")
    if not os.path.exists(path):
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (json.JSONDecodeError, OSError):
        quarantine = f"{path}.corrupt-{int(time.time())}"
        try:
            os.replace(path, quarantine)
            log(f"cache: quarantined corrupt record -> {quarantine}")
        except OSError:
            pass
        return None
    if data.get("library_version") != __version__:
        log(f"cache: version {data.get('library_version')} != {__version__}, recomputing")
        return None
    if data.get("numerics_digest") != numerics_digest():
        log(f"cache: record computed by other numerics ({data.get('numerics_digest') or 'no digest'}), recomputing")
        return None
    return ResultRecord(**data)


def cache_store(cache_dir: str, record: ResultRecord) -> str:
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, f"{record.config_hash}.json")
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump({**asdict(record), "numerics_digest": numerics_digest()}, fh, sort_keys=True)
    os.replace(tmp, path)
    return path


# -- reports -----------------------------------------------------------------


class ReportError(ValueError):
    """Nothing to report, or the output path cannot be written."""


def emit_report(records, fmt: str, out_dir: str) -> list:
    """Write csv / json / plotdata files for the given records."""
    records = list(records)
    if not records:
        raise ReportError("no records selected")
    if fmt not in ("csv", "json", "plotdata"):
        raise ReportError(f"unknown report format {fmt!r}")
    os.makedirs(out_dir, exist_ok=True)
    if fmt != "csv":
        path = os.path.join(out_dir, "report.json" if fmt == "json" else "plotdata.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(r) if fmt == "json" else _plot_entry(r) for r in records], fh, sort_keys=True, indent=1)
        return [path]
    # records with N rows in one table, the others in a table of all their row keys
    standard = [r for r in records if r.rows and "N" in r.rows[0]]
    other = [r for r in records if r not in standard]
    written = []
    for name, group, keys in (("report.csv", standard, ["N", "lower", "upper"]),
                              ("report-wide.csv", other, sorted({k for r in other for row in r.rows for k in row}))):
        if group:
            written.append(os.path.join(out_dir, name))
            with open(written[-1], "w", encoding="utf-8") as fh:
                fh.write(",".join(["config_hash", *keys]) + "\n")
                fh.writelines(",".join([rec.config_hash, *(str(row.get(k, "")) for k in keys)]) + "\n"
                              for rec in group for row in rec.rows)
    return written


def _plot_entry(rec: ResultRecord) -> dict:
    """A record's log-log points (N, lower, upper), with its fitted line where it has one."""
    points = [[math.log(row["N"]), math.log(row["lower"]), math.log(row["upper"])] for row in rec.rows
              if row.get("N") and row.get("lower", 0) > 0 and row.get("upper", 0) > 0]
    entry = {"config_hash": rec.config_hash, "points": points}
    fit = rec.summary.get("fit")
    if fit and math.isfinite(fit["alpha_hat"]):
        entry["fit_line"] = {"slope": -fit["alpha_hat"], "intercept": math.log(fit["C_hat"])}
    return entry


# -- argparse front end ------------------------------------------------------


def _print_record(record: ResultRecord):
    print(f"# {record.op}  config {record.config_hash}  ({record.wall_time:.2f}s)")
    if record.rows and "N" in record.rows[0]:
        header = [k for k in ("N", "lower", "upper", "c", "slack", "label") if k in record.rows[0]]
        print("  " + "  ".join(f"{h:>12s}" for h in header))
        for row in record.rows:
            print("  " + "  ".join(f"{row[h]:12.6g}" if isinstance(row[h], (int, float)) else f"{str(row[h]):>12s}"
                                   for h in header))
    for key, value in record.summary.items():
        print(f"  {key}: {value}")


def _config_from_args(args) -> ExperimentConfig:
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        return ExperimentConfig.from_dict(data)
    if not args.op:
        raise ConfigError("either --config or --op is required")
    op, _, check_name = args.op.partition(":")
    try:
        extra = json.loads(args.extra) if args.extra else {}
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--extra must be JSON: {exc}") from None
    if args.H is not None and type(extra) is dict:
        extra["H"] = args.H
    return ExperimentConfig(
        op=op, check_name=check_name or None, k=args.k, degree=args.degree, oversample=args.oversample,
        seed=args.seed, sigma=args.sigma, x_point=args.x, extra=extra,
        system=parse_system(args.system) if args.system else None,
        system_b=parse_system(args.system_b) if args.system_b else None,
        functions=[parse_function(f) for f in args.f or []],
        schedule=parse_schedule(args.N) if args.N else None,
    )


def _add_run_flags(p):
    p.add_argument("--config", help="JSON config file (overrides the flags)")
    p.add_argument("--op", help="operation, e.g. ww, weak_ww, mrec, check:vdc")
    p.add_argument("--system", help="system shorthand, e.g. cyclic:521")
    p.add_argument("--system-b", dest="system_b", help="companion/second system")
    p.add_argument("--f", action="append", help="function shorthand (repeatable)")
    # a flag left out takes its field's default in _FIELDS (or the check's own)
    p.add_argument("--k", type=int, help="order parameter")
    p.add_argument("--degree", type=int, default=1, help="phase degree (polyphase)")
    p.add_argument("--N", help="schedule: 16,32,64 or 16..256x2")
    p.add_argument("--oversample", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--sigma", type=float)
    p.add_argument("--x", type=int, default=0, help="base point index")
    p.add_argument("--H", type=int, help="window parameter for checks that take one")
    p.add_argument("--extra", help="JSON dict of op-specific extras")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--budget", type=float, default=None)
    p.add_argument("--out", default="wwlab-out", help="output/cache directory")
    p.add_argument("--no-cache", action="store_true")


def _exit_code_for(record: ResultRecord) -> int:
    verdict = record.summary.get("verdict")
    return 0 if verdict in (None, True) else 1


def _cmd_run(args) -> int:
    config = _config_from_args(args)
    cache_dir = os.path.join(args.out, "cache")
    if not args.no_cache:
        hit = cache_lookup(cache_dir, config.config_hash)
        if hit is not None:
            print(f"cache hit for {config.config_hash}")
            _print_record(hit)
            return _exit_code_for(hit)
    record = run_experiment(config, threads=args.threads, budget=args.budget)
    cache_store(cache_dir, record)
    _print_record(record)
    return _exit_code_for(record)


def _cmd_report(args) -> int:
    cache_dir = os.path.join(args.out, "cache")
    names = sorted(os.listdir(cache_dir)) if os.path.isdir(cache_dir) else []
    records = [cache_lookup(cache_dir, name[: -len(".json")]) for name in names if name.endswith(".json")]
    records = [rec for rec in records if rec is not None and (not args.hash or rec.config_hash in args.hash)]
    for path in emit_report(records, args.format, args.out):
        print(f"wrote {path}")
    return 0


def _cmd_sweep(args) -> int:
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [args.seed]
    k_values = [int(k) for k in args.k_values.split(",")] if args.k_values else [args.k]
    worst = 0
    for seed, k in itertools.product(seeds, k_values):
        args.seed, args.k = seed, k
        given = " ".join(f"{name} {value}" for name, value in (("seed", seed), ("k", k)) if value is not None)
        print(f"== {given or 'defaults'} ==")
        worst = max(worst, _cmd_run(args))
    return worst


def _cmd_boxsweep(args) -> int:
    k_values = [int(k) for k in args.k_values.split(",")] if args.k_values else [1, 2, 3]
    extra = {"k_values": k_values, "H_max": args.H_max, "q_max": args.q_max}
    record = run_experiment(ExperimentConfig(op="boxsweep", schedule=[1], extra=extra))
    print(f"boxsweep: {record.summary['rows']} rows, {record.summary['mismatches']} mismatches")
    cache_store(os.path.join(args.out, "cache"), record)
    return 0 if record.summary["verdict"] else 1


def _cmd_selftest(args) -> int:
    from .acceptance import run_all

    results = run_all(only=args.criteria)
    failed = [name for name, ok, _ in results if not ok]
    for name, ok, detail in results:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wwlab",
        description="numerical laboratory for weighted ergodic averages on finite systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment config")
    _add_run_flags(run_p)
    run_p.set_defaults(func=_cmd_run)

    rep_p = sub.add_parser("report", help="render cached records")
    rep_p.add_argument("--out", default="wwlab-out")
    rep_p.add_argument("--format", choices=("csv", "json", "plotdata"), default="csv")
    rep_p.add_argument("--hash", action="append", help="restrict to these config hashes")
    rep_p.set_defaults(func=_cmd_report)

    sweep_p = sub.add_parser("sweep", help="run a config over seed/order grids")
    _add_run_flags(sweep_p)
    sweep_p.add_argument("--seeds", help="comma list of seeds")
    sweep_p.add_argument("--k-values", dest="k_values", help="comma list of orders")
    sweep_p.set_defaults(func=_cmd_sweep)

    box_p = sub.add_parser("boxsweep", help="exhaustive lattice-count verification")
    box_p.add_argument("--k-values", dest="k_values")
    box_p.add_argument("--H-max", dest="H_max", type=int, default=5)
    box_p.add_argument("--q-max", dest="q_max", type=int, default=15)
    box_p.add_argument("--out", default="wwlab-out")
    box_p.set_defaults(func=_cmd_boxsweep)

    self_p = sub.add_parser("selftest", help="run the acceptance criteria")
    self_p.add_argument("--criteria", help="comma list of criterion numbers to run")
    self_p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, BudgetExceeded) as exc:  # ConfigError, ReportError, a value the library refuses
        print(f"{'budget refusal' if isinstance(exc, BudgetExceeded) else 'error'}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
