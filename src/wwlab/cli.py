"""Configuration-driven experiment runner.

A config names a system, observables, an operation, and an N schedule; the
runner dispatches to the library, caches the per-N outputs under a content
hash of the semantic fields, and renders tables, CSV/JSON reports, or
log-log plot data.  Thread count and budget are resource knobs, not
semantics, so they stay out of the hash.  A cached record also carries a
digest of the numerics modules' source, so a record computed before an edit
to the numerics is recomputed after it.

Exit codes: 0 when everything ran and passed, 1 when a check or selftest
reported a failure, 2 for configuration problems, including a value the
library refuses and budget refusal.
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
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from ._util import BudgetExceeded
from .analysis import (
    _ceil_power,
    available_checks,
    check_parameters,
    decay_fit,
    hilbert_partial_sums,
    precsim_fit,
    run_named_check,
    PhaseWeights,
    ReturnTimesWeights,
)
from .averages import CubeAssignment, off_diagonal_average, weak_ww_average, ww_average
from .boxes import level_sweep
from .recurrence import (
    ExponentVector,
    polyphase_mrec_sup,
    return_times_average,
    uniform_mrec_bracket,
)
from .systems import (
    Observable,
    build_system,
    character_observable,
    integrate,
    product_system,
    random_mean_zero,
    tensor_observable,
)

_OPS = (
    "ww", "weak_ww", "offdiag", "mrec", "polyphase", "return_times",
    "hilbert", "check", "boxsweep", "decay", "precsim",
)


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


# Values an operation runs with when its config leaves these fields out.  A
# check config keeps them None, so the check falls back on its own defaults.
_RUN_DEFAULTS = {"k": 1, "schedule": (16, 32, 64), "oversample": 16, "seed": 0, "sigma": 1.0}


# -- configuration -----------------------------------------------------------


@dataclass
class ExperimentConfig:
    op: str
    system: dict | None = None
    system_b: dict | None = None
    functions: list = field(default_factory=list)
    k: int | None = None
    degree: int = 1
    schedule: list | None = None
    oversample: int | None = None
    seed: int | None = None
    sigma: float | None = None
    x_point: int = 0
    check_name: str | None = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.op not in _OPS:
            raise ConfigError(f"unknown op {self.op!r}; known: {', '.join(_OPS)}")
        if not isinstance(self.extra, dict):
            raise ConfigError("extra must be a JSON object")
        if self.op == "check":
            if not self.check_name:
                raise ConfigError("op 'check' needs a check name (check:<name>)")
            if self.check_name not in available_checks():
                raise ConfigError(
                    f"unknown check {self.check_name!r}; known: {', '.join(available_checks())}"
                )
        if self.op != "check":
            for name, value in _RUN_DEFAULTS.items():
                if getattr(self, name) is None:
                    setattr(self, name, value)
        if self.schedule is not None:
            if not self.schedule:
                raise ConfigError("schedule must be nonempty")
            cleaned = [int(N) for N in self.schedule]
            if any(N < 1 for N in cleaned):
                raise ConfigError("schedule entries must be >= 1")
            if any(b <= a for a, b in zip(cleaned, cleaned[1:])):
                raise ConfigError("schedule must be strictly increasing")
            self.schedule = cleaned
        if self.k is not None and self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.degree < 1:
            raise ConfigError("degree must be >= 1")
        if self.oversample is not None and self.oversample < 4:
            raise ConfigError("oversample must be >= 4")

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
        known = {f for f in cls.__dataclass_fields__}
        bad = set(data) - known
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
    """Shorthand like cyclic:521, rotation:89:1, skew:23, random:64:3, identity:4."""
    parts = text.split(":")
    kind, args = parts[0], parts[1:]
    try:
        if kind == "cyclic":
            return {"kind": "cyclic_shift", "p": int(args[0])}
        if kind == "rotation":
            return {"kind": "rotation_approx", "p": int(args[0]), "j": int(args[1])}
        if kind == "skew":
            return {"kind": "skew_product", "p": int(args[0])}
        if kind == "random":
            return {"kind": "random_permutation", "size": int(args[0]), "seed": int(args[1])}
        if kind == "identity":
            return {"kind": "identity", "size": int(args[0])}
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"bad system spec {text!r}: {exc}") from None
    raise ConfigError(f"unknown system shorthand {kind!r}")


def parse_function(text: str) -> dict:
    """Shorthand like random:7, character:2, table:1,2j,-1."""
    kind, _, arg = text.partition(":")
    try:
        if kind == "random":
            return {"kind": "random", "seed": int(arg)}
        if kind == "character":
            return {"kind": "character", "j": int(arg)}
        if kind == "table":
            return {"kind": "table", "values": [[v.real, v.imag] for v in map(complex, arg.split(","))]}
    except ValueError as exc:
        raise ConfigError(f"bad function spec {text!r}: {exc}") from None
    raise ConfigError(f"unknown function shorthand {kind!r}")


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
    if not isinstance(spec, dict):
        raise ConfigError(f"{label} must be a JSON object, not {spec!r}")
    kind = spec.get("kind")
    if kind == "random":
        if system is None:
            raise ConfigError(f"{label}: random function needs a system")
        return random_mean_zero(system, spec["seed"])
    if kind == "character":
        if system is None:
            raise ConfigError(f"{label}: character function needs a system")
        return character_observable(system, spec["j"])
    if kind == "table":
        vals = np.array([complex(re, im) for re, im in spec["values"]])
        if system is not None and len(vals) != system.size:
            raise ConfigError(f"{label}: table length {len(vals)} != system size {system.size}")
        return Observable(vals)
    raise ConfigError(f"{label}: unknown function kind {kind!r}")


def _extra_list(extra: dict, key: str, default, label: str = "extra"):
    """``extra[key]``, which JSON must give as a list, or ``default`` when it is absent."""
    if key not in extra:
        return default
    value = extra[key]
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{label} key {key!r} must be a list, not {value!r}")
    return value


def _resolve_scene(config: ExperimentConfig):
    """Build the working system and observables for an operation that needs a system."""
    if not config.system:
        raise ConfigError(f"op {config.op!r} needs a system")
    sys_a = build_system(config.system)
    sys_b = build_system(config.system_b) if config.system_b else None
    specs = config.functions or [{"kind": "random", "seed": config.seed}]
    tensored = any(s.get("kind") == "tensor" for s in specs)
    if tensored:
        if sys_b is None:
            raise ConfigError("tensor functions need both 'system' and 'system_b'")
        working = product_system(sys_a, sys_b)
        functions = []
        for i, s in enumerate(specs):
            if s.get("kind") == "tensor":
                left = _build_function(s["left"], sys_a, f"functions[{i}].left")
                right = _build_function(s["right"], sys_b, f"functions[{i}].right")
                functions.append(tensor_observable(left, right))
            else:
                functions.append(_build_function(s, working, f"functions[{i}]"))
        return working, sys_b, functions
    functions = [_build_function(s, sys_a, f"functions[{i}]") for i, s in enumerate(specs)]
    return sys_a, sys_b, functions


# -- the runner --------------------------------------------------------------


def _bracket_rows(values):
    return [{"N": int(N), "lower": float(b.lower), "upper": float(b.upper)} for N, b in values]


def run_experiment(config: ExperimentConfig, threads: int = 1, budget=None) -> ResultRecord:
    """Dispatch a config to the library and wrap the outputs in a record."""
    t0 = time.perf_counter()
    op = config.op
    rows: list = []
    summary: dict = {}

    if op in ("ww", "weak_ww", "decay", "precsim"):
        system, _, functions = _resolve_scene(config)
        f = functions[0]
        out = []
        for N in config.schedule:
            if op == "weak_ww":
                b = weak_ww_average(system, f, config.k, N, config.oversample,
                                    threads=threads, budget=budget)
            else:
                b = ww_average(system, f, config.k, N, config.oversample,
                               threads=threads, budget=budget)
            out.append((N, b))
        rows = _bracket_rows(out)
        if op == "decay":
            fit = decay_fit([(r["N"], r["upper"]) for r in rows])
            summary["fit"] = {"alpha_hat": fit.alpha_hat, "C_hat": fit.C_hat,
                              "r_squared": fit.r_squared, "window": list(fit.window)}
        elif op == "precsim":
            g = functions[1] if len(functions) > 1 else f
            k_rhs = int(config.extra.get("k_rhs", config.k))
            # the fit probes g at every transformed length ceil(N^beta) the
            # exponent grid can produce, so evaluate g there too
            lengths = set(config.schedule)
            for N in config.schedule:
                for i in range(1, 13):
                    lengths.add(_ceil_power(N, i, 12))
            g_rows = []
            for N in sorted(lengths):
                b = ww_average(system, g, k_rhs, N, config.oversample,
                               threads=threads, budget=budget)
                g_rows.append({"N": N, "lower": b.lower, "upper": b.upper})
            witness = precsim_fit(
                [(r["N"], r["upper"]) for r in rows],
                [(r["N"], r["lower"]) for r in g_rows],
            )
            summary["witness"] = None if witness is None else {
                "C": witness.C, "alpha": witness.alpha, "beta": witness.beta,
                "gamma": witness.gamma, "phi_kind": witness.phi_kind,
                "N_0": witness.N_0, "residual": witness.residual,
            }
            rows = rows + [dict(r, side="rhs") for r in g_rows]

    elif op == "offdiag":
        system, _, functions = _resolve_scene(config)
        order = config.k - 1
        if order < 1:
            raise ConfigError("op 'offdiag' needs k >= 2")
        vertices = list(itertools.product((0, 1), repeat=order))
        if len(functions) == 1:
            assignment = CubeAssignment.diagonal(functions[0], order)
        elif len(functions) == len(vertices):
            assignment = CubeAssignment(dict(zip(vertices, functions)))
        else:
            raise ConfigError(
                f"op 'offdiag' at k={config.k} needs 1 or {len(vertices)} functions"
            )
        out = [(N, off_diagonal_average(system, assignment, N, config.oversample,
                                        threads=threads, budget=budget))
               for N in config.schedule]
        rows = _bracket_rows(out)

    elif op == "mrec":
        system, _, functions = _resolve_scene(config)
        restarts = int(config.extra.get("restarts", 2))
        for N in config.schedule:
            m = uniform_mrec_bracket(system, functions[0], config.k, N,
                                     restarts=restarts, seed=config.seed, budget=budget)
            rows.append({"N": N, "lower": m.lower, "upper": m.upper, "method": m.method})

    elif op in ("polyphase", "return_times", "hilbert"):
        # orbit products prod_j f_j o T^{a_j n}, one exponent per function
        system, sys_y, functions = _resolve_scene(config)
        exponents = ExponentVector(tuple(_extra_list(config.extra, "exponents", range(1, len(functions) + 1))))
        if op == "polyphase":
            out = [(N, polyphase_mrec_sup(system, functions, exponents, config.degree, N,
                                          config.oversample, budget=budget))
                   for N in config.schedule]
            rows = _bracket_rows(out)
        elif op == "return_times":
            if sys_y is None:
                raise ConfigError("op 'return_times' needs 'system' (base) and 'system_b' (companion)")
            g_spec = config.extra.get("g", {"kind": "random", "seed": config.seed + 1})
            g = _build_function(g_spec, sys_y, "extra.g")
            poly = [int(c) for c in _extra_list(config.extra, "poly", [0, 1])]
            for N in config.schedule:
                obs = return_times_average(sys_y, g, poly, system, functions, exponents,
                                           config.x_point, N, budget)
                norm = integrate(sys_y, obs, p=2)
                rows.append({"N": N, "lower": norm, "upper": norm})
            summary["x_point"] = config.x_point
        else:
            weights = None
            if "phase_t" in config.extra:
                weights = PhaseWeights(tuple(float(t) for t in _extra_list(config.extra, "phase_t", ())))
            elif "return_weights" in config.extra:
                rw = config.extra["return_weights"]
                if not isinstance(rw, dict):
                    raise ConfigError(f"extra.return_weights must be a JSON object, not {rw!r}")
                if sys_y is None:
                    raise ConfigError("return-time weights need 'system_b'")
                g = _build_function(rw.get("g", {"kind": "random", "seed": config.seed + 1}),
                                    sys_y, "extra.return_weights.g")
                steps = tuple(_extra_list(rw, "steps", (1,), "extra.return_weights"))
                weights = ReturnTimesWeights(sys_y, int(rw.get("y_point", 0)), (g,) * len(steps), steps)
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

    elif op == "boxsweep":
        k_values = tuple(_extra_list(config.extra, "k_values", (1, 2, 3)))
        H_max = int(config.extra.get("H_max", 5))
        q_max = int(config.extra.get("q_max", 15))
        mismatches = 0
        for row in level_sweep(k_values, H_max, q_max):
            if row["exact"] != row["brute"] or row["slack"] < 0:
                mismatches += 1
            rows.append(row)
        summary = {"rows": len(rows), "mismatches": mismatches, "verdict": mismatches == 0}

    else:  # pragma: no cover - _OPS guard makes this unreachable
        raise ConfigError(f"unhandled op {op!r}")

    wall = time.perf_counter() - t0
    return ResultRecord(config.config_hash, op, rows, summary, wall, __version__,
                        config.canonical_dict())


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

    A given system, observable or extra key that none of them reads is
    refused with ConfigError, as is a scenario the check rejects (ValueError
    or TypeError).  With no observable given, the check draws its own.
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
    if any(s.get("kind") == "tensor" for s in specs):
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
        if len(specs) > 1 or specs[0].get("kind") != "table":
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
        if key in _OBJECT_PARAMS:
            raise ConfigError(f"extra key {key!r} cannot be given as JSON")
        kwargs[slot((key,), f"extra key {key!r}")] = value
    try:
        if "exponents" in config.extra:
            kwargs["exponents"] = ExponentVector(tuple(kwargs["exponents"]))
        check = run_named_check(name, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"check {name!r}: {exc}") from exc
    rows = [
        {"N": r.N, "lower": r.lhs, "upper": r.rhs_core, "c": r.c_N,
         "slack": r.slack, "slack_outer": r.slack_outer, "label": r.label}
        for r in check.rows
    ]
    summary = {
        "name": check.name,
        "verdict": bool(check.verdict),
        "c_max": check.c_max,
        "endpoint_policy": check.endpoint_policy,
        "constant_free": check.constant_free,
        "notes": check.notes,
    }
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
    os.makedirs(out_dir, exist_ok=True)
    written = []
    if fmt == "json":
        path = os.path.join(out_dir, "report.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(r) for r in records], fh, sort_keys=True, indent=1)
        written.append(path)
    elif fmt == "csv":
        standard = [r for r in records if r.rows and "N" in r.rows[0]]
        other = [r for r in records if r not in standard]
        if standard:
            path = os.path.join(out_dir, "report.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("config_hash,N,lower,upper\n")
                for rec in standard:
                    for row in rec.rows:
                        fh.write(f"{rec.config_hash},{row['N']},{row.get('lower', '')},"
                                 f"{row.get('upper', '')}\n")
            written.append(path)
        if other:
            path = os.path.join(out_dir, "report-wide.csv")
            keys = sorted({k for rec in other for row in rec.rows for k in row})
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("config_hash," + ",".join(keys) + "\n")
                for rec in other:
                    for row in rec.rows:
                        fh.write(rec.config_hash + "," +
                                 ",".join(str(row.get(k, "")) for k in keys) + "\n")
            written.append(path)
    elif fmt == "plotdata":
        path = os.path.join(out_dir, "plotdata.json")
        payload = []
        for rec in records:
            points = [
                [math.log(row["N"]), math.log(row["lower"]), math.log(row["upper"])]
                for row in rec.rows
                if row.get("N") and row.get("lower", 0) > 0 and row.get("upper", 0) > 0
            ]
            entry = {"config_hash": rec.config_hash, "points": points}
            fit = rec.summary.get("fit")
            if fit and math.isfinite(fit["alpha_hat"]):
                entry["fit_line"] = {"slope": -fit["alpha_hat"],
                                     "intercept": math.log(fit["C_hat"])}
            payload.append(entry)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
        written.append(path)
    else:
        raise ReportError(f"unknown report format {fmt!r}")
    return written


# -- argparse front end ------------------------------------------------------


def _print_record(record: ResultRecord):
    print(f"# {record.op}  config {record.config_hash}  ({record.wall_time:.2f}s)")
    if record.rows and "N" in record.rows[0]:
        header = [k for k in ("N", "lower", "upper", "c", "slack", "label") if k in record.rows[0]]
        print("  " + "  ".join(f"{h:>12s}" for h in header))
        for row in record.rows:
            cells = []
            for h in header:
                v = row[h]
                cells.append(f"{v:12.6g}" if isinstance(v, (int, float)) else f"{str(v):>12s}")
            print("  " + "  ".join(cells))
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
    op = args.op
    check_name = None
    if op and op.startswith("check:"):
        op, check_name = op.split(":", 1)
    if not op:
        raise ConfigError("either --config or --op is required")
    extra = {}
    if args.extra:
        try:
            extra = json.loads(args.extra)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--extra must be JSON: {exc}") from None
    if args.H is not None:
        extra["H"] = args.H
    return ExperimentConfig(
        op=op,
        system=parse_system(args.system) if args.system else None,
        system_b=parse_system(args.system_b) if args.system_b else None,
        functions=[parse_function(f) for f in args.f or []],
        k=args.k,
        degree=args.degree,
        schedule=parse_schedule(args.N) if args.N else None,
        oversample=args.oversample,
        seed=args.seed,
        sigma=args.sigma,
        x_point=args.x,
        check_name=check_name,
        extra=extra,
    )


def _add_run_flags(p):
    p.add_argument("--config", help="JSON config file (overrides the flags)")
    p.add_argument("--op", help="operation, e.g. ww, weak_ww, mrec, check:vdc")
    p.add_argument("--system", help="system shorthand, e.g. cyclic:521")
    p.add_argument("--system-b", dest="system_b", help="companion/second system")
    p.add_argument("--f", action="append", help="function shorthand (repeatable)")
    # --k, --N, --oversample, --seed and --sigma default to _RUN_DEFAULTS,
    # or for a check to the check's own defaults
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
    records = []
    if os.path.isdir(cache_dir):
        for name in sorted(os.listdir(cache_dir)):
            if not name.endswith(".json"):
                continue
            rec = cache_lookup(cache_dir, name[: -len(".json")])
            if rec is not None and (not args.hash or rec.config_hash in args.hash):
                records.append(rec)
    written = emit_report(records, args.format, args.out)
    for path in written:
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
    config = ExperimentConfig(
        op="boxsweep",
        schedule=[1],
        extra={
            "k_values": [int(k) for k in args.k_values.split(",")] if args.k_values else [1, 2, 3],
            "H_max": args.H_max,
            "q_max": args.q_max,
        },
    )
    record = run_experiment(config)
    print(f"boxsweep: {record.summary['rows']} rows, "
          f"{record.summary['mismatches']} mismatches")
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
    except ValueError as exc:  # ConfigError, ReportError, or a value the library refuses
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
