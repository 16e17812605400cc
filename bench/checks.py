"""Correctness checks on a workload's outputs, run outside the timed region.

A config fails when it raised, returned no rows, returned a non-finite or
inverted row, failed its check verdict, returned a row that is disjoint from
or looser than the stored reference row, or returned a value that an
independent orbit walk does not reproduce. Every failure is counted in
``error_rate``.
"""
from __future__ import annotations

import cmath
import hashlib
import json
import math
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
BRACKET_OPS = ("ww", "weak_ww", "mrec")
STORED_OPS = BRACKET_OPS + ("check",)
# How much looser than the stored row a row may be: a bracket at most
# (1 + WIDTH_SLACK) times as wide, a lower end (a check's lhs) at least
# (1 - LOWER_SLACK) times the stored one. The lower end of an mrec row and
# the lhs of a bourgain row are the ascent value, which stopping the ascent
# at 20 cycles instead of 60 lowers by 0.1-0.4% while the cap keeps the
# bracket's width almost unchanged.
WIDTH_SLACK = 0.25
LOWER_SLACK = 1e-3
WALK_RTOL = 1e-12


class WalkMismatch(Exception):
    """The library's orbit primitive disagrees with the forward map."""


def config_digest(config: dict) -> str:
    """Key of a config's stored reference rows."""
    text = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_reference(path: str = REFERENCE_PATH) -> dict:
    """Config digest -> [[N, lower, upper], ...] stored for that config."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def reference_rows(configs, results) -> dict:
    """Config digest -> [[N, lower, upper], ...] for brackets and checks.

    A check row's lower and upper are its lhs and rhs.
    """
    return {config_digest(cfg): [[r["N"], r["lower"], r["upper"]] for r in res["rows"]]
            for cfg, res in zip(configs, results) if cfg["op"] in STORED_OPS}


def width_rel_max(configs, results) -> float:
    """Largest (upper - lower) / lower over bracket rows; check rows excluded."""
    widths = [(r["upper"] - r["lower"]) / r["lower"]
              for cfg, res in zip(configs, results) if cfg["op"] != "check"
              for r in res["rows"] if r["lower"] > 0]
    return max(widths, default=0.0)


def _finite(row: dict) -> bool:
    return all(math.isfinite(v) for v in row.values() if isinstance(v, (int, float)))


def row_problems(config: dict, result: dict, reference=None) -> list:
    """Reasons this config's result is wrong, from its rows alone."""
    if result.get("error"):
        return [result["error"]]
    rows = result["rows"]
    if not rows:
        return ["no rows"]
    problems = []
    for row in rows:
        if not _finite(row):
            problems.append(f"non-finite row at N={row.get('N')}")
        elif config["op"] != "check" and not row["lower"] <= row["upper"]:
            problems.append(f"inverted bracket at N={row['N']}")
    if config["op"] == "check" and result["summary"].get("verdict") is not True:
        problems.append("check verdict is not a pass")
    if reference is not None:
        got = {r["N"]: (r["lower"], r["upper"]) for r in rows}
        for N, lo, up in reference:
            if N not in got:
                problems.append(f"no row for reference N={N}")
            else:
                problems += _looser(config["op"] != "check", N, got[N], (lo, up))
    return problems


def _looser(bracket: bool, N, got: tuple, ref: tuple) -> list:
    """Ways row ``got`` is wrong or looser than the stored row ``ref``.

    Any valid enclosure of the same value intersects the stored bracket.
    Beyond that, a bracket may be at most WIDTH_SLACK wider, and a lower end
    at most LOWER_SLACK lower, than stored.
    """
    (lo, up), (ref_lo, ref_up) = got, ref
    text = f"N={N}: [{lo!r}, {up!r}] against reference [{ref_lo!r}, {ref_up!r}]"
    problems = []
    if bracket and max(lo, ref_lo) > min(up, ref_up):
        problems.append(f"{text}: misses reference")
    if bracket and up - lo > (1 + WIDTH_SLACK) * (ref_up - ref_lo):
        problems.append(f"{text}: more than {WIDTH_SLACK:.0%} wider")
    if ref_lo > 0 and lo < (1 - LOWER_SLACK) * ref_lo:
        problems.append(f"{text}: lower end more than {LOWER_SLACK:.1%} lower")
    return problems


# -- independent orbit walks -------------------------------------------------


class OrbitWalker:
    """Recomputes hilbert and return_times rows point by point.

    The X side steps with ``systems.iterate``. The Y side of return_times
    needs every point at every length, so it uses a cycle table built here
    from the forward map and spot-checked against ``iterate``.
    """

    def __init__(self, modules: dict):
        self.systems = modules["systems"]
        self._built: dict = {}

    def system(self, spec: dict):
        key = json.dumps(spec, sort_keys=True)
        if key not in self._built:
            self._built[key] = self.systems.build_system(spec)
        return self._built[key]

    def observable(self, spec: dict, system):
        if spec.get("kind") != "random":
            raise ValueError(f"walks support random observables only, not {spec!r}")
        return self.systems.random_mean_zero(system, spec["seed"])

    def _functions(self, config: dict, system) -> list:
        specs = config.get("functions") or [{"kind": "random", "seed": config.get("seed", 0)}]
        return [self.observable(s, system).values for s in specs]

    def _x_scalars(self, config: dict, system, N: int) -> list:
        """prod_j f_j(T^{a_j n} x) for n = 1..N."""
        functions = self._functions(config, system)
        exponents = config.get("extra", {}).get("exponents", range(1, len(functions) + 1))
        x = config.get("x_point", 0)
        out = []
        for n in range(1, N + 1):
            term = 1 + 0j
            for f, a in zip(functions, exponents):
                term *= complex(f[self.systems.iterate(system, x, a * n)])
            out.append(term)
        return out

    def hilbert(self, config: dict) -> dict:
        """N -> partial sum of w_n prod_j f_j(T^{a_j n} x) / n^sigma."""
        system = self.system(config["system"])
        N_max = max(config["schedule"])
        scalars = self._x_scalars(config, system, N_max)
        extra = config.get("extra", {})
        if "phase_t" in extra:
            weights = [cmath.exp(2j * math.pi * sum(t * n ** (m + 1)
                                                    for m, t in enumerate(extra["phase_t"])))
                       for n in range(1, N_max + 1)]
        elif "return_weights" in extra:
            rw = extra["return_weights"]
            sys_y = self.system(config["system_b"])
            g = self.observable(rw.get("g", {"kind": "random", "seed": config.get("seed", 0) + 1}),
                                sys_y).values
            y, steps = rw.get("y_point", 0), rw.get("steps", [1])
            weights = []
            for n in range(1, N_max + 1):
                w = 1 + 0j
                for b in steps:
                    w *= complex(g[self.systems.iterate(sys_y, y, b * n)])
                weights.append(w)
        else:
            weights = [1 + 0j] * N_max
        sigma = config.get("sigma", 1.0)
        terms = [w * s / n ** sigma for n, (w, s) in enumerate(zip(weights, scalars), start=1)]
        return {N: complex(math.fsum(t.real for t in terms[:N]), math.fsum(t.imag for t in terms[:N]))
                for N in config["schedule"]}

    def _cycle_table(self, system):
        """(flat cycles, start of own cycle, position, cycle length) per point."""
        fwd = system.forward
        M = system.size
        flat = np.empty(M, dtype=np.int64)
        start = np.empty(M, dtype=np.int64)
        pos = np.empty(M, dtype=np.int64)
        length = np.empty(M, dtype=np.int64)
        seen = np.zeros(M, dtype=bool)
        filled = 0
        for p in range(M):
            if seen[p]:
                continue
            first, j = filled, p
            while not seen[j]:
                seen[j] = True
                flat[filled] = j
                pos[j] = filled - first
                start[j] = first
                filled += 1
                j = int(fwd[j])
            length[flat[first:filled]] = filled - first
        for y in range(0, M, max(1, M // 7)):  # spot-check against the library
            m = 3 * y + 1
            mine = flat[start[y] + (pos[y] + m) % length[y]]
            if mine != self.systems.iterate(system, y, m):
                raise WalkMismatch(f"iterate({y}, {m}) disagrees with the forward map")
        return flat, start, pos, length

    def return_times(self, config: dict) -> dict:
        """N -> L2 norm of y -> (1/N) sum_n g(S^{P(n)} y) prod_j f_j(T^{a_j n} x)."""
        system = self.system(config["system"])
        sys_y = self.system(config["system_b"])
        extra = config.get("extra", {})
        g = self.observable(extra.get("g", {"kind": "random", "seed": config.get("seed", 0) + 1}),
                            sys_y).values
        poly = [int(c) for c in extra.get("poly", [0, 1])]
        flat, start, pos, length = self._cycle_table(sys_y)
        scalars = self._x_scalars(config, system, max(config["schedule"]))
        out = {}
        for N in config["schedule"]:
            acc = np.zeros(sys_y.size, dtype=np.complex128)
            for n in range(1, N + 1):
                P = sum(c * n**i for i, c in enumerate(poly))
                acc += g[flat[start + (pos + P % length) % length]] * scalars[n - 1]
            obs = acc / N
            out[N] = math.sqrt(math.fsum((sys_y.weights * np.abs(obs) ** 2).tolist()))
        return out


def count_failures(configs, passes, reference=None, walker=None) -> tuple:
    """(attempted, failed, problems) over every pass of one config list.

    ``passes`` holds each pass's per-config results. The first pass is checked
    in full; a later pass fails a config when its result differs from the
    first pass's. ``reference`` maps config digests to stored bracket rows.
    """
    first = passes[0]
    attempted = failed = 0
    problems = []
    for i, config in enumerate(configs):
        stored = (reference or {}).get(config_digest(config))
        found = row_problems(config, first[i], stored)
        if walker is not None:
            found += walk_problems(walker, config, first[i])
        problems += [f"config {i} ({config['op']}): {p}" for p in found]
        for n, results in enumerate(passes):
            attempted += 1
            differs = results[i] != first[i]
            if differs:
                problems.append(f"config {i} ({config['op']}): pass {n} differs from pass 0")
            failed += bool(found) or differs
    return attempted, failed, problems


def walk_problems(walker: OrbitWalker, config: dict, result: dict) -> list:
    """Disagreements between a hilbert/return_times result and the walk."""
    if config["op"] not in ("hilbert", "return_times") or result.get("error"):
        return []
    problems = []
    try:
        expected = (walker.hilbert if config["op"] == "hilbert" else walker.return_times)(config)
    except WalkMismatch as exc:
        return [str(exc)]
    if config["op"] == "hilbert":
        for row in result["rows"]:
            got = complex(row["re"], row["im"])
            ref = expected[row["N"]]
            if abs(got - ref) > WALK_RTOL * max(abs(ref), 1.0):
                problems.append(f"hilbert N={row['N']}: {got!r} != walk {ref!r}")
    else:
        for row in result["rows"]:
            ref = expected[row["N"]]
            if abs(row["lower"] - ref) > WALK_RTOL * max(abs(ref), 1.0):
                problems.append(f"return_times N={row['N']}: {row['lower']!r} != walk {ref!r}")
    return problems
