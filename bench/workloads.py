"""The benchmark's workloads: fixed lists of `wwlab run` configs.

Each config is the JSON dict that `wwlab run --config FILE` accepts. In
strong-avg and orbit-pointwise every `random:` system and observable seed is
a base value plus ``SEED_STRIDE * seed``, so workload seed 0 reproduces the
base values and any other seed draws fresh inputs of the same shape and
size. recurrence-window keeps its base values at every seed (see there).
"""
from __future__ import annotations

DEFAULT_SEED = 0
SEED_STRIDE = 1000

def _random_system(size: int, seed: int) -> dict:
    return {"kind": "random_permutation", "size": size, "seed": seed}


def _cyclic(p: int) -> dict:
    return {"kind": "cyclic_shift", "p": p}


def _f(seed: int) -> dict:
    return {"kind": "random", "seed": seed}


def strong_avg(s: int) -> list:
    d = SEED_STRIDE * s
    return [
        {"op": "ww", "system": _random_system(8192, 1 + d), "functions": [_f(1 + d)],
         "k": 1, "schedule": [256, 1024]},
        {"op": "ww", "system": _cyclic(521), "functions": [_f(3 + d)],
         "k": 2, "schedule": [64, 256]},
        # no explicit observable: `wwlab run` draws random:<seed>
        {"op": "weak_ww", "system": _cyclic(521), "seed": d, "k": 2, "schedule": [256]},
        {"op": "ww", "system": _cyclic(97), "functions": [_f(5 + d)],
         "k": 3, "schedule": [64]},
    ]


def recurrence_window(s: int) -> list:
    """Fixed inputs at every seed.

    The ascent's work depends on its observable and restart seeds: over
    seeds 0-9 the cycle count of the N=256 calls ranged from 8 to 60 and the
    pass time from 10.3 to 17.2 s, which no bound of 25% holds. Criterion 11,
    which this scales, is a fixed scenario too.
    """
    window = {"system": _cyclic(521), "functions": [_f(2)], "seed": 2,
              "k": 1, "schedule": [64, 128, 256, 512]}
    return [
        {"op": "mrec", "system": _cyclic(521), "functions": [_f(2)], "seed": 2,
         "k": 1, "schedule": [64, 256]},
        {"op": "mrec", "system": _cyclic(131), "functions": [_f(4)], "seed": 4,
         "k": 2, "schedule": [64]},
        dict(window, op="check", check_name="bourgain"),
        dict(window, op="check", check_name="reverse_bourgain"),
    ]


HILBERT_SIZE = 16384
BASE_POINTS = (3, 3 + HILBERT_SIZE // 3, 3 + 2 * HILBERT_SIZE // 3)


def orbit_pointwise(s: int) -> list:
    d = SEED_STRIDE * s
    base = _random_system(HILBERT_SIZE, 7 + d)
    companion = _random_system(4096, 8 + d)
    configs = []
    for x in BASE_POINTS:
        configs.append({"op": "hilbert", "system": base, "seed": d, "x_point": x,
                        "sigma": 0.9, "schedule": [64, 4096], "extra": {"phase_t": [0.5]}})
        configs.append({"op": "hilbert", "system": base, "system_b": companion,
                        "functions": [_f(11 + d), _f(12 + d)], "x_point": x,
                        "sigma": 0.9, "schedule": [64, 4096],
                        "extra": {"exponents": [1, 2],
                                  "return_weights": {"g": _f(9 + d), "y_point": 5,
                                                     "steps": [1]}}})
    configs.append({"op": "return_times", "system": base, "system_b": companion,
                    "seed": d, "x_point": 3, "schedule": [256, 1024],
                    "extra": {"poly": [0, 0, 1]}})
    return configs


WORKLOADS = {
    "strong-avg": strong_avg,
    "recurrence-window": recurrence_window,
    "orbit-pointwise": orbit_pointwise,
}


def configs_for(workload: str, seed: int) -> list:
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    return WORKLOADS[workload](int(seed))
