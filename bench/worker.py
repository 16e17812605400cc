"""One fresh process of the benchmark: set up, run a config list, report.

Reads a JSON job from stdin and prints one JSON line:

* ``{"mode": "setup", "configs": [...]}`` imports wwlab from the checkout's
  ``src`` and validates the configs, then exits;
* ``{"mode": "run", ...}`` also runs every config the way ``wwlab run
  --config`` does (cache lookup, ``run_experiment``, cache store) into a
  fresh cache directory, with tracing off;
* ``{"mode": "trace", ...}`` does the same with the span recorder installed;
* ``{"mode": "probe"}`` times the fixed layer probes.

``ready`` is ``time.perf_counter()`` when set-up finished; on Linux that
clock is system-wide, so the parent subtracts its own spawn time from it.
"""
from __future__ import annotations

import importlib
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAYERS = ("systems", "supbrackets", "averages", "recurrence", "analysis", "cli")


def import_wwlab() -> dict:
    """Import wwlab from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    modules = {name: importlib.import_module(f"wwlab.{name}") for name in LAYERS}
    origin = os.path.abspath(modules["cli"].__file__)
    if not origin.startswith(SRC + os.sep):
        raise ImportError(f"wwlab was imported from {origin}, not from {SRC}")
    modules["wwlab"] = sys.modules["wwlab"]
    return modules


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_configs(cli, configs, cache_dir: str) -> tuple:
    """Run each config as `wwlab run` would; returns (results, wall s)."""
    results = []
    t0 = time.perf_counter()
    for config in configs:
        try:
            hit = cli.cache_lookup(cache_dir, config.config_hash)
            record = hit if hit is not None else cli.run_experiment(config, threads=1)
            cli.cache_store(cache_dir, record)
            results.append({"rows": record.rows, "summary": record.summary, "error": None})
        except Exception as exc:  # a failing config is counted, not fatal
            results.append({"rows": [], "summary": {}, "error": f"{type(exc).__name__}: {exc}"})
    return results, time.perf_counter() - t0


def probes(modules: dict, seed: int) -> dict:
    """The ROADMAP baseline probes, each timed once on fresh inputs."""
    import numpy as np

    rng = np.random.default_rng(seed)
    U = rng.standard_normal((4096, 256)) + 1j * rng.standard_normal((4096, 256))
    t0 = time.perf_counter()
    modules["supbrackets"]._grid_sup_rows(U, 16)
    grid_s = time.perf_counter() - t0
    del U
    system = modules["systems"].identity_system(20000)
    t0 = time.perf_counter()
    system.power_indices(3)
    power_s = time.perf_counter() - t0
    return {"probe.grid_sup_rows_s": grid_s, "probe.power_indices_s": power_s}


def main() -> int:
    job = json.loads(sys.stdin.read())
    modules = import_wwlab()
    cli = modules["cli"]
    configs = [cli.ExperimentConfig.from_dict(c) for c in job.get("configs", [])]
    out = {"ready": time.perf_counter()}
    mode = job["mode"]
    if mode in ("run", "trace"):
        cache_dir = os.path.join(ROOT, ".bench_work", f"cache-{os.getpid()}")
        uninstall = None
        if mode == "trace":
            sys.path.insert(0, HERE)
            import tracing

            recorder = tracing.Recorder()
            uninstall = tracing.install(modules, recorder)
        try:
            out["results"], out["wall_s"] = run_configs(cli, configs, cache_dir)
        finally:
            if uninstall is not None:
                uninstall()
            shutil.rmtree(cache_dir, ignore_errors=True)
        if mode == "trace":
            out["spans"] = recorder.spans
    elif mode == "probe":
        out["probes"] = probes(modules, int(job.get("seed", 0)))
    elif mode != "setup":
        raise ValueError(f"unknown mode {mode!r}")
    out["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(out, allow_nan=True, default=_jsonable))
    return 0


def _jsonable(value):
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    raise TypeError(f"not serializable: {type(value).__name__}")


if __name__ == "__main__":
    sys.exit(main())
