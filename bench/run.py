"""wwlab benchmark: time a workload's `wwlab run` configs end to end.

Usage, from the root of a checkout:

    python3 bench/run.py --workload strong-avg --seed 0 --seconds 45 --trace 0
    python3 bench/run.py --workload all            # every workload, in turn

Every measurement runs in a fresh single-threaded process (``worker.py``),
one after another (a closed loop with one client). With ``--trace 0`` the
last stdout line carries the end-to-end metrics; with ``--trace 1`` it
carries the per-layer metrics of one extra traced pass. Outputs are checked
outside the timed region (``checks.py``); the lines before the last one
print every metric by name with its unit, the run's environment, and any
failure. See README.md for what each metric means.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SETUP_EVERY_S = 2.0  # one set-up sample per this much pass time, taken after the pass
MIN_PASSES = 2  # even when one pass outlasts --seconds
PASS_BUDGET_S = 110  # start no pass that would end later than this (a run must end in 180 s)
CHILD_TIMEOUT_S = 170
# threads=1, one process: keep BLAS and OpenMP pools at one thread too
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}
THREADS_CHECK_CONFIG = 1  # strong-avg config rerun at threads=2 for bit identity


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (as opposed to a wrong one)."""


def spawn(job: dict) -> tuple:
    """Run one worker process to completion; returns (spawn time, its output)."""
    env = {k: v for k, v in os.environ.items() if k not in ("WWLAB_BUDGET", "PYTHONPATH")}
    env.update(CHILD_ENV)
    t_spawn = time.perf_counter()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")],
                          input=json.dumps(job), capture_output=True, text=True,
                          cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker ({job['mode']}) exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return t_spawn, json.loads(proc.stdout.strip().splitlines()[-1])


def environment(seed: int) -> dict:
    import numpy
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            fields = [open(os.path.join(index, f), encoding="utf-8").read().strip()
                      for f in ("level", "type", "size")]
        except OSError:
            continue
        caches[f"L{fields[0]}{fields[1][0].lower() if fields[1] != 'Unified' else ''}"] = fields[2]
    return {"seed": seed, "nproc": os.cpu_count(), "cpu": cpu, "caches": caches,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy_version}


def _summary(values: list) -> str:
    return f"median {statistics.median(values):.6g}, max {max(values):.6g}, n={len(values)}"


def _timed_passes(configs, seconds: float) -> tuple:
    """(passes, set-up seconds): untraced passes until ``seconds`` have passed.

    At least MIN_PASSES run. Set-up samples follow each pass, one per
    SETUP_EVERY_S of its wall time, so they are spread over the whole run and
    their median sees the same stretches of machine speed as the passes do.
    """
    passes, setup = [], []
    t_begin = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_begin
        if len(passes) >= MIN_PASSES and elapsed >= seconds:
            break
        if passes and elapsed + elapsed / len(passes) > PASS_BUDGET_S:
            break  # the next pass, if as long as the mean so far, would end too late
        passes.append(spawn({"mode": "run", "configs": configs})[1])
        for _ in range(max(1, round(passes[-1]["wall_s"] / SETUP_EVERY_S))):
            t_spawn, out = spawn({"mode": "setup", "configs": configs})
            setup.append(out["ready"] - t_spawn)
    return passes, setup


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    configs = workloads.configs_for(workload, seed)
    log = lambda msg: print(f"[{workload}] {msg}", flush=True)  # noqa: E731

    t_begin = time.perf_counter()
    passes, setup = _timed_passes(configs, seconds)
    walls = [p["wall_s"] for p in passes]
    rss = [p["peak_rss_mb"] for p in passes]
    log(f"pass wall_s {[round(w, 4) for w in walls]}")

    traced = probes = None
    if trace:
        traced = spawn({"mode": "trace", "configs": configs})[1]
        probes = spawn({"mode": "probe", "seed": seed})[1]["probes"]

    # -- correctness, outside every timed region -------------------------
    modules = worker.import_wwlab()
    reference = checks.load_reference()
    walker = checks.OrbitWalker(modules)
    all_results = [p["results"] for p in passes + ([traced] if traced else [])]
    first = all_results[0]
    attempted, failed, problems = checks.count_failures(configs, all_results, reference, walker)
    if workload == "strong-avg":
        attempted += 1
        cfg = modules["cli"].ExperimentConfig.from_dict(configs[THREADS_CHECK_CONFIG])
        if modules["cli"].run_experiment(cfg, threads=2).rows != first[THREADS_CHECK_CONFIG]["rows"]:
            failed += 1
            problems.append(f"config {THREADS_CHECK_CONFIG}: threads=2 rows differ from threads=1")
    for p in problems:
        log(f"FAIL {p}")

    width = checks.width_rel_max(configs, first)
    stored = sum(checks.config_digest(c) in reference for c in configs)
    storable = sum(c["op"] in checks.STORED_OPS for c in configs)
    log(f"seed {seed}: {len(passes)} passes in {time.perf_counter() - t_begin:.1f} s; "
        f"stored reference rows for {stored} of {storable} bracket and check configs")
    log(f"wall_s {statistics.median(walls):.6g} s ({_summary(walls)})")
    log(f"setup_s {statistics.median(setup):.6g} s ({_summary(setup)})")
    log(f"peak_rss_mb {statistics.median(rss):.6g} MB ({_summary(rss)})")
    log(f"width_rel_max {width:.6g} ratio")
    log(f"error_rate {failed / attempted:.6g} ratio ({failed}/{attempted} configs)")

    values = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setup),
              "peak_rss_mb": statistics.median(rss)}
    spec = _benchmark_spec()["per_layer" if trace else "end_to_end"]
    if trace:
        values = tracing.layer_metrics(traced["spans"])
        values.update(probes)
        values.update({"trace.wall_s": traced["wall_s"],
                       "trace.overhead_s": traced["wall_s"] - statistics.median(walls),
                       "result.width_rel_max": width, "result.error_rate": failed / attempted})
        for m in spec:
            log(f"{m['name']} {values.get(m['name'], float('nan')):.6g} {m['unit']}")
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for metrics {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="keep starting timed passes until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "wwlab", "cli.py")):
        print(f"error: no wwlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    print("env: " + json.dumps(environment(args.seed), sort_keys=True), flush=True)
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(ROOT, ".bench_work"), ignore_errors=True)
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps(dict(zip(names, results))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
