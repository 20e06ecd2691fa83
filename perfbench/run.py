"""The gridplan benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it measures the ``gridplan`` package
under ``src/`` there and nothing else. Set-up writes the workload's bundle
(the shipped fixture tiled and, for a seed other than 0, perturbed), gets
HiGHS references for every LP, and loads the bundle. Then one client runs
ops in a closed loop for S seconds, each op starting when the previous one
has finished, and the correctness gate checks every op.

``--trace 0`` reports the end-to-end metrics: ``wall_s_p50`` (median op
time), ``setup_s`` (median over repeated fresh processes of importing
gridplan and loading the bundle) and ``peak_rss_mb``. ``--trace 1``
alternates untraced and traced ops and reports the per-layer metrics of
the traced ones, plus ``trace_overhead_frac``. The last line of standard
output is the JSON result; the full record, with the environment, per-op
data and spans, goes to ``.perfbench/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5

# Timed in a fresh interpreter: what a caller pays before its first scenario.
_SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
import gridplan
gridplan.load_bundle(sys.argv[1])
print(time.perf_counter() - t0)
"""


def import_program():
    """Import gridplan from this checkout's src/, or exit non-zero."""
    package = ROOT / "src" / "gridplan"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no gridplan sources at {package}; run from "
                 f"the root of a gridplan checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import gridplan
    if Path(gridplan.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported gridplan from {gridplan.__file__}, "
                 f"not from {package}")


def blas_threads():
    """Threads the loaded OpenBLAS will use, asked from the library itself;
    None when no OpenBLAS is loaded or it has no such entry point."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower()
                       and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or None
        except OSError:
            pass   # no git: src_sha256 still identifies the program
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gridplan").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads()},
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def measure_setup(bundle_dir: Path) -> list:
    """Seconds to import gridplan and load the bundle, in fresh processes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(bundle_dir)],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=60,
            check=True)
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


def run(args) -> dict:
    import_program()
    sys.path.insert(0, str(HERE))
    from gridplan import runner
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose "
                 f"from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    env = environment()
    work = WORK / f"run-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        probe = workloads.Probe()
        probe.install()
        tracer = spans.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install(runner)
        # runner.load_bundle, looked up now, is the traced one when tracing.
        workload.prepare(work, WORK / "cache", args.seed, args.size == "small",
                         runner.load_bundle)
        setup = [] if args.trace else measure_setup(work / "bundle")

        # Another op starts while at least half of it fits in --seconds, so
        # a run lasts about --seconds on average. The traced run alternates
        # untraced and traced ops.
        ops = []
        start = time.perf_counter()
        while len(ops) < 2 or (time.perf_counter() - start
                               + ops[-1]["wall_s"] / 2 <= args.seconds):
            traced = tracer is not None and len(ops) % 2 == 1
            probe.take()
            if traced:
                with tracer.span("op") as record:
                    result = workload.op()
                wall = record["end"] - record["start"]
            else:
                t0 = time.perf_counter()
                result = workload.op()
                wall = time.perf_counter() - t0
            solutions = probe.take()
            ops.append({"wall_s": wall, "traced": traced,
                        "span": record["id"] if traced else None,
                        "iterations": sum(s.iterations for s in solutions),
                        "problems": workload.check(result, solutions)})
            del result
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [op["wall_s"] for op in ops if not op["traced"]]
    failed = sum(1 for op in ops if op["problems"])
    if tracer is None:
        metrics = {
            "wall_s_p50": (statistics.median(untraced), "s", len(untraced)),
            "setup_s": (statistics.median(setup), "s", len(setup)),
            "peak_rss_mb": (peak_rss_mb, "MB", 1),
        }
    else:
        traced_ids = [op["span"] for op in ops if op["traced"]]
        traced_walls = [op["wall_s"] for op in ops if op["traced"]]
        layers = tracer.per_layer(traced_ids)
        metrics = {key: (value, spans.unit(key), len(traced_ids))
                   for key, value in layers.items()}
        metrics["trace_overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(untraced)
            - 1.0, "frac", min(len(traced_walls), len(untraced)))
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "environment": env,
        "loop": "closed, 1 client, sweeps with jobs=1",
        "layers_without_metric": {
            "resources": "not on any runner path for these bundles: the "
                         "fixture has no h_monthly series"},
        "references": workload.refs,
        "attempted": len(ops),
        "failed": failed,
        "failed_frac": failed / len(ops),
        "setup_samples_s": setup,
        "ops": ops,
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in metrics.items()},
        "spans": tracer.spans if tracer is not None else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name from BENCHMARK.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: reduced bundles, for the self-test")
    args = parser.parse_args(argv)

    record = run(args)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    size = "" if args.size == "full" else f"-{args.size}"
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{size}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")

    for op in record["ops"]:
        for problem in op["problems"]:
            print(f"FAILED: {problem}")
    for key, m in record["metrics"].items():
        print(f"{args.workload} {key} = {m['value']:.6g} {m['unit']} "
              f"(n={m['samples']})")
    print(f"{args.workload} failed_frac = {record['failed_frac']:.6g} "
          f"(n={record['attempted']})")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
