"""Run one xmpc benchmark workload and print its metrics.

Usage, from the repository root::

    python3 benchmarks/run.py --workload month_explained --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the same
loop with the span recorder installed and prints the per-layer metrics.
Every metric line carries its unit and sample count; the correctness
verdicts and an environment record follow, and the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
0 only when every correctness check passed.  The package is imported from
``src/`` of the checkout; without it the run fails before measuring.

BLAS is pinned to one thread in this process's own environment, before
numpy loads: the plain single-threaded baseline.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


def import_package() -> float:
    """Import xmpc from this checkout's src/ and return the seconds it took."""
    if not (SRC / "xmpc" / "__init__.py").is_file():
        raise SystemExit(f"error: no xmpc package under {SRC}")
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import xmpc.cli  # noqa: F401

    elapsed = time.perf_counter() - started
    if Path(xmpc.cli.__file__).resolve().parent != SRC / "xmpc":
        raise SystemExit(f"error: xmpc imported from {xmpc.cli.__file__}, not {SRC}")
    return elapsed


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed: int) -> dict:
    import numpy as np

    from workloads import Seeds

    cpuinfo = Path("/proc/cpuinfo").read_text().splitlines()
    cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo if line.startswith("model name")), "")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines()) for p in (SRC / "xmpc").rglob("*.py"))
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "workload_seed": seed,
        "derived_seeds": vars(Seeds.derive(seed)),
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    import_s = import_package()
    sys.path.insert(0, str(BENCH_DIR))
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{tag}-{os.getpid()}"
    try:
        result = workloads.run_workload(
            args.workload, args.seed, args.seconds, workdir, trace=bool(args.trace),
            import_s=import_s, trace_path=WORK / f"spans-{tag}.npz" if args.trace else None,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        declared = [(name, unit) for name, unit, *_ in spans.PER_LAYER]
        values = {name: result.per_layer.get(name, (None, unit))[0] for name, unit in declared}
        for name, unit in declared:
            print(f"layer  {name} = {values[name]!r} {unit} (per cycle)")
    else:
        declared = [(name, unit) for name, unit, *_ in workloads.END_TO_END]
        values = {name: result.end_to_end.get(name, (None,))[0] for name, unit in declared}
        for name, (value, unit, n) in result.end_to_end.items():
            print(f"metric {name} = {value!r} {unit} (n={n})")
    for name, (value, unit, n) in result.extra.items():
        print(f"also   {name} = {value!r} {unit} (n={n})")
    for check in result.checks:
        print(f"check  {check.name}: {'PASS' if check.ok else 'FAIL'} ({check.detail})")
    env = environment(args.seed)
    print(f"passes {result.passes}")
    print("env    " + json.dumps(env))
    correct = result.correct and all(v is not None for v in values.values())
    summary = {
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared},
    }
    (WORK / f"result-{tag}.json").write_text(
        json.dumps({**summary, "env": env, "checks": [vars(c) for c in result.checks]}, indent=1) + "\n"
    )
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
