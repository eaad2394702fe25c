"""Benchmark for npspace: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

Run from any directory; the program is imported from ``src/`` next to this
directory.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, from passes run under a tracer, alternating with untraced
passes that give the tracer's overhead.  See README.md.
"""

from __future__ import annotations

import os
import sys

# Fixed before numpy loads, here and in every child process: one BLAS
# thread, and the program's own restart pool left at its default of one.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = BLAS_THREADS
os.environ.pop("NPSPACE_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = BENCH_DIR / "_runs"

SETUP_REPEATS = 5
MIN_PASSES = 2
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import npspace.cli; "
    "print(time.perf_counter() - t)"
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_seconds(env: dict) -> float:
    """Import time of the package in a fresh interpreter, measured inside it."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env, cwd=str(ROOT), capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cores_used": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "npspace_threads": os.environ.get("NPSPACE_THREADS", "unset"),
    }


def src_lines() -> int:
    total = 0
    for path in sorted((SRC / "npspace").rglob("*.py")):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".matrices")):
        return "count"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "lines" if name == "src.lines" else "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["catalog", "subspace", "oracle", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "npspace" / "__init__.py").is_file():
        print(f"error: no npspace package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = child_env()
    # One core for the runner and every child it starts, so that the speed
    # probes time the core that runs the pass (see speed.py).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    import checks
    import speed
    import tracer as tracing
    import workloads
    import npspace

    if Path(npspace.__file__).resolve().parent != SRC / "npspace":
        print(f"error: imported npspace from {npspace.__file__}, not {SRC}", file=sys.stderr)
        return 2

    RUNS_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = RUNS_DIR / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        cls = workloads.WORKLOADS[args.workload]
        if cls is workloads.Cli:
            wl = cls(args.seed, str(workdir), env=env, in_process=bool(args.trace))
        else:
            wl = cls(args.seed, str(workdir))
        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None and cls is workloads.Cli:
            wl.tracer = tracer
        sampler = speed.SpeedSampler(timer=not (cls is workloads.Cli and not args.trace))
        if not sampler.timer:
            wl.sampler = sampler

        imports, setups, scaled_setups = [], [], []
        for _ in range(SETUP_REPEATS):
            before = speed.probe()
            imports.append(import_seconds(env))
            t0 = perf_counter()
            inputs = wl.setup()
            setups.append(imports[-1] + perf_counter() - t0)
            pace = (before + speed.probe()) / 2
            scaled_setups.append(setups[-1] * speed.REFERENCE_S / pace)

        total = workloads.PassResult()
        plain, scaled, probes, traced, layer_rounds = [], [], [], [], []
        start = perf_counter()
        rounds = 0
        while rounds < MIN_PASSES or perf_counter() - start < args.seconds:
            traced_round = tracer is not None and rounds % 2 == 1
            if traced_round:
                tracer.reset()
                tracer.install()
            try:
                if rounds:
                    inputs = wl.setup()
                res = workloads.PassResult()
                first = None if traced_round else sampler.start()
                t0 = perf_counter()
                out = wl.run(inputs, res)
                elapsed = perf_counter() - t0
            finally:
                if traced_round:
                    tracer.uninstall()
                else:
                    sampler.stop()
            wl.check(out, res)
            if traced_round:
                traced.append(elapsed)
                layer_rounds.append(tracer.metrics())
            else:
                work, at_reference, taken = sampler.scaled(elapsed, first)
                plain.append(work)
                scaled.append(at_reference)
                probes.append(taken)
            for key in ("los", "his", "brutes", "problems", "errors"):
                getattr(total, key).extend(getattr(res, key))
            total.attempted += res.attempted
            total.failed += res.failed
            rounds += 1

        if args.trace:
            names = tracing.metric_names()
            values = {
                name: statistics.median([r[name] for r in layer_rounds]) for name in layer_rounds[0]
            }
            values["cli.import.s"] = statistics.median(imports)
            values["oracle.brute_geomean"] = checks.geomean(total.brutes)
            values["src.lines"] = src_lines()
            values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
            metrics = {name: metric(values[name], layer_unit(name)) for name in names}
        else:
            metrics = {
                "setup_s": metric(statistics.median(scaled_setups), "s"),
                "pass_s": metric(statistics.median(scaled), "s"),
                "lo_geomean": metric(checks.geomean(total.los), "1"),
                "hi_geomean": metric(checks.geomean(total.his), "1"),
                "peak_rss_mb": metric(peak_rss_mb(), "MB"),
            }

        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": environment(), "passes": plain,
            "scaled_passes": scaled, "probes": probes, "probe_times": list(sampler.samples),
            "traced_passes": traced, "setups": setups, "scaled_setups": scaled_setups,
            "metrics": metrics,
            "problems": total.problems[:50], "errors": total.errors[:50],
        }
        if tracer is not None:
            tracer.dump(str(RUNS_DIR / f"{tag}.spans.json"), record)
        with open(RUNS_DIR / f"{tag}.json", "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in total.problems[:20] + total.errors[:20]:
        print(line, file=sys.stderr)
    print(f"# environment {json.dumps(record['environment'], sort_keys=True)}")
    print(f"# {args.workload}: {rounds} passes, attempted {total.attempted}, failed {total.failed}")
    print(f"# wall time before scaling: pass median {statistics.median(plain):.6g} s, "
          f"set-up median {statistics.median(setups):.6g} s")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": not total.problems,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
