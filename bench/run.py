"""homsim benchmark.

    python3 bench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

With --trace 0 it runs whole passes of the workload's grid until S seconds
have gone (BENCHMARK.json's run_seconds by default), checks every
grid-point estimate, and reports the end-to-end metrics.  With --trace 1 it
alternates an untraced and a traced pass (at least one of each) and reports
the per-layer metrics of the traced passes.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are the readable report.
`--workload all` runs every workload in turn, each in its own interpreter.

The program is imported from src/ of the checkout this file sits in; the
benchmark fails without printing a result when it is not there.
"""

import os

# one BLAS/OpenMP thread per process, set before numpy is first imported, so
# that pool processes x threads never exceed the cores
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_PROBES = 6          # fresh interpreters timed per run, after one untimed
P90_MIN_BEYOND = 10       # report p90 only with this many samples above it

_clock = time.perf_counter


def import_program():
    """Import homsim from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import homsim
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import homsim from {src}: {exc}")
    if Path(homsim.__file__).resolve().parent != (src / "homsim").resolve():
        raise SystemExit(f"bench: homsim came from {homsim.__file__}, not from {src}")


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            sha = out.stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu": cpu or "unknown",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "start_method": multiprocessing.get_start_method(),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def run_pass(workload, master_seed, tracer=None):
    """Every grid point once.  Returns [(result or None, seconds)]."""
    out = []
    for value in workload.grid:
        t0 = _clock()
        try:
            if tracer is None:
                res = workload.run(workload, value, master_seed)
            else:
                with tracer.span("experiments.point"):
                    res = workload.run(workload, value, master_seed)
        except Exception:
            traceback.print_exc()
            res = None
        out.append((res, _clock() - t0))
    return out


def pass_seconds(points) -> float:
    return sum(dt for _, dt in points)


def setup_seconds(workload) -> list[float]:
    """Set-up time of SETUP_PROBES fresh interpreters (one more runs first,
    untimed, so that every timed one finds compiled bytecode)."""
    arg = json.dumps(asdict(workload.first_engine))
    times = []
    for _ in range(SETUP_PROBES + 1):
        out = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), arg], cwd=ROOT,
                             capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times[1:]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak among its finished
    children (the pool workers); shared pages count in both."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def tally(workload, passes):
    """(attempted, failed, digest of the first pass) over checked passes."""
    from workloads import digest

    attempted = failed = 0
    for points in passes:
        results = [r for r, _ in points]
        oks = workload.check(workload, results)
        attempted += len(oks)
        failed += sum(not ok for ok in oks)
    return attempted, failed, digest(workload, [r for r, _ in passes[0]])


def measure(workload, seed: int, seconds: float) -> dict:
    """Untraced end-to-end run."""
    ms = workload.master_seed(seed)
    passes = []
    start = _clock()
    while not passes or _clock() - start < seconds:
        passes.append(run_pass(workload, ms))
    rss = peak_rss_mb()
    setup = setup_seconds(workload)
    point_s = sorted(dt for points in passes for _, dt in points)
    # all trajectories over all pass time: slow spells of the host then weigh
    # by their length, which moves the figure less from run to run than a
    # median over a handful of passes does
    rate = workload.traj_per_pass * len(passes) / sum(map(pass_seconds, passes))
    attempted, failed, dig = tally(workload, passes)
    n = f"{len(passes)} passes x {len(workload.grid)} points"
    if len(point_s) >= 10 * P90_MIN_BEYOND:
        p90 = metric_line("point_s.p90", statistics.quantiles(point_s, n=10)[8], "s", n)
    else:
        p90 = (f"  {'point_s.p90':32s} {'n/a':>24} {'s':6s} (needs {10 * P90_MIN_BEYOND}"
               f" points, has {len(point_s)})")
    return {
        "metrics": {
            "traj_per_s": (rate, "1/s", f"{len(passes)} passes"),
            "point_s.p50": (statistics.median(point_s), "s", n),
            "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} interpreters"),
            "peak_rss_mb": (rss, "MB", "1 process tree"),
        },
        "notes": [
            p90,
            metric_line("points_failed_frac", failed / attempted, "1",
                        f"{failed}/{attempted} points"),
            "  median seconds per grid point: " + ", ".join(
                f"{v}: {statistics.median(ts):.4g}"
                for v, ts in zip(workload.grid, zip(*([dt for _, dt in p] for p in passes)))
            ),
        ],
        "attempted": attempted,
        "failed": failed,
        "digest": dig,
    }


def measure_traced(workload, seed: int, seconds: float) -> dict:
    """Alternate untraced and traced passes at one seed; counts come from the
    first traced pass, times are medians over the traced passes."""
    from tracing import Tracer, layer_metrics, unit_of

    ms = workload.master_seed(seed)
    tracer = Tracer()
    plain, traced, layers = [], [], []
    start = _clock()
    while not traced or _clock() - start < seconds:
        plain.append(run_pass(workload, ms))
        tracer.install()
        try:
            traced.append(run_pass(workload, ms, tracer))
        finally:
            tracer.uninstall()
        layers.append(layer_metrics(tracer.col, workload.traj_per_pass))
    metrics = {}
    for name, first in layers[0].items():
        if unit_of(name) == "s":
            metrics[name] = (statistics.median(m[name] for m in layers), "s",
                             f"median of {len(layers)} traced passes")
        else:
            metrics[name] = (first, unit_of(name), "first traced pass")
    overhead = sum(map(pass_seconds, traced)) / sum(map(pass_seconds, plain)) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "1", f"{len(traced)} pass pairs")
    attempted, failed, dig = tally(workload, plain + traced)
    return {
        "metrics": metrics,
        "notes": [
            "  pool workers: every wrapped layer is traced inside them; only their task and"
            " result pickling lies outside any span",
            "  lindblad.rk4_steps is derived from integrate's t_end and dt_rk arguments,"
            " not counted: no per-step call is reachable from outside",
        ] + ([f"  absent (method deleted, reads 0): {', '.join(tracer.absent)}"]
             if tracer.absent else []),
        "attempted": attempted,
        "failed": failed,
        "digest": dig,
    }


def metric_line(name, value, unit, n) -> str:
    return f"  {name:32s} {value!r:>24} {unit:6s} ({n})"


def report(workload, seed, seconds, trace, out, env):
    print(f"homsim bench: workload={workload.name} seed={seed} seconds={seconds} trace={trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"inputs: master_seed={workload.master_seed(seed)} n_traj={workload.n_traj} "
          f"grid={list(workload.grid)} threads={workload.threads}")
    for name, (value, unit, n) in out["metrics"].items():
        print(metric_line(name, value, unit, n))
    for line in out["notes"]:
        print(line)
    print(f"result digest (sha256 of 17-digit rows, first pass): {out['digest']}")
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in out["metrics"].items()},
    }
    print(json.dumps(result), flush=True)


def run_all(args) -> int:
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        sys.stdout.flush()
        status = max(status, subprocess.run(cmd, cwd=ROOT, timeout=900).returncode)
    return status


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")

    import_program()
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)} or all")
    workload = WORKLOADS[args.workload]
    if args.trace:
        out = measure_traced(workload, args.seed, args.seconds)
    else:
        out = measure(workload, args.seed, args.seconds)
    report(workload, args.seed, args.seconds, args.trace, out, environment())
    return 0


if __name__ == "__main__":
    sys.exit(main())
