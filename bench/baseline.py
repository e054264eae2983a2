"""Run the benchmark twice over at ten seeds and summarise it.

    python3 bench/baseline.py [--out bench/baseline.json]

It makes two sets of runs.  Each set runs every workload in BENCHMARK.json
once at each of the seeds 1..10, untraced and for run_seconds.  For each set,
workload and end-to-end metric it reports the median and the quartile spread
(q3 - q1) / median, against a third of the metric's bound.  It then reports
the second set's median against the first's, against the bound.  Last it
makes two traced runs of each workload at seed 1 and reports whether their
counts repeat exactly.  With --out it writes everything, results and
environment included, to that file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
SETS = 2
SEEDS = range(1, 11)
TRACED = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    lines = out.stdout.strip().splitlines()
    env = json.loads(next(ln for ln in lines if ln.startswith("environment: ")).split(": ", 1)[1])
    digest = next(ln for ln in lines if ln.startswith("result digest")).rsplit(" ", 1)[1]
    return {"seed": seed, "result": json.loads(lines[-1]), "digest": digest, "environment": env}


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out")
    args = ap.parse_args()

    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    summary = {name: {"sets": []} for name in names}
    env = None
    for k in range(SETS):
        for name in names:
            runs = [run_once(name, seed, seconds, 0) for seed in SEEDS]
            env = runs[0]["environment"]
            stats = {}
            for metric, m in metrics.items():
                s = spread([r["result"]["metrics"][metric]["value"] for r in runs])
                stats[metric] = s
                print(f"set {k + 1} {name:18s} {metric:14s} median {s['median']:12.6g}  "
                      f"spread {s['spread']:.4f}  (third of bound {m['bound'] / 3:.4f})",
                      flush=True)
            failed = sum(r["result"]["failed"] for r in runs)
            attempted = sum(r["result"]["attempted"] for r in runs)
            print(f"set {k + 1} {name:18s} points failed {failed}/{attempted}", flush=True)
            summary[name]["sets"].append({
                "end_to_end": stats, "points_failed": [failed, attempted],
                "runs": [{key: r[key] for key in ("seed", "digest", "result")} for r in runs],
            })

    # the second set against the first: its median may be worse by at most the
    # bound.  setup_s is held only to this, not to the spread limit, because
    # its spread is that of a few interpreter starts, which the benchmark
    # does not gate (see bench/README.md)
    agree = True
    for name in names:
        first, second = (s["end_to_end"] for s in summary[name]["sets"])
        ratios = {}
        for metric, m in metrics.items():
            ratio = second[metric]["median"] / first[metric]["median"]
            worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
            ratios[metric] = ratio
            agree &= worse <= m["bound"]
            print(f"{name:18s} {metric:14s} second/first median {ratio:.4f}  "
                  f"(bound {m['bound']})", flush=True)
        summary[name]["second_over_first"] = ratios

        traced = [run_once(name, 1, seconds, 1) for _ in range(TRACED)]
        layers = [t["result"]["metrics"] for t in traced]
        counts = [k for k, m in layers[0].items() if m["unit"] == "count"]
        repeat = all(layer[k] == layers[0][k] for layer in layers for k in counts)
        print(f"{name:18s} traced counts repeat exactly over {TRACED} runs: {repeat}",
              flush=True)
        summary[name]["traced"] = {"counts_repeat": repeat, "seed": 1,
                                   "per_layer": {k: m["value"] for k, m in layers[0].items()}}

    steady = all(s["end_to_end"][metric]["spread"] < m["bound"] / 3
                 for entry in summary.values() for s in entry["sets"]
                 for metric, m in metrics.items() if metric != "setup_s")
    print(f"every spread but setup_s's below a third of its bound: {steady}")
    print(f"second set's medians within the bounds of the first's: {agree}")
    if args.out:
        doc = {"run_seconds": seconds, "environment": env, "workloads": summary}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
