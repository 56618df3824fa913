"""Record one point of the benchmark trajectory.

Runs every workload ``--runs`` times untraced, one seed per run, in two
sets over the same seeds, plus one traced run per workload, and writes
``perfbench/results/BENCH_<label>.json``.  Within a set the seeds are
the outer loop and the workloads the inner one, so each workload's runs
are spread over the whole set.  For each set and end-to-end metric it
records the per-run values, both as reported (scaled to the reference
host speed) and raw (host seconds as measured), their medians and
quartile spreads (``statistics.quantiles(values, n=4)``; the spread is
the distance between the first and third quartile as a share of the
median), and how far the second set's reported median is worse than
the first's, as a share of the first.  Run from the repository root,
one workload process at a time:

    python3 perfbench/record.py --label <commit> --runs 10 --first-seed 101
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


#: A metric line of an untraced run: name, value, unit, sample count and
#: the raw value.
RAW_LINE = re.compile(r"^\s+(\S+)\s+\S+ \S+\s+\(n=\d+, raw (\S+)\)$")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run's result line, plus ``raw``: each metric's raw value."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, stdout=subprocess.PIPE, text=True,
        check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["raw"] = {m.group(1): float(m.group(2))
                     for m in map(RAW_LINE.match, lines) if m}
    return result


def summarize(values):
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    import numpy
    point = {"label": args.label, "run_seconds": seconds, "seeds": seeds,
             "host": {"cpu": platform.processor() or platform.machine(),
                      "cpus": os.cpu_count(),
                      "python": platform.python_version(),
                      "numpy": numpy.__version__},
             "workloads": {name: {"sets": []} for name in names}}
    for set_index in range(2):
        runs = {name: [] for name in names}
        for seed in seeds:
            for name in names:
                runs[name].append(run(name, seed, seconds, 0))
        for name in names:
            end_to_end = {m: summarize([r["metrics"][m]["value"]
                                        for r in runs[name]])
                          for m in metrics}
            raw = {m: summarize([r["raw"][m] for r in runs[name]])
                   for m in metrics}
            point["workloads"][name]["sets"].append({
                "attempted": [r["attempted"] for r in runs[name]],
                "failed": [r["failed"] for r in runs[name]],
                "correct": [r["correct"] for r in runs[name]],
                "end_to_end": end_to_end, "raw": raw})
            print(f"set {set_index + 1} {name}: " + ", ".join(
                f"{m} {s['median']:.5g} ({s['spread']:.3f}, raw "
                f"{raw[m]['spread']:.3f})"
                for m, s in end_to_end.items()), flush=True)
    for name in names:
        wl = point["workloads"][name]
        first, second = (s["end_to_end"] for s in wl["sets"])
        wl["second_set_worse_by"] = {}
        for m, spec_m in metrics.items():
            a, b = first[m]["median"], second[m]["median"]
            worse = (b - a) / a * (1 if spec_m["better"] == "lower" else -1)
            wl["second_set_worse_by"][m] = worse
            spreads = (first[m]["spread"], second[m]["spread"])
            raw = [s["raw"][m]["spread"] for s in wl["sets"]]
            bound = spec_m["bound"]
            flag = ("" if max(spreads) <= bound / 3 else
                    "  spread above a third of the bound"
                    if max(spreads) <= bound else "  SPREAD ABOVE THE BOUND")
            if worse > bound:
                flag += "  MEDIANS DISAGREE"
            print(f"{name:12s} {m:18s} medians {a:<11.5g} {b:<11.5g} "
                  f"spreads {spreads[0]:.3f} {spreads[1]:.3f} (raw "
                  f"{raw[0]:.3f} {raw[1]:.3f}) worse {worse:+.3f} "
                  f"(bound {bound}){flag}", flush=True)
        traced = run(name, seeds[0], seconds, 1)
        wl["per_layer"] = {k: v["value"]
                           for k, v in traced["metrics"].items()}
    out = HERE / "results" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
