"""Host-time benchmark of the repro simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve-eager --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
measures the per-layer metrics with every layer entry point wrapped.
Both print each metric with its unit and sample count, the model's
simulated outputs (``sim.*``) for the seed, and every failed check on
stderr; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs each
workload in its own process and prints every workload's metrics.

The program is imported from ``src/`` of the checkout this file sits
in; without it the benchmark exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch stores and span files, inside the checkout.
OUT_DIR = ROOT / ".perfbench"


def pin_threads() -> None:
    """One thread for every BLAS/OpenMP pool; must precede numpy."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"


def import_program() -> None:
    """Import the program from the checkout's ``src/``; exit with status
    1, printing no result, if it is absent or another copy wins."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {src}/repro")
    sys.path.insert(0, str(src))
    import repro
    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {src}")


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import harness

    workdir = OUT_DIR / f"{name}-{os.getpid()}"
    wl = harness.make_workload(name, seed, workdir)
    try:
        if trace:
            spans = OUT_DIR / "spans" / f"{name}-seed{seed}.npz"
            spans.parent.mkdir(parents=True, exist_ok=True)
            measured = harness.measure_traced(wl, seconds, spans)
            rows = [(key, measured[key], unit, "")
                    for key, unit in harness.PER_LAYER.items()]
        else:
            rows = [(key, s.value, s.unit, f"  (n={s.samples}, raw {s.raw!r})")
                    for key, s in harness.measure(wl, seconds).items()]
            probe = wl.probe.times
            rows.append(("probe_s_p50", statistics.median(probe), "s",
                         f"  (n={len(probe)})"))
            rows += [(key, value, "", "") for key, value in wl.sim.items()]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {name}  seed {seed}  seconds {seconds:g}  "
          f"trace {int(trace)}")
    for key, value, unit, samples in rows:
        print(f"  {key:38s} {value!r} {unit}{samples}")
    attempted = sum(op.attempted for op in wl.ops)
    failed = sum(op.failed for op in wl.ops)
    print(f"  operations: {attempted} attempted, {failed} failed")
    for line, times in Counter(wl.log).items():
        repeat = f" ({times} times)" if times > 1 else ""
        print(f"perfbench: {line}{repeat}", file=sys.stderr)
    names = harness.PER_LAYER if trace else harness.END_TO_END
    return {"correct": all(op.correct for op in wl.ops),
            "attempted": attempted, "failed": failed,
            "metrics": {key: {"value": value, "unit": unit}
                        for key, value, unit, _s in rows if key in names}}


def run_all(args, workloads) -> dict:
    """Every workload in its own process; a crash fails only that one."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            if proc.returncode:
                raise ValueError(f"exit status {proc.returncode}")
            result = json.loads(lines[-1])
        except (ValueError, IndexError) as exc:
            print(f"perfbench: workload {name} produced no result ({exc})",
                  file=sys.stderr)
            result = {"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            total["metrics"][f"{name}/{key}"] = metric
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_threads()
    import_program()
    import harness
    if args.workload not in harness.WORKLOADS + ("all",):
        parser.error(f"unknown workload {args.workload!r}; known: "
                     f"{', '.join(harness.WORKLOADS)}, all")
    if args.workload == "all":
        result = run_all(args, harness.WORKLOADS)
    else:
        result = run_one(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
