"""Run the benchmark several times and report each metric's median and
spread, as the acceptance check of BENCHMARK.json does.

    python3 perfbench/repeat.py --runs 10 [--trace 0] [--workload corpus-cold ...]

Run k uses seed k.  For every metric it prints the median over the runs
and the spread, the distance between the first and third quartiles as a
share of the median, next to the metric's bound.  The JSON written to
``--out`` holds every run's result and the machine it ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench_results" / "repeat.json")
    args = parser.parse_args(argv)
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    report = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "run_seconds": spec["run_seconds"],
        "trace": args.trace,
        "workloads": {},
    }
    worst = 0.0
    for workload in args.workload:
        runs = []
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=ROOT, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            result["seed"] = seed
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        summary = {}
        for metric in metrics:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            summary[name] = {"median": statistics.median(values),
                             "spread": spread(values) if len(values) > 1 else 0.0,
                             "unit": metric["unit"]}
            line = (f"  {workload:<13} {name:<42} median {summary[name]['median']:12.6g} "
                    f"{metric['unit']:<6} spread {summary[name]['spread']:7.4f}")
            if "bound" in metric:
                line += f" bound {metric['bound']}"
                if name != "setup_s":
                    worst = max(worst, summary[name]["spread"] / metric["bound"])
            print(line, flush=True)
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    if not args.trace:
        print(f"largest spread as a share of its bound (setup_s aside): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
