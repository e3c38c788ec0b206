"""The sliceguard benchmark.

    python3 perfbench/run.py --workload corpus-cold --seed 1 --seconds 55 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``corpus-cold``: the fixed corpus, each input ``obstruct`` then
  ``verify_verdict`` in a fresh interpreter, the seed ordering them;
* ``batch-warm``: a seeded stratified batch in one long-lived worker,
  after an untimed warm-up pass drawn from another seed;
* ``twisted-grid``: ``rep_images``, ``twisted_alex_exterior`` and
  ``twisted_alex_surgery`` for every character of the grid, one fresh
  interpreter per pass, the seed sampling the (5, 7) characters.

Workers run one at a time, each in an empty temporary directory under
``.perfbench_tmp/``.  Every output is checked against ``expected.json``
outside the timed region.  With ``--trace 0`` the last line of standard
output is the JSON result with the end-to-end metrics; with ``--trace 1``
every load runs untraced and then traced, and the result carries the
per-layer metrics of ``spans.py`` instead.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
EXPECTED = HERE / "expected.json"

DEFAULT_SEED = 1
PROBES = 3  # import-only workers per run; the first warms the bytecode
MIN_PASSES = 2  # whole passes before the cheapest inputs get the rest of a run
RUN_LIMIT_S = 170

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "out_bytes": "bytes",
}
# per-call quantiles, printed on standard error but left out of the result:
# their run-to-run spread exceeds the largest bound BENCHMARK.json allows
# on the host it was defined on (README.md, "Noise on a shared host")
PRINTED_ONLY = {
    "op_s.p50": "s",
    "op_s.p90": "s",
    "check_s.p50": "s",
    "check_s.p90": "s",
}

COUNT, SECONDS = "count", "s"
PER_LAYER = {
    "seifert.seifert_matrix.misses": COUNT,
    "seifert.seifert_matrix.self_s": SECONDS,
    "seifert.branched_cover.misses": COUNT,
    "seifert.branched_cover.self_s": SECONDS,
    "seifert.jump_function.misses": COUNT,
    "seifert.jump_function.self_s": SECONDS,
    "seifert.lt_signature.calls": COUNT,
    "covers.model_module.misses": COUNT,
    "covers.model_module.self_s": SECONDS,
    "metabolizers.enumerate.self_s": SECONDS,
    "metabolizers.candidates": COUNT,
    "metabolizers.found": COUNT,
    "metabolizers.yield": "ratio",
    "modp.rref.calls": COUNT,
    "metabolizers.construct_character.calls": COUNT,
    "metabolizers.construct_character.self_s": SECONDS,
    "witt.support_of.calls": COUNT,
    "witt.support_of.self_s": SECONDS,
    "witt.is_metabolic_classical.self_s": SECONDS,
    "witt.jump_of.calls": COUNT,
    "laurent.unit_circle_roots.calls": COUNT,
    "laurent.unit_circle_roots.self_s": SECONDS,
    "twisted.twisted_alex_surgery.misses": COUNT,
    "twisted.twisted_alex_surgery.self_s": SECONDS,
    "twisted.twisted_alex_exterior.self_s": SECONDS,
    "twisted.rep_images.self_s": SECONDS,
    "laurent.mul.calls": COUNT,
    "cyclo.mul.calls": COUNT,
    "pipeline.obstruct.self_s": SECONDS,
    "pipeline.verify_verdict.self_s": SECONDS,
    "pipeline.decompose.calls": COUNT,
    "pipeline.decompose.self_s": SECONDS,
    "knots.self_s": SECONDS,
    "expr.parse.self_s": SECONDS,
    "trace.overhead": "ratio",
}

# layer self times compared by the workload rationales (README.md)
LAYER_GROUPS = {
    "seifert+covers": ("seifert.seifert_matrix", "seifert.branched_cover",
                       "seifert.jump_function", "covers.model_module"),
    "metabolizers": ("metabolizers.enumerate", "metabolizers.construct_character"),
    "witt": ("witt.support_of", "witt.is_metabolic_classical",
             "laurent.unit_circle_roots"),
    "twisted": ("twisted.twisted_alex_surgery", "twisted.twisted_alex_exterior",
                "twisted.rep_images"),
    "pipeline+knots+expr": ("pipeline.obstruct", "pipeline.verify_verdict",
                            "pipeline.decompose", "knots", "expr.parse"),
}


class WorkerFailed(RuntimeError):
    pass


class Run:
    """One benchmark run: launches workers one at a time and collects what
    they report."""

    def __init__(self, seed: int, limit_s: float = RUN_LIMIT_S):
        self.seed = seed
        self.deadline = time.perf_counter() + limit_s
        self.imports: list[float] = []  # launch-to-import seconds
        self.rss: list[float] = []

    def launch(self, job: dict) -> dict:
        TMP.mkdir(exist_ok=True)
        cwd = tempfile.mkdtemp(dir=TMP)
        try:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py")],
                input=json.dumps({**job, "src": str(SRC)}),
                capture_output=True, text=True, cwd=cwd,
                timeout=max(self.deadline - start, 1),
            )
        finally:
            shutil.rmtree(cwd, ignore_errors=True)
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines() or [f"exit code {proc.returncode}"]
            raise WorkerFailed(lines[-1])
        out = json.loads(proc.stdout.splitlines()[-1])
        out["wall_s"] = time.perf_counter() - start
        out["setup_s"] = out["imported"] - start
        self.imports.append(out["setup_s"])
        self.rss.append(out["rss_mb"])
        return out

    def probe(self) -> None:
        for _ in range(PROBES):
            self.launch({"kind": "probe"})
        del self.imports[0]  # the bytecode-warming worker is discarded

    def schedule(self, jobs: list, seconds: float) -> tuple[list, float]:
        """Runs the jobs, one fresh worker each time: ``MIN_PASSES`` whole
        passes, each in a new seeded order, then, while ``seconds`` last,
        the job with the least wall time so far.  Cheap inputs thus get
        more samples than expensive ones.  Returns the worker results and
        the wall time of one pass, the sum of each job's median."""
        rng = random.Random(self.seed)
        order = list(range(len(jobs)))
        walls: list[list[float]] = [[] for _ in jobs]
        results = []

        def launch(i: int) -> None:
            results.append(self.launch(jobs[i]))
            walls[i].append(results[-1]["wall_s"])

        start = time.perf_counter()
        for _ in range(MIN_PASSES):
            rng.shuffle(order)
            for i in order:
                launch(i)
        while True:
            i = min(order, key=lambda j: sum(walls[j]))
            if time.perf_counter() - start + statistics.median(walls[i]) > seconds:
                return results, sum(statistics.median(w) for w in walls)
            launch(i)


def _p90(values) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def _expected(workload: str, seed: int):
    """Digest lookup for the workload's outputs, or None where the seed
    has no recorded outputs."""
    recorded = json.loads(EXPECTED.read_text())
    if workload == "corpus-cold":
        return recorded["corpus-cold"].get
    if workload == "batch-warm":
        return recorded["batch-warm"].get if seed == DEFAULT_SEED else None
    index = {}
    for key, joined in recorded["twisted-grid"].items():
        p, q = map(int, key.split(","))
        for i, values in enumerate(inputs.characters(p, q)):
            index[f"{p} {q} {list(values)}"] = joined[12 * i:12 * i + 12]
    return index.get


def check(workload: str, seed: int, results: list) -> list[str]:
    """Every output that raised, failed verification, mismatched its
    recorded digest or came out INCONCLUSIVE, as one message each."""
    expected = _expected(workload, seed)
    failures = []
    for out in results:
        for record in out["outputs"]:
            if record["error"]:
                failures.append(f"{record['input']}: {record['error']}")
            elif record["kind"] == "INCONCLUSIVE":
                failures.append(f"{record['input']}: INCONCLUSIVE")
            elif expected is not None and expected(record["input"]) != record["digest"]:
                failures.append(f"{record['input']}: output differs from expected.json")
    return failures


def end_to_end(run: Run, results: list, setup: float, pass_s: float) -> dict:
    """A per-input time is the median of that input's calls in the run;
    the quantiles are taken over inputs.  ``pass_s`` is the wall time of
    one pass over all inputs, worker launches included."""
    samples = defaultdict(lambda: ([], []))
    out_bytes = {}
    for out in results:
        for record in out["outputs"]:
            out_bytes[record["input"]] = record["bytes"]
            if record["op_s"] is not None:
                samples[record["input"]][0].append(record["op_s"])
                samples[record["input"]][1].append(record["check_s"])
    if not samples:
        raise WorkerFailed("no operation completed")
    op = [statistics.median(ops) for ops, _ in samples.values()]
    check_s = [statistics.median(checks) for _, checks in samples.values()]
    return {
        "setup_s": setup,
        "op_s.p50": statistics.median(op),
        "op_s.p90": _p90(op),
        "check_s.p50": statistics.median(check_s),
        "check_s.p90": _p90(check_s),
        "ops_per_s": len(samples) / pass_s,
        "peak_rss_mb": max(run.rss),
        "out_bytes": sum(out_bytes.values()),
    }


def corpus_jobs(seed: int) -> list[dict]:
    return [{"kind": "verdicts", "inputs": [text]} for text in inputs.CORPUS]


def batch_jobs(seed: int) -> list[dict]:
    return [{"kind": "verdicts",
             "inputs": inputs.batch_inputs(seed),
             "warmup": inputs.warmup_inputs(seed)}]


def grid_jobs(seed: int) -> list[dict]:
    return [{"kind": "grid", "chars": inputs.grid(seed)}]


JOBS = {"corpus-cold": corpus_jobs, "batch-warm": batch_jobs,
        "twisted-grid": grid_jobs}


def measure(run: Run, workload: str, seconds: float):
    """The untraced run: end-to-end metrics over ``seconds`` of work."""
    jobs = JOBS[workload](run.seed)
    if workload == "batch-warm":
        out = run.launch({**jobs[0], "seconds": seconds})
        results = [out]
        setup = statistics.median(run.imports) + out["warmup_s"]
        pass_s = out["timed_s"] / out["passes"]
    else:
        results, pass_s = run.schedule(jobs, seconds)
        setup = statistics.median(run.imports)
    return results, end_to_end(run, results, setup, pass_s), []


def measure_traced(run: Run, workload: str):
    """Each load once untraced and once traced; per-layer metrics from the
    traced workers, and every traced output compared with its untraced
    twin."""
    results, layers, mismatches = [], defaultdict(int), []
    plain_s = traced_s = 0.0
    for job in JOBS[workload](run.seed):
        plain = run.launch(job)
        traced = run.launch({**job, "trace": 1})
        results += [plain, traced]
        plain_s += plain["timed_s"]
        traced_s += traced["timed_s"]
        for name, value in traced["layers"].items():
            layers[name] += value
        for a, b in zip(plain["outputs"], traced["outputs"]):
            if a["digest"] != b["digest"]:
                mismatches.append(f"{a['input']}: traced output differs from untraced")
    metrics = {name: layers.get(name, 0) for name in PER_LAYER}
    candidates = layers.get("metabolizers.candidates", 0)
    metrics["metabolizers.yield"] = (
        layers.get("metabolizers.found", 0) / candidates if candidates else 0.0)
    metrics["trace.overhead"] = traced_s / plain_s
    _report_layers(workload, layers)
    return results, metrics, mismatches


def _report_layers(workload: str, layers: dict) -> None:
    totals = {group: sum(layers.get(f"{name}.self_s", 0) for name in names)
              for group, names in LAYER_GROUPS.items()}
    for group, seconds in sorted(totals.items(), key=lambda kv: -kv[1]):
        print(f"  self time {group:<20} {seconds:9.3f} s", file=sys.stderr)
    if workload == "corpus-cold":
        claim = "seifert+covers self time exceeds metabolizers"
        holds = totals["seifert+covers"] > totals["metabolizers"]
    else:
        leader = {"batch-warm": "metabolizers", "twisted-grid": "twisted"}[workload]
        claim = f"{leader} leads"
        holds = max(totals, key=totals.get) == leader
    print(f"  rationale ({claim}): {'holds' if holds else 'FAILS'}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(JOBS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sliceguard" / "__init__.py").is_file():
        print(f"perfbench: no sliceguard sources under {SRC}", file=sys.stderr)
        return 2
    run = Run(args.seed)
    try:
        run.probe()
        if args.trace:
            results, metrics, failures = measure_traced(run, args.workload)
        else:
            results, metrics, failures = measure(run, args.workload, args.seconds)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: worker failed: {exc}", file=sys.stderr)
        return 1
    failures += check(args.workload, args.seed, results)
    attempted = sum(len(out["outputs"]) for out in results)
    units = PER_LAYER if args.trace else {**END_TO_END, **PRINTED_ONLY}
    for name, value in metrics.items():
        print(f"  {name:<42} {value:>14.6g} {units[name]}", file=sys.stderr)
    print(f"  failed_ratio {len(failures)}/{attempted}", file=sys.stderr)
    for failure in failures[:5]:
        print(f"  FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in (PER_LAYER if args.trace else END_TO_END).items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
