"""Record ``expected.json``: the digest of every output the benchmark
checks.

    python3 perfbench/record.py

It covers the corpus, the batch at the default seed, and every character
of the twisted grid, (5, 7) included, so that any seed's sample is
covered.  Record only on a commit whose outputs are known to be right:
from then on every change of an output fails the benchmark.
"""

from __future__ import annotations

import json
import sys

import inputs
import run


def _digests(out: dict) -> dict:
    bad = [r for r in out["outputs"] if r["error"] or r["kind"] == "INCONCLUSIVE"]
    if bad:
        sys.exit(f"refusing to record a failing output: {bad[0]}")
    return {r["input"]: r["digest"] for r in out["outputs"]}


def main() -> int:
    bench = run.Run(run.DEFAULT_SEED, limit_s=900)
    corpus = {}
    for job in run.corpus_jobs(run.DEFAULT_SEED):
        corpus.update(_digests(bench.launch(job)))
    batch = _digests(bench.launch(run.batch_jobs(run.DEFAULT_SEED)[0]))
    pairs = inputs.GRID_FULL + (inputs.GRID_SAMPLED,)
    chars = [(p, q, v) for (p, q) in pairs for v in inputs.characters(p, q)]
    talex = _digests(bench.launch({"kind": "grid", "chars": chars}))
    grid = {
        f"{p},{q}": "".join(talex[f"{p} {q} {list(v)}"] for v in inputs.characters(p, q))
        for (p, q) in pairs
    }
    recorded = {"corpus-cold": corpus, "batch-warm": batch, "twisted-grid": grid}
    run.EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
