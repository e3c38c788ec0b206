"""The benchmark's smoke test, at minimal size (about half a minute).

    python3 perfbench/smoke.py

Shrinks every workload to a few cheap inputs and checks that:

* every metric named in BENCHMARK.json is emitted, with its unit, by both
  the untraced and the traced run of every workload, and all outputs are
  correct;
* ``covers.model_module`` misses are 0 on the timed batch-warm pass;
* every corpus-cold worker fills at least one per-(p, q) cache.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import inputs
import run


# not the default seed: the shrunk batch has no recorded digests, so its
# outputs are checked by verify_verdict and for INCONCLUSIVE only
SEED = 2


def expect(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"smoke: FAILED: {message}")


def shrink() -> None:
    inputs.CORPUS = (inputs.J2, inputs.CORPUS[2])
    inputs.STRATA = (((2, 1, 3), 1), ((2, 1, 5), 1))
    inputs.GRID_FULL = ((2, 3), (3, 2))
    inputs.GRID_SAMPLED = (2, 5)
    inputs.GRID_SAMPLE = 3


def result(workload: str, trace: int) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run.main(["--workload", workload, "--seed", str(SEED),
                         "--seconds", "0", "--trace", str(trace)])
    expect(code == 0, f"{workload} --trace {trace} exited with {code}:\n"
                      f"{stderr.getvalue()}")
    return json.loads(stdout.getvalue().splitlines()[-1])


def main() -> int:
    shrink()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in run.JOBS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = result(workload, trace)
            expect(out["correct"] and out["failed"] == 0 and out["attempted"] >= 1,
                   f"{workload} --trace {trace} reports failures")
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in out["metrics"].items()}
            expect(got == wanted, f"{workload} --trace {trace} emits {got}, "
                                  f"BENCHMARK.json names {wanted}")
            if workload == "batch-warm" and trace:
                misses = out["metrics"]["covers.model_module.misses"]["value"]
                expect(misses == 0, f"{misses} model_module misses on the timed pass")
    results, _, _ = run.measure(run.Run(SEED), "corpus-cold", 0)
    expect(all(out["misses"] >= 1 for out in results),
           "a corpus-cold worker filled no cache")
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
