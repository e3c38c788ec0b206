"""One benchmark worker: a fresh interpreter that imports sliceguard and
runs one job.

``run.py`` starts it with an empty temporary working directory, writes the
job as JSON to its standard input and reads the result as one JSON line
from its standard output.  Jobs:

* ``probe``: import only;
* ``verdicts``: ``obstruct`` then ``verify_verdict`` on each input, after
  an untimed warm-up list; with ``seconds``, whole passes over the inputs
  repeat, as many as end nearest to ``seconds``;
* ``grid``: ``rep_images``, ``twisted_alex_exterior`` and
  ``twisted_alex_surgery`` for each character.

With ``trace`` set, the layer wrappers of ``spans.py`` are installed after
the warm-up and their totals are returned.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


# lru-cached functions whose fills every cold verdict run pays
CACHED = ("seifert.seifert_matrix", "seifert.branched_cover",
          "seifert._jump_function_cached", "covers.model_module",
          "twisted.twisted_alex_surgery")


def _cache_misses() -> int:
    total = 0
    for dotted in CACHED:
        module, attr = dotted.split(".")
        fn = getattr(sys.modules[f"sliceguard.{module}"], attr)
        while not hasattr(fn, "cache_info"):  # under a layer wrapper
            fn = fn.__wrapped__
        total += fn.cache_info().misses
    return total


def _verdict(text: str, out: dict) -> None:
    """obstruct then verify_verdict on one input, recorded into ``out``."""
    from sliceguard import expr, pipeline

    record = {"input": text, "kind": None, "digest": None, "bytes": 0,
              "error": None, "op_s": None, "check_s": None}
    out["outputs"].append(record)
    try:
        start = time.perf_counter()
        verdict = pipeline.obstruct(expr.parse(text))
        doc = verdict.to_json()
        middle = time.perf_counter()
        record.update(kind=verdict.kind, digest=digest(doc), bytes=len(doc))
        pipeline.verify_verdict(json.loads(doc))
        end = time.perf_counter()
    except Exception:  # one failing input is recorded and the run goes on
        record["error"] = traceback.format_exc()
        return
    record.update(op_s=middle - start, check_s=end - middle)


def run_verdicts(job: dict, out: dict, tracer) -> None:
    from sliceguard import expr, pipeline

    start = time.perf_counter()
    for text in job.get("warmup", ()):
        pipeline.verify_verdict(json.loads(pipeline.obstruct(expr.parse(text)).to_json()))
    out["warmup_s"] = time.perf_counter() - start
    misses = _cache_misses()
    if tracer is not None:
        import spans

        spans.install(tracer)
    start = time.perf_counter()
    deadline = start + job.get("seconds", 0)
    out["passes"] = 0
    while True:
        pass_start = time.perf_counter()
        for text in job["inputs"]:
            _verdict(text, out)
        out["passes"] += 1
        now = time.perf_counter()
        if now + (now - pass_start) / 2 > deadline:
            break
    out["timed_s"] = time.perf_counter() - start
    out["misses"] = _cache_misses() - misses


def run_grid(job: dict, out: dict, tracer) -> None:
    if tracer is not None:
        import spans

        spans.install(tracer)
    from sliceguard import twisted
    from sliceguard.covers import Character

    results = []
    start = time.perf_counter()
    for p, q, values in job["chars"]:
        record = {"input": f"{p} {q} {values}", "kind": "TALEX", "digest": None,
                  "bytes": 0, "error": None, "op_s": None, "check_s": None}
        out["outputs"].append(record)
        try:
            chi = Character(q, tuple(values))
            t0 = time.perf_counter()
            images = twisted.rep_images(p, q, chi)
            t1 = time.perf_counter()
            ext = twisted.twisted_alex_exterior(p, q, chi)
            sur = twisted.twisted_alex_surgery(p, q, chi)
            t2 = time.perf_counter()
        except Exception:  # one failing character is recorded and the run goes on
            record["error"] = traceback.format_exc()
            continue
        record.update(op_s=t2 - t1, check_s=t1 - t0)
        results.append((record, images, ext, sur))
    out["timed_s"] = time.perf_counter() - start
    # digests are taken outside the timed region
    for record, images, ext, sur in results:
        record.update(digest=digest(f"{images}\n{ext}\n{sur}"),
                      bytes=len(str(ext)) + len(str(sur)))


def main() -> int:
    job = json.loads(sys.stdin.read())
    sys.path.insert(0, job["src"])
    import sliceguard  # noqa: F401

    imported = time.perf_counter()
    out = {"imported": imported, "outputs": []}
    tracer = None
    if job.get("trace"):
        import spans

        tracer = spans.Tracer()
    if job["kind"] == "verdicts":
        run_verdicts(job, out, tracer)
    elif job["kind"] == "grid":
        run_grid(job, out, tracer)
    if tracer is not None:
        out["layers"] = tracer.metrics()
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
