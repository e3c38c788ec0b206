"""Per-layer spans and counters, recorded from outside the package.

Each wrapper replaces a function under the name its caller looks up, in
that caller's module: ``witt.unit_circle_roots`` (``witt`` imports it by
name), ``covers.model_module`` (``pipeline`` calls it through ``covers``)
and so on.  Nothing under ``src/`` is edited, and no wrapper changes an
argument or a result, so the traced run reproduces the untraced verdict
JSON byte for byte.

A span's self time is its duration minus the durations of the spans
opened inside it.  Spans are aggregated by name as they close; only the
per-name totals are kept.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.counts = defaultdict(int)
        self.self_s = defaultdict(float)
        self._children = []  # child-span time of every open span, innermost last
        self._open = defaultdict(int)  # open depth per span name
        self._caches = {}  # name -> (lru-cached function, misses at install)

    def span(self, owner, attr: str, name: str, cache=None):
        """Time calls of ``owner.attr`` as span ``name``; ``cache`` is the
        lru-cached function whose misses count as ``name.misses``."""
        fn = getattr(owner, attr)
        cache = cache if cache is not None else fn
        if hasattr(cache, "cache_info"):
            self._caches[name] = (cache, cache.cache_info().misses)
        children, opened = self._children, self._open
        counts, self_s = self.counts, self.self_s
        calls_key, self_key = f"{name}.calls", f"{name}.self_s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            opened[name] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                opened[name] -= 1
                inner = children.pop()
                counts[calls_key] += 1
                self_s[self_key] += duration - inner
                if children:
                    children[-1] += duration

        setattr(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str, within: str | None = None):
        """Count calls of ``owner.attr`` as ``name``; with ``within``, only
        the calls made while span ``within`` is open."""
        fn = getattr(owner, attr)
        counts, opened = self.counts, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if within is None or opened[within]:
                counts[name] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, wrapper)

    def tally(self, owner, attr: str, name: str):
        """Add the length of every result of ``owner.attr`` to ``name``."""
        fn = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += len(result)
            return result

        setattr(owner, attr, wrapper)

    def metrics(self) -> dict:
        out = {**self.counts, **self.self_s}
        for name, (cache, start) in self._caches.items():
            out[f"{name}.misses"] = cache.cache_info().misses - start
        return out


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer of sliceguard."""
    from sliceguard import (covers, cyclo, expr, knots, laurent, metabolizers,
                            modp, pipeline, seifert, twisted, witt)

    span, count = tracer.span, tracer.count
    # pipeline: orchestration and verification
    span(pipeline, "obstruct", "pipeline.obstruct")
    span(pipeline, "verify_verdict", "pipeline.verify_verdict")
    span(pipeline, "decompose", "pipeline.decompose")
    # expr and knots: parsing, cancellation and algebraic sliceness;
    # verify_verdict imports expr.parse at call time, so it is wrapped too
    span(expr, "parse", "expr.parse")
    for attr in ("simplify", "algebraically_slice", "normal_form", "in_sp"):
        span(knots, attr, "knots")
    # seifert: Seifert matrices, branched covers and signature jumps
    span(seifert, "seifert_matrix", "seifert.seifert_matrix")
    span(seifert, "branched_cover", "seifert.branched_cover")
    span(seifert, "jump_function", "seifert.jump_function",
         cache=seifert._jump_function_cached)
    count(seifert, "lt_signature", "seifert.lt_signature.calls")
    # covers: the model module
    span(covers, "model_module", "covers.model_module")
    # metabolizers with modp: enumeration and the character construction
    span(metabolizers, "enumerate_invariant_metabolizers", "metabolizers.enumerate")
    tracer.tally(metabolizers, "enumerate_invariant_metabolizers", "metabolizers.found")
    count(metabolizers, "is_invariant_metabolizer", "metabolizers.candidates",
          within="metabolizers.enumerate")
    span(metabolizers, "construct_character", "metabolizers.construct_character")
    count(modp, "rref", "modp.rref.calls")
    # witt: supports and the jump decision; unit_circle_roots is laurent's
    span(witt, "support_of", "witt.support_of")
    span(witt, "is_metabolic_classical", "witt.is_metabolic_classical")
    count(witt, "jump_of", "witt.jump_of.calls")
    span(witt, "unit_circle_roots", "laurent.unit_circle_roots")
    # twisted, with laurent and cyclo as its kernels (counted only)
    span(twisted, "twisted_alex_surgery", "twisted.twisted_alex_surgery")
    span(twisted, "twisted_alex_exterior", "twisted.twisted_alex_exterior")
    span(twisted, "rep_images", "twisted.rep_images")
    count(laurent.LaurentPoly, "__mul__", "laurent.mul.calls")
    count(cyclo.Cyclo, "__mul__", "cyclo.mul.calls")
