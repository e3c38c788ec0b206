"""The benchmark in perfbench/ reads sliceguard from outside: it checks
verdict digests against perfbench/expected.json and wraps functions by
name.  These tests keep the package to that contract, and its lazily
resolved public names working; they only read perfbench/."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from sliceguard import expr, pipeline, seifert, twisted
from sliceguard.covers import Character

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_corpus_verdicts_are_byte_identical_to_expected():
    corpus = _load("inputs").CORPUS
    expected = json.loads((PERFBENCH / "expected.json").read_text())["corpus-cold"]
    for text in corpus:
        doc = pipeline.obstruct(expr.parse(text)).to_json()
        assert hashlib.sha256(doc.encode()).hexdigest()[:12] == expected[text], text


def test_twisted_grid_outputs_are_byte_identical_to_expected():
    # every (5, 7) character too, not only the sample a benchmark run draws
    inputs = _load("inputs")
    expected = json.loads((PERFBENCH / "expected.json").read_text())["twisted-grid"]
    for p, q in inputs.GRID_FULL + (inputs.GRID_SAMPLED,):
        digests = []
        for values in inputs.characters(p, q):
            chi = Character(q, values)
            images = twisted.rep_images(p, q, chi)
            ext = twisted.twisted_alex_exterior(p, q, chi)
            sur = twisted.twisted_alex_surgery(p, q, chi)
            digests.append(hashlib.sha256(f"{images}\n{ext}\n{sur}".encode()).hexdigest()[:12])
        assert "".join(digests) == expected[f"{p},{q}"], (p, q)


CONTRACT_CHECK = """
import json
import sys
import spans, worker
for dotted in worker.CACHED:
    module, attr = dotted.split(".")
    fn = getattr(sys.modules["sliceguard." + module], attr)
    assert hasattr(fn, "cache_info"), dotted
tracer = spans.Tracer()
spans.install(tracer)
# every layer's span must see calls, which it does only while the package
# calls these functions through their module attributes
from sliceguard import expr, pipeline
doc = pipeline.obstruct(expr.parse("T(2,3;2,5) # -T(2,5) # -T(2,3;2,7) # T(2,7)")).to_json()
pipeline.verify_verdict(json.loads(doc))
metrics = tracer.metrics()
for name in ("pipeline.verify_verdict.calls", "pipeline.decompose.calls",
             "metabolizers.enumerate.calls", "metabolizers.construct_character.calls",
             "modp.rref.calls"):
    assert metrics.get(name), name
"""


def test_worker_caches_and_spans_resolve():
    # spans.install rebinds module globals for good, so it runs in a child
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(PERFBENCH)]))
    done = subprocess.run([sys.executable, "-c", "import sliceguard" + CONTRACT_CHECK],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_import_is_light_and_loads_the_modules_the_worker_reads():
    # every command and every benchmark worker is a fresh process that pays
    # for the import; without site, nothing but sliceguard loads modules
    code = "import sys; sys.path.insert(0, sys.argv[1]); import sliceguard; print(*sys.modules)"
    done = subprocess.run([sys.executable, "-S", "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert not loaded & {"dataclasses", "inspect", "ast", "dis"}
    # the worker reads its caches from sys.modules right after the import;
    # spans.install imports every other module it wraps itself
    cached = {f"sliceguard.{dotted.split('.')[0]}" for dotted in _load("worker").CACHED}
    assert {"sliceguard.seifert", "sliceguard.twisted"} <= cached
    assert cached <= loaded, cached - loaded
    # the cyclotomic and Laurent arithmetic serve only twisted polynomials
    # and the inspection commands
    assert not loaded & {"sliceguard.cyclo", "sliceguard.laurent", "mpmath"}


PUBLIC_NAMES = """
import sys
sys.path.insert(0, sys.argv[1])
import sliceguard
lazy = {"Cyclo", "normalize_root", "LaurentPoly", "RationalFn", "unit_circle_roots"}
assert lazy <= set(dir(sliceguard)), lazy - set(dir(sliceguard))
assert not hasattr(sliceguard, "nope")
for name in sliceguard.__all__:
    getattr(sliceguard, name)
namespace = {}
exec("from sliceguard import *", namespace)
assert set(sliceguard.__all__) <= set(namespace)
from sliceguard import cyclo, knots, laurent, witt
assert sliceguard.Cyclo is cyclo.Cyclo
assert sliceguard.normalize_root is cyclo.normalize_root
assert sliceguard.LaurentPoly is laurent.LaurentPoly
assert sliceguard.RootOfUnity is cyclo.RootOfUnity is knots.RootOfUnity
assert witt.unit_circle_roots is laurent.unit_circle_roots
"""


def test_public_names_resolve_with_cyclo_and_laurent_loaded_on_use():
    done = subprocess.run([sys.executable, "-S", "-c", PUBLIC_NAMES, str(ROOT / "src")],
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


ROUTES_ON_USE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from sliceguard import expr, pipeline, seifert, twisted
from sliceguard.covers import Character
for text in sys.argv[2:]:
    verdict = pipeline.obstruct(expr.parse(text))
    assert verdict.kind == "NOT_SLICE", text
    pipeline.verify_verdict(json.loads(verdict.to_json()))
on_use = {"sliceguard.presentations", "sliceguard.fox", "sliceguard.cyclo", "sliceguard.laurent"}
assert not on_use & set(sys.modules), on_use & set(sys.modules)
# twists and witness points are integer pairs: only the signature command,
# the inspection routes and the tests build Fractions
rational = {"fractions", "decimal", "numbers"}
assert not rational & set(sys.modules), rational & set(sys.modules)
seifert.lt_signature(3, 4, "1/2")
assert "fractions" in sys.modules
print(seifert.branched_cover(5, 7, 5))
print(twisted.twisted_alex_surgery(3, 5, Character(5, (1, 2, 2))))
assert on_use <= set(sys.modules), on_use - set(sys.modules)
"""


def test_verdicts_leave_the_route_modules_uncompiled():
    # a verdict and its check need neither the Seifert presentations nor the
    # Fox calculus, nor the cyclotomic and Laurent arithmetic under them, so
    # a fresh process compiles them only when an entry point that perfbench
    # reads is first called; nor do they load fractions, decimal or numbers
    inputs = ["T(2,3;2,5) # -T(2,5) # -T(2,3;2,7) # T(2,7)",
              "T(3,4;3,13) # -T(3,13) # -T(3,4;3,17) # T(3,17)"]
    done = subprocess.run([sys.executable, "-S", "-c", ROUTES_ON_USE, str(ROOT / "src"), *inputs],
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        str(seifert.branched_cover(5, 7, 5)),
        str(twisted.twisted_alex_surgery(3, 5, Character(5, (1, 2, 2)))),
    ]
