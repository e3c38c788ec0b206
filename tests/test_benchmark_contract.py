"""The benchmark in perfbench/ reads sliceguard from outside: it checks
verdict digests against perfbench/expected.json and wraps functions by
name.  These tests keep the package to that contract; they only read
perfbench/."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from sliceguard import expr, pipeline, twisted
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
    # the sampled (5, 7) part is left to perfbench/run.py
    inputs = _load("inputs")
    expected = json.loads((PERFBENCH / "expected.json").read_text())["twisted-grid"]
    for p, q in inputs.GRID_FULL:
        digests = []
        for values in inputs.characters(p, q):
            chi = Character(q, values)
            images = twisted.rep_images(p, q, chi)
            ext = twisted.twisted_alex_exterior(p, q, chi)
            sur = twisted.twisted_alex_surgery(p, q, chi)
            digests.append(hashlib.sha256(f"{images}\n{ext}\n{sur}".encode()).hexdigest()[:12])
        assert "".join(digests) == expected[f"{p},{q}"], (p, q)


CONTRACT_CHECK = """
import sys
import spans, worker
for dotted in worker.CACHED:
    module, attr = dotted.split(".")
    fn = getattr(sys.modules["sliceguard." + module], attr)
    assert hasattr(fn, "cache_info"), dotted
spans.install(spans.Tracer())
"""


def test_worker_caches_and_spans_resolve():
    # spans.install rebinds module globals for good, so it runs in a child
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(PERFBENCH)]))
    done = subprocess.run([sys.executable, "-c", "import sliceguard" + CONTRACT_CHECK],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
