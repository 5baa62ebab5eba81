"""The benchmark's tracer patches wavegs attributes by name; they must all exist.

``wavebench/spans.py`` wraps module attributes that callers look up at call
time and restores them afterwards.  Deleting or renaming one of them breaks
every traced benchmark run, so this test installs and removes the hooks.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import wavegs.saddle as saddle

SPANS = Path(__file__).resolve().parents[1] / "wavebench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("wavebench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_hooks_install_and_restore():
    spans = _load_spans()
    targets = [(importlib.import_module(mod), attr) for mod, attr, _ in spans._PLAIN_HOOKS]
    targets.append((saddle, "inner_maximize"))
    before = [getattr(mod, attr) for mod, attr in targets]

    hooks = spans.Instrumentation(spans.Tracer())
    try:
        patched = [getattr(mod, attr) for mod, attr in targets]
    finally:
        hooks.remove()

    assert all(p is not b for p, b in zip(patched, before))
    assert all(getattr(mod, attr) is b for (mod, attr), b in zip(targets, before))


def test_inner_maximize_keeps_the_five_argument_shape():
    # the tracer's wrapper passes (w, ctx, cfg, kernel_basis, warm) positionally
    params = list(inspect.signature(saddle.inner_maximize).parameters)
    assert params == ["w", "ctx", "cfg", "kernel_basis", "warm"]
