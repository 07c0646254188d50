"""The names that the benchmark's tracer wraps.

``perfbench/bench_trace.py`` replaces functions and methods of the package
by name.  A renamed or deleted one would fail only the next traced
benchmark run, so this installs the tracer and restores it here.
"""

import importlib.util
from pathlib import Path


def _load_bench_trace():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "bench_trace.py"
    spec = importlib.util.spec_from_file_location("bench_trace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(owner, attr, item):
    return owner[attr] if item else getattr(owner, attr)


def test_tracer_installs_and_restores_every_name(tmp_path):
    tracer = _load_bench_trace().Tracer(tmp_path)
    try:
        tracer.install()  # raises AttributeError for a name that is gone
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original, item in patches:
            assert _current(owner, attr, item) is not original, attr
    finally:
        tracer.restore()
    for owner, attr, original, item in patches:
        assert _current(owner, attr, item) is original, attr
