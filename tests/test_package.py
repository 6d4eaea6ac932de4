import importlib.util
import sys
from pathlib import Path

import hcpoly

TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"


def test_all_exports_resolve():
    missing = [name for name in hcpoly.__all__ if not hasattr(hcpoly, name)]
    assert not missing
    assert hcpoly.__version__ == "0.1.0"


def test_all_is_sorted_and_unique():
    assert list(hcpoly.__all__) == sorted(set(hcpoly.__all__))


def test_traced_names_are_exported(monkeypatch):
    # the benchmark's tracer skips a name that has left the package, and
    # drops the per-layer metrics made from it without an error
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # dataclasses look the module up
    spec.loader.exec_module(tracer)
    for name in (*tracer.TRACED, "iter_spoints"):
        assert callable(getattr(hcpoly, name, None)), name
        assert name in hcpoly.__all__, name
