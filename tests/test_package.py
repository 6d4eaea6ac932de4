import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

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


def _fresh(code: str, *flags: str) -> str:
    """stdout of code run in a new interpreter, started with flags, that
    imports hcpoly from this tree."""
    src = str(Path(hcpoly.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, *flags, "-c", f"import sys; sys.path.insert(0, {src!r})\n{code}"],
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout


_LOADED = "print(*sorted(m for m in sys.modules if m.startswith('hcpoly')))"


def test_import_loads_no_layer():
    assert _fresh(f"import hcpoly, hcpoly.cli\n{_LOADED}").split() == ["hcpoly", "hcpoly.cli"]


def test_command_loads_only_its_layers():
    code = f"from hcpoly.cli import main\nmain(['pi', '--q', '2', '--n', '5'])\n{_LOADED}"
    assert _fresh(code).split() == [
        "6", "hcpoly", "hcpoly.cli", "hcpoly.gf_poly", "hcpoly.irreducibles"
    ]


def test_table_without_cache_loads_no_cache_modules():
    # -S, because a site module may preload pathlib.  shutil is not checked:
    # argparse imports it for the terminal width whenever an argument is added
    code = """
from hcpoly.cli import main
main(['hc-table', '--q', '2', '--max-degree', '5'])
print('loaded:', *sorted({'pathlib', 'tempfile'} & set(sys.modules)))
"""
    assert _fresh(code, "-S").splitlines()[-1] == "loaded:"


def test_exports_are_their_home_objects():
    code = """
import hcpoly
names = {}
exec("from hcpoly import *", names)
listed = set(dir(hcpoly))
for name in hcpoly.__all__:
    obj = names[name]
    home = sys.modules[obj.__module__]
    assert home.__name__.startswith("hcpoly."), name
    assert getattr(home, name) is obj is getattr(hcpoly, name), name
    assert name in listed, name
print(len(hcpoly.__all__))
"""
    assert _fresh(code).split() == [str(len(hcpoly.__all__))]


def test_unknown_name_is_missing():
    assert getattr(hcpoly, "nope", None) is None
    with pytest.raises(AttributeError, match="nope"):
        hcpoly.nope
