"""The package surface: each public name is declared once, by the module that defines it."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import widim

LIBRARY = ("_streams", "core", "signed_perm", "threshold_map", "bounds", "certify",
           "group_dynamics", "_output")
MODULES = {name: importlib.import_module(f"widim.{name}") for name in LIBRARY}
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(module):
    return ast.parse(Path(module.__file__).read_text())


def _defined_names(module) -> set:
    """Names a module binds at top level by def, class or assignment, not by import."""
    names = set()
    for node in _tree(module).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_package_all_is_the_union_of_the_module_lists():
    names = widim.__all__
    assert len(names) == len(set(names))
    union = [name for module in MODULES.values() for name in module.__all__]
    assert sorted(names) == sorted(union + ["__version__"])
    assert "sample_lp_ball_rows" in names and widim.__version__ == "0.1.0"


@pytest.mark.parametrize("name", LIBRARY)
def test_each_module_lists_only_names_it_defines(name):
    module = MODULES[name]
    assert set(module.__all__) <= _defined_names(module)
    for public in module.__all__:
        assert getattr(widim, public) is getattr(module, public)


def test_init_lists_no_public_name():
    # __init__ re-exports by star import only; the lists live in the modules
    imports = [node for node in _tree(widim).body if isinstance(node, ast.ImportFrom)]
    assert sorted(node.module for node in imports) == sorted(LIBRARY)
    assert all([alias.name for alias in node.names] == ["*"] for node in imports)


def test_imported_names_stay_importable():
    # callers that import a name from a module that only imports it keep working
    from widim.certify import DEFAULT_SEED, sample_lp_ball
    from widim.group_dynamics import sample_lp_ball as again

    assert DEFAULT_SEED == widim.DEFAULT_SEED == 0x5EED
    assert sample_lp_ball is again is widim.sample_lp_ball


@pytest.mark.parametrize("name", ["widim_exact_q_infinity", "equal_case_report",
                                  "ball_inclusion_holds"])
def test_each_width_quantity_has_one_name(name):
    # widim_upper at q = inf, bracket of an EqualCase and the inequality of
    # ball_inclusion_max_radius are the one spelling of each
    assert name not in widim.__all__ and not hasattr(MODULES["bounds"], name)


_SERIALIZERS = {
    "certify": ["report_to_json", "report_from_json", "report_csv_header", "report_to_csv_row"],
    "group_dynamics": ["embedding_report_to_json", "embedding_report_from_json",
                       "embedding_csv_header", "embedding_to_csv_row", "table_to_json",
                       "table_csv_header", "table_to_csv_rows"],
}


@pytest.mark.parametrize("module, name", [(module, name) for module, names in _SERIALIZERS.items()
                                          for name in names])
def test_each_report_has_one_codec(module, name):
    # to_json, from_json, csv_lines and table_csv_lines in _output are the one
    # report codec; a per-type writer or reader would be a second spelling
    assert name not in widim.__all__ and not hasattr(MODULES[module], name)
    assert {"to_json", "from_json", "csv_lines", "table_csv_lines"} <= set(widim.__all__)


# the benchmark's tracer, loaded from its file: perfbench is not a package
_SPEC = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
TRACING = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(TRACING)


@pytest.mark.parametrize("owner, attr", [patch[:2] for patch in TRACING.PATCHES],
                         ids=[f"{patch[0]}.{patch[1]}" for patch in TRACING.PATCHES])
def test_traced_names_resolve(owner, attr):
    # the benchmark's tracer wraps each of these names under --trace 1, so
    # removing or renaming one breaks the traced benchmark run
    assert callable(getattr(TRACING._owner(owner), attr))


def _probe_imports():
    tree = ast.parse((PERFBENCH / "probes.py").read_text())
    probe = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "kernel_block_times")
    return [(node.module, alias.name) for node in ast.walk(probe)
            if isinstance(node, ast.ImportFrom) for alias in node.names]


@pytest.mark.parametrize("module, name", _probe_imports())
def test_probed_names_import(module, name):
    # the benchmark's kernel probe times these names on one block
    assert callable(getattr(importlib.import_module(module), name))


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # numpy loads numpy.random on first use; naming a bit generator at import
    # time loaded it for every run, about 6 MiB of peak RSS and a slower
    # start even for `widim bounds`, which draws nothing
    code = "import sys, widim.cli; print('numpy.random' in sys.modules)"
    src = str(Path(widim.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
