"""The package surface: each public name is declared once, by the module that defines it."""

import ast
import importlib
from pathlib import Path

import pytest

import widim

LIBRARY = ("_streams", "core", "signed_perm", "threshold_map", "bounds", "certify",
           "group_dynamics")
MODULES = {name: importlib.import_module(f"widim.{name}") for name in LIBRARY}


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
