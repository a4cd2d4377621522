"""The runtime needs nothing outside the standard library, and its import stays light."""

import ast
import importlib
import pathlib
import pkgutil
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "congform"


def test_runtime_imports_only_the_standard_library():
    # Relative imports stay inside the package; every absolute import,
    # function-local ones included, must name a standard-library module.
    files = sorted(SRC.glob("*.py"))
    assert files
    outside = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_import_loads_no_code_generation_modules():
    # ``dataclasses`` would pull in ``inspect``, ``ast`` and ``dis``, and
    # ``typing`` pulls in ``re``, ``enum`` and ``contextlib``; a fresh
    # interpreter without ``site`` shows what ``import congform`` itself loads.
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import congform; "
             "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'typing'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", probe, str(SRC.parent)],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_module_caches_are_the_listed_ones():
    # A module lru_cache keeps what it is handed for as long as the process
    # runs, so each one has to earn its place: a new one comes with a change
    # to this list.
    caches = {}
    for info in pkgutil.iter_modules([str(SRC)]):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"congform.{info.name}")
        caches.update((f"{info.name}.{name}", obj.cache_parameters()["maxsize"])
                      for name, obj in vars(module).items()
                      if hasattr(obj, "cache_parameters") and obj.__module__ == module.__name__)
    assert caches == {
        "algebras._occurrences": None,
        "algebras.automorphism_generators": None,
        "algebras.find_isomorphism": None,
        "algebras._embedding_profile": None,
        "algebras.con_lattice": None,
        "instances.corpus": None,
        "terms._compile": 1024,
        "terms._columns": 64,
    }
