"""The runtime needs nothing outside the standard library, and its import stays light."""

import ast
import pathlib
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
    # ``dataclasses`` would pull in ``inspect``, ``ast`` and ``dis``; a fresh
    # interpreter without ``site`` shows what ``import congform`` itself loads.
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import congform; "
             "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", probe, str(SRC.parent)],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
