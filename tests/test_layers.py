"""Structural rules of the fdarray package, read from its source.

Each module imports only the layers below it: kernels (geometry, si_model,
spectral, coarray, beampattern) sit at the bottom, `experiments` combines
them into studies, `files` writes and reads what both produce, and `cli`
runs everything. Only `files` touches the file system, one function takes
singular values, and one function decides real vs complex.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fdarray"
KERNELS = {"geometry", "si_model", "spectral", "coarray", "beampattern"}
LAYERS = {
    "geometry": set(),
    "si_model": {"geometry"},
    "spectral": {"si_model", "geometry"},
    "coarray": {"geometry"},
    "beampattern": {"geometry"},
    "experiments": KERNELS,
    "files": KERNELS | {"experiments"},
    "cli": KERNELS | {"experiments", "files"},
    "__init__": KERNELS | {"experiments", "files", "cli"},
}


def package_imports(path: Path) -> set[str]:
    """Names of the fdarray modules that a source file imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("fdarray."))
        elif isinstance(node, ast.ImportFrom):
            top, _, rest = (node.module or "").partition(".")
            if node.level == 0:  # absolute: only fdarray's own modules count
                if top != "fdarray":
                    continue
                top, _, rest = rest.partition(".")
            found.update([top] if top else [a.name for a in node.names])
    return found


def test_every_module_has_a_layer():
    assert {p.stem for p in SRC.glob("*.py")} == set(LAYERS)


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_module_imports_only_lower_layers(module):
    assert package_imports(SRC / f"{module}.py") <= LAYERS[module]


def test_import_reader_sees_every_form(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "from . import files, cli\nfrom .coarray import sum_coarray\n"
        "from fdarray.spectral import svd_spectrum\nimport fdarray.experiments\nimport numpy\n"
    )
    assert package_imports(src) == {"files", "cli", "coarray", "spectral", "experiments"}


def calls(module: str) -> list[tuple[str | None, str]]:
    """``(definition, callee)`` for every call in a module: the enclosing
    top-level function or class (None at module level) and the called
    expression as source text, such as ``'np.linalg.svd'``."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    return [
        (getattr(top, "name", None), ast.unparse(node.func))
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
    ]


def callee_name(callee: str) -> str:
    return callee.rpartition(".")[2]


FILE_CALLS = {"open", "makedirs", "mkdir", "read_text", "write_text", "read_bytes", "write_bytes", "savetxt", "loadtxt"}


@pytest.mark.parametrize("module", sorted(KERNELS | {"experiments"}))
def test_only_files_opens_files(module):
    # a compute module that needs file I/O moves it into fdarray/files.py
    assert [c for _, c in calls(module) if callee_name(c) in FILE_CALLS] == []


def test_one_lapack_call_of_each_kind_in_spectral():
    # singular values come from spectral._singular_values
    found = Counter(
        (module, where, callee_name(c)) for module in LAYERS for where, c in calls(module)
        if callee_name(c) in {"svd", "eigvalsh"}
    )
    assert found == {("spectral", "_singular_values", "svd"): 1, ("spectral", "_singular_values", "eigvalsh"): 1}


def test_one_real_or_complex_rule_in_numeric_matrix():
    # real vs complex is decided by si_model.numeric_matrix
    found = [(module, where) for module in LAYERS for where, c in calls(module) if c.endswith(".imag.any")]
    assert found == [("si_model", "numeric_matrix")]
