"""Each module of fdarray imports only the layers below it.

Kernels (geometry, si_model, spectral, coarray, beampattern) sit at the
bottom, `experiments` combines them into studies, `files` writes and reads
what both produce, and `cli` runs everything.
"""

import ast
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
