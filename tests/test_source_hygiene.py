"""Source conventions of src/nsmild: short lines, no dead private names, one forward
transform, no np.roll, and a README that names the snapshot version the writer writes."""

import ast
from pathlib import Path

import pytest

from nsmild.io import SNAPSHOT_VERSION

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "nsmild").glob("*.py"))
MAX_COLUMNS = 99
COMPLEX_FFTS = {"fft", "fftn", "fft2", "ifft", "ifftn", "ifft2"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_line_exceeds_max_columns(path):
    long = [n for n, line in enumerate(path.read_text().splitlines(), 1)
            if len(line) > MAX_COLUMNS]
    assert long == [], f"{path.name}: lines over {MAX_COLUMNS} columns: {long}"


def _names_read(tree, outside) -> set:
    """Names read in tree, bare or as attributes, outside the subtree `outside`."""
    own = {id(node) for node in ast.walk(outside)}
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in own}


def test_every_private_top_level_name_is_used():
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    assert len(trees) >= 5, "src/nsmild not found"
    dead = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            if not any(node.name in _names_read(other, node) for other in trees.values()):
                dead.append(f"{name}:{node.lineno} {node.name}")
    assert dead == [], f"private definitions that nothing in src/ reads: {dead}"


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)  # __init__.py imports to re-export
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text())
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names} - {"annotations"}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - read) == [], f"{path.name}: imports that nothing in it reads"


def test_no_complex_fft():
    """Real samples enter the spectrum only through grid._rfft (exactly Hermitian) and
    leave it through grid._irfft, so a second, complex path must not come back."""
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "numpy.fft":
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute) \
                    and node.value.attr == "fft":
                names = {node.attr}
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names & COMPLEX_FFTS]
    assert found == [], f"complex FFTs in src/nsmild: {found}"


def test_mirrors_only_where_a_field_leaves_a_solver():
    """Fields are carried as the half spectrum; only these functions rebuild the full
    lattice (grid._full_spectrum), each where a field leaves for a caller or a file."""
    allowed = {"forward_transform", "_unit_phase_coeffs", "advect", "projected_nonlinearity",
               "exp_euler_step", "march", "picard_solve", "read_snapshot"}
    callers = set()
    for path in SOURCES:
        for top in ast.parse(path.read_text()).body:
            callers |= {getattr(top, "name", f"{path.name}:{top.lineno}")
                        for node in ast.walk(top)
                        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "_full_spectrum"}
    assert callers - allowed == set(), f"_full_spectrum called from {sorted(callers)}"


def test_no_roll():
    """Reflections gather once per axis (grid._conj_reflect); np.roll copies the whole
    array per axis, and on a strided view it is slow, so it must not come back."""
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "numpy":
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names if name == "roll"]
    assert found == [], f"np.roll in src/nsmild: {found}"


def test_readme_names_the_written_snapshot_version():
    lines = [line for line in (ROOT / "README.md").read_text().splitlines()
             if line.startswith("Snapshot format")]
    assert len(lines) == 1, "README has no single 'Snapshot format' line"
    assert f"u32 version = {SNAPSHOT_VERSION}," in lines[0], lines[0]
