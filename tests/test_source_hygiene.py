"""Source conventions of src/nsmild: short lines, no dead private names or class members,
one forward and one inverse transform, no np.roll, no one-field dataclass, the full
lattice formed only for readers outside the package, each config block parsed at one
site of cli.py, and a README that names the snapshot version the writer writes."""

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
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
            and id(node) not in own}


def _private_definitions(body) -> list:
    """(name, node) of each private (not dunder) function, class or assigned name that
    the statements of body define."""
    found = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [target.id for target in targets if isinstance(target, ast.Name)]
        else:
            continue
        found += [(name, node) for name in names
                  if name.startswith("_") and not name.startswith("__")]
    return found


def _unread(bodies) -> list:
    """The private definitions of bodies {where: statements} that no source reads."""
    trees = [ast.parse(path.read_text()) for path in SOURCES]
    assert len(trees) >= 5, "src/nsmild not found"
    return [f"{where}:{node.lineno} {name}"
            for where, body in bodies.items() for name, node in _private_definitions(body)
            if not any(name in _names_read(tree, node) for tree in trees)]


def test_every_private_top_level_name_is_used():
    """Private module-level functions, classes and constants (`_KINDS`, `_libm_pow`)."""
    dead = _unread({path.name: ast.parse(path.read_text()).body for path in SOURCES})
    assert dead == [], f"private definitions that nothing in src/ reads: {dead}"


def test_every_private_class_member_is_used():
    """Private methods and class attributes, such as `TorusGrid._lattice`."""
    classes = {f"{path.name} {node.name}": node.body for path in SOURCES
               for node in ast.parse(path.read_text()).body if isinstance(node, ast.ClassDef)}
    dead = _unread(classes)
    assert dead == [], f"private members that nothing in src/ reads: {dead}"


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)  # __init__.py imports to re-export
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text())
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names} - {"annotations"}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - read) == [], f"{path.name}: imports that nothing in it reads"


def _scoped(tree):
    """(scope, node) for each node below tree, where scope is the tuple of names of the
    function and class definitions around the node: ("Class", "method"), () at module
    level."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            yield scope, child
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            yield from visit(child, scope + (child.name,) if named else scope)

    return visit(tree, ())


def test_no_complex_fft():
    """Real samples enter the spectrum only through grid._rfft (exactly Hermitian) and
    leave it through grid._irfft, whose leading-axis passes are the package's only complex
    FFTs, so a second, complex path must not come back."""
    found = []
    for path in SOURCES:
        for scope, node in _scoped(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "numpy.fft":
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute) \
                    and node.value.attr == "fft":
                names = {node.attr}
            else:
                continue
            if (path.name, scope) != ("grid.py", ("_irfft",)):
                found += [f"{path.name}:{node.lineno} {name}" for name in names & COMPLEX_FFTS]
    assert found == [], f"complex FFTs in src/nsmild: {found}"


def test_no_transform_copied_into_a_slice():
    """A transform into preallocated storage is made there (`_irfft(..., out=row)`), so no
    statement assigns a fresh `_irfft` or `_rfft` result into a slice, which allocates the
    result and then copies it."""
    found = []
    for path in SOURCES:
        for scope, node in _scoped(ast.parse(path.read_text())):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) \
                    and any(isinstance(target, ast.Subscript) for target in node.targets):
                func = node.value.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ("_irfft", "_rfft"):
                    found.append(f"{path.name}:{node.lineno} {'.'.join(scope)} {name}")
    assert found == [], f"transforms copied into slices in src/nsmild: {found}"


def _callers(tree, name: str) -> set:
    """Qualified names (`Class.method`, `function`) of the definitions in tree that call
    the bare name `name`; `<module>` for a call at module level."""
    return {".".join(scope) or "<module>" for scope, node in _scoped(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == name}


def test_mirrors_only_where_a_field_leaves_a_solver():
    """Fields, grid symbols and draws are stored as the half spectrum; only the read-only
    `.coeffs` view rebuilds the full lattice (grid._full_spectrum), for readers outside."""
    callers = set()
    for path in SOURCES:
        callers |= _callers(ast.parse(path.read_text()), "_full_spectrum")
    assert callers == {"SpectralVectorField.coeffs"}, sorted(callers)


def test_cli_measures_no_divergence():
    """Each divergence gate runs once, where a field enters (`prepare_initial`,
    `ForcingSpec`), and reads the same at every period, so the CLI has no check of its own."""
    tree = ast.parse((ROOT / "src" / "nsmild" / "cli.py").read_text())
    calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and node.attr == "divergence_defect"]
    assert calls == [], f"cli.py reads divergence_defect at lines {calls}"


# the full lattice of a field, and the grid's full-lattice symbols, which are gone
FULL_LATTICE_ATTRIBUTES = {"coeffs", "k_int", "k", "k_sq", "inv_k_sq", "dealias_mask",
                           "nyquist_mask"}


def test_no_full_lattice_reads():
    """The package reads only halves (`.half`, `grid.k_half`, ...), so no path inside it
    can start forming full lattices again through `.coeffs` or the old grid names."""
    found = []
    for path in SOURCES:
        found += [f"{path.name}:{node.lineno} .{node.attr}"
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Attribute) and node.attr in FULL_LATTICE_ATTRIBUTES]
    assert found == [], f"full-lattice reads in src/nsmild: {found}"


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


def _is_dataclass(node) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in node.decorator_list)


def test_no_single_field_dataclass():
    """A dataclass with one field and no method only wraps that value, so the value is
    passed on its own."""
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                kinds = [type(member) for member in node.body]
                if kinds.count(ast.AnnAssign) == 1 and ast.FunctionDef not in kinds:
                    found.append(f"{path.name}:{node.lineno} {node.name}")
    assert found == [], f"one-field dataclasses in src/nsmild: {found}"


def test_each_config_block_parsed_at_one_site():
    """cli.py reads each config block through exactly one settings(cfg, "<block>") call, so
    a block is parsed, checked and turned into its object at one site."""
    from nsmild.cli import SCHEMA

    sites = {block: [] for block in SCHEMA}
    for node in ast.walk(ast.parse((ROOT / "src" / "nsmild" / "cli.py").read_text())):
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "settings"
                and len(node.args) == 2 and isinstance(node.args[1], ast.Constant)):
            sites.setdefault(node.args[1].value, []).append(node.lineno)
    assert {block: lines for block, lines in sites.items() if len(lines) != 1} == {}


def test_readme_names_the_written_snapshot_version():
    lines = [line for line in (ROOT / "README.md").read_text().splitlines()
             if line.startswith("Snapshot format")]
    assert len(lines) == 1, "README has no single 'Snapshot format' line"
    assert f"u32 version = {SNAPSHOT_VERSION}," in lines[0], lines[0]
