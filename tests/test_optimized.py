"""Static checks of the library's source.

The library runs the same under ``python -O``: it keeps no invariant in an
assert, which ``-O`` strips, and reads neither ``__debug__``, which ``-O``
turns false, nor ``sys.flags``, which reports it. So its code compiles to
the same bytes at both optimization levels, and no second run of the tests
under ``-O`` is needed. The library also relies on no private field of
``fractions.Fraction``, keeps its storage and certificate private to
``matrices.py`` and the layout of drazin's first step to ``ginverse.py``,
and parses as Python 3.10, the floor that pyproject.toml declares.
"""

import ast
import marshal
from pathlib import Path

import pytest

import blockginv
from blockginv.ginverse import DrazinResult

SRC = Path(blockginv.__file__).resolve().parent


def _code_bytes(source: str, optimize: int) -> bytes:
    return marshal.dumps(compile(source, "<module>", "exec",
                                 optimize=optimize))


def test_library_has_no_assert_statements():
    # Asserts and __debug__ are all that python -O changes.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
        or isinstance(node, ast.Name) and node.id == "__debug__"
    ]
    assert found == []


def test_library_touches_no_private_fraction_fields():
    private = {"_numerator", "_denominator"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in private
        or isinstance(node, ast.Constant) and node.value in private
    ]
    assert found == []


def test_only_matrices_touches_matrix_storage():
    # The storage format is a decision of matrices.py alone; everything else
    # goes through Matrix's methods, such as from_parts and text_rows.
    storage = {"_re", "_im", "_den"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py")) if path.name != "matrices.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in storage
        or isinstance(node, ast.Constant) and node.value in storage
    ]
    assert found == []


def test_only_matrices_names_the_certificate():
    # Full rank is decided inside rref alone: no caller consults the mod-P
    # certificate on its own, by import or by expression, and inside
    # matrices.py no function but rref names it (rank counts its pivots).
    # The pivot mode of the mod-P Gauss-Jordan, which lifting starts from,
    # is reached from rref and inverse alone: through private helpers of
    # matrices.py, and from no other module.
    name = "_certainly_invertible"

    def naming(tree, names=(name,)):
        return [node for node in ast.walk(tree)
                if isinstance(node, ast.alias) and {node.name,
                                                    node.asname} & {*names}
                or isinstance(node, ast.Name) and node.id in names
                or isinstance(node, ast.Attribute) and node.attr in names
                or isinstance(node, ast.Constant) and node.value in names]

    def pivot_mode(tree):
        # A call of _gauss_jordan_mod whose invert argument is not False.
        return any(isinstance(node, ast.Call)
                   and naming(node.func, ("_gauss_jordan_mod",))
                   and not any(isinstance(arg, ast.Constant)
                               and arg.value is False
                               for arg in node.args[2:] + [
                                   kw.value for kw in node.keywords])
                   for node in ast.walk(tree))

    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    found = [f"{file}:{node.lineno}" for file, tree in trees.items()
             if file != "matrices.py" for node in naming(tree)]
    functions = [node for node in ast.walk(trees["matrices.py"])
                 if isinstance(node, ast.FunctionDef)]
    found += [f"matrices.py:{node.name}" for node in functions
              if node.name != "rref" and naming(node)]
    reaching = {node.name for node in functions if pivot_mode(node)}
    grown = True
    while grown:
        callers = {node.name for node in functions
                   if node.name.startswith("_") and naming(node, reaching)}
        grown = not callers <= reaching
        reaching |= callers
    entries = {node.name for node in functions
               if not node.name.startswith("_") and naming(node, reaching)}
    found += [f"matrices.py:{entry}" for entry in entries
              - {"rref", "inverse"}]
    found += [f"{file}:{node.lineno}" for file, tree in trees.items()
              if file != "matrices.py" for node in naming(tree, reaching)]
    assert "rref" in entries
    assert found == []


def test_modules_import_no_other_private_names():
    # A module's private name is its own decision; these imports are the
    # only ones across module lines. A relative import of a module, as in
    # "from . import matrices", may not reach past its public names either.
    allowed = {
        ("ginverse", "matrices", "_null_basis"),
        ("ginverse", "matrices", "_placed_columns"),
        ("ginverse", "matrices", "_require_square"),
        ("ginverse", "matrices", "_single_entry_lines"),
        ("theorems", "ginverse", "_spectral_factors"),
    }
    modules = {path.stem for path in SRC.glob("*.py")}
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            source = (node.module or "").removeprefix("blockginv.")
            for alias in node.names:
                if node.level and not node.module or source == "blockginv":
                    imported[alias.asname or alias.name] = alias.name
                elif source in modules and alias.name.startswith("_"):
                    found.add((path.stem, source, alias.name))
        found |= {
            (path.stem, imported[node.value.id], node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr.startswith("_")
            and not node.attr.startswith("__")
            and isinstance(node.value, ast.Name)
            and node.value.id in imported
        }
    assert found == allowed


def test_only_ginverse_reads_the_first_step():
    # The layout of drazin's first Cline step is a decision of ginverse.py
    # alone; theorems.py reads the spectral factors, and the rows at which
    # G is the identity, through _spectral_factors.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py")) if path.name != "ginverse.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "_step"
        or isinstance(node, ast.Constant) and node.value == "_step"
    ]
    assert found == []


def test_only_drazin_result_writes_its_private_fields():
    # drazin caches its results, so one DrazinResult is shared by every
    # caller; none but its own methods may write a private field, and then
    # only its lazy T^pi changes after construction. A write is a store or
    # delete of the attribute, or the name as a string, as setattr takes it.
    private = {name for name in DrazinResult.__slots__
               if name.startswith("_")}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        own = {id(node) for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) and cls.name == "DrazinResult"
               for node in ast.walk(cls)}
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree) if id(node) not in own
            and (isinstance(node, ast.Attribute) and node.attr in private
                 and not isinstance(node.ctx, ast.Load)
                 or isinstance(node, ast.Constant) and node.value in private)
        ]
    assert found == []


def test_library_compiles_the_same_under_optimize():
    # python -O strips asserts, drops code under __debug__ and sets
    # sys.flags.optimize, and does nothing else. Equal code at both levels,
    # with no read of __debug__ or sys.flags by name, attribute, import or
    # string (as getattr(builtins, "__debug__") takes it), is the same
    # behaviour on every code path.
    read = {"__debug__", "flags"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        if _code_bytes(source, 0) != _code_bytes(source, 1):
            found.append(path.name)
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and node.id in read
            or isinstance(node, ast.Attribute) and node.attr in read
            or isinstance(node, ast.Constant) and node.value in read
            or isinstance(node, ast.alias) and node.name in read
        ]
    assert found == []


@pytest.mark.parametrize("source", [
    "def f(x):\n    assert x\n",
    "def f():\n    return __debug__\n",
])
def test_optimize_changes_asserts_and_debug(source):
    # Without this the test above could pass vacuously on an interpreter
    # whose compiler ignored the optimization level.
    assert _code_bytes(source, 0) != _code_bytes(source, 1)


def test_library_parses_as_python_3_10():
    # Tier-1 runs on a newer interpreter than requires-python's floor.
    for path in sorted(SRC.glob("*.py")):
        ast.parse(path.read_text(), path.name, feature_version=(3, 10))
