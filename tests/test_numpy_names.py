"""The numpy names the package uses, held to the declared numpy floor.

pyproject.toml declares numpy >= 1.24, and CI installs the latest numpy,
so nothing runs the floor itself. Instead every ``np.X`` and ``np.X.Y``
name in src/conics800 must be on an allowlist whose names were each
checked to exist in numpy 1.24. A name added to the package fails here
until it is checked and listed.
"""

import ast
from pathlib import Path

import conics800

PACKAGE = Path(conics800.__file__).parent

# Each name exists in numpy 1.24. The newest arguments the package passes
# are np.unpackbits' count and bitorder, both added in numpy 1.17.0 (its
# release notes), and ndarray.max's initial, added in 1.15.0.
NUMPY_1_24_NAMES = {
    "abs", "add", "add.reduceat", "append", "arange", "argsort", "array",
    "array_equal", "asarray", "ascontiguousarray", "bincount", "can_cast",
    "concatenate", "cumsum", "diagonal", "divmod", "einsum", "empty",
    "empty_like", "eye", "fill_diagonal", "flatnonzero", "float64",
    "frombuffer", "int16", "int32", "int64", "int8", "ix_", "lexsort",
    "maximum", "ndarray", "negative", "nonzero", "ones", "packbits", "repeat",
    "searchsorted", "sort", "sqrt", "take", "triu_indices", "uint64", "uint8",
    "union1d", "unique", "unpackbits", "where", "zeros", "zeros_like",
}


def _numpy_names(tree: ast.AST) -> set[str]:
    """Every np.X and np.X.Y attribute name in a module."""
    names = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        if isinstance(node.value, ast.Name) and node.value.id == "np":
            names.add(node.attr)
        inner = node.value
        if isinstance(inner, ast.Attribute) and isinstance(inner.value, ast.Name):
            if inner.value.id == "np":
                names.add(f"{inner.attr}.{node.attr}")
    return names


def _numpy_imports(tree: ast.AST) -> list[str]:
    """How a module imports numpy: 'import numpy as np' is the only form
    whose names _numpy_names sees."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            numpy = [a for a in node.names if a.name.split(".")[0] == "numpy"]
            out += [f"import {a.name} as {a.asname}" for a in numpy]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            out.append(f"from {node.module} import ...")
    return out


def test_numpy_names_are_the_checked_allowlist():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))]
    assert all(form == "import numpy as np" for tree in trees for form in _numpy_imports(tree))
    assert set().union(*map(_numpy_names, trees)) == NUMPY_1_24_NAMES
