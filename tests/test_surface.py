"""Every function and class the package exports has a caller in the
library itself: the public surface holds no code that only tests use.  No
solver route ends in a capped brute-force count, and no solver returns a
string-tagged tuple."""

import ast
import inspect
import re
from pathlib import Path

import xparity

PACKAGE = Path(xparity.__file__).parent


def exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    names = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    return [
        n
        for n in names
        if inspect.isfunction(getattr(xparity, n)) or inspect.isclass(getattr(xparity, n))
    ]


def referenced_names() -> set[str]:
    """Names used in code (not in def/class lines, docstrings or imports)
    by the modules other than ``__init__.py``."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_has_a_library_caller():
    used = referenced_names()
    unused = [n for n in exported_names() if n not in used]
    assert not unused, f"exported but never referenced inside xparity: {unused}"


SOLVER_MODULES = ("reducer", "branching", "occ2", "length", "docc")
CAPPED_COUNTERS = {
    "brute_count",
    "count_hitting_sets",
    "count_set_covers",
    "count_vertex_covers",
    "count_edge_covers",
    "inclusion_exclusion_edge_covers",
}


def test_solvers_use_no_capped_counter():
    # brute_parity and count_models stay allowed: the solvers settle formulas
    # and the reducer its sides of at most SUBFORMULA_VAR_CAP variables with
    # them
    for module in SOLVER_MODULES:
        source = (PACKAGE / f"{module}.py").read_text()
        found = sorted(n for n in CAPPED_COUNTERS if re.search(rf"\b{n}\b", source))
        assert not found, (module, found)


def test_solvers_return_no_string_tagged_tuples():
    # a settled reduction reads ReductionOutcome.parity; only the reducer's
    # rule protocol, which apply_rule callers read, keeps its tags
    for module in ("occ2", "length", "docc"):
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        tagged = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Return)
            and isinstance(node.value, ast.Tuple)
            and node.value.elts
            and isinstance(node.value.elts[0], ast.Constant)
            and isinstance(node.value.elts[0].value, str)
        ]
        assert not tagged, (module, tagged)
