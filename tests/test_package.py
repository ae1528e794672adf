import ast
from collections import defaultdict
from pathlib import Path

import soficdim


def test_every_exported_name_exists():
    missing = [name for name in soficdim.__all__ if not hasattr(soficdim, name)]
    assert missing == []
    assert len(set(soficdim.__all__)) == len(soficdim.__all__)


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from soficdim import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(soficdim.__all__)



ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "soficdim"

# Definitions that no library module, script or benchmark file reads,
# with the reason each one stays.
KEEP = {
    "parse_pperm": "README-documented API",
    "iter_all": "README-documented API",
    "iter_permutations": "README-documented API",
    "random_pperm": "README-documented API",
    "scaling_value": "README-documented API",
    "restricted_statistic": "README-documented API",
    "ha_statistic": "README-documented API",
    "with_weight": "README-documented API (SExpression.with_weight)",
    "ball_params": "called by the acceptance tests",
    "groupoid_params": "called by the acceptance tests",
    "distances": "called by the acceptance tests",
    "random_permutation": "BENCHMARK.json per-layer name pperm.random_permutation",
}


MODULES = frozenset({"soficdim"} | {p.stem for p in PACKAGE.glob("*.py")})


def _reads(path):
    """Where a Python file reads each name, by kind: ``attr`` for any
    ``.name``, ``module_attr`` for ``<package module>.name``, ``bare`` for a
    bare NAME and ``string`` for a ``"name"`` constant.  Each maps a name
    to the lines that read it.

    The name after ``def`` or ``class`` is no NAME node, so it reads
    nothing.  f-string fields are parsed into the syntax tree.
    """
    reads = {kind: defaultdict(list) for kind in ("attr", "module_attr", "bare", "string")}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute):
            reads["attr"][node.attr].append(node.lineno)
            if isinstance(node.value, ast.Name) and node.value.id in MODULES:
                reads["module_attr"][node.attr].append(node.lineno)
        elif isinstance(node, ast.Name):
            reads["bare"][node.id].append(node.lineno)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            reads["string"][node.value].append(node.lineno)
    return reads


def _targets(tree):
    """(qualified name, kinds of read, node) of each module-level def or
    class and each def placed directly in a class body."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, defs + (ast.ClassDef,)):
            yield node.name, ("bare", "module_attr"), node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs):
                    yield f"{node.name}.{item.name}", ("attr", "string"), item


def test_every_library_definition_has_a_reader():
    """A method is read by a ``.name`` access on anything or by a
    ``"name"`` string; a module-level definition by a bare NAME or by
    ``<package module>.name``.  Readers count in the other package
    modules, outside the definition's own body, and in the scripts and
    benchmark files.  A ``KEEP`` name must name a definition that has no
    reader, so an entry leaves once its reason is gone."""
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    outside = [p for d in ("scripts", "perfbench") for p in sorted((ROOT / d).glob("*.py"))]
    reads = {p: _reads(p) for p in modules + outside}
    unread, kept = [], set()
    for path in modules:
        for qualname, kinds, node in _targets(ast.parse(path.read_text())):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if not any(p != path or not node.lineno <= line <= node.end_lineno
                       for p, r in reads.items() for kind in kinds for line in r[kind][name]):
                if name in KEEP:
                    kept.add(name)
                else:
                    unread.append(f"{path.stem}.{qualname}")
    assert unread == []
    assert sorted(set(KEEP) - kept) == []
