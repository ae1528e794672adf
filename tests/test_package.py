import ast
import re
import tokenize
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
    "scaling_value_inverse": "README-documented API",
    "restricted_statistic": "README-documented API",
    "ha_statistic": "README-documented API",
    "with_weight": "README-documented API (SExpression.with_weight)",
    "ball_params": "called by the acceptance tests",
    "groupoid_params": "called by the acceptance tests",
    "distances": "called by the acceptance tests",
    "random_permutation": "BENCHMARK.json per-layer name pperm.random_permutation",
}


def _name_lines(path):
    """(name, line) of every NAME token of a Python file.

    Comments and docstrings carry no NAME tokens.  Before Python 3.12 an
    f-string is one STRING token, so the names of its replacement
    fields are read from its syntax tree.
    """
    out = []
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type == tokenize.NAME:
                out.append((tok.string, tok.start[0]))
            elif tok.type == tokenize.STRING and "f" in re.match(r"\w*", tok.string)[0].lower():
                for node in ast.walk(ast.parse(tok.string, mode="eval")):
                    name = getattr(node, "id", None) or getattr(node, "attr", None)
                    if name:
                        out.append((name, tok.start[0] + node.lineno - 1))
    return out


def test_every_library_definition_has_a_reader():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    readers = defaultdict(list)  # name -> [(module, line)]
    for path in modules:
        for name, line in _name_lines(path):
            readers[name].append((path, line))
    outside = {name for p in sorted((ROOT / "scripts").glob("*.py"))
               + sorted((ROOT / "perfbench").glob("*.py"))
               for name, _ in _name_lines(p)}
    unread = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__") or name in KEEP or name in outside:
                continue
            if not any(p != path or not node.lineno <= line <= node.end_lineno
                       for p, line in readers[name]):
                unread.append(f"{path.stem}.{name}")
    assert unread == []
