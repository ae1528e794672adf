#!/usr/bin/env python3
"""List the settable values of each Python module under a directory.

A settable value is a function parameter with a default, a field of a
dataclass, or an option that an ``add_argument`` call declares.  Prints
one row per value, sorted by path and line, and a total row:

    python3 scripts/settable_values.py              # src/soficdim
    python3 scripts/settable_values.py tests

Rows read ``path:line  kind  name``: ``param f(x=1)`` (methods and
nested functions are named by their enclosing scopes, ``C.f``),
``field C.x`` (with `` = default`` when the field has one) and
``option count --n`` (prefixed by the ``add_parser`` name of the
parser it is added to, when the script can tell).
"""

import ast
import os
import sys
from pathlib import Path


def is_dataclass(node: ast.ClassDef) -> bool:
    """Decorated ``@dataclass`` or ``@dataclasses.dataclass``, with or
    without arguments."""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "attr", getattr(target, "id", "")) == "dataclass":
            return True
    return False


def parameters(node, qualname: str):
    """(line, column, text) of each parameter of a function that has a
    default."""
    args = node.args
    positional = args.posonlyargs + args.args
    pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
    pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    for arg, default in pairs:
        yield arg.lineno, arg.col_offset, f"{qualname}({arg.arg}={ast.unparse(default)})"


def call_name(call: ast.Call, attr: str):
    """The receiver name of ``<name>.<attr>(...)``, else None."""
    func = call.func
    if (isinstance(func, ast.Attribute) and func.attr == attr
            and isinstance(func.value, ast.Name)):
        return func.value.id
    return None


def first_string(call: ast.Call):
    if call.args and isinstance(call.args[0], ast.Constant):
        return call.args[0].value
    return None


def options(tree):
    """(line, column, text) of each ``add_argument`` option."""
    parsers = {}  # variable -> add_parser name
    rows = []
    nodes = sorted((n for n in ast.walk(tree) if isinstance(n, (ast.Assign, ast.Call))),
                   key=lambda n: (n.lineno, n.col_offset))
    for node in nodes:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            value = node.value
            label = None
            if call_name(value, "add_parser") is not None:
                label = first_string(value)
            for attr in ("add_mutually_exclusive_group", "add_argument_group"):
                owner = call_name(value, attr)
                if owner is not None:
                    label = parsers.get(owner)
            for target in node.targets:
                if isinstance(target, ast.Name):
                    if label is None:
                        parsers.pop(target.id, None)
                    else:
                        parsers[target.id] = label
        elif isinstance(node, ast.Call):
            owner = call_name(node, "add_argument")
            if owner is None or first_string(node) is None:
                continue
            prefix = parsers.get(owner)
            name = first_string(node)
            rows.append((node.lineno, node.col_offset,
                         f"{prefix} {name}" if prefix else name))
    return rows


def settable_values(path: Path) -> list:
    """(line, column, kind, text) of every settable value of a module,
    in source order."""
    tree = ast.parse(path.read_bytes())
    rows = [(line, col, "option", text) for line, col, text in options(tree)]

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = ".".join(scope + [child.name])
                rows.extend((line, col, "param", text)
                            for line, col, text in parameters(child, qualname))
                visit(child, scope + [child.name])
            elif isinstance(child, ast.ClassDef):
                if is_dataclass(child):
                    for stmt in child.body:
                        if (isinstance(stmt, ast.AnnAssign)
                                and isinstance(stmt.target, ast.Name)):
                            text = ".".join(scope + [child.name, stmt.target.id])
                            if stmt.value is not None:
                                text += f" = {ast.unparse(stmt.value)}"
                            rows.append((stmt.lineno, stmt.col_offset, "field", text))
                visit(child, scope + [child.name])
            else:
                visit(child, scope)

    visit(tree, [])
    return sorted(rows)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    default = Path(__file__).resolve().parent.parent / "src" / "soficdim"
    root = Path(argv[0]) if argv else default
    total = 0
    for path in sorted(root.rglob("*.py")):
        for line, _, kind, text in settable_values(path):
            total += 1
            print(f"{path.relative_to(root)}:{line}  {kind}  {text}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (``| head -1``): stop quietly, with stdout
        # on the null device so that the exit flush writes nothing more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)
