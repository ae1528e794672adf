#!/usr/bin/env python3
"""Count the code lines of each Python module under a directory.

A code line is a physical line that carries at least one token other
than a comment, a line break or indentation, and that token is not part
of a docstring (the leading string of a module, class or function).
Prints one row per module, sorted by path, and a total row:

    python3 scripts/code_lines.py              # src/soficdim
    python3 scripts/code_lines.py tests
"""

import ast
import io
import os
import sys
import tokenize
from pathlib import Path

NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_spans(tree) -> list:
    """((line, column), (end line, end column)) of every docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                doc = body[0]
                spans.append(((doc.lineno, doc.col_offset),
                              (doc.end_lineno, doc.end_col_offset)))
    return spans


def code_lines(path: Path) -> int:
    source = path.read_bytes()
    docstrings = docstring_spans(ast.parse(source))
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type in NON_CODE:
            continue
        if tok.type == tokenize.STRING and any(
                start <= tok.start < end for start, end in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    default = Path(__file__).resolve().parent.parent / "src" / "soficdim"
    root = Path(argv[0]) if argv else default
    total = 0
    for path in sorted(root.rglob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.relative_to(root)}")
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
