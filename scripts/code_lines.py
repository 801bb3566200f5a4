"""Count code lines and docstring/comment lines in each Python module.

    python3 scripts/code_lines.py src/symineq

A code line holds at least one token that is neither a comment nor part of
a docstring (the string that opens a module, class or function body, as
`ast.get_docstring` reads it). A doc line holds a comment or a line of a
docstring. Blank lines count as neither, and a line with code and a
trailing comment counts as both. Each module gets one line, then the
totals:

    inequality.py code=210 doc=213
    total code=869 doc=558
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def count_lines(source: str) -> tuple[int, int]:
    """(code, doc) line counts of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    code, doc = set(), set(docstrings)
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            doc.add(token.start[0])
        elif token.type not in _LAYOUT and token.start[0] not in docstrings:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code), len(doc)


def main(argv: list[str]) -> None:
    total_code = total_doc = 0
    for root in argv or ["src"]:
        root = Path(root)
        for path in sorted(root.rglob("*.py")) if root.is_dir() else [root]:
            code, doc = count_lines(path.read_text(encoding="utf-8"))
            total_code, total_doc = total_code + code, total_doc + doc
            print(f"{path.relative_to(root) if root.is_dir() else path} code={code} doc={doc}")
    print(f"total code={total_code} doc={total_doc}")


if __name__ == "__main__":
    main(sys.argv[1:])
