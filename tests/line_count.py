"""Count the executable lines of Python sources: lines that hold a token of
code, leaving out blank lines, comments and docstrings. Raw lines, every
line of the file as `wc -l` counts them, are printed beside them.

A docstring is the string-constant statement that opens a module, class or
function body; all its lines are left out. A statement spread over several
lines counts each line that holds code.

    python3 tests/line_count.py [PATH ...]

Each PATH is a file or a directory searched for *.py; the default is the
package, src/latticegas. Prints one line per file and the total, each
as executable lines, raw lines and the path.
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "latticegas"
NON_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by the docstrings of a module."""
    out: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def executable_lines(source: str) -> int:
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NON_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstring_lines(ast.parse(source)))


def raw_lines(source: str) -> int:
    return len(source.splitlines())


def main(paths: list[str]) -> None:
    files = []
    for p in map(pathlib.Path, paths or [str(PACKAGE)]):
        files.extend(sorted(p.glob("*.py")) if p.is_dir() else [p])
    total = raw_total = 0
    for f in files:
        source = f.read_text(encoding="utf-8")
        n, raw = executable_lines(source), raw_lines(source)
        total += n
        raw_total += raw
        print(f"{n:6d} {raw:6d} {f}")
    print(f"{total:6d} {raw_total:6d} total")


if __name__ == "__main__":
    main(sys.argv[1:])
