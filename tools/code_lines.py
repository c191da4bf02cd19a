"""Count the code lines of Python modules: non-blank, non-comment lines outside docstrings.

    python tools/code_lines.py src/torunits [PATH ...]

Each PATH is a .py file or a directory searched recursively.  Prints one
line per module, then the total.  A line counts when a token other than a
comment starts or continues on it, so every line of a multi-line string
counts unless the string is a module, class or function docstring.
"""

import ast
import sys
import tokenize
from pathlib import Path

SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(iter(source.splitlines(keepends=True)).__next__):
        # layout tokens (newlines, indents, dedents, the end marker) carry no text
        if tok.type != tokenize.COMMENT and tok.string.strip():
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


if __name__ == "__main__":
    paths = [Path(p) for p in sys.argv[1:]]
    files = sorted(f for p in paths for f in ([p] if p.is_file() else p.rglob("*.py")))
    counts = {f: code_lines(f) for f in files}
    for f, count in counts.items():
        print(f"{count:6d}  {f}")
    print(f"{sum(counts.values()):6d}  total")
