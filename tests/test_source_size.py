"""Each module of the package stays below the compile-memory cliff, and
imports nothing but the standard library and the package itself.

CPython keeps the tokens of the module it parses in an array that doubles
when full, so the memory that compiling a module takes steps up once it
passes 4,096 parser tokens.  On CPython 3.11, ``exactgeom.py`` padded with
assignments to 4,093 parser tokens compiles with a 1,509 KiB peak, and at
4,097 with 1,736 KiB (``tracemalloc`` around ``compile()``).  A process
that compiles the package from source (no cached bytecode) pays that step
in its peak memory.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "rotaxa"
PARSER_TOKEN_LIMIT = 4096


def parser_tokens(source: str) -> int:
    """The tokens the parser reads: all but comments and blank-line breaks."""
    skipped = {tokenize.COMMENT, tokenize.NL}
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return sum(1 for token in tokens if token.type not in skipped)


def test_parser_tokens_skip_comments_and_blank_lines():
    # NAME OP NUMBER NEWLINE, then ENDMARKER.
    assert parser_tokens("x = 1  # one\n\n# none\n") == 5


def test_every_module_is_below_the_cliff():
    counts = {
        path.name: parser_tokens(path.read_text(encoding="utf-8"))
        for path in sorted(SOURCE.glob("*.py"))
    }
    assert "exactgeom.py" in counts
    over = {name: count for name, count in counts.items() if count > PARSER_TOKEN_LIMIT}
    assert not over, f"modules over {PARSER_TOKEN_LIMIT} parser tokens: {over}"


def test_the_core_imports_the_standard_library_only():
    # Every absolute import names the package or a standard-library module;
    # relative imports stay inside the package.
    foreign = []
    for path in sorted(SOURCE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "rotaxa" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.name}: {name}")
    assert not foreign, f"imports outside the standard library: {foreign}"
