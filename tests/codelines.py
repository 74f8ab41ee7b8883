"""Code lines of the ``coopetition`` package, per module and in total.

A code line is a source line that holds at least one token other than a
comment, a line break, an indentation change or a docstring.  A docstring
here is a logical line made of string literals alone, which is what a
module's, a class's or a function's docstring is.  Lines are counted by
``tokenize``, so a statement that spans several lines counts each of them,
and a line break inside a string literal of code counts the lines it spans.

    python tests/codelines.py             # this tree's src/coopetition
    python tests/codelines.py DIR         # the modules under DIR, e.g. a
                                          # `git archive` of another revision
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Tokens that are never code.
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def code_lines(path: Path) -> int:
    """The number of code lines of the Python source file ``path``."""
    lines: set[int] = set()
    logical: list[tokenize.TokenInfo] = []
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _LAYOUT:
                logical.append(tok)
            elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and logical:
                # A logical line of string literals alone is a docstring.
                if any(t.type != tokenize.STRING for t in logical):
                    for t in logical:
                        lines.update(range(t.start[0], t.end[0] + 1))
                logical = []
    return len(lines)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    package = Path(args[0]) if args else ROOT / "src" / "coopetition"
    counts = {path.name: code_lines(path) for path in sorted(package.glob("*.py"))}
    for name, n in counts.items():
        print(f"{n:6,}  {name}")
    print(f"{sum(counts.values()):6,}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
