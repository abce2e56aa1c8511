"""The line-by-line state-file reader that `state.parse_state_declarations`'
one scan replaced.

Kept here as the oracle the scan is checked against: it splits the file
into lines and tokenizes each binding line in turn, building its cell as
it goes, and works out a token's column by tokenizing the line again.  A
line is blank when it holds nothing but ` \t\f\v`, as in the scan.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from itertools import islice

from reference_frontend import split_lines
from scorelang import Cell, ParseError
from scorelang.syntax import KEYWORDS, is_identifier

_STATE_TOKEN_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*|-?[0-9]+|[=,\[\]])|[^ \t\f\v]")
_INT_RE = re.compile(r"-?[0-9]+\Z")
_SEPARATORS = frozenset({",", "]"})  # what may follow a stack element


def _parse_lines(src: str) -> list[tuple[str, Cell]]:
    """`parse_state_declarations`, one line at a time, raising the first
    fault at its line and column."""
    declarations: list[tuple[str, Cell]] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(split_lines(src), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip(" \t\f\v"):
            continue
        name, cell = _parse_binding(line, lineno)
        if name in seen:
            raise ParseError(lineno, _column(line, 0), f"duplicate binding for {name!r}")
        seen.add(name)
        declarations.append((name, cell))
    return declarations


def _column(line: str, k: int) -> int:
    """The 1-based column of token `k` of `line`, or of the end of the line."""
    m = next(islice(_STATE_TOKEN_RE.finditer(line), k, None), None)
    return m.start() + 1 if m else len(line) + 1


def _parse_binding(line: str, lineno: int) -> tuple[str, Cell]:
    """The name and the cell of one binding line.  Columns are worked out
    only for an error."""
    words = _STATE_TOKEN_RE.findall(line)
    count = len(words)
    if "" in words:
        column = _column(line, words.index(""))
        raise ParseError(lineno, column, f"unexpected character {line[column - 1]!r}")
    words.reverse()  # the next token is the last
    name = words[-1]

    def take(ok: Callable[[str], object], message: str, expected: tuple[str, ...]) -> str:
        """The next token ("" at the end of the line) if `ok` holds for it;
        else a ParseError at it, whose message may name the binding's
        `{name}`, formatted only then."""
        word = words.pop() if words else ""
        if not ok(word):
            column = _column(line, count - len(words) - 1) if word else len(line) + 1
            raise ParseError(lineno, column, message.format(name=name), expected)
        return word

    def number(ok: Callable[[str], object], message: str, expected: tuple[str, ...]) -> int:
        """The next token as an integer, as `take` checks it.  A token too
        long for `int` is refused here, without a change to the limit
        (a setting of the whole process)."""
        word = take(ok, message, expected)
        try:
            return int(word)
        except ValueError:
            column = _column(line, count - len(words) - 1)
            raise ParseError(lineno, column, f"integer too long: {len(word.lstrip('-'))} digits") from None

    if name in KEYWORDS:
        raise ParseError(lineno, _column(line, 0), f"keyword {name!r} cannot be a variable name")
    take(is_identifier, "expected a variable name, found {name!r}", ("identifier",))
    take("=".__eq__, "expected '=' after {name!r}", ("=",))
    value = number(_INT_RE.match, "expected an integer value", ("integer",))
    stack: list[int] = []
    counter = 0
    if words:
        take(",".__eq__, "expected ',' or end of line", (",",))
        take("[".__eq__, "expected '[' to open the stack", ("[",))
        if words and words[-1] == "]":
            words.pop()
        else:
            separator = ","
            while separator == ",":
                stack.append(number(_INT_RE.match, "expected a stack element", ("integer",)))
                separator = take(_SEPARATORS.__contains__, "expected ']' to close the stack", ("]",))
        if words:
            take(",".__eq__, "expected ',' or end of line", (",",))
            counter = number(str.isdigit, "counter must be a non-negative integer", ("nat",))
    if words:
        raise ParseError(lineno, _column(line, count - len(words)), f"unexpected trailing input {words[-1]!r}")
    return name, Cell(value, tuple(stack), counter)
