"""Machine states: integer cells with history stacks and repair counters.

A variable's cell is a triple ``(value, stack, counter)``:

* ``value`` -- the current integer, unbounded in both directions;
* ``stack`` -- the history of values saved by PUSH, top first;
* ``counter`` -- a non-negative count of currently-unmatched illegal pops,
  used by the total reversible semantics.  A cell with a positive counter
  is called *broken*.

A `State` is a total map from variable names to cells with finite support:
any name not explicitly bound reads as the default cell ``(0, (), 0)``, and
binding a name to the default is indistinguishable from not binding it.

State files (conventionally ".sst") are line based::

    line := ident "=" int [ "," "[" int ("," int)* "]" [ "," nat ] ]

with blank lines and "#" comments ignored, stacks written top-first,
omitted fields defaulting (empty stack, zero counter), and ASCII digits.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Mapping
from itertools import islice
from typing import NamedTuple

from .parser import _COMMENT_RE, ParseError, split_lines
from .syntax import KEYWORDS, is_identifier

__all__ = [
    "Cell",
    "DEFAULT_CELL",
    "State",
    "hd",
    "tl",
    "parse_state",
    "parse_state_declarations",
    "dump_state",
]


class Cell(NamedTuple):
    value: int
    stack: tuple[int, ...] = ()
    counter: int = 0

    @property
    def broken(self) -> bool:
        """True when the counter records unmatched illegal pops."""
        return self.counter > 0


DEFAULT_CELL = Cell(0, (), 0)
# Builds a Cell from a (value, stack, counter) tuple without the Python-level
# `Cell.__new__`, which costs more than the rest of storing a cell.
_new_cell = tuple.__new__


def hd(stack: tuple[int, ...]) -> int:
    """Total head: the top element, or 0 for the empty stack."""
    return stack[0] if stack else 0


def tl(stack: tuple[int, ...]) -> tuple[int, ...]:
    """Total tail: everything below the top; the empty stack is a fixed point."""
    return stack[1:]


_is_int = int.__instancecheck__


def _as_cell(cell) -> Cell:
    """`cell` as a Cell with a tuple stack, after checking every field.  A
    bool is an int, but not an integer here: it would be dumped as True or
    False, which no state file can hold."""
    value, stack, counter = cell
    if type(stack) is not tuple:
        stack = tuple(stack)
    if not isinstance(value, int) or type(value) is bool:
        raise ValueError(f"cell value must be an integer, got {value!r}")
    if not all(map(_is_int, stack)) or bool in map(type, stack):
        raise ValueError(f"cell stack must contain integers, got {stack!r}")
    if not isinstance(counter, int) or type(counter) is bool or counter < 0:
        raise ValueError(f"cell counter must be a non-negative integer, got {counter!r}")
    return cell if type(cell) is Cell and stack is cell[1] else Cell(value, stack, counter)


class State:
    """Total map from variable names to cells, stored by finite support.

    Updates are persistent: `set` returns a new state and never mutates.
    Equality compares the maps as total functions, so explicitly stored
    default cells do not distinguish states.
    """

    __slots__ = ("_cells",)

    def __init__(self, cells: Mapping[str, Cell] | Iterable[tuple[str, Cell]] = ()):
        items = cells.items() if isinstance(cells, Mapping) else cells
        store: dict[str, Cell] = {}
        for name, cell in items:
            if not is_identifier(name):
                raise ValueError(f"invalid variable name: {name!r}")
            cell = _as_cell(cell)
            if cell != DEFAULT_CELL:
                store[name] = cell
        self._cells = store

    @classmethod
    def _trusted(cls, cells: dict[str, Cell]) -> "State":
        """A state owning `cells`, skipping validation: the caller vouches
        for valid names and `Cell` values with tuple stacks, none of them
        the default cell."""
        new = object.__new__(cls)
        new._cells = cells
        return new

    def get(self, name: str) -> Cell:
        """The cell bound to `name`, defaulting to (0, (), 0)."""
        return self._cells.get(name, DEFAULT_CELL)

    def set(self, name: str, cell: Cell) -> "State":
        """A new state with `name` bound to `cell`; the receiver is unchanged."""
        if not is_identifier(name):
            raise ValueError(f"invalid variable name: {name!r}")
        cell = _as_cell(cell)
        store = dict(self._cells)
        if cell == DEFAULT_CELL:
            store.pop(name, None)
        else:
            store[name] = cell
        return State._trusted(store)

    def variables(self) -> frozenset[str]:
        """The support: names bound to a non-default cell."""
        return frozenset(self._cells)

    def as_dict(self) -> dict[str, Cell]:
        """A fresh dict of the support bindings."""
        return dict(self._cells)

    def __eq__(self, other) -> bool:
        if not isinstance(other, State):
            return NotImplemented
        return self._cells == other._cells

    def __hash__(self) -> int:
        return hash(frozenset(self._cells.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {v}" for k, v in sorted(self._cells.items()))
        return f"State({{{inner}}})"


# A token, or a character that starts none (a fault, whose group is empty).
# Digits are ASCII only, as in programs: `\d` and `int` would take any
# Unicode decimal digit.
_STATE_TOKEN_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*|-?[0-9]+|[=,\[\]])|[^ \t\f\v]")
_INT_RE = re.compile(r"-?[0-9]+\Z")
_SEPARATORS = frozenset({",", "]"})  # what may follow a stack element
# One line of a state file with LF newlines and no comment: blank, or a
# binding whose name, value, stack elements and counter are the groups.  No
# run of blanks is followed by another unless the first is part of an
# optional group that failed, so a line that does not match fails in time
# linear in its length.
_LINE_RE = re.compile(
    r"^[ \t\f\v]*(?:([A-Za-z_][A-Za-z0-9_]*)[ \t\f\v]*=[ \t\f\v]*(-?[0-9]+)"
    r"(?:[ \t\f\v]*,[ \t\f\v]*\[[ \t\f\v]*(?:(-?[0-9]+(?:[ \t\f\v]*,[ \t\f\v]*-?[0-9]+)*)[ \t\f\v]*)?\]"
    r"(?:[ \t\f\v]*,[ \t\f\v]*([0-9]+))?)?[ \t\f\v]*)?$",
    re.MULTILINE,
)


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


def parse_state_declarations(src: str) -> list[tuple[str, Cell]]:
    """All bindings of a state file, in file order; duplicates are an error.

    Unlike `parse_state`, explicitly declared default bindings are kept, so
    callers can tell which names the file mentioned.

    One scan over the whole text reads a valid file.  Any line it does not
    match, a keyword or duplicate name, or an integer too long for `int`
    hands the file to the line-by-line walk, which finds the first fault
    and works out its line and column.
    """
    text = src.replace("\r\n", "\n").replace("\r", "\n")
    if "#" in text:
        text = _COMMENT_RE.sub("", text)
    lines = _LINE_RE.findall(text)
    if len(lines) == text.count("\n") + 1:  # at most one match a line: every line matched
        declarations = []
        try:
            for name, value, stack, counter in lines:
                if name:
                    stack = tuple(map(int, stack.split(","))) if stack else ()
                    declarations.append((name, _new_cell(Cell, (int(value), stack, int(counter or 0)))))
        except ValueError:  # an integer past the interpreter's digit limit
            pass
        else:
            names = {name for name, _ in declarations}
            if len(names) == len(declarations) and names.isdisjoint(KEYWORDS):
                return declarations
    return _parse_lines(src)


def _parse_lines(src: str) -> list[tuple[str, Cell]]:
    """`parse_state_declarations`, one line at a time, raising the first
    fault at its line and column."""
    declarations: list[tuple[str, Cell]] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(split_lines(src), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        name, cell = _parse_binding(line, lineno)
        if name in seen:
            raise ParseError(lineno, _column(line, 0), f"duplicate binding for {name!r}")
        seen.add(name)
        declarations.append((name, cell))
    return declarations


def parse_state(src: str) -> State:
    """Parse a state file into a State, raising ParseError on any fault."""
    return _declared_state(parse_state_declarations(src))


def _declared_state(declarations: list[tuple[str, Cell]]) -> State:
    """The state of `parse_state_declarations`' bindings, whose names and
    cells the parser has checked, so only the default cells go."""
    return State._trusted({name: cell for name, cell in declarations if cell != DEFAULT_CELL})


def dump_state(state: State, names: Iterable[str]) -> str:
    """Render `names` (sorted) in the state file format, all fields explicit.

    Round trip: parsing the output agrees with `state` on `names`.
    """
    return "".join(dump_cell(name, state.get(name)) for name in sorted(set(names)))


def dump_cell(name: str, cell: Cell) -> str:
    """One binding line of the state file format, all fields explicit."""
    value, stack, counter = cell
    inner = ", ".join(map(str, stack))
    return f"{name} = {value}, [{inner}], {counter}\n"
