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
A blank line holds nothing but spaces, tabs, form feeds and vertical tabs
(" \t\f\v") once its comment is removed; any other character, such as a
no-break space, is a fault wherever it stands on a line.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Mapping
from operator import itemgetter
from typing import NamedTuple, NoReturn

from .parser import _COMMENT_RE, ParseError
from .syntax import _IDENT, KEYWORDS, is_identifier

__all__ = [
    "Cell",
    "DEFAULT_CELL",
    "State",
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


_is_int = int.__instancecheck__
_plain_ints = {int}.issuperset  # of the types of a stack's elements


def _as_cell(cell) -> Cell:
    """A fresh Cell equal to `cell`, of plain ints with a tuple stack, after
    checking every field; anything but a (value, stack, counter) triple
    with an iterable stack raises a ValueError that names it.  An int
    subclass gives its int value, since it may print otherwise (IntEnum
    does).  A bool is an int, but not an integer here: it would be dumped
    as True or False, which no state file can hold.  A tuple stack of
    plain ints is kept as it is, with no copy: one pass over its element
    types is all it costs."""
    try:
        value, stack, counter = cell
        stack = tuple(stack)
    except (TypeError, ValueError):
        raise ValueError(f"cell must be a triple (value, iterable stack, counter), got {cell!r}") from None
    if not isinstance(value, int) or type(value) is bool:
        raise ValueError(f"cell value must be an integer, got {value!r}")
    if not _plain_ints(map(type, stack)):
        if not all(map(_is_int, stack)) or bool in map(type, stack):
            raise ValueError(f"cell stack must contain integers, got {stack!r}")
        stack = tuple(map(int, stack))
    if not isinstance(counter, int) or type(counter) is bool or counter < 0:
        raise ValueError(f"cell counter must be a non-negative integer, got {counter!r}")
    return _new_cell(Cell, (int(value), stack, int(counter)))


def _bind(store: dict[str, Cell], name: str, cell) -> None:
    """Bind `name` to `cell` in `store` after checking both, or unbind it
    for the default cell, which a state does not store."""
    if not is_identifier(name):
        raise ValueError(f"invalid variable name: {name!r}")
    cell = _as_cell(cell)
    if cell == DEFAULT_CELL:
        store.pop(name, None)
    else:
        store[name] = cell


class State:
    """Total map from variable names to cells, stored by finite support.

    Updates are persistent: `set` returns a new state and never mutates.
    Equality compares the maps as total functions, so explicitly stored
    default cells do not distinguish states.
    """

    __slots__ = ("_cells",)

    def __init__(self, cells: Mapping[str, Cell] | Iterable[tuple[str, Cell]] = ()):
        store: dict[str, Cell] = {}
        for name, cell in cells.items() if isinstance(cells, Mapping) else cells:
            _bind(store, name, cell)
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
        store = dict(self._cells)
        _bind(store, name, cell)
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
_STATE_TOKEN_RE = re.compile(rf"({_IDENT}|-?[0-9]+|[=,\[\]])|[^ \t\f\v]")
_INT_RE = re.compile(r"-?[0-9]+\Z")
_SEPARATORS = frozenset({",", "]"})  # what may follow a stack element
# One line of a state file with LF newlines and no comment: blank, a binding
# whose name, value, stack elements and counter are the first four groups,
# or else a faulty line, the fifth group, so every line gives one match.  No
# run of blanks is followed by another unless the first is part of an
# optional group that failed, so a line that is no binding fails the first
# branch in time linear in its length.
_LINE_RE = re.compile(
    rf"^[ \t\f\v]*(?:({_IDENT})[ \t\f\v]*=[ \t\f\v]*(-?[0-9]+)"
    r"(?:[ \t\f\v]*,[ \t\f\v]*\[[ \t\f\v]*(?:(-?[0-9]+(?:[ \t\f\v]*,[ \t\f\v]*-?[0-9]+)*)[ \t\f\v]*)?\]"
    r"(?:[ \t\f\v]*,[ \t\f\v]*([0-9]+))?)?[ \t\f\v]*)?$|^(.+)",
    re.MULTILINE,
)


def parse_state_declarations(src: str) -> list[tuple[str, Cell]]:
    """All bindings of a state file, in file order; duplicates are an error.

    Unlike `parse_state`, explicitly declared default bindings are kept, so
    callers can tell which names the file mentioned.

    One scan over the whole text gives a row per line, read in file order.
    The first faulty row raises: a duplicate name here, and a line that is
    no binding, a keyword name or an integer too long for `int` in
    `_fault`, which finds the fault's column.
    """
    text = src.replace("\r\n", "\n").replace("\r", "\n")
    text = _COMMENT_RE.sub("", text)
    cells: dict[str, Cell] = {}
    for lineno, (name, value, stack, counter, fault) in enumerate(_LINE_RE.findall(text), start=1):
        if name:
            try:
                stack = tuple(map(int, stack.split(","))) if stack else ()
                cell = _new_cell(Cell, (int(value), stack, int(counter or 0)))
            except ValueError:  # an integer past the interpreter's digit limit
                cell = None
            if cell is None or name in KEYWORDS or name in cells:
                line = text.split("\n", lineno)[lineno - 1]
                if cell is not None and name in cells:  # a keyword is never in `cells`
                    column = len(line) - len(line.lstrip(" \t\f\v")) + 1
                    raise ParseError(lineno, column, f"duplicate binding for {name!r}")
                _fault(line, lineno)
            cells[name] = cell
        elif fault:
            _fault(fault, lineno)
    return list(cells.items())


def _fault(line: str, lineno: int) -> NoReturn:
    """Raise the first fault of `line`, line `lineno` of a state file with
    its comment removed, at its column, which each token carries with it.
    Handed a line without a fault, it raises an internal error."""
    tokens = [(m[1], m.start() + 1) for m in _STATE_TOKEN_RE.finditer(line)]
    for word, column in tokens:
        if word is None:
            raise ParseError(lineno, column, f"unexpected character {line[column - 1]!r}")
    tokens.reverse()  # the next token is the last
    end = ("", len(line) + 1)
    name = tokens[-1][0] if tokens else ""

    def take(ok: Callable[[str], object], message: str, expected: tuple[str, ...]) -> tuple[str, int]:
        """The next token and its column ("" and the column past the line at
        its end) if `ok` holds for the token; else a ParseError at it, whose
        message may name the binding's `{name}`, formatted only then."""
        word, column = tokens.pop() if tokens else end
        if not ok(word):
            raise ParseError(lineno, column, message.format(name=name), expected)
        return word, column

    def number(ok: Callable[[str], object], message: str, expected: tuple[str, ...]) -> None:
        """Take the next token as `take` does; `int` must take it too.  A
        token too long for `int` is refused here, without a change to the
        limit (a setting of the whole process)."""
        word, column = take(ok, message, expected)
        try:
            int(word)
        except ValueError:
            raise ParseError(lineno, column, f"integer too long: {len(word.lstrip('-'))} digits") from None

    if name in KEYWORDS:
        raise ParseError(lineno, tokens[-1][1], f"keyword {name!r} cannot be a variable name")
    take(is_identifier, "expected a variable name, found {name!r}", ("identifier",))
    take("=".__eq__, "expected '=' after {name!r}", ("=",))
    number(_INT_RE.match, "expected an integer value", ("integer",))
    if tokens:
        take(",".__eq__, "expected ',' or end of line", (",",))
        take("[".__eq__, "expected '[' to open the stack", ("[",))
        if tokens and tokens[-1][0] == "]":
            tokens.pop()
        else:
            separator = ","
            while separator == ",":
                number(_INT_RE.match, "expected a stack element", ("integer",))
                separator, _ = take(_SEPARATORS.__contains__, "expected ']' to close the stack", ("]",))
        if tokens:
            take(",".__eq__, "expected ',' or end of line", (",",))
            number(str.isdigit, "counter must be a non-negative integer", ("nat",))
    if tokens:
        word, column = tokens[-1]
        raise ParseError(lineno, column, f"unexpected trailing input {word!r}")
    raise AssertionError(f"state-file line {lineno} has no fault: {line!r}")


def parse_state(src: str) -> State:
    """Parse a state file into a State, raising ParseError on any fault."""
    return _declared_state(parse_state_declarations(src))


def _declared_state(declarations: list[tuple[str, Cell]]) -> State:
    """The state of `parse_state_declarations`' bindings, whose names and
    cells the parser has checked, so only the default cells go."""
    return State._trusted({name: cell for name, cell in declarations if cell != DEFAULT_CELL})


# Every stack the CLI prints is the list repr of its plain ints, top first,
# written by `_stack_repr`.  A stack of at most `_SHORT_STACK` elements is
# printed inline, as a list repr, and an empty one as "[]" with no list
# built; short stacks never reach the table join, which cost `trace` about
# an eighth of its steps per second when they did.  A longer stack goes
# through `_stack_text`, which joins the decimal text of each element from
# `_DECIMALS`, the text of every int within ±`_DECIMAL_BOUND`, filled on
# the first long stack rather than at import, so a call that prints no
# long stack never pays for it.  A list repr converts every int afresh,
# about 79 ns per element.  One `operator.itemgetter` call looks up the
# texts of a whole piece of at most `_PIECE` elements in C, and with the
# join that costs about a quarter as much per element (Python 3.11); the
# pieces keep its transient tuples bounded on a stack of millions.
# The table holds about 26 KB: one of ±256 raised the peak memory of the
# benchmark's `cli_loops` by 0.6% (2-CPU host).  A stack with any value
# beyond the table goes to the list repr.
_SHORT_STACK = 32
_DECIMAL_BOUND = 128
_DECIMALS: dict[int, str] = {}
# The most values one itemgetter call looks up, and one extension of a
# stack list adds in `semantics._leaf_function`.
_PIECE = 65_536


def _joined(stack: tuple[int, ...] | list[int]) -> str:
    """The `_DECIMALS` texts of the ints of `stack` joined by ", ", one
    itemgetter call per piece; a KeyError for a value beyond the table.
    A last value alone in its piece is looked up alone, since itemgetter
    gives a single key's text bare."""
    end = len(stack) - 1
    pieces = [", ".join(itemgetter(*stack[i : i + _PIECE])(_DECIMALS)) for i in range(0, end, _PIECE)]
    if not end % _PIECE:
        pieces.append(_DECIMALS[stack[end]])
    return ", ".join(pieces)


def _stack_text(stack: tuple[int, ...] | list[int]) -> str:
    """`repr(list(stack))` for a sequence of plain ints, which callers
    use for more than `_SHORT_STACK` of them: joined from the table, or
    the list repr itself when a value is beyond it, so an int too long
    for the interpreter's digit limit raises the `ValueError` it does."""
    if not _DECIMALS:
        _DECIMALS.update({i: repr(i) for i in range(-_DECIMAL_BOUND, _DECIMAL_BOUND + 1)})
    try:
        return "[" + _joined(stack) + "]"
    except KeyError:
        return repr(list(stack))


def _stack_repr(stack: tuple[int, ...] | list[int]) -> str:
    """`repr(list(stack))` for a sequence of plain ints, top first: the
    one text every stack the CLI prints has.  An empty stack is "[]", a
    short one its list repr, and one of more than `_SHORT_STACK` values
    goes through `_stack_text`."""
    return _stack_text(stack) if len(stack) > _SHORT_STACK else f"{[*stack]}" if stack else "[]"


def _cell_end(stack: tuple[int, ...] | list[int], counter: int) -> str:
    """What follows a cell's value on its line: ``, [stack], counter``
    and the line end, as `dump_state` and the trace of a run write it."""
    return f", {_stack_repr(stack)}, {counter}\n"


def dump_state(state: State, names: Iterable[str]) -> str:
    """Render `names` (sorted) in the state file format, all fields explicit.

    Round trip: parsing the output agrees with `state` on `names`.  A
    state holds plain ints, whose repr is their str, so each stack prints
    as one list repr.  The value is written first, so an int too long to
    write is reported as it was.
    """
    get = state._cells.get
    lines = []
    append = lines.append
    for name in sorted(set(names)):
        value, stack, counter = get(name, DEFAULT_CELL)
        append(f"{name} = {value}{_cell_end(stack, counter)}")
    return "".join(lines)
