import enum
import random
import re
import sys
import tracemalloc
from itertools import cycle, islice
from operator import itemgetter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from scorelang import (
    Cell,
    DEFAULT_CELL,
    ParseError,
    State,
    dump_state,
    hd,
    parse_state,
    parse_state_declarations,
    tl,
)
from reference_state import _parse_lines
from scorelang import semantics, state
from scorelang.syntax import KEYWORDS
from term_strategies import cells, idents, states


class TestHeadTail:
    def test_empty_stack(self):
        assert hd(()) == 0
        assert tl(()) == ()

    def test_nonempty(self):
        assert hd((7, 3)) == 7
        assert tl((7, 3)) == (3,)

    def test_singleton(self):
        assert hd((-4,)) == -4
        assert tl((5,)) == ()

    @given(st.lists(st.integers(), max_size=6).map(tuple))
    def test_total(self, stack):
        hd(stack)
        tl(stack)


# Every way a cell enters a State: the constructor, from a dict or from
# pairs, and `set`, on an empty and on a non-empty state.
_WAYS_IN = (
    lambda cell: State({"x": cell}),
    lambda cell: State([("x", cell)]),
    lambda cell: State().set("x", cell),
    lambda cell: State({"y": Cell(1)}).set("x", cell),
)


class TestStateMap:
    def test_get_stored(self):
        state = State({"x": Cell(5, (2,), 0)})
        assert state.get("x") == Cell(5, (2,), 0)

    def test_get_default(self):
        state = State({"x": Cell(5, (2,), 0)})
        assert state.get("y") == Cell(0, (), 0)
        assert State().get("z") == DEFAULT_CELL

    def test_set_overwrite(self):
        state = State({"x": Cell(1)})
        assert state.set("x", Cell(2)) == State({"x": Cell(2)})

    def test_set_default_is_noop_under_equality(self):
        state = State({"x": Cell(1)})
        assert state.set("y", DEFAULT_CELL) == state

    def test_set_insert(self):
        assert State().set("x", Cell(0, (9,), 1)) == State({"x": Cell(0, (9,), 1)})

    def test_set_is_persistent(self):
        state = State({"x": Cell(1)})
        state.set("x", Cell(7))
        assert state.get("x") == Cell(1)

    def test_support_insensitive_equality(self):
        assert State({"x": Cell(0, (), 0)}) == State()
        assert hash(State({"x": DEFAULT_CELL})) == hash(State())

    def test_variables_is_support(self):
        state = State({"x": Cell(1), "y": DEFAULT_CELL})
        assert state.variables() == {"x"}

    @given(st.lists(st.tuples(idents, st.one_of(st.just(DEFAULT_CELL), cells)), max_size=8))
    @example([("x", Cell(1)), ("x", DEFAULT_CELL)])
    def test_pairs_bind_as_set_does(self, pairs):
        # the last pair of a name wins, and a default cell unbinds the name
        folded = State()
        for name, cell in pairs:
            folded = folded.set(name, cell)
        assert State(pairs) == folded == State(dict(pairs))

    @given(states, idents, cells)
    def test_get_set_algebra(self, state, name, cell):
        updated = state.set(name, cell)
        assert updated.get(name) == cell
        for other in state.variables() | {"q"}:
            if other != name:
                assert updated.get(other) == state.get(other)
        assert state.set(name, state.get(name)) == state

    def test_rejects_negative_counter(self):
        with pytest.raises(ValueError):
            State({"x": (1, (), -1)})

    @pytest.mark.parametrize(
        ("fields", "message"),
        [
            ((1, (), -1), "cell counter must be a non-negative integer, got -1"),
            ((1, (), 0.5), "cell counter must be a non-negative integer, got 0.5"),
            (("5", (), 0), "cell value must be an integer, got '5'"),
            ((1.5, (), 0), "cell value must be an integer, got 1.5"),
            ((1, ("a",), 0), "cell stack must contain integers, got ('a',)"),
            ((True, (), 0), "cell value must be an integer, got True"),
            ((0, (1, False), 0), "cell stack must contain integers, got (1, False)"),
            ((1, (), True), "cell counter must be a non-negative integer, got True"),
        ],
    )
    @pytest.mark.parametrize("as_cell", [False, True])
    def test_every_way_in_rejects_a_bad_cell(self, fields, message, as_cell):
        cell = Cell(*fields) if as_cell else fields
        for build in _WAYS_IN:
            with pytest.raises(ValueError) as raised:
                build(cell)
            assert str(raised.value) == message

    @pytest.mark.parametrize("cell", [5, None, (1, 5, 0), (1, 2), (1, (), 0, 0)], ids=repr)
    def test_every_way_in_refuses_a_non_triple_by_name(self, cell):
        message = f"cell must be a triple (value, iterable stack, counter), got {cell!r}"
        for build in _WAYS_IN:
            with pytest.raises(ValueError) as raised:
                build(cell)
            assert str(raised.value) == message

    def test_a_stored_cell_is_a_fresh_equal_tuple(self):
        cell = Cell(1, (2, 3), 1)
        for build in _WAYS_IN:
            stored = build(cell).get("x")
            assert stored == cell and type(stored) is Cell
            assert stored is not cell

    def test_a_tuple_stack_of_plain_ints_is_stored_as_it_is(self):
        # neither copied nor converted, however long
        stack = tuple(range(-50_000, 50_000))
        assert State({"x": Cell(0, stack)}).get("x").stack is stack
        assert State().set("x", Cell(0, stack, 2)).get("x").stack is stack

    def test_rejects_bad_name(self):
        with pytest.raises(ValueError):
            State({"FOR": Cell(1)})
        with pytest.raises(ValueError, match="invalid variable name: '1x'"):
            State({"x": Cell(1)}).set("1x", Cell(2))
        with pytest.raises(ValueError, match="invalid variable name: 5"):
            State({5: Cell(1)})
        with pytest.raises(ValueError, match="invalid variable name: 5"):
            State().set(5, Cell(1))

    def test_equality_with_a_non_state(self):
        state = State({"x": Cell(1)})
        assert state.__eq__({"x": Cell(1)}) is NotImplemented
        assert state != {"x": Cell(1)}
        assert state != 1

    def test_repr_lists_the_support_sorted(self):
        state = State({"x": Cell(1, (2, -3), 1), "a": Cell(-1), "z": DEFAULT_CELL})
        assert repr(state) == (
            "State({a: Cell(value=-1, stack=(), counter=0), x: Cell(value=1, stack=(2, -3), counter=1)})"
        )
        assert repr(State()) == "State({})"

    def test_coerces_list_stacks(self):
        assert State({"x": (1, [2, 3], 0)}) == State({"x": Cell(1, (2, 3), 0)})


class TestBroken:
    def test_positive_counter(self):
        assert Cell(5, (2,), 1).broken
        assert Cell(0, (), 3).broken

    def test_zero_counter(self):
        assert not Cell(5, (2,), 0).broken


class TestParseStateFile:
    def test_two_bindings(self):
        state = parse_state("x = 3\ns = 0, [2, 1]")
        assert state == State({"x": Cell(3), "s": Cell(0, (2, 1), 0)})

    def test_empty_file(self):
        assert parse_state("") == State()
        assert parse_state("\n# only a comment\n") == State()

    def test_duplicate_binding(self):
        with pytest.raises(ParseError) as info:
            parse_state("x = 5, [2], 0\nx = 1")
        assert "'x'" in info.value.message
        assert info.value.line == 2

    def test_all_fields(self):
        assert parse_state("x = -7, [0, -1], 2") == State({"x": Cell(-7, (0, -1), 2)})

    def test_empty_stack_brackets(self):
        assert parse_state("x = 1, []") == State({"x": Cell(1, (), 0)})
        assert parse_state("x = 1, [], 2") == State({"x": Cell(1, (), 2)})

    def test_comments_and_blanks(self):
        src = "# init\n\nx = 1  # one\n\ny = 2\n"
        assert parse_state(src) == State({"x": Cell(1), "y": Cell(2)})

    def test_declarations_keep_explicit_defaults(self):
        decls = parse_state_declarations("x = 0\ny = 1")
        assert decls == [("x", Cell(0)), ("y", Cell(1))]

    def test_negative_counter_rejected(self):
        with pytest.raises(ParseError) as info:
            parse_state("x = 1, [], -1")
        assert "non-negative" in info.value.message

    def test_missing_equals(self):
        with pytest.raises(ParseError) as info:
            parse_state("x 1")
        assert info.value.expected == ("=",)

    def test_counter_without_stack_rejected(self):
        with pytest.raises(ParseError):
            parse_state("x = 1, 2")

    def test_unterminated_stack(self):
        with pytest.raises(ParseError) as info:
            parse_state("x = 1, [2, 3")
        assert info.value.line == 1

    def test_keyword_name_rejected(self):
        with pytest.raises(ParseError) as info:
            parse_state("FOR = 1")
        assert "keyword" in info.value.message

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_state("x = 1, [], 0 extra")


# (source, line, column, message, expected) of every fault the state-file
# parser reports; a fault character is reported before any grammar fault.
STATE_FILE_FAULTS = [
    ("x = 1 @", 1, 7, "unexpected character '@'", ()),
    ("x 1 @", 1, 5, "unexpected character '@'", ()),
    ("x = 1, [2,\u00e9]", 1, 11, "unexpected character '\u00e9'", ()),
    ("x\t=\v-", 1, 5, "unexpected character '-'", ()),
    ("x = 1\xa0", 1, 6, "unexpected character '\\xa0'", ()),
    ("FOR = 1", 1, 1, "keyword 'FOR' cannot be a variable name", ()),
    ("= 1", 1, 1, "expected a variable name, found '='", ("identifier",)),
    ("1x = 2", 1, 1, "expected a variable name, found '1'", ("identifier",)),
    ("x", 1, 2, "expected '=' after 'x'", ("=",)),
    ("x 1", 1, 3, "expected '=' after 'x'", ("=",)),
    ("x = # comment", 1, 5, "expected an integer value", ("integer",)),
    ("x = y", 1, 5, "expected an integer value", ("integer",)),
    ("x = 1 2", 1, 7, "expected ',' or end of line", (",",)),
    ("x = 1,", 1, 7, "expected '[' to open the stack", ("[",)),
    ("x = 1, 2", 1, 8, "expected '[' to open the stack", ("[",)),
    ("x = 1, [", 1, 9, "expected a stack element", ("integer",)),
    ("x = 1, [1,]", 1, 11, "expected a stack element", ("integer",)),
    ("x = 1, [a]", 1, 9, "expected a stack element", ("integer",)),
    ("x = 1, [2 3]", 1, 11, "expected ']' to close the stack", ("]",)),
    ("x = 1, [2, 3", 1, 13, "expected ']' to close the stack", ("]",)),
    ("x = 1, [] 2", 1, 11, "expected ',' or end of line", (",",)),
    ("x = 1, [], -1", 1, 12, "counter must be a non-negative integer", ("nat",)),
    ("x = 1, [],", 1, 11, "counter must be a non-negative integer", ("nat",)),
    ("x = 1, [], 0 extra", 1, 14, "unexpected trailing input 'extra'", ()),
    ("x = 1, [], 0,", 1, 13, "unexpected trailing input ','", ()),
    ("y = 2\r\n\n  x = 1, [], 0, 5", 3, 15, "unexpected trailing input ','", ()),
    ("x = 1\nx = 2", 2, 1, "duplicate binding for 'x'", ()),
    # longer than the interpreter's default int-string limit (4,300 digits)
    ("x = -" + "1" * 5000, 1, 5, "integer too long: 5000 digits", ()),
    ("x = 1, [0, " + "2" * 5000 + "]", 1, 12, "integer too long: 5000 digits", ()),
    ("x = 1, [], " + "3" * 5000, 1, 12, "integer too long: 5000 digits", ()),
    # digits are ASCII only: any other decimal digit is a fault character
    ("x = \u0663, [2], 1", 1, 5, "unexpected character '\u0663'", ()),
    ("x = 3, [2, \u0968], 1", 1, 12, "unexpected character '\u0968'", ()),
    ("x = 3, [2], \uff11", 1, 13, "unexpected character '\uff11'", ()),
    # a line is blank only when it holds nothing but " \t\f\v"
    ("x = 1\n\xa0 \n", 2, 1, "unexpected character '\\xa0'", ()),
    ("\x1c\nx = 1", 1, 1, "unexpected character '\\x1c'", ()),
    ("x = 1\n\u2028", 2, 1, "unexpected character '\\u2028'", ()),
    ("\x85 # note", 1, 1, "unexpected character '\\x85'", ()),
    # a line's integers are checked before its name is checked for a duplicate
    ("x = 1\nx = " + "4" * 5000, 2, 5, "integer too long: 5000 digits", ()),
]


class TestStateFileFaults:
    @pytest.mark.parametrize(("src", "line", "column", "message", "expected"), STATE_FILE_FAULTS)
    def test_position_message_and_expected(self, src, line, column, message, expected):
        with pytest.raises(ParseError) as info:
            parse_state(src)
        error = info.value
        assert (error.line, error.column, error.message, error.expected) == (line, column, message, expected)


# Pieces of valid lines, and what the mutations insert or put in their
# place: blanks, line breaks, comments, punctuation, digits (an ASCII one
# and others), keywords and integers too long for `int`.
NAMES = ("x", "y", "_v1", "ab", "x1")  # a few names, for duplicates
BLANKS = ("", " ", "  ", "\t", "\f", "\v")
MUTATIONS = (
    "#", " # note", "\r", "\n", "\r\n", "\f", "\v", " ", "-", "[", "]", ",", "=", "0", "7", "12",
    "\u0663", "\xa0", "\x1c", "FOR", "POP", "SKIP", "x", "y", "1" * 5000, "-" + "2" * 5000,
)  # fmt: skip


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUMBER_RE = re.compile(r"(?<![A-Za-z0-9_])-?[0-9]+")  # an integer, not the digits of a name


def _random_line(rng):
    """A valid binding with random blanks and fields, or a blank line."""
    if rng.random() < 0.1:
        return rng.choice(BLANKS)
    name = rng.choice(NAMES) if rng.random() < 0.2 else f"{rng.choice('abxyz_')}{rng.randint(0, 99)}"
    fields = [name, "=", str(rng.randint(-30, 30))]
    if rng.random() < 0.6:
        elements = [str(rng.randint(-30, 30)) for _ in range(rng.randint(0, 3))]
        fields += [",", "[", *" , ".join(elements).split(), "]"]
        if rng.random() < 0.5:
            fields += [",", str(rng.randint(0, 12))]
    line = "".join(field + rng.choice(BLANKS) for field in fields)
    return rng.choice(BLANKS) + line + rng.choice(("", "", "# c", " #x = 1"))


def _mutate(rng, line):
    """`line` with a piece inserted, or a character deleted or replaced."""
    k = rng.randint(0, len(line))
    roll = rng.random()
    if roll < 0.2 and line:
        return line[:k] + line[k + 1 :]
    return line[:k] + rng.choice(MUTATIONS) + line[k + (roll < 0.5) :]


def random_state_source(rng):
    """A state file of valid and mutated lines joined by random line breaks."""
    lines = [_random_line(rng) for _ in range(rng.randint(0, 6))]
    for _ in range(rng.choice((0, 0, 1, 2))):
        if lines:
            k = rng.randrange(len(lines))
            lines[k] = _mutate(rng, lines[k])
    return "".join(line + rng.choice(("\n", "\r\n", "\r")) for line in lines) + rng.choice(("", "x = 1"))


def state_outcome(parse_fn, src):
    """The declarations, with their types shown, or the fault's fields."""
    try:
        return repr(parse_fn(src))
    except ParseError as err:
        return err.line, err.column, err.message, err.expected


class TestStateScanAgainstLineWalk:
    def test_random_sources(self):
        rng = random.Random(20261018)
        for _ in range(3_000):
            src = random_state_source(rng)
            assert state_outcome(parse_state_declarations, src) == state_outcome(_parse_lines, src), src

    def test_valid_files_need_no_line_walk(self, monkeypatch):
        """Line breaks of every convention, comments and blank lines are
        read by the one scan, and the fault walk is never called."""
        src = "# state\r\nx = 1, [2], 0 # one\r\n\n\ty=-3,[ ],1\r\v\rz = 4"
        expected = _parse_lines(src)

        def walk(line, lineno):
            raise AssertionError("handed to the fault walk")

        monkeypatch.setattr(state, "_fault", walk)
        assert parse_state_declarations(src) == expected

    def test_fault_walk_only_raises(self):
        """`_fault` raises the line walk's ParseError, and never returns, on
        every mutated line that `_LINE_RE` refuses, on lines binding a
        keyword and on lines with an integer over the digit limit; handed a
        line that it accepts, it raises an internal error."""
        rng = random.Random(20261019)
        faulty = []
        for _ in range(3_000):
            line = _random_line(rng).split("#")[0]
            pieces = re.split(r"[\r\n]", _mutate(rng, line).split("#")[0])
            faulty += [piece for piece in pieces if state._LINE_RE.match(piece)[5]]
            if line.strip(" \t\f\v"):
                faulty.append(_NAME_RE.sub(rng.choice(sorted(KEYWORDS)), line, count=1))
                number = rng.choice(list(_NUMBER_RE.finditer(line)))
                faulty.append(line[: number.start()] + "9" * 5000 + line[number.end() :])
        assert len(faulty) > 7_000
        for line in faulty:
            expected = state_outcome(_parse_lines, line)
            assert isinstance(expected, tuple), line
            assert state_outcome(lambda line: state._fault(line, 1), line) == expected, line
        with pytest.raises(AssertionError):
            state._fault("x = 1, [2], 0", 1)

    def test_cells_are_cells_with_tuple_stacks(self):
        declarations = parse_state_declarations("x = 1, [2, -3], 4\ny = -5, []\nz = 0")
        assert declarations == [("x", Cell(1, (2, -3), 4)), ("y", Cell(-5)), ("z", Cell(0))]
        assert all(type(cell) is Cell and type(cell.stack) is tuple for _, cell in declarations)


class TestDumpState:
    def test_always_writes_three_fields(self):
        state = State({"x": Cell(0, (2, 1), 0)})
        assert dump_state(state, {"x"}) == "x = 0, [2, 1], 0\n"

    def test_default_rendering(self):
        assert dump_state(State(), {"y"}) == "y = 0, [], 0\n"

    def test_sorted_output(self):
        state = State({"x": Cell(1), "s": Cell(2)})
        assert dump_state(state, {"x", "s"}) == "s = 2, [], 0\nx = 1, [], 0\n"

    def test_round_trip_exact_cell(self):
        state = State({"x": Cell(-7, (0, -1), 2)})
        assert parse_state(dump_state(state, {"x"})) == state

    def test_empty_name_set(self):
        assert dump_state(State({"x": Cell(1)}), set()) == ""

    @given(states)
    def test_round_trip_on_support(self, state):
        assert parse_state(dump_state(state, state.variables())) == state

    @given(states)
    def test_round_trip_with_extra_names(self, state):
        names = state.variables() | {"extra"}
        recovered = parse_state(dump_state(state, names))
        for name in names:
            assert recovered.get(name) == state.get(name)

    def test_int_subclasses_round_trip(self):
        # An int subclass may print otherwise than its int value, through
        # str(), format() or repr(), as IntEnum does on Python 3.10; a State
        # holds the int value, so it dumps as a state file can hold it.
        class Loud(int):
            def __str__(self):
                return f"loud{int(self)}"

            __repr__ = __str__

            def __format__(self, spec):
                return f"fmt{int(self)}"

        class Small(enum.IntEnum):
            A = 1

        cell = Cell(Loud(3), (Loud(1), 2, Small.A), Loud(1))
        for state in (State({"x": cell, "y": Cell(5)}), State({"y": Cell(5)}).set("x", cell)):
            stored = state.get("x")
            assert all(type(n) is int for n in (stored.value, *stored.stack, stored.counter))
            names = {"x", "y", "z"}
            assert dump_state(state, names) == "x = 3, [1, 2, 1], 1\ny = 5, [], 0\nz = 0, [], 0\n"
            assert parse_state(dump_state(state, names)) == state


def _one_beyond_the_table(at):
    """10,002 values of the table, with 1234567 at `at`."""
    stack = [1, -2, 3] * 3_334
    stack[at] = 1234567
    return stack


class TestStackText:
    """`state._stack_text`, the printer of every stack longer than
    `_SHORT_STACK`, prints what a list repr prints, whether its ints are
    in its table or not."""

    K, SHORT = state._DECIMAL_BOUND, state._SHORT_STACK

    def stacks(self):
        """Stacks, top first, of every length and kind of element it must
        print: in the table, at its edges, past them, negative and huge."""
        K, SHORT = self.K, self.SHORT
        huge = 10**40
        rng = random.Random(42)
        yield from ([1] * n for n in (0, 1, SHORT, SHORT + 1, 10_000))
        yield from ([v] * (SHORT + 1) for v in (K, -K, K + 1, -K - 1, -1, 0))
        yield [*range(-K - 2, K + 3)]
        yield [rng.randint(-2 * K, 2 * K) for _ in range(10_000)]
        yield [huge] + [1] * 10_000
        yield [1] * 10_000 + [-huge]
        yield [1] * 10_000 + [1234567]

    def test_prints_the_list_repr(self):
        for stack in self.stacks():
            expected = repr(stack)
            assert state._stack_text(tuple(stack)) == expected, stack[:3]  # a State's tuple
            run_list = stack[::-1]  # a run's list, top at the end, which `trace` prints reversed
            assert state._stack_text(run_list[::-1]) == expected, stack[:3]

    def test_dump_state_prints_every_length_so(self):
        for stack in self.stacks():
            cell = Cell(-3, tuple(stack), 2)
            assert dump_state(State({"y": cell}), {"y"}) == f"y = -3, {stack}, 2\n"

    def test_table_holds_the_text_of_every_int_within_its_bound(self):
        state._stack_text((0,) * (self.SHORT + 1))
        assert state._DECIMALS == {i: repr(i) for i in range(-self.K, self.K + 1)}

    def test_only_long_stacks_reach_the_printer(self, monkeypatch):
        printed = []

        def spy(stack):
            printed.append(len(stack))
            return repr(list(stack))

        monkeypatch.setattr(state, "_stack_text", spy)
        cells = {f"s{n}": Cell(0, (1,) * n) for n in (1, self.SHORT, self.SHORT + 1, 500)}
        dump_state(State(cells), cells)
        assert printed == [self.SHORT + 1, 500]

    @pytest.mark.parametrize("at", [0, -1], ids=["top", "bottom"])
    def test_an_int_past_the_digit_limit_raises_as_the_list_repr_does(self, at):
        stack = [1] * (self.SHORT + 1)
        stack[at] = 10**640
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            with pytest.raises(ValueError) as expected:
                repr(stack)
            with pytest.raises(ValueError) as printed:
                state._stack_text(tuple(stack))
            with pytest.raises(ValueError) as dumped:
                dump_state(State({"x": Cell(0, tuple(stack))}), {"x"})
            assert str(printed.value) == str(dumped.value) == str(expected.value)
        finally:
            sys.set_int_max_str_digits(limit)

    PIECE = state._PIECE

    @pytest.mark.parametrize("length", [2, PIECE - 1, PIECE, PIECE + 1])
    def test_lengths_at_the_piece_bounds(self, length):
        # ints of the whole table in turn, so every piece's order shows; a
        # length one past a piece leaves the last value alone in its piece
        K = self.K
        stack = [i % (2 * K + 1) - K for i in range(length)]
        for values in (stack, stack[::-1]):  # a State's tuple, and the list `trace` passes
            assert state._stack_text(tuple(values)) == state._stack_text(values) == repr(values)

    @pytest.mark.parametrize("length", [2, PIECE - 1, PIECE, PIECE + 1, 2 * PIECE + 1])
    def test_each_lookup_takes_from_two_values_to_a_piece(self, monkeypatch, length):
        # itemgetter gives one key's text bare, so no lookup takes fewer
        # than two values, and none more than a piece; at most the last
        # value is looked up alone
        sizes = []

        def spy(*keys):
            sizes.append(len(keys))
            return itemgetter(*keys)

        monkeypatch.setattr(state, "itemgetter", spy)
        stack = [1] * length
        assert state._stack_text(stack) == repr(stack)
        assert all(2 <= size <= self.PIECE for size in sizes)
        assert sum(sizes) >= length - 1

    @pytest.mark.parametrize("length", [2, PIECE - 1, PIECE, PIECE + 1])
    @pytest.mark.parametrize("at", [0, 1, -2, -1], ids=["top", "second", "second-last", "bottom"])
    def test_a_value_beyond_the_table_at_the_piece_bounds(self, length, at):
        stack = [1] * length
        stack[at] = -1234567
        for values in (stack, stack[::-1]):
            assert state._stack_text(tuple(values)) == state._stack_text(list(values)) == repr(values)

    def spy_on_repr(self, monkeypatch):
        """The arguments of each `repr` call `state` makes while in use,
        once the table is filled, which makes a call per int in it."""
        state._stack_text((0,) * 64)
        calls = []

        def spy(value):
            calls.append(value)
            return repr(value)

        monkeypatch.setattr(state, "repr", spy, raising=False)
        return calls

    @pytest.mark.parametrize(
        "stack",
        [
            [10**6 + i for i in range(10_000)],  # every value beyond the table
            [1] * 32 + [10**6 + i for i in range(10_000)],  # most of the distinct ones
            _one_beyond_the_table(0),  # one value alone: at the top,
            _one_beyond_the_table(5_000),  # the middle
            _one_beyond_the_table(-1),  # and the bottom
        ],
        ids=["all", "after-the-first", "one-top", "one-middle", "one-bottom"],
    )
    def test_a_stack_mostly_beyond_the_table_takes_the_list_repr(self, monkeypatch, stack):
        # so does a stack with a single value beyond it: the table serves
        # whole stacks or none
        calls = self.spy_on_repr(monkeypatch)
        assert state._stack_text(tuple(stack)) == f"{stack}"
        assert calls == [stack]

    def test_printing_and_growing_a_long_stack_peaks_no_higher_than_before(self):
        # The stack a pushing loop leaves, 2**20 values, grown by the closed
        # form and printed top first, against what the closed form and the
        # printer did before pieces: an iterator over the repeated pattern,
        # and one text lookup per value joined at once.
        count = 2**20
        grow = semantics._leaf_function(((semantics._PUSH, 0), (semantics._INC, 0)))
        state._stack_text((0,) * 64)  # the table, filled beforehand on both sides
        expected = f"[{'1, ' * (count - 1)}3]"

        def grown_and_printed():
            stacks = [[]]
            assert grow([3], stacks, [0], count)
            return state._stack_text(stacks[0][::-1])

        def as_before():
            stack = []
            stack.extend(islice(cycle((1,)), count))
            stack[0] = 3
            return "[" + ", ".join(map(state._DECIMALS.__getitem__, stack[::-1])) + "]"

        def printed():  # a State's tuple, then a run's reversed list, as `trace` prints it
            return state._stack_text(values), state._stack_text(listed)

        def printed_as_before():
            return tuple("[" + ", ".join(map(state._DECIMALS.__getitem__, v)) + "]" for v in (values, listed))

        values = (1,) * (count - 1) + (3,)
        listed = [*values]
        peaks = {}
        for f in (grown_and_printed, as_before, printed, printed_as_before):
            tracemalloc.start()
            try:
                texts = f()
                peaks[f.__name__] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert texts in (expected, (expected, expected))
        assert peaks["grown_and_printed"] <= peaks["as_before"]
        assert peaks["printed"] <= peaks["printed_as_before"]
