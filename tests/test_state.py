import pytest
from hypothesis import given
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
        for build in (
            lambda: State({"x": cell}),
            lambda: State([("x", cell)]),
            lambda: State().set("x", cell),
            lambda: State({"y": Cell(1)}).set("x", cell),
        ):
            with pytest.raises(ValueError) as raised:
                build()
            assert str(raised.value) == message

    def test_rejects_bad_name(self):
        with pytest.raises(ValueError):
            State({"FOR": Cell(1)})

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
]


class TestStateFileFaults:
    @pytest.mark.parametrize(("src", "line", "column", "message", "expected"), STATE_FILE_FAULTS)
    def test_position_message_and_expected(self, src, line, column, message, expected):
        with pytest.raises(ParseError) as info:
            parse_state(src)
        error = info.value
        assert (error.line, error.column, error.message, error.expected) == (line, column, message, expected)


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
