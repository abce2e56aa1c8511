import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_frontend as ref
from scorelang import (
    Aborted,
    Cell,
    Final,
    For,
    IllFormedProgramError,
    Inc,
    NonzeroCounterError,
    Pop,
    Push,
    Seq,
    Skip,
    State,
    Violation,
    compile_program,
    eval_a,
    eval_n,
    eval_r,
    eval_traced,
    invert,
    parse,
    pop_r,
    push_r,
)
from term_strategies import cells, flat_states, grid, raw_terms, states, wf_terms


class TestPushPopCells:
    def test_push_clause_order(self):
        assert push_r(Cell(5, (2,), 0)) == Cell(0, (5, 2), 0)  # save value, counter 0
        assert push_r(Cell(0, (7,), 2)) == Cell(0, (7,), 2)  # broken, poppable shape: frozen
        assert push_r(Cell(3, (7,), 2)) == Cell(3, (7,), 1)  # broken otherwise: repair one
        assert push_r(Cell(0, (), 1)) == Cell(0, (), 0)  # empty stack falls through to repair

    def test_pop_clause_order(self):
        assert pop_r(Cell(0, (1, 2), 0)) == Cell(1, (2,), 0)  # legal pop
        assert pop_r(Cell(0, (9,), 4)) == Cell(0, (9,), 4)  # broken, poppable shape: frozen
        assert pop_r(Cell(0, (), 0)) == Cell(0, (), 1)  # empty stack: count illegal pop
        for counter in range(4):
            assert pop_r(Cell(1, (2,), counter)) == Cell(1, (2,), counter + 1)

    def test_mutual_inverse_by_enumeration(self):
        # independent brute-force oracle over a small grid
        count = 0
        for cell in grid(2, 2, 1, 2):
            count += 1
            assert pop_r(push_r(cell)) == cell
            assert push_r(pop_r(cell)) == cell
        assert count == 5 * (1 + 3 + 9) * 3

    def test_pop_injective_by_enumeration(self):
        seen = {}
        for cell in grid(2, 2, 1, 2):
            image = pop_r(cell)
            assert image not in seen, (seen.get(image), cell)
            seen[image] = cell

    @given(cells)
    def test_mutual_inverse_random(self, cell):
        assert pop_r(push_r(cell)) == cell
        assert push_r(pop_r(cell)) == cell

    @given(cells)
    def test_pop_matches_disjoint_guard_formulation(self, cell):
        value, stack, counter = cell
        if value == 0 and stack and counter == 0:
            expected = Cell(stack[0], stack[1:], 0)
        elif value == 0 and stack and counter > 0:
            expected = cell
        else:
            expected = Cell(value, stack, counter + 1)
        assert pop_r(cell) == expected

    @given(cells)
    def test_push_matches_disjoint_guard_formulation(self, cell):
        value, stack, counter = cell
        if counter == 0:
            expected = Cell(0, (value, *stack), 0)
        elif value == 0 and stack:
            expected = cell
        else:
            expected = Cell(value, stack, counter - 1)
        assert push_r(cell) == expected


class TestCompileProgram:
    """`compile_program` reads its violations and its variable order off the
    same walk as `check_well_formed` and `variables_of`."""

    @settings(max_examples=400)
    @given(st.one_of(raw_terms(max_depth=6), wf_terms(max_depth=6)))
    def test_violations_or_variables_against_reference(self, term):
        violations = ref.check_well_formed(term)
        if violations:
            with pytest.raises(IllFormedProgramError) as info:
                compile_program(term)
            assert info.value.violations == violations
        else:
            assert compile_program(term).variables == ref.variables_in_order(term)

    def test_name_only_in_a_body_that_never_runs(self):
        program = compile_program(parse("INC y; FOR n { PUSH z; FOR y { POP w } }"))
        assert program.variables == ("y", "n", "z", "w")
        assert program.run(State({"y": Cell(0, (5,), 0)}), "a") == Final(State({"y": Cell(1, (5,), 0)}))

    def test_leader_reused_after_its_loop_then_a_violation(self):
        term = parse("FOR x { INC y }; INC x; PUSH x; FOR y { DEC x; PUSH y }")
        with pytest.raises(IllFormedProgramError) as info:
            compile_program(term)
        assert info.value.violations == [Violation("y", ("second", "second", "second", "body", "second"))]
        assert str(info.value) == "program is not well formed (leader(s) occur in loop body: y)"


class TestNaiveSemantics:
    def test_pop_push_forgets_the_value(self):
        out = eval_n(parse("POP x; PUSH x"), State({"x": Cell(5, (2,), 0)}))
        assert out == State({"x": Cell(0, (2,), 0)})

    def test_skip_is_identity(self):
        state = State({"x": Cell(3, (1,), 0)})
        assert eval_n(Skip(), state) == state

    def test_loop_identity_program(self):
        program = parse("INC x; FOR x {DEC y}; FOR x {INC y}; DEC x")
        state = State({"x": Cell(4), "y": Cell(9)})
        assert eval_n(program, state) == state

    def test_negative_loop_runs_inverted_body(self):
        out = eval_n(parse("FOR x {INC y}"), State({"x": Cell(-2)}))
        assert out == State({"x": Cell(-2), "y": Cell(-2)})

    def test_pop_on_empty_stack_is_total(self):
        out = eval_n(parse("POP x; POP x"), State({"x": Cell(0, (4,), 0)}))
        assert out == State()

    def test_rejects_broken_input(self):
        with pytest.raises(NonzeroCounterError):
            eval_n(Skip(), State({"x": Cell(0, (), 1)}))

    def test_rejects_ill_formed(self):
        with pytest.raises(IllFormedProgramError):
            eval_n(For("x", Inc("x")), State())


class TestAssertSemantics:
    def test_legal_pop(self):
        out = eval_a(parse("POP x"), State({"x": Cell(0, (7, 3), 0)}))
        assert out == Final(State({"x": Cell(7, (3,), 0)}))

    def test_value_nonzero_abort(self):
        out = eval_a(parse("POP x"), State({"x": Cell(5, (2,), 0)}))
        assert isinstance(out, Aborted)
        record = out.record
        assert record.reason == "value-nonzero"
        assert record.instruction == "POP x"
        assert record.variable == "x"
        assert record.observed == Cell(5, (2,), 0)

    def test_empty_stack_abort(self):
        out = eval_a(parse("POP x"), State({"x": Cell(0, (), 0)}))
        assert isinstance(out, Aborted)
        assert out.record.reason == "empty-stack"

    def test_value_checked_before_stack(self):
        out = eval_a(parse("POP x"), State({"x": Cell(5, (), 0)}))
        assert isinstance(out, Aborted)
        assert out.record.reason == "value-nonzero"

    def test_abort_kills_the_whole_run(self):
        out = eval_a(parse("INC y; POP x; INC y"), State({"x": Cell(5, (2,), 0)}))
        assert isinstance(out, Aborted)
        assert out.record.trace_position == 1

    def test_abort_inside_loop(self):
        # first iteration pops 7 into the value; the second sees it nonzero
        out = eval_a(parse("FOR n { POP x }"), State({"n": Cell(3), "x": Cell(0, (7,), 0)}))
        assert isinstance(out, Aborted)
        assert out.record.reason == "value-nonzero"
        assert out.record.observed == Cell(7, (), 0)
        assert out.record.trace_position == 1

    def test_rejects_broken_input(self):
        with pytest.raises(NonzeroCounterError):
            eval_a(Skip(), State({"x": Cell(0, (), 2)}))

    @given(wf_terms(), flat_states)
    def test_abort_records_are_consistent(self, term, state):
        out = eval_a(term, state)
        if isinstance(out, Aborted):
            record = out.record
            if record.reason == "value-nonzero":
                assert record.observed.value != 0
            else:
                assert record.reason == "empty-stack"
                assert record.observed.value == 0
                assert record.observed.stack == ()

    @given(wf_terms(), flat_states)
    def test_final_states_have_zero_counters(self, term, state):
        out = eval_a(term, state)
        if isinstance(out, Final):
            assert all(not out.state.get(n).broken for n in out.state.variables())


class TestReversibleSemantics:
    def test_over_popping_loop_round_trip(self):
        state = State({"x": Cell(3), "s": Cell(0, (2, 1), 0)})
        assert eval_r(parse("FOR x {POP s}; FOR x {PUSH s}"), state) == state

    def test_over_popping_intermediate(self):
        state = State({"x": Cell(3), "s": Cell(0, (2, 1), 0)})
        mid = eval_r(parse("FOR x {POP s}"), state)
        assert mid.get("s") == Cell(2, (1,), 2)
        assert mid.get("x") == Cell(3)

    def test_illegal_pop_round_trips_via_counter(self):
        state = State({"x": Cell(5, (2,), 0)})
        assert eval_r(parse("POP x; PUSH x"), state) == state
        mid = eval_r(parse("POP x"), state)
        assert mid == State({"x": Cell(5, (2,), 1)})

    def test_skip_is_identity(self):
        state = State({"x": Cell(1, (2,), 3)})
        assert eval_r(Skip(), state) == state

    def test_accepts_broken_input(self):
        state = State({"x": Cell(0, (5,), 2)})
        assert eval_r(parse("POP x"), state) == state  # frozen clause

    def test_rejects_ill_formed(self):
        with pytest.raises(IllFormedProgramError):
            eval_r(For("x", Pop("x")), State())

    @given(wf_terms(), states)
    def test_strongly_reversible(self, term, state):
        inverse = invert(term)
        assert eval_r(Seq(term, inverse), state) == state
        assert eval_r(Seq(inverse, term), state) == state

    @given(wf_terms(), flat_states)
    def test_weakly_reversible_assert_semantics(self, term, state):
        out = eval_a(term, state)
        if isinstance(out, Final):
            back = eval_a(invert(term), out.state)
            assert back == Final(state)

    @given(wf_terms(), flat_states)
    def test_agrees_with_assert_semantics_on_final_runs(self, term, state):
        out = eval_a(term, state)
        if isinstance(out, Final):
            assert eval_r(term, state) == out.state

    @given(wf_terms(stack_ops=False), flat_states)
    def test_stack_free_fragment_agrees_across_semantics(self, term, state):
        result = eval_n(term, state)
        assert eval_r(term, state) == result
        assert eval_a(term, state) == Final(result)
        for name in state.variables() | result.variables():
            assert result.get(name).stack == state.get(name).stack
            assert result.get(name).counter == 0

    @given(st.sampled_from("xyz"), wf_terms(names=("a", "b")), states)
    def test_loop_leader_cell_preserved(self, leader, body, state):
        loop = For(leader, body)
        before = state.get(leader)
        assert eval_r(loop, state).get(leader) == before
        flat = State({n: Cell(c.value, c.stack, 0) for n, c in state.as_dict().items()})
        assert eval_n(loop, flat).get(leader) == flat.get(leader)
        out = eval_a(loop, flat)
        if isinstance(out, Final):
            assert out.state.get(leader) == flat.get(leader)

    def test_injective_on_a_state_grid(self):
        # distinct initial states never collide after a run
        program = parse("POP x; PUSH y; INC x")
        grid = []
        for value in (-1, 0, 1):
            for stack in ((), (1,)):
                for counter in (0, 1):
                    grid.append(Cell(value, stack, counter))
        images = {}
        for cx in grid:
            for cy in grid:
                initial = State({"x": cx, "y": cy})
                image = eval_r(program, initial)
                assert image not in images, (images[image], initial)
                images[image] = initial

    def test_terminates_on_large_loop_counts(self):
        out = eval_r(parse("FOR x {INC y}"), State({"x": Cell(20000)}))
        assert out.get("y") == Cell(20000)


class TestTracedEvaluation:
    def test_single_step(self):
        steps, final = eval_traced(parse("INC x"), State(), "r")
        assert len(steps) == 1
        assert steps[0].instruction == "INC x"
        assert steps[0].variable == "x"
        assert steps[0].index == 0
        assert steps[0].state == Cell(1)
        assert final == State({"x": Cell(1)})

    def test_loop_unfolds(self):
        steps, final = eval_traced(parse("FOR x {INC y}"), State({"x": Cell(2)}), "r")
        assert [s.instruction for s in steps] == ["INC y", "INC y"]
        assert [s.state for s in steps] == [Cell(1), Cell(2)]
        assert final == State({"x": Cell(2), "y": Cell(2)})

    def test_negative_loop_shows_inverted_instructions(self):
        steps, _ = eval_traced(parse("FOR x {INC y}"), State({"x": Cell(-2)}), "n")
        assert [s.instruction for s in steps] == ["DEC y", "DEC y"]

    def test_abort_snapshot(self):
        steps, final = eval_traced(parse("POP x"), State({"x": Cell(5, (2,), 0)}), "a")
        assert len(steps) == 1
        assert steps[0].abort is not None
        assert steps[0].abort.reason == "value-nonzero"
        assert steps[0].state is None
        assert final is None

    def test_skip_leaves_no_snapshot(self):
        assert eval_traced(Skip(), State(), "r") == ([], State())
        assert eval_traced(parse("SKIP; SKIP"), State(), "a") == ([], State())

    def test_unknown_semantics_rejected(self):
        with pytest.raises(ValueError):
            eval_traced(Skip(), State(), "q")

    def test_ill_formed_program_refused_before_its_semantics(self):
        # the program is compiled first, as `compile_program(t).run(s, "q")` does
        with pytest.raises(IllFormedProgramError):
            eval_traced(For("x", Inc("x")), State(), "q")

    @settings(max_examples=50)
    @given(wf_terms(), states)
    def test_last_snapshot_matches_eval_r(self, term, state):
        steps, final = eval_traced(term, state, "r")
        assert final == eval_r(term, state)
        if steps:
            assert steps[-1].state == final.get(steps[-1].variable)

    @settings(max_examples=50)
    @given(wf_terms(), flat_states)
    def test_trace_indices_are_sequential(self, term, state):
        steps, _ = eval_traced(term, state, "a")
        assert [s.index for s in steps] == list(range(len(steps)))
