"""The compiled evaluator core against the tree walker it replaced."""

import random
import sys

import pytest
from hypothesis import given, settings

import scorelang
from scorelang import (
    AbortRecord,
    Aborted,
    Cell,
    Final,
    For,
    GenConfig,
    Inc,
    Pop,
    Program,
    Push,
    Seq,
    State,
    compile_program,
    eval_a,
    eval_n,
    eval_r,
    eval_traced,
    gen_state,
    gen_term,
    invert,
    parse,
    variables_of,
    zero_counters,
)
from reference_walker import ref_eval_a, ref_eval_n, ref_eval_r, ref_eval_traced
from term_strategies import states, wf_terms


def assert_same_trace(term, state, semantics):
    steps, final = eval_traced(term, state, semantics)
    assert_trace_matches(steps, final, ref_eval_traced(term, state, semantics), state)


def assert_trace_matches(steps, final, expected, state):
    """`steps` and `final` of a traced run from `state` match the reference
    walker's snapshots `expected`."""
    assert [(s.index, s.instruction, s.variable, s.abort) for s in steps] == [
        (e.index, e.instruction, e.variable, e.abort) for e in expected
    ]
    for step, snapshot in zip(steps, expected):
        touched = None if snapshot.state is None else snapshot.state.get(snapshot.variable)
        assert step.state == touched
    if expected and expected[-1].abort is not None:
        assert final is None
    else:
        assert final == (expected[-1].state if expected else state)


def assert_matches_reference(term, full, flat):
    """Every evaluator on `term` from the counter-free `flat` state, and the
    reversible ones also from `full`, agree with the reference walker."""
    assert eval_n(term, flat) == ref_eval_n(term, flat)
    assert eval_a(term, flat) == ref_eval_a(term, flat)  # the whole AbortRecord too
    assert eval_r(term, flat) == ref_eval_r(term, flat)
    assert eval_r(term, full) == ref_eval_r(term, full)
    for semantics in "na":
        assert_same_trace(term, flat, semantics)
    assert_same_trace(term, full, "r")


def fuzz_corpus(cfg, cases):
    """The (program, state, counter-free state) triples `run_fuzz` draws."""
    master = random.Random(cfg.seed)
    for _ in range(cases):
        rng = random.Random(master.getrandbits(64))
        program = gen_term(cfg, rng=rng)
        full = gen_state(cfg, variables_of(program), rng=rng)
        yield program, full, zero_counters(full)


class TestAgainstReferenceWalker:
    @settings(max_examples=200)
    @given(wf_terms(), states)
    def test_hypothesis_terms(self, term, full):
        flat = zero_counters(full)
        assert_matches_reference(term, full, flat)
        assert_matches_reference(Seq(term, invert(term)), full, flat)

    def test_fuzz_corpus(self):
        aborted = 0
        for program, full, flat in fuzz_corpus(GenConfig(), 2000):
            assert_matches_reference(program, full, flat)
            assert eval_a(invert(program), flat) == ref_eval_a(invert(program), flat)
            aborted += isinstance(eval_a(program, flat), Aborted)
        assert 0 < aborted < 2000  # both outcomes of the assert semantics were compared

    def test_abort_position_inside_nested_loops(self):
        # the abort comes in the fourth outer iteration, after inner loops of
        # growing length have run
        program = parse("FOR n { INC m; FOR m { INC y; PUSH z }; INC w; POP x; PUSH x; POP x }")
        state = State({"n": Cell(5), "x": Cell(0, (0, 0, 7), 0)})
        outcome = eval_a(program, state)
        assert outcome == ref_eval_a(program, state)
        assert isinstance(outcome, Aborted)
        assert_same_trace(program, state, "a")


REFERENCE = {"n": ref_eval_n, "a": ref_eval_a, "r": ref_eval_r}
# What each pass order of `Program.run` runs, spelled out as one term.
SPELLED = {
    "+": lambda t: t,
    "-": invert,
    "+-": lambda t: Seq(t, invert(t)),
    "-+": lambda t: Seq(invert(t), t),
}


def assert_runs_match_reference(term, states, semantics_order="nar"):
    """One Program of `term` runs every state in turn, under each semantics
    (in `semantics_order`) and pass order, untraced and traced, and each
    run agrees with the reference walker on the term the passes spell out.
    The pair semantics see the states with counters zeroed."""
    program = compile_program(term)
    for semantics in semantics_order:
        for order, spell in SPELLED.items():
            spelled = spell(term)
            for state in states:
                start = state if semantics == "r" else zero_counters(state)
                expected = REFERENCE[semantics](spelled, start)
                outcome = program.run(start, semantics, order)
                assert outcome == (expected if semantics == "a" else Final(expected))
                steps = []
                outcome = program.run(start, semantics, order, steps)
                final = None if isinstance(outcome, Aborted) else outcome.state
                assert_trace_matches(steps, final, ref_eval_traced(spelled, start, semantics), start)


class TestOneProgramManyStates:
    def test_fuzz_programs(self):
        cfg = GenConfig(seed=8)
        rng = random.Random(8)
        for program, full, _ in fuzz_corpus(cfg, 120):
            names = compile_program(program).variables
            assert_runs_match_reference(program, [full, *(gen_state(cfg, names, rng) for _ in range(3))])

    def test_loops_first_entered_in_a_later_run(self):
        # The first state enters no loop.  The later ones enter the inner
        # loops, one of them first negatively, whose names occur nowhere
        # else, so their blocks are compiled by a later run than the first.
        program = parse("FOR n { FOR m { INC y; PUSH z }; FOR k { POP w; DEC v } }; INC u")
        states = [
            State(),
            State({"n": Cell(1), "k": Cell(-2), "w": Cell(3, (1,), 0)}),
            State({"n": Cell(2), "m": Cell(3), "k": Cell(1), "w": Cell(0, (4, 5), 1)}),
            State({"n": Cell(-2), "m": Cell(-1), "k": Cell(2), "z": Cell(0, (1, 2, 3), 2)}),
        ]
        assert compile_program(program).variables == ("n", "m", "y", "z", "k", "w", "v", "u")
        assert_runs_match_reference(program, states)

    def test_loops_first_entered_by_an_aborting_assert_run(self):
        # The semantics run in the order a, r, n, so assert runs compile
        # every block first, some of them in a run that aborts in the block
        # (POP w in k's body, POP z in m's inverted body); the r and n runs
        # then reuse those blocks and take their own illegal pops.
        program = parse("FOR n { FOR m { INC y; PUSH z }; FOR k { POP w; DEC v } }; INC u")
        states = [
            State(),
            State({"n": Cell(1), "k": Cell(2), "w": Cell(3, (1,), 0)}),
            State({"n": Cell(-1), "m": Cell(2), "k": Cell(-1), "z": Cell(0, (7,), 0)}),
            State({"n": Cell(2), "m": Cell(-1), "k": Cell(1), "w": Cell(0, (4, 5), 1)}),
        ]
        assert_runs_match_reference(program, states, "arn")

    def test_abort_positions_inside_nested_loops(self):
        # y's stack of -1s feeds the inner loop's POP y until it runs out,
        # and negative counts run inverted bodies, whose POP z runs out
        # instead, so each state but the last aborts at another POP, in
        # another iteration of the outer and the inner loops
        program = parse("FOR n { INC m; FOR m { POP y; INC y; PUSH z }; INC w; POP x; PUSH x; POP x }")
        x = Cell(0, (0,) * 6, 0)
        states = [
            State({"n": Cell(5), "x": x, "y": Cell(0, (-1,) * 4, 0)}),
            State({"n": Cell(5), "x": x, "y": Cell(0, (-1,) * 8, 0)}),
            State({"n": Cell(3), "m": Cell(-3), "x": x, "z": Cell(0, (0, 0), 0)}),
            State({"n": Cell(2), "x": Cell(1), "y": Cell(0, (-1,), 0)}),
            State({"n": Cell(-2), "m": Cell(2), "x": x, "z": Cell(0, (0, 0), 0)}),
            State({"n": Cell(2), "x": x, "y": Cell(0, (-1,) * 3, 0)}),
        ]
        runs = compile_program(program)
        outcomes = [runs.run(state, "a") for state in states]
        positions = [o.record.trace_position for o in outcomes if isinstance(o, Aborted)]
        assert len(set(positions)) == len(positions) == 5
        assert_runs_match_reference(program, states)

    @pytest.mark.parametrize(("semantics", "order"), [("q", "+"), ("r", "+x"), ("a", "*")])
    def test_rejects_unknown_semantics_and_passes(self, semantics, order):
        with pytest.raises(ValueError):
            compile_program(Inc("x")).run(State(), semantics, order)


def nest(leaders, body):
    for leader in reversed(leaders):
        body = For(leader, body)
    return body


class TestLoopCompilation:
    @pytest.mark.parametrize("signs", ["positive", "alternating"])
    def test_deep_nest_compiles_each_direction_once(self, signs):
        # compiling both directions of every loop eagerly would take 2**60 steps
        leaders = [f"a{i}" for i in range(60)]
        values = [1 if signs == "positive" or i % 2 else -1 for i in range(60)]
        program = nest(leaders, Seq(Inc("x"), Push("y")))
        state = State({name: Cell(v) for name, v in zip(leaders, values)})
        assert_matches_reference(program, state, state)

    def test_negative_inner_loop_makes_no_invert_calls(self, monkeypatch):
        program = parse("FOR m { FOR k { INC x; PUSH y; POP z; DEC w } }")
        state = State({"m": Cell(3), "k": Cell(-2), "z": Cell(0, (1, 2, 3, 4, 5, 6), 0)})
        expected = {
            "n": ref_eval_n(program, state),
            "a": ref_eval_a(program, state),
            "r": ref_eval_r(program, state),
        }
        calls = []
        real = scorelang.syntax.invert

        def counting(term):
            calls.append(term)
            return real(term)

        for name, module in list(sys.modules.items()):
            if name.startswith("scorelang") and getattr(module, "invert", None) is real:
                monkeypatch.setattr(module, "invert", counting)
        got = {"n": eval_n(program, state), "a": eval_a(program, state), "r": eval_r(program, state)}
        for semantics in "nar":
            eval_traced(program, state, semantics)
        assert got == expected
        assert calls == []


@pytest.fixture
def compiled_blocks(monkeypatch):
    """The (term id, block index) of every block compiled while it is in use."""
    compiled = []
    real = Program._compile

    def logged(self, term, index):
        compiled.append((id(term), index))
        return real(self, term, index)

    monkeypatch.setattr(Program, "_compile", logged)
    return compiled


class TestSharedBlocks:
    """A Program compiles each (node, direction, traced) block once, for all
    three semantics."""

    def test_each_block_compiles_once_for_all_semantics(self, compiled_blocks):
        # Every POP is legal, so the three semantics run the same steps: the
        # first enters every loop the others do.  Forward, m's count of -1
        # runs its body inverted; backward, inside n's inverted body, forward.
        program = compile_program(parse("FOR n { INC x; FOR m { POP y; PUSH y } }; PUSH z; POP z"))
        state = State({"n": Cell(2), "m": Cell(-1), "y": Cell(0, (1,), 0)})
        for trace in (None, []):
            for order in "+-":
                for semantics in "nar":
                    before = len(compiled_blocks)
                    assert isinstance(program.run(state, semantics, order, trace), Final)
                    assert semantics == "n" or len(compiled_blocks) == before
        # the program, n's loop and m's loop, both directions, plain and traced
        assert len(compiled_blocks) == len(set(compiled_blocks)) == 3 * 2 * 2

    def test_blocks_compiled_by_an_aborting_run_are_reused(self, compiled_blocks):
        # the assert run aborts at POP w inside k's body, which it compiled;
        # the other two run past that POP through the same block
        program = compile_program(parse("FOR n { FOR m { INC y; PUSH z }; FOR k { POP w; DEC v } }; INC u"))
        state = State({"n": Cell(1), "k": Cell(2), "w": Cell(3, (1,), 0)})
        assert isinstance(program.run(state, "a"), Aborted)
        n_body = program.term.parts[0].body
        assert compiled_blocks == [(id(program.term), 0), (id(n_body), 0), (id(n_body.parts[1].body), 0)]
        agreed = {"n": Cell(1), "k": Cell(2), "u": Cell(1), "v": Cell(-2)}  # w alone differs
        assert program.run(state, "r").state == State({**agreed, "w": Cell(3, (1,), 2)})
        assert program.run(state, "n").state == State(agreed)
        assert len(compiled_blocks) == 3


class TestDeepNests:
    """A nest far deeper than Python's recursion limit runs, since a loop
    entry pushes a frame instead of recursing.  The outermost loop runs
    twice, every other once; the second POP y meets a nonzero value."""

    DEPTH = 2_000

    def setup_method(self):
        leaders = [f"a{i}" for i in range(self.DEPTH)]
        self.program = nest(leaders, Seq(Inc("x"), Pop("y")))
        self.state = State({"y": Cell(0, (7,), 0), "a0": Cell(2), **{name: Cell(1) for name in leaders[1:]}})

    def test_each_semantics(self):
        assert eval_n(self.program, self.state) == self.state.set("x", Cell(2)).set("y", Cell(0))
        assert eval_r(self.program, self.state) == self.state.set("x", Cell(2)).set("y", Cell(7, (), 1))
        record = AbortRecord("POP y", "y", "value-nonzero", Cell(7), 3)
        assert eval_a(self.program, self.state) == Aborted(record)

    def test_traced(self):
        steps, final = eval_traced(self.program, self.state, "a")
        assert [(s.index, s.instruction) for s in steps] == [(0, "INC x"), (1, "POP y"), (2, "INC x"), (3, "POP y")]
        assert final is None
        steps, final = eval_traced(self.program, self.state, "r")
        assert [s.state for s in steps] == [Cell(1), Cell(7), Cell(2), Cell(7, (), 1)]
        assert final == eval_r(self.program, self.state)
