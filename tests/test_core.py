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
    For,
    GenConfig,
    Inc,
    Pop,
    Push,
    Seq,
    State,
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
    expected = ref_eval_traced(term, state, semantics)
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
