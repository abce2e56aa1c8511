"""The compiled evaluator core against the tree walker it replaced."""

import builtins
import copy
import dataclasses
import pickle
import random
import sys
from dataclasses import FrozenInstanceError, fields

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import scorelang
import scorelang.semantics as core
from scorelang import (
    AbortRecord,
    Aborted,
    Cell,
    Dec,
    Final,
    For,
    GenConfig,
    IllFormedProgramError,
    Inc,
    Pop,
    Push,
    Seq,
    Skip,
    State,
    TraceStep,
    check_well_formed,
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
from scorelang.syntax import Violation, _parts
import reference_frontend as ref
from reference_walker import ref_eval_a, ref_eval_n, ref_eval_r, ref_eval_traced, ref_idle_loops
from term_strategies import leader_reusing_terms, raw_terms, states, wf_terms


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


# The hypothesis tests that compare whole runs with the reference walker
# set this deadline per example, in ms.  Their slowest example measured,
# INC x; FOR y { INC z }; FOR x { INC y } inside a 2 x 3 x 3 perfect nest in
# `TestPerfectNests.test_hypothesis_terms`, took 0.31-0.66 s (Python 3.11,
# a 2-core Xeon), and on a loaded machine two trivial examples took 0.36 and
# 0.40 s, past hypothesis's default of 200 ms.  The deadline limits only
# how long a test runs; it checks nothing the program computes.
SLOW_EXAMPLE_DEADLINE = 2_000


def fuzz_corpus(cfg, cases):
    """The (program, state, counter-free state) triples `run_fuzz` draws."""
    master = random.Random(cfg.seed)
    for _ in range(cases):
        rng = random.Random(master.getrandbits(64))
        program = gen_term(cfg, rng=rng)
        full = gen_state(cfg, variables_of(program), rng=rng)
        yield program, full, zero_counters(full)


class TestAgainstReferenceWalker:
    @settings(max_examples=200, deadline=SLOW_EXAMPLE_DEADLINE)
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


def observed_run(program, state, semantics, order="+"):
    """The steps and final state of a run of `program` whose observer
    records each call as a constructor-built TraceStep; an abort ends the
    steps with one built from the record, and the final state is None."""
    steps = []

    def observe(instruction, name, value, stack, counter):
        steps.append(TraceStep(len(steps), instruction, name, Cell(value, tuple(reversed(stack)), counter)))

    outcome = program.run(state, semantics, order, observe)
    if isinstance(outcome, Final):
        return steps, outcome.state
    record = outcome.record
    steps.append(TraceStep(record.trace_position, record.instruction, record.variable, None, record))
    return steps, None


def assert_runs_match_reference(term, states, semantics_order="nar"):
    """One Program of `term` runs every state in turn, under each semantics
    (in `semantics_order`) and pass order, untraced and observed, and each
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
                steps, final = observed_run(program, start, semantics, order)
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


def caches_of(cache):
    """The caches of the loop entries in `cache`'s forward block, in order:
    each loop entry's own."""
    return [arg[1] for op, arg in cache[0][0] if op == core._LOOP]


def loop_caches(program):
    """Every cache of `program`, the whole program's first, reached through
    the forward blocks, where every loop entry of the program sits."""
    found, todo = [], [program._top]
    while todo:
        cache = todo.pop()
        found.append(cache)
        todo += reversed(caches_of(cache))
    return found


def forward_blocks(program):
    """The forward block of each of `program`'s caches, by `loop_caches`."""
    return [cache[0][0] for cache in loop_caches(program)]


@pytest.fixture
def derived(monkeypatch):
    """The cache of every inverted plan derived while the fixture is in use."""
    caches = []
    real = core._inverted_plan

    def logged(cache):
        caches.append(cache)
        return real(cache)

    monkeypatch.setattr(core, "_inverted_plan", logged)
    return caches


def assert_derived_once(program, derived):
    """Each cache of `program` had its inverted plan derived at most once,
    and holds the plan derived; the caches no run entered inverted hold
    none.  Returns how many were derived."""
    ids = [id(cache) for cache in derived]
    assert len(ids) == len(set(ids))
    for cache in loop_caches(program):
        assert (cache[1] is not None) == (id(cache) in ids)
    return len(ids)


class TestSharedBlocks:
    """`compile_program` builds each forward block once, and a Program
    derives each loop's inverted block at most once, for all three
    semantics, traced and untraced runs alike."""

    def test_each_block_compiles_once_for_all_semantics(self, derived):
        # Every POP is legal, so the three semantics run the same steps: the
        # first enters every loop the others do.  Forward, m's count of -1
        # runs its body inverted; backward, inside n's inverted body, forward.
        program = compile_program(parse("FOR n { INC x; FOR m { POP y; PUSH y } }; PUSH z; POP z"))
        blocks = forward_blocks(program)
        assert len(blocks) == 3  # the program, n's loop and m's loop
        state = State({"n": Cell(2), "m": Cell(-1), "y": Cell(0, (1,), 0)})
        for observe in (None, lambda *step: None):
            for order in "+-":
                for semantics in "nar":
                    before = len(derived)
                    assert isinstance(program.run(state, semantics, order, observe), Final)
                    assert semantics == "n" or len(derived) == before
        # the inverted blocks of all three, which the traced runs share
        # with the untraced ones, and the forward blocks built at compile
        assert assert_derived_once(program, derived) == 3
        assert list(map(id, forward_blocks(program))) == list(map(id, blocks))

    def test_blocks_compiled_by_an_aborting_run_are_reused(self, derived):
        # the assert run aborts at POP w inside k's inverted body, which it
        # derived; the other two run past that POP through the same block
        program = compile_program(parse("FOR n { FOR m { INC y; PUSH z }; FOR k { PUSH w; DEC v } }; INC u"))
        blocks = forward_blocks(program)
        state = State({"n": Cell(1), "k": Cell(-2), "w": Cell(3, (1,), 0)})
        assert isinstance(program.run(state, "a"), Aborted)
        k_cache = caches_of(caches_of(program._top)[0])[1]
        assert derived == [k_cache]
        agreed = {"n": Cell(1), "k": Cell(-2), "u": Cell(1), "v": Cell(2)}  # w alone differs
        assert program.run(state, "r").state == State({**agreed, "w": Cell(3, (1,), 2)})
        assert program.run(state, "n").state == State(agreed)
        assert derived == [k_cache]
        assert list(map(id, forward_blocks(program))) == list(map(id, blocks))

    def test_traced_runs_compile_the_blocks_untraced_runs_reuse(self, derived):
        # the traced runs enter every loop both ways: m's count of -1 runs
        # its body inverted inside n's forward body, and forward inside n's
        # inverted one, and k's loop runs in both passes
        program = compile_program(parse("FOR n { INC x; FOR m { POP y; PUSH y } }; FOR k { DEC z }"))
        blocks = forward_blocks(program)
        state = State({"n": Cell(2), "m": Cell(-1), "k": Cell(3), "y": Cell(0, (1,), 0)})
        for semantics in "nar":
            observed_run(program, state, semantics, "+-")
        # the program, n's, m's and k's loops, both directions
        assert len(blocks) == assert_derived_once(program, derived) == 4
        for semantics in "nar":
            for order in SPELLED:
                assert isinstance(program.run(state, semantics, order), Final)
        assert len(derived) == 4
        assert list(map(id, forward_blocks(program))) == list(map(id, blocks))

    def test_forward_blocks_are_built_once_by_compile_program(self, monkeypatch, derived):
        # A spy on `tuple`, which makes each block from its list of entries,
        # sees compile_program build one forward block per loop that has an
        # entry, and one for the program; i's idle body makes an empty one,
        # which gets no entry.  No run builds a block of its own, and each
        # inverted block is derived once, for every semantics and pass
        # order, observed and not.
        built = []

        def spy(*args):
            built.append(builtins.tuple(*args))
            return built[-1]

        term = parse("FOR n { INC x; FOR m { POP y; PUSH y }; FOR i { SKIP } }; PUSH z; FOR k { DEC w }; POP z")
        with monkeypatch.context() as patch:
            patch.setattr(core, "tuple", spy, raising=False)
            program = compile_program(term)
        blocks = [made for made in built if made and type(made[0]) is tuple]  # not the names' tuple
        assert len(blocks) == 4 and () in built
        assert sorted(map(id, blocks)) == sorted(map(id, forward_blocks(program)))
        state = State({"n": Cell(2), "m": Cell(-1), "k": Cell(-3), "y": Cell(0, (1,), 0)})
        for semantics in "nar":
            for order in SPELLED:
                for observe in (None, lambda *step: None):
                    assert isinstance(program.run(state, semantics, order, observe), Final)
        assert assert_derived_once(program, derived) == 4
        assert sorted(map(id, blocks)) == sorted(map(id, forward_blocks(program)))


class TestTraceSteps:
    """`eval_traced`'s steps are the frozen values the constructor builds."""

    PROGRAM = parse("INC x; PUSH x; FOR n { INC y; PUSH y }; POP z")
    STATE = State({"n": Cell(2), "y": Cell(0, (9,), 0), "z": Cell(5, (4,), 0)})
    COMMON = [
        TraceStep(0, "INC x", "x", Cell(1)),
        TraceStep(1, "PUSH x", "x", Cell(0, (1,), 0)),
        TraceStep(2, "INC y", "y", Cell(1, (9,), 0)),
        TraceStep(3, "PUSH y", "y", Cell(0, (1, 9), 0)),
        TraceStep(4, "INC y", "y", Cell(1, (1, 9), 0)),
        TraceStep(5, "PUSH y", "y", Cell(0, (1, 1, 9), 0)),
    ]
    LAST = {  # the illegal POP z: its value is nonzero
        "n": TraceStep(6, "POP z", "z", Cell(4)),
        "a": TraceStep(6, "POP z", "z", None, AbortRecord("POP z", "z", "value-nonzero", Cell(5, (4,), 0), 6)),
        "r": TraceStep(6, "POP z", "z", Cell(5, (4,), 1)),
    }

    @pytest.mark.parametrize("semantics", "nar")
    def test_steps_equal_and_hash_as_constructed(self, semantics):
        steps, _ = eval_traced(self.PROGRAM, self.STATE, semantics)
        expected = [*self.COMMON, self.LAST[semantics]]
        assert steps == expected
        assert list(map(hash, steps)) == list(map(hash, expected))
        assert all(type(step) is TraceStep for step in steps)

    @pytest.mark.parametrize("semantics", "nar")
    def test_steps_are_frozen(self, semantics):
        steps, _ = eval_traced(self.PROGRAM, self.STATE, semantics)
        for step in steps:
            for field in fields(TraceStep):
                with pytest.raises(FrozenInstanceError):
                    setattr(step, field.name, None)

    @pytest.mark.parametrize("semantics", "nar")
    def test_stacks_are_tuples_top_first(self, semantics):
        steps, _ = eval_traced(self.PROGRAM, self.STATE, semantics)
        cells = [step.state for step in steps if step.abort is None]
        assert all(type(cell) is Cell and type(cell.stack) is tuple for cell in cells)
        assert steps[3].state.stack[0] == 1  # the value PUSH y saved last is on top


_RECORD = AbortRecord("POP x", "x", "empty-stack", Cell(0), 3)
_RECORD_TEXT = (
    "AbortRecord(instruction='POP x', variable='x', reason='empty-stack', "
    "observed=Cell(value=0, stack=(), counter=0), trace_position=3)"
)
# A value of each slotted frozen dataclass, made anew on each call, and its repr.
FROZEN_VALUES = [
    (Skip, "Skip()"),
    (lambda: Inc("x"), "Inc(var='x')"),
    (lambda: Dec("x"), "Dec(var='x')"),
    (lambda: Push("x"), "Push(var='x')"),
    (lambda: Pop("x"), "Pop(var='x')"),
    (lambda: Seq(Skip(), Inc("x")), "Seq(parts=(Skip(), Inc(var='x')))"),
    (lambda: For("n", Push("x")), "For(leader='n', body=Push(var='x'))"),
    (lambda: Violation("n", ("body",)), "Violation(leader='n', path=('body',))"),
    (lambda: AbortRecord("POP x", "x", "empty-stack", Cell(0), 3), _RECORD_TEXT),
    (lambda: Final(State({"x": Cell(1)})), "Final(state=State({x: Cell(value=1, stack=(), counter=0)}))"),
    (lambda: Aborted(_RECORD), f"Aborted(record={_RECORD_TEXT})"),
    (
        lambda: TraceStep(0, "INC x", "x", Cell(1)),
        "TraceStep(index=0, instruction='INC x', variable='x', state=Cell(value=1, stack=(), counter=0), abort=None)",
    ),
]


@pytest.mark.parametrize(("make", "text"), FROZEN_VALUES, ids=[text.split("(")[0] for _, text in FROZEN_VALUES])
def test_frozen_values_refuse_every_attribute(make, text):
    """Assigning or deleting any attribute raises an AttributeError, and a
    field's raises FrozenInstanceError; repr, `==`, hash, pickling and
    `dataclasses.replace` work as a dataclass's do.  `dataclass(slots=True)`
    makes a new class, while the `__setattr__` and `__delattr__` it made
    before call `super()` with the old one, which raised TypeError."""
    value, twin = make(), make()
    with pytest.raises(AttributeError):
        value.other = 1
    with pytest.raises(AttributeError):
        del value.other
    for field in fields(value):
        with pytest.raises(FrozenInstanceError):
            setattr(value, field.name, getattr(value, field.name))
        with pytest.raises(FrozenInstanceError):
            delattr(value, field.name)
    assert repr(value) == text and value == twin and hash(value) == hash(twin)
    assert pickle.loads(pickle.dumps(value)) == value and copy.deepcopy(value) == value
    if type(value) is not Seq:  # Seq's own constructor takes its parts unnamed
        assert dataclasses.replace(value) == value


class TestObserver:
    """`Program.run` calls `observe` once per executed atom, with the live
    fields of the atom's cell, and not for an aborting POP; an exception
    from `observe` ends the run and leaves the program as it was."""

    PROGRAM = parse("FOR n { INC m; FOR m { INC y; PUSH z }; INC w; POP x; PUSH x; POP x }")
    STATE = State({"n": Cell(5), "x": Cell(0, (0, 0, 7), 0)})

    def test_aborting_run_calls_once_per_executed_atom(self):
        calls = []

        def observe(instruction, name, value, stack, counter):
            calls.append((instruction, name, Cell(value, tuple(reversed(stack)), counter)))

        outcome = compile_program(self.PROGRAM).run(self.STATE, "a", observe=observe)
        record = outcome.record
        expected = ref_eval_traced(self.PROGRAM, self.STATE, "a")
        assert len(calls) == record.trace_position == len(expected) - 1 > 0
        assert expected[-1].abort == record
        assert calls == [(e.instruction, e.variable, e.state.get(e.variable)) for e in expected[:-1]]

    def test_aborting_fuzz_runs(self):
        aborted = 0
        for program, _, flat in fuzz_corpus(GenConfig(seed=15), 400):
            calls = []
            outcome = compile_program(program).run(flat, "a", observe=lambda *call: calls.append(call[0]))
            if isinstance(outcome, Aborted):
                aborted += 1
                assert len(calls) == outcome.record.trace_position
                expected = ref_eval_traced(program, flat, "a")
                assert calls == [e.instruction for e in expected[:-1]]
        assert aborted > 20

    @pytest.mark.parametrize("semantics", "nar")
    def test_exception_from_observer_ends_the_run(self, semantics):
        class Stop(Exception):
            pass

        def observe(instruction, *cell):
            calls.append(instruction)
            if len(calls) == 4:
                raise Stop

        program = compile_program(self.PROGRAM)
        calls = []
        with pytest.raises(Stop):
            program.run(self.STATE, semantics, "+-", observe)
        assert calls == ["INC m", "INC y", "PUSH z", "INC w"]
        # later runs of the same program, untraced and traced, are those of
        # a fresh one
        fresh = compile_program(self.PROGRAM)
        for order in ("+", "-", "+-"):
            assert program.run(self.STATE, semantics, order) == fresh.run(self.STATE, semantics, order)
            traced = observed_run(program, self.STATE, semantics, order)
            assert traced == observed_run(fresh, self.STATE, semantics, order)


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


class TestIdleLoops:
    """A loop whose body holds no atom at any depth changes nothing, so it
    compiles to no entry, its body is never compiled, and its count, however
    large, costs nothing."""

    @pytest.mark.parametrize(
        "source", ["FOR n { SKIP }", "FOR n { FOR m { SKIP } }", "FOR n { SKIP; FOR m { FOR k { SKIP; SKIP } } }"]
    )
    @pytest.mark.parametrize("counts", [(10**18, 1 - 10**18, 10**18), (-(10**18), 1, -1)])
    def test_huge_counts_finish_at_once(self, source, counts):
        program = compile_program(parse(source))
        state = State({name: Cell(count) for name, count in zip("nmk", counts)})
        for semantics in "nar":
            for order in SPELLED:
                assert program.run(state, semantics, order) == Final(state)
                assert observed_run(program, state, semantics, order) == ([], state)

    def test_idle_loops_among_busy_ones(self):
        # the idle loops run no step, so the positions of the steps after
        # them, aborts included, do not depend on their counts
        program = parse("INC x; FOR n { FOR m { SKIP } }; FOR k { INC y; FOR n { SKIP } }; POP x")
        small = State({"n": Cell(3), "m": Cell(-2), "k": Cell(2), "x": Cell(-1, (5,), 0)})
        aborting = small.set("x", Cell(0, (5,), 0))
        assert_runs_match_reference(program, [small, aborting])
        runs = compile_program(program)
        for state in (small, aborting):
            huge = state.set("n", Cell(10**18))
            for semantics in "nar":
                expected = runs.run(state, semantics, "+-")
                if isinstance(expected, Final):
                    expected = Final(expected.state.set("n", Cell(10**18)))
                assert runs.run(huge, semantics, "+-") == expected

    def test_idle_bodies_are_never_compiled(self, derived):
        # n's loop and the n loop in k's body are idle and get no entry;
        # only the program's blocks and k's body's exist, in both
        # directions, once for traced and untraced runs
        program = compile_program(parse("FOR n { FOR m { SKIP } }; FOR k { INC y; FOR n { SKIP; SKIP } }"))
        state = State({"n": Cell(3), "m": Cell(-2), "k": Cell(2)})
        for observe in (None, lambda *step: None):
            for semantics in "nar":
                assert program.run(state, semantics, "+-", observe) == Final(state)
        caches = loop_caches(program)
        assert [len(block) for block in forward_blocks(program)] == [1, 1]  # k's entry; INC y
        assert assert_derived_once(program, derived) == len(caches) == 2


def assert_entries_follow(run, block, names, idle):
    """`block`, compiled forward from the run of parts `run`, holds one
    entry per atom of the run and per FOR node not in `idle`, in order,
    each with its part's opcode, name and atoms before it, and each loop
    entry's own cache holds its body's block likewise.  Returns the run's
    atom count."""
    parts = [t for t in _parts(run) if type(t) is not Skip and id(t) not in idle]
    assert len(block) == len(parts)
    atoms = 0
    for t, (op, arg) in zip(parts, block):
        if type(t) is For:
            leader, cache, index, before = arg
            assert (op, names[leader], index, before) == (core._LOOP, t.leader, 0, atoms)
            assert cache[0][1] == assert_entries_follow(t.body, cache[0][0], names, idle)
        else:
            assert op == core._FORWARD[type(t)]
            assert names[arg[0] if op == core._POP else arg] == t.var
            assert op != core._POP or arg[1] == atoms
            atoms += 1
    return atoms


class TestIdleLoopIds:
    """A FOR node gets a loop entry exactly when it is not one of the idle
    loops that a walk of each loop body finds, and `check_well_formed` and
    `variables_of` still find the violations and the names they did."""

    @staticmethod
    def assert_scan_matches(term):
        for relaxed in (False, True):
            assert check_well_formed(term, relaxed=relaxed) == ref.check_well_formed(term, relaxed=relaxed)
        assert variables_of(term) == frozenset(ref.variables_in_order(term))
        if not ref.check_well_formed(term):
            program = compile_program(term)
            assert program.variables == ref.variables_in_order(term)
            block, atoms, _ = program._top[0]
            assert atoms == assert_entries_follow(term, block, program.variables, ref_idle_loops(term))

    @settings(max_examples=300)
    @given(st.one_of(wf_terms(max_depth=6), raw_terms(max_depth=6)))
    def test_hypothesis_terms(self, term):
        self.assert_scan_matches(term)

    def test_fuzz_corpus(self):
        for program, _, _ in fuzz_corpus(GenConfig(seed=17), 500):
            self.assert_scan_matches(program)
            self.assert_scan_matches(invert(program))

    def test_nested_shared_and_among_busy_loops(self):
        inner = For("m", Seq(Skip(), Skip()))
        outer = For("n", Seq(Skip(), inner))  # idle, holding an idle loop
        busy = For("k", Seq(Inc("x"), For("j", Skip())))  # busy, holding an idle loop
        shared = For("j", Seq(Push("y"), For("i", Skip())))  # one node at two places
        term = Seq(outer, busy, shared, For("w", Seq(shared, inner)))
        assert ref_idle_loops(term) == {id(inner), id(outer), id(busy.body.parts[1]), id(shared.body.parts[1])}
        self.assert_scan_matches(term)
        # busy, shared and w's loop; shared again in w's body, with a cache
        # of its own
        program = compile_program(term)
        top = caches_of(program._top)
        assert len(top) == 3 and len(caches_of(top[0])) == len(caches_of(top[1])) == 0
        assert caches_of(top[2])[0] is not top[1]
        assert len(loop_caches(program)) == 1 + 4


def assert_derived_like_inverse(cache, inverse_cache, names, inverse_names):
    """The inverted plan of `cache`, derived from its forward block, matches
    entry for entry the forward block of `inverse_cache`, the same loop's
    in the inverse program: the same opcodes and atoms before each POP and
    loop entry, slots read back as the same names, and each loop entry's
    own inverted plan matching its counterpart's forward block in turn."""
    derived, atoms, _ = cache[1] or core._inverted_plan(cache)
    forward, inverse_atoms, _ = inverse_cache[0]
    assert atoms == inverse_atoms and len(derived) == len(forward)
    for (op, arg), (inverse_op, inverse_arg) in zip(derived, forward):
        assert op == inverse_op
        if op == core._LOOP:
            leader, inner, index, before = arg
            inverse_leader, inverse_inner, inverse_index, inverse_before = inverse_arg
            assert (names[leader], index, before) == (inverse_names[inverse_leader], 1, inverse_before)
            assert inverse_index == 0
            assert_derived_like_inverse(inner, inverse_inner, names, inverse_names)
        elif op == core._POP:
            assert (names[arg[0]], arg[1]) == (inverse_names[inverse_arg[0]], inverse_arg[1])
        else:
            assert names[arg] == inverse_names[inverse_arg]


class TestDerivedInvertedBlocks:
    """Each loop's inverted block, derived from its forward block, is the
    block that compiling the inverted term gives the same loop, and a
    backward assert run aborts as the inverted term does."""

    @staticmethod
    def assert_derived_matches(term, flat):
        inverted = invert(term)
        program, inverse = compile_program(term), compile_program(inverted)
        # the loop entries of the inverse's forward blocks sit at the FOR
        # nodes of the inverted term, so the derived blocks' sit at the
        # same loops of this one
        block, atoms, _ = inverse._top[0]
        assert atoms == assert_entries_follow(inverted, block, inverse.variables, ref_idle_loops(inverted))
        assert_derived_like_inverse(program._top, inverse._top, program.variables, inverse.variables)
        assert program.run(flat, "a", "-") == ref_eval_a(inverted, flat)

    @settings(max_examples=300, deadline=SLOW_EXAMPLE_DEADLINE)
    @given(wf_terms(max_depth=6), states)
    def test_hypothesis_terms(self, term, full):
        self.assert_derived_matches(term, zero_counters(full))

    def test_fuzz_corpus(self):
        aborted = 0
        for program, _, flat in fuzz_corpus(GenConfig(seed=49), 1000):
            self.assert_derived_matches(program, flat)
            aborted += isinstance(compile_program(program).run(flat, "a", "-"), Aborted)
        assert 0 < aborted < 1000  # both outcomes of the backward assert run were compared


class TestRefusal:
    """`compile_program` detects the proviso in its own walk, and refuses a
    term exactly when `check_well_formed` reports a violation, with the
    same violations and message."""

    @staticmethod
    def refused(term):
        """Whether `compile_program` refused `term`, having checked that it
        did so exactly as `check_well_formed` reports."""
        violations = check_well_formed(term)
        if not violations:
            assert compile_program(term).term is term
            return False
        with pytest.raises(IllFormedProgramError) as refusal:
            compile_program(term)
        assert refusal.value.violations == violations
        assert str(refusal.value) == str(IllFormedProgramError(violations))
        return True

    @settings(max_examples=300)
    @given(st.one_of(raw_terms(max_depth=5), wf_terms(max_depth=5)))
    def test_hypothesis_terms(self, term):
        self.refused(term)

    @settings(max_examples=300)
    @given(leader_reusing_terms())
    def test_leaders_reused_in_their_loops(self, term):
        assert self.refused(term)


def logged_blocks(monkeypatch, name):
    """The blocks that the core's function `name` is called with while
    `monkeypatch` holds."""
    blocks = []
    real = getattr(core, name)

    def logged(block):
        blocks.append(block)
        return real(block)

    monkeypatch.setattr(core, name, logged)
    return blocks


@pytest.fixture
def planned(monkeypatch):
    """The blocks that `_leaf_function` is asked to make a run for while
    the fixture is in use."""
    return logged_blocks(monkeypatch, "_leaf_function")


@pytest.fixture
def hot(monkeypatch, planned):
    """`planned`, with every loop hot from its first entry."""
    monkeypatch.setattr(core, "_HOT", 0)
    return planned


BIG = 10**30


def nest_blocks(blocks):
    """Whether each of `blocks` holds a loop entry."""
    return [any(op == core._LOOP for op, _ in block) for block in blocks]


class TestLeafFunctions:
    """Untraced runs of hot leaf loops whose atoms keep no POP run in
    closed form; every other block steps.  With the heat threshold at 0
    every loop gets its run from its first entry, and every run still
    agrees with the reference walker."""

    def test_fuzz_corpus(self, hot):
        cfg = GenConfig(seed=12)
        rng = random.Random(12)
        for program, full, _ in fuzz_corpus(cfg, 500):
            names = compile_program(program).variables
            assert_runs_match_reference(program, [full, *(gen_state(cfg, names, rng) for _ in range(2))])
        assert hot

    @settings(max_examples=100, deadline=SLOW_EXAMPLE_DEADLINE)
    @given(wf_terms(), states)
    def test_hypothesis_terms(self, term, full):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "_HOT", 0)
            assert_runs_match_reference(term, [full])

    def test_no_run_makes_code(self, hot, monkeypatch):
        # every hot leaf runs in closed form or steps, so no run compiles
        # or executes source text
        def refuse(*args):
            raise AssertionError("a run made code")

        monkeypatch.setattr(core, "exec", refuse, raising=False)
        monkeypatch.setattr(core, "compile", refuse, raising=False)
        for program, full, _ in fuzz_corpus(GenConfig(seed=24), 300):
            assert_runs_match_reference(program, [full])
        assert hot

    def test_abort_positions_inside_leaf_loops(self, hot):
        # k's leaf loop runs forward (POP y runs out) or inverted (POP w
        # runs out), inside n's loop run forward or inverted, so each state
        # aborts in another iteration of both loops
        program = parse("FOR n { INC v; FOR k { INC x; POP y; PUSH w }; DEC u }")
        zeros = Cell(0, (0,) * 6, 0)
        states = [
            State({"n": Cell(3), "k": Cell(4), "y": zeros}),
            State({"n": Cell(3), "k": Cell(4), "y": Cell(0, (0,) * 9, 0)}),
            State({"n": Cell(3), "k": Cell(-4), "w": Cell(0, (0,) * 5, 0)}),
            State({"n": Cell(-2), "k": Cell(3), "w": Cell(0, (0,) * 4, 0)}),
            State({"n": Cell(-3), "k": Cell(-2), "y": Cell(0, (0, 0, 0), 0)}),
        ]
        runs = compile_program(program)
        positions = [runs.run(state, "a").record.trace_position for state in states]
        assert len(set(positions)) == len(positions)
        assert_runs_match_reference(program, states)
        assert hot

    def test_big_values(self, hot):
        program = parse("FOR n { INC x; PUSH x; POP y; DEC z; FOR k { POP z; INC w; PUSH z; DEC x } }")
        states = [
            State({"n": Cell(3), "k": Cell(2), "x": Cell(BIG, (BIG, -BIG), 0), "y": Cell(0, (BIG,) * 3, 0)}),
            State({"n": Cell(2), "k": Cell(-3), "z": Cell(-BIG, (0, BIG), 1), "w": Cell(BIG - 1, (-BIG,), 2)}),
            State({"n": Cell(-3), "k": Cell(1), "x": Cell(-BIG, (), 3), "y": Cell(BIG + 1, (BIG,), 0)}),
        ]
        assert_runs_match_reference(program, states)
        assert nest_blocks(hot) == [True, False, False, True]  # n's body holds k's loop, a leaf both ways

    def test_abort_after_the_loop_turns_hot(self, planned):
        # 2,000 iterations make the loop hot at its first entry; its body
        # keeps POP y, so it has no closed form and the untraced run steps
        # it, aborting in iteration 1,500, as does the traced run
        program = parse("INC u; FOR n { INC x; POP y; DEC z }; INC u")
        state = State({"n": Cell(2000), "y": Cell(0, (0,) * 1500, 0)})
        outcome = eval_a(program, state)
        assert outcome == ref_eval_a(program, state)
        assert outcome.record.trace_position == 1 + 1500 * 3 + 1
        steps, _ = eval_traced(program, state, "a")
        assert steps[-1].abort == outcome.record
        assert len(planned) == 1

    def test_loops_of_few_iterations_plan_no_run(self, planned):
        # at the default threshold, two loops of two iterations each step
        # and never pay for a closed form
        program = parse("FOR k { INC y; INC z }; FOR j { DEC y; PUSH z }")
        state = State({"k": Cell(2), "j": Cell(2)})
        assert eval_r(program, state) == ref_eval_r(program, state)
        assert planned == []

    @pytest.mark.parametrize(("m", "planned_nests"), [(300, [False]), (600, [True, False])])
    def test_heat_adds_up_over_entries(self, planned, m, planned_nests):
        # k's leaf loop runs two iterations per entry, so it gets its run at
        # the entry that takes its heat past 500, its 251st, and then stops
        # counting; m's one entry asks for a run for its block, which holds
        # k's loop and so gets False, only once its 600 iterations pass 500
        program = compile_program(parse("FOR m { INC w; FOR k { INC y; INC z } }"))
        state = State({"m": Cell(m), "k": Cell(2)})
        assert program.run(state, "r") == Final(ref_eval_r(program.term, state))
        assert nest_blocks(planned) == planned_nests
        k_cache = caches_of(caches_of(program._top)[0])[0]
        assert k_cache[core._HEAT] == 502 and callable(k_cache[0][2])

    def test_traced_runs_generate_nothing(self, hot):
        program = compile_program(parse("FOR n { INC x; FOR m { POP y; PUSH y } }; FOR k { DEC z }"))
        state = State({"n": Cell(2), "m": Cell(-1), "k": Cell(3), "y": Cell(0, (1,), 0)})
        for semantics in "nar":
            for order in SPELLED:
                observed_run(program, state, semantics, order)
        assert hot == []
        program.run(state, "r")
        assert hot

    def test_each_leaf_generates_once_for_all_semantics(self, hot):
        # forward: n's block, which holds m's loop and so steps, m's
        # inverted block and k's block; backward: k's inverted block, n's
        # inverted block and m's block
        program = compile_program(parse("FOR n { INC x; FOR m { POP y; PUSH y } }; PUSH z; FOR k { DEC w; POP z }"))
        state = State({"n": Cell(2), "m": Cell(-1), "k": Cell(1), "y": Cell(0, (1,), 0)})
        for order in "+-":
            for semantics in "nar":
                before = len(hot)
                assert isinstance(program.run(state, semantics, order), Final)
                assert semantics == "n" or len(hot) == before
        assert len(hot) == len({id(block) for block in hot}) == 6
        assert [any(op == core._LOOP for op, _ in block) for block in hot] == [True, False, False, False, True, False]

    @pytest.mark.parametrize(
        "source",
        [
            "FOR n { INC x; FOR m { POP y; PUSH z; DEC x }; PUSH y }",
            "FOR n { FOR m { INC x; PUSH y }; DEC w; FOR k { POP y; INC w; PUSH w } }",
            "FOR n { INC u; FOR m { INC x; FOR k { POP y; DEC z; PUSH x }; POP z }; PUSH u }",
        ],
    )
    def test_nests_under_each_semantics_and_order(self, hot, source):
        program = parse(source)
        cfg = GenConfig(value_range=(-3, 3))
        rng = random.Random(source)
        names = compile_program(program).variables
        assert_runs_match_reference(program, [gen_state(cfg, names, rng) for _ in range(12)])
        assert any(nest_blocks(hot))

    def test_abort_positions_at_every_depth(self, hot):
        # n's and m's bodies hold a loop, and k's keeps a POP, so all
        # three step.  Forward, POP a, c, g and e abort; inverted,
        # POP b, h, d and f.  One stack at a time runs short.
        program = parse("FOR n { POP a; PUSH b; FOR m { POP c; PUSH d; FOR k { INC x; POP e; PUSH f }; POP g; PUSH h } }")
        states = []
        for n, m, k in [(2, 3, 2), (-2, 3, 2), (2, -3, 2), (2, 3, -2), (-2, -3, -2)]:
            for short, length in zip("abcdefgh", (1, 1, 4, 4, 9, 9, 3, 3)):
                cells = {name: Cell(0, (0,) * (length if name == short else 40), 0) for name in "abcdefgh"}
                states.append(State({"n": Cell(n), "m": Cell(m), "k": Cell(k), **cells}))
        runs = compile_program(program)
        aborted = {}
        for order in "+-":
            for state in states:
                outcome = runs.run(state, "a", order)
                if isinstance(outcome, Aborted):
                    aborted.setdefault(outcome.record.instruction, set()).add(outcome.record.trace_position)
        assert sorted(aborted) == [f"POP {name}" for name in "abcdefgh"]
        assert_runs_match_reference(program, states[::3])
        assert_runs_match_reference(program, states[1::3], "a")
        assert_runs_match_reference(program, states[2::3], "a")
        assert nest_blocks(hot) == [True, True, False] * 8  # n's and m's blocks hold loops, k's is a leaf

    def test_inner_leaders_written_in_the_nest(self, hot):
        # n's body moves k's count from -2 up through 0 and j's down, and
        # a's loop writes i, the leader of the loop after it, so the inner
        # counts change between entries, sign included
        program = parse(
            "FOR n { INC k; FOR k { INC x; PUSH y }; DEC j; FOR j { POP y; DEC x }; FOR a { INC i }; FOR i { PUSH w } }"
        )
        states = [
            State({"n": Cell(5), "k": Cell(-2), "j": Cell(1), "a": Cell(-1), "y": Cell(0, (3,) * 4, 0)}),
            State({"n": Cell(-4), "k": Cell(2), "j": Cell(-1), "a": Cell(2), "i": Cell(-3)}),
            State({"n": Cell(6), "k": Cell(-5), "j": Cell(2), "a": Cell(1), "w": Cell(2, (), 1)}),
        ]
        assert_runs_match_reference(program, states)
        assert nest_blocks(hot)[0]

    def test_idle_inner_loops_and_a_shared_loop(self, hot):
        # k's loop is one node at three places, two of them in n's body,
        # and each place's entry has a cache of its own; m's and i's loops
        # are idle and get no entry
        shared = For("k", Seq(Inc("x"), Pop("y")))
        idle = For("m", Seq(Skip(), For("i", Skip())))
        program = Seq(For("n", Seq(shared, idle, Push("y"), shared)), For("j", Seq(Dec("x"), shared, idle)))
        states = [
            State({"n": Cell(3), "j": Cell(-2), "k": Cell(2), "m": Cell(4), "y": Cell(0, (1, 2, 3, 4), 0)}),
            State({"n": Cell(-2), "j": Cell(3), "k": Cell(-3), "m": Cell(-1), "y": Cell(5, (), 1)}),
        ]
        assert_runs_match_reference(program, states)
        # n's and j's bodies hold k's loop, both ways; k's body is a leaf at
        # each of its three places, both ways
        assert sorted(nest_blocks(hot)) == [False] * 6 + [True] * 4
        n_cache, j_cache = caches_of(compile_program(program)._top)
        assert len(caches_of(n_cache)) == 2 and len(caches_of(j_cache)) == 1

    def test_abort_after_a_hot_nest(self, planned):
        # the nest schedules 700 * 3 steps in one call, which the abort's
        # position counts; the traced run steps to the same record
        program = parse("FOR m { FOR k { INC x } }; POP z")
        state = State({"m": Cell(700), "k": Cell(-3), "z": Cell(1)})
        outcome = eval_a(program, state)
        assert outcome == ref_eval_a(program, state)
        assert outcome.record.trace_position == 2100
        assert eval_traced(program, state, "a")[0][-1].abort == outcome.record
        assert nest_blocks(planned) == [False]  # the nest runs as k's loop

    def test_deep_hot_nest(self, hot):
        # Each outer level's block holds a loop and atoms, so it steps, and
        # so does the innermost, a leaf that keeps a POP.  A count of 2 at
        # every level would take 2**25 iterations, too many for the
        # reference walker, so every fourth level runs twice and the others
        # once, forward or inverted.
        depth = 25
        body = Seq(Inc("x"), Pop("y"), Push("z"))
        for level in reversed(range(depth)):
            body = For(f"a{level}", Seq(Dec(f"w{level % 3}"), body, Push(f"w{level % 3}")))
        counts = {f"a{level}": Cell(2 if level % 4 == 0 else (-1) ** level) for level in range(depth)}
        assert_runs_match_reference(body, [State({**counts, "y": Cell(0, (0,) * 100, 0)})])
        leaves = [block for block in hot if not any(op == core._LOOP for op, _ in block)]
        assert 0 < len(leaves) <= 2  # a24's body, forward and inverted
        assert all(core._closed_form(block) is None for block in hot)



class _TooLong(Exception):
    pass


def runs_within(term, state, limit):
    """Whether each run that `assert_runs_match_reference` makes of `term`
    from `state` takes at most `limit` steps; an observer that raises ends
    a longer one."""
    program = compile_program(term)

    def observe(*step):
        nonlocal steps
        steps += 1
        if steps > limit:
            raise _TooLong

    for semantics in "nar":
        for order in SPELLED:
            steps = 0
            try:
                program.run(state if semantics == "r" else zero_counters(state), semantics, order, observe)
            except _TooLong:
                return False
    return True


class TestPerfectNests:
    """A perfect nest, a loop whose body is one loop and nothing else, runs
    as its innermost loop with the product of the counts, in the direction
    their signs give.  Stepped, traced, and in closed form once hot, every
    run agrees with the reference walker, aborts included."""

    BODY = Seq(Inc("x"), Pop("y"), Push("z"), Dec("w"))  # inverted: INC w; POP z; PUSH y; DEC x

    @pytest.fixture(params=[500, 0], ids=["cold", "hot"])
    def heat(self, request, monkeypatch):
        monkeypatch.setattr(core, "_HOT", request.param)

    @pytest.mark.parametrize("depth", [2, 3, 4, 5])
    def test_every_sign_mix(self, heat, depth):
        # 2, 1, 2, ... iterations at the levels, so at most 8 in all; y's
        # stack runs out forward and z's inverted, in another iteration
        leaders = [f"a{i}" for i in range(depth)]
        states = []
        for mix in range(2**depth):
            counts = {a: Cell((-1) ** (mix >> i & 1) * (2 - i % 2)) for i, a in enumerate(leaders)}
            states.append(State({**counts, "y": Cell(0, (1,) * (mix % 5), 0), "z": Cell(0, (2,) * (mix % 3), 0)}))
        assert_runs_match_reference(nest(leaders, self.BODY), states)

    def test_aborts_in_every_iteration(self, heat):
        # 12 iterations over three levels; POP y (forward) or POP z
        # (inverted) finds its stack empty in iteration j, the second step
        program = Seq(Inc("u"), nest("abc", self.BODY), Pop("v"))
        for a, b, c in [(2, 3, 2), (-2, 3, 2), (2, -3, -2), (-2, -3, -2)]:
            counts = {"a": Cell(a), "b": Cell(b), "c": Cell(c)}
            inverted = a * b * c < 0
            states = [State({**counts, "yz"[inverted]: Cell(0, (0,) * j, 0)}) for j in range(12)]
            records = [compile_program(program).run(state, "a").record for state in states]
            assert [r.trace_position for r in records] == [1 + 4 * j + 1 for j in range(12)]
            assert {r.instruction for r in records} == {("POP y", "POP z")[inverted]}
            # and after the nest, at POP v
            after = State({**counts, "y": Cell(0, (0,) * 12, 0), "z": Cell(0, (0,) * 12, 0), "v": Cell(1)})
            assert compile_program(program).run(after, "a").record.trace_position == 1 + 48
            assert_runs_match_reference(program, [*states[::5], after])

    def test_an_inner_count_of_zero(self, heat):
        # a zero count at any level runs no iteration, so POP v comes next
        program = Seq(nest("abcd", self.BODY), Pop("v"))
        for level in range(4):
            counts = {a: Cell(0 if i == level else (-3 if i % 2 else 3)) for i, a in enumerate("abcd")}
            state = State({**counts, "v": Cell(5)})
            assert compile_program(program).run(state, "a").record.trace_position == 0
            assert_runs_match_reference(program, [state])

    def test_skip_idle_loops_and_a_shared_loop(self, heat):
        # n's body compiles to k's entry alone, so n's loop is perfect; j's
        # body is mixed; k's loop is one node at three places
        inner = For("k", Seq(Inc("x"), Pop("y"), Push("z")))
        idle = For("m", Seq(Skip(), For("i", Skip())))
        program = Seq(
            For("n", Seq(Skip(), inner, idle)), Push("y"), For("j", Seq(Dec("x"), inner)), For("a", For("b", inner))
        )
        states = [
            State({"n": Cell(3), "k": Cell(-2), "m": Cell(4), "j": Cell(2), "a": Cell(-2), "b": Cell(3)}),
            State({"n": Cell(-2), "k": Cell(3), "j": Cell(-1), "a": Cell(2), "b": Cell(2), "y": Cell(0, (1,) * 9, 0)}),
            State({"n": Cell(2), "k": Cell(2), "a": Cell(-1), "b": Cell(-2), "y": Cell(0, (1,) * 5, 0), "z": Cell(1)}),
        ]
        assert_runs_match_reference(program, states)

    @settings(max_examples=100, deadline=SLOW_EXAMPLE_DEADLINE)
    @given(wf_terms(), states, st.lists(st.integers(-3, 3), min_size=1, max_size=3), st.booleans())
    def test_hypothesis_terms(self, term, full, counts, hot):
        # a term that writes its own loops' leaders, such as
        # FOR x { INC y }; FOR y { INC x }, grows them on each pass of the
        # nest, so only nests that every run finishes in a few steps are
        # compared
        leaders = [f"p{i}" for i in range(len(counts))]
        program = nest(leaders, term)
        state = State({**full.as_dict(), **{p: Cell(c) for p, c in zip(leaders, counts)}})
        assume(runs_within(program, state, 5_000))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "_HOT", 0 if hot else 500)
            assert_runs_match_reference(program, [state])

    def test_counts_past_the_word_size(self, heat):
        # 2**32 * 2**31 * 2 = 2**64 iterations, run forward or inverted, or a
        # mixed loop stepped 2**63 times: each of these aborts in its first
        # iteration at the same step as the reference walker, cold or hot
        cases = [  # inverted, each body starts with a POP too
            (nest("abc", Seq(Inc("x"), Pop("y"), Push("v"))), {"a": 2**32, "b": 2**31, "c": 2}, 1),
            (nest("abc", Seq(Inc("x"), Pop("y"), Push("v"))), {"a": 2**32, "b": -(2**31), "c": 2}, 0),
            (parse("FOR n { INC z; FOR m { FOR k { POP x; PUSH y } } }"), {"n": 2**63, "m": 1, "k": 1}, 1),
        ]
        # and 2**64 iterations, whichever way the nest runs, of which the
        # first pops a value into y (or z) and the second aborts on it, so
        # the abort reads a countdown of a count past 2**63 partly spent
        late = {"a": 2**32, "b": 2**32, "y": Cell(0, (1,), 0), "z": Cell(0, (5,), 0)}
        cases.append((parse("FOR a { FOR b { POP y; PUSH z } }"), late, 2))
        for program, counts, position in cases:
            state = State({name: count if type(count) is Cell else Cell(count) for name, count in counts.items()})
            runs = compile_program(program)
            for order, spell in SPELLED.items():
                expected = ref_eval_a(spell(program), state)
                assert runs.run(state, "a", order) == expected
                steps, final = observed_run(runs, state, "a", order)
                assert final is None and steps[-1].abort == expected.record
            assert runs.run(state, "a").record.trace_position == position

    def test_a_hot_nest_generates_one_function(self, planned):
        # 30 * -5 * 4 iterations make j's loop hot at its first entry; the
        # signs differ, so j's body runs inverted
        program = compile_program(parse("FOR m { FOR k { FOR j { INC x; PUSH y } } }"))
        state = State({"m": Cell(30), "k": Cell(-5), "j": Cell(4)})
        assert program.run(state, "r") == Final(ref_eval_r(program.term, state))
        j_cache = caches_of(caches_of(caches_of(program._top)[0])[0])[0]
        assert planned == [j_cache[1][0]]

    def test_no_generated_block_holds_a_loop(self, monkeypatch):
        made = []
        real = core._leaf_function

        def logged(block):
            made.append((block, real(block)))
            return made[-1][1]

        monkeypatch.setattr(core, "_leaf_function", logged)
        monkeypatch.setattr(core, "_HOT", 0)
        rng = random.Random(19)
        for program, _, flat in fuzz_corpus(GenConfig(seed=19), 300):
            counts = {"p": Cell(rng.randint(-2, 2)), "q": Cell(rng.randint(-2, 2))}
            wrapped = nest("pq", program)
            for semantics in "nar":
                compile_program(wrapped).run(State({**flat.as_dict(), **counts}), semantics)
        assert any(run for _, run in made)
        # a block that holds a loop entry, or keeps a POP, gets False
        assert all((run is False) == (core._closed_form(block) is None) for block, run in made)
        assert any(run is False and not nest_blocks([block])[0] for block, run in made)


def translated(blocks):
    """Whether each leaf block among `blocks` runs in closed form once hot."""
    return [core._closed_form(block) is not None for block in blocks if not any(op == core._LOOP for op, _ in block)]


class TestObservedHotLoops:
    """An observed run steps every loop, so it observes every step of loops
    that earlier untraced runs of the same Program made hot: a leaf that
    keeps a POP (n's), a translation leaf (j's) and a perfect nest of
    translations (m's and k's), each run forward and inverted."""

    PROGRAM = parse(
        "INC u; FOR n { INC x; POP y; PUSH z }; FOR m { FOR k { INC x; PUSH y; POP y; DEC w } }; "
        "FOR j { DEC v; INC w }; POP v"
    )
    # Forward under a, the first state aborts at the last POP v, the next
    # two in n's stepped leaf, at POP z in its second inverted iteration
    # and at POP y in its second forward one, and the last completes.
    STATES = [
        State({"n": Cell(3), "m": Cell(2), "k": Cell(-3), "j": Cell(4), "y": Cell(0, (0,) * 5, 0)}),
        State({"n": Cell(-2), "m": Cell(-2), "k": Cell(-2), "j": Cell(-1), "z": Cell(0, (2,) * 3, 0)}),
        State({"n": Cell(4), "m": Cell(3), "k": Cell(2), "j": Cell(2), "y": Cell(0, (1, 2), 0), "z": Cell(1)}),
        State(
            {"n": Cell(-3), "m": Cell(1), "k": Cell(3), "j": Cell(-3), "z": Cell(0, (0,) * 3, 2), "v": Cell(-3, (5,), 0)}
        ),
    ]

    @staticmethod
    def leaf_plans(program):
        """The plans made so far of the loops whose blocks hold no loop entry."""
        plans = (plan for cache in loop_caches(program)[1:] for plan in cache[:2] if plan)
        return [plan for plan in plans if not any(op == core._LOOP for op, _ in plan[0])]

    def test_traced_runs_after_untraced_runs_made_the_loops_hot(self, hot):
        program = compile_program(self.PROGRAM)
        for semantics in "nar":
            for order, spell in SPELLED.items():
                spelled = spell(self.PROGRAM)
                starts = [state if semantics == "r" else zero_counters(state) for state in self.STATES]
                for start in starts:
                    expected = REFERENCE[semantics](spelled, start)
                    assert program.run(start, semantics, order) == (expected if semantics == "a" else Final(expected))
                made = len(hot)
                for start in starts:
                    steps, final = observed_run(program, start, semantics, order)
                    assert_trace_matches(steps, final, ref_eval_traced(spelled, start, semantics), start)
                assert len(hot) == made  # the observed runs made no run
        runs = [run for _, _, run in self.leaf_plans(program)]
        # n's body steps both ways; the other leaves have closed forms
        assert len(runs) == 6 and runs.count(False) == 2
        assert all(callable(run) for run in runs if run is not False)
        assert sorted(translated(hot)) == [False, False, True, True, True, True]
        records = [program.run(zero_counters(state), "a") for state in self.STATES]
        assert [r.record.instruction for r in records[:3]] == ["POP v", "POP z", "POP y"]
        assert isinstance(records[3], Final)


class TestTranslationLoops:
    """A hot leaf whose atoms, once each slot's inverse pairs (INC then DEC,
    DEC then INC, PUSH then POP) cancel, hold no PUSH or POP runs as one
    addition per slot.  With the heat threshold at 0, every run agrees with
    the reference walker under each semantics, forward and inverted."""

    def test_push_pop_on_frozen_and_repaired_cells(self, hot):
        # under r, PUSH x takes its frozen clause (value 0, non-empty stack,
        # counter > 0) or its repair clause (counter > 0 otherwise), and
        # POP x undoes it; the pair semantics see the counters zeroed
        program = parse("FOR n { PUSH x; POP x }")
        frozen, repaired = [Cell(0, (1, 2), 2), Cell(0, (-3,), 1)], [Cell(5, (), 1), Cell(0, (), 3), Cell(-4, (7,), 1)]
        cells = [*frozen, *repaired, Cell(3, (1,), 0)]
        states = [State({"n": Cell(n), "x": cell}) for cell in cells for n in (3, -2)]
        assert_runs_match_reference(program, states)
        assert translated(hot) == [True, True]
        runs = compile_program(program)
        for state in states:
            assert runs.run(state, "r") == Final(state)

    @pytest.mark.parametrize(
        ("source", "change"),
        [
            ("FOR n { PUSH x; INC x; DEC x; POP x }", {}),
            ("FOR n { PUSH x; INC y; POP x }", {"y": 1}),
            ("FOR n { INC x; DEC x }", {}),
            ("FOR n { INC x; PUSH x; POP x; DEC y }", {"x": 1, "y": -1}),
            ("FOR n { DEC x; PUSH y; INC x; INC z; INC x; POP y; INC z; DEC w }", {"x": 1, "z": 2, "w": -1}),
        ],
    )
    def test_bodies_that_translate(self, hot, source, change):
        program = parse(source)
        names = compile_program(program).variables
        cfg = GenConfig(value_range=(-4, 4))
        rng = random.Random(source)
        states = [gen_state(cfg, names, rng).set("n", Cell(n)) for n in (4, -3, 1, 0)]
        assert_runs_match_reference(program, states)
        assert set(translated(hot)) == {True}
        runs = compile_program(program)
        state = State({"n": Cell(-7)})
        expected = {name: Cell(-7 * b) for name, b in change.items()}
        assert runs.run(state, "a") == Final(State({"n": Cell(-7), **expected}))

    @pytest.mark.parametrize(
        ("source", "position"), [("FOR n { POP x; PUSH x }", 1), ("FOR n { PUSH x; INC x; POP x }", 3)]
    )
    def test_bodies_that_keep_stepping(self, hot, source, position):
        # POP then PUSH aborts under a and overwrites a nonzero value under
        # n, and INC x parts PUSH x from POP x, so neither body translates;
        # under a each aborts where the reference walker does, from x = 5
        # in the first iteration at the body's POP
        program = Seq(Inc("u"), parse(source))
        states = [
            State({"n": Cell(n), "x": cell})
            for n in (3, -3)
            for cell in (Cell(0, (1, 2), 0), Cell(2, (1,), 0), Cell(0, (), 0), Cell(0, (4,), 2), Cell(5))
        ]
        assert_runs_match_reference(program, states)
        assert translated(hot) == [False, False]
        assert compile_program(program).run(states[4], "a").record.trace_position == position

    def test_negative_leaders_and_perfect_nests(self, hot):
        # a perfect nest runs its innermost body with the product of the
        # counts, inverted when the signs differ; a mixed nest calls the
        # inner closed form at each entry of its stepped outer level
        program = parse(
            "FOR a { FOR b { FOR c { INC x; PUSH y; POP y; DEC z } } }; "
            "FOR m { POP w; FOR k { DEC x; INC v; INC v }; PUSH w }; POP u"
        )
        states = []
        for a, b, c, m, k in [(2, 3, 2, 3, 2), (-2, 3, 2, -3, 2), (2, -3, -2, 3, -2), (-1, -1, -1, -2, -3)]:
            counts = {"a": Cell(a), "b": Cell(b), "c": Cell(c), "m": Cell(m), "k": Cell(k)}
            for u in (Cell(0, (9,), 0), Cell(1)):
                states.append(State({**counts, "y": Cell(0, (4,), 1), "w": Cell(0, (1, 2, 3), 0), "u": u}))
        assert_runs_match_reference(program, states)
        assert translated(hot) == [True] * 4  # c's and k's bodies, forward and inverted

    def test_big_values(self, hot):
        # BIG iterations, forward or inverted, run only in closed form: each
        # adds n to x and takes it from y; with a few iterations, every run
        # agrees with the reference walker
        program = parse("FOR n { INC x; PUSH x; POP x; DEC y; PUSH z; DEC z; INC z; POP z }")
        states = [
            State({"n": Cell(BIG), "x": Cell(BIG, (BIG, -BIG), 0), "y": Cell(-BIG, (), 2), "z": Cell(0, (BIG,), 1)}),
            State({"n": Cell(-BIG), "x": Cell(-BIG, (), 3), "y": Cell(BIG + 1, (BIG,), 0), "z": Cell(BIG, (), 0)}),
        ]
        runs = compile_program(program)
        for state in states:
            n = state.get("n").value
            for semantics in "nar":
                start = state if semantics == "r" else zero_counters(state)
                x, y = start.get("x"), start.get("y")
                moved = start.set("x", x._replace(value=x.value + n)).set("y", y._replace(value=y.value - n))
                assert runs.run(start, semantics) == Final(moved)
                assert runs.run(moved, semantics, "-") == Final(start)
                assert runs.run(start, semantics, "+-") == runs.run(start, semantics, "-+") == Final(start)
        assert_runs_match_reference(program, [state.set("n", Cell(3)) for state in states])
        assert_runs_match_reference(program, [state.set("n", Cell(-2)) for state in states])

    @pytest.mark.parametrize("heat", [0, 500])
    def test_a_perfect_nest_of_two_to_the_seventy_iterations(self, monkeypatch, heat):
        # 2**35 * -2**35 iterations of the inverted body, INC z; PUSH y;
        # POP y; DEC x, each in closed form; POP v then aborts after all of
        # their 4 * 2**70 steps
        monkeypatch.setattr(core, "_HOT", heat)
        program = compile_program(parse("INC u; FOR a { FOR b { INC x; PUSH y; POP y; DEC z } }; POP v"))
        counts = {"a": Cell(2**35), "b": Cell(-(2**35)), "y": Cell(0, (BIG,), 0)}
        for v in (Cell(0, (7,), 0), Cell(7)):
            state = State({**counts, "v": v})
            after = state.set("u", Cell(1)).set("x", Cell(-(2**70))).set("z", Cell(2**70))
            popped = after.set("v", Cell(7))
            if v.value:
                assert program.run(state, "n") == Final(after.set("v", Cell(0)))
                assert program.run(state, "r") == Final(after.set("v", Cell(7, (), 1)))
                record = program.run(state, "a").record
                assert (record.instruction, record.trace_position) == ("POP v", 1 + 4 * 2**70)
            else:
                for semantics in "nar":
                    assert program.run(state, semantics) == Final(popped)
                    assert program.run(state, semantics, "+-") == Final(state)
                    assert program.run(popped, semantics, "-") == Final(state)

    ATOMS = (Inc, Dec, Push, Pop)

    @settings(max_examples=200, deadline=SLOW_EXAMPLE_DEADLINE)
    @given(st.lists(st.tuples(st.sampled_from(ATOMS), st.sampled_from("xy"))), st.integers(-3, 3), states)
    def test_hypothesis_leaf_bodies(self, atoms, count, full):
        # bodies of atoms on two slots, many of them holding inverse pairs
        atoms = [kind(name) for kind, name in atoms]
        body = Seq(*atoms) if len(atoms) > 1 else atoms[0] if atoms else Skip()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "_HOT", 0)
            assert_runs_match_reference(For("n", body), [full.set("n", Cell(count))])


@pytest.fixture
def declined(monkeypatch):
    """The block of each call that a closed form declines, so that the
    block steps, while the fixture is in use."""
    blocks = []
    real = core._leaf_function

    def logged(block):
        run = real(block)
        if not run:
            return run

        def logged_run(*args):
            ran = run(*args)
            if not ran:
                blocks.append(block)
            return ran

        return logged_run

    monkeypatch.setattr(core, "_leaf_function", logged)
    return blocks


def pops(block):
    """Whether `block` holds a POP."""
    return any(op == core._POP for op, _ in block)


class TestPushLoops:
    """A hot leaf whose words, once their inverse pairs cancel, keep a PUSH
    but no POP pushes in closed form: from counter 0, every iteration after
    the first pushes the same run of values.  With the heat threshold at 0,
    every run agrees with the reference walker under each semantics and
    pass order.  An inverted push loop is a pop loop and steps, and so does
    a call of a forward one whose pushing slot has a counter, or that would
    push too many values: its closed form declines it."""

    @pytest.mark.parametrize(
        "source",
        [
            "FOR n { PUSH y }",
            "FOR n { PUSH y; INC y }",
            # INC/DEC before, between and after several PUSHes
            "FOR n { INC y; PUSH y; DEC y; DEC y; PUSH y; PUSH y; INC y; INC y; INC y }",
            "FOR n { DEC y; PUSH y; PUSH y; DEC y }",
            # pushing slots beside translation slots
            "FOR n { DEC y; PUSH y; INC x; PUSH y; INC y; DEC z; DEC z }",
            "FOR n { PUSH y; PUSH x; INC y; PUSH y; DEC x; INC z }",
            # cancelled PUSH; POP pairs next to a kept PUSH
            "FOR n { PUSH y; PUSH x; POP x; INC y; PUSH x; INC x; DEC x; POP x; PUSH y }",
            "FOR n { INC y; PUSH y; PUSH y; INC y; DEC y; POP y; INC y }",
        ],
    )
    def test_bodies_that_push(self, hot, declined, source):
        program = parse(source)
        names = compile_program(program).variables
        cfg = GenConfig(value_range=(-4, 4), max_counter=0)
        rng = random.Random(source)
        states = [gen_state(cfg, names, rng).set("n", Cell(n)) for n in (5, 1, -3, 2, -1, 0) for _ in range(2)]
        assert_runs_match_reference(program, states)
        assert translated(hot) == [True, False]  # the body forward; inverted, it pops
        assert declined  # forward bodies after an illegal pop raised a counter under r
        declined.clear()
        runs = compile_program(program)
        forward = [state for state in states if state.get("n").value >= 0]
        for semantics in "nar":
            for state in forward:
                assert runs.run(state, semantics) == Final(ref_eval_r(program, state))
        assert declined == []  # forward from counter 0, the body runs in closed form

    def test_values_pushed(self, hot, declined):
        # y's word is x0 PUSH x1 PUSH x2 with x0 = 1, x1 = 2, x2 = -1: from
        # y = 7, it pushes 8, 2, then (0, 2) three times, and leaves -1
        program = compile_program(parse("FOR n { INC y; PUSH y; INC y; INC y; PUSH y; DEC y; DEC x }"))
        state = State({"n": Cell(4), "y": Cell(7, (9,), 0)})
        expected = State({"n": Cell(4), "x": Cell(-4), "y": Cell(-1, (2, 0, 2, 0, 2, 0, 2, 8, 9), 0)})
        for semantics in "nar":
            assert program.run(state, semantics) == Final(expected)
        assert declined == []

    def test_a_perfect_nest_passes_the_product(self, hot, planned, declined):
        program = parse("FOR a { FOR b { PUSH y; INC x; INC y; INC y } }")
        states = [
            State({"a": Cell(a), "b": Cell(b), "y": Cell(3, (1,), 0)}) for a, b in [(3, 4), (-2, -5), (2, -3), (-1, 6)]
        ]
        assert_runs_match_reference(program, states)
        planned.clear()
        declined.clear()
        runs = compile_program(program)
        # the inverted program's nest of counts 300 and -200 runs b's
        # body forward 60,000 times, in one closed-form call
        state = State({"a": Cell(300), "b": Cell(-200), "y": Cell(5)})
        expected = State({"a": Cell(300), "b": Cell(-200), "y": Cell(2, (2,) * 59_999 + (5,), 0), "x": Cell(60_000)})
        assert runs.run(state, "r", "-") == Final(expected)
        assert declined == [] and len(planned) == 1 and not pops(planned[0])

    def test_abort_after_a_push_loop(self, hot):
        # the loop pushes 4, then -1 999 times, and leaves y = 0; the first
        # POP y takes -1, and the second finds it, at step 1 + 3 * 1000 + 1
        program = parse("INC u; FOR n { DEC y; PUSH y; INC x }; POP y; POP y")
        state = State({"n": Cell(1000), "y": Cell(5)})
        outcome = compile_program(program).run(state, "a")
        assert outcome == ref_eval_a(program, state)
        record = outcome.record
        assert (record.instruction, record.reason, record.trace_position) == ("POP y", "value-nonzero", 3002)
        assert record.observed == Cell(-1, (-1,) * 998 + (4,), 0)
        assert eval_traced(program, state, "a")[0][-1].abort == record

    @pytest.mark.parametrize("counter", [1, 2])
    def test_a_counter_at_entry_steps(self, hot, declined, counter):
        # under r, PUSH y repairs (counter - 1) or leaves a frozen cell
        # alone before it saves values, so the closed form declines each
        # call and the block steps; from counter 0 the same Program pushes
        # in closed form again
        program = parse("FOR n { PUSH y; INC y; INC x; PUSH y }")
        cells = [Cell(3, (), counter), Cell(0, (2,), counter), Cell(0, (), counter), Cell(-2, (1, 1), counter)]
        states = [State({"n": Cell(n), "y": cell}) for cell in cells for n in (1, 3, 6)]
        assert_runs_match_reference(program, states, "r")
        runs = compile_program(program)
        declined.clear()
        for state in states:
            assert runs.run(state, "r") == Final(ref_eval_r(program, state))
        assert len(declined) == len(states) and not pops(declined[0])
        assert len({id(block) for block in declined}) == 1
        flat = State({"n": Cell(3), "y": Cell(1, (4,), 0)})
        assert runs.run(flat, "r") == Final(ref_eval_r(program, flat))
        assert len(declined) == len(states)

    def test_past_the_bound_steps(self, hot, declined, monkeypatch):
        # three pushes per iteration: 2 iterations push 6 values, within a
        # bound of 6, and 3 push 9, past it, so the closed form declines
        # each such call, once per semantics
        monkeypatch.setattr(core, "_MOST_PUSHES", 6)
        program = parse("FOR n { PUSH y; INC y; PUSH x; PUSH y; DEC z }")
        runs = compile_program(program)
        for n, stepped in [(2, 0), (3, 3), (2, 3), (7, 6)]:
            state = State({"n": Cell(n), "y": Cell(4, (1,), 0), "x": Cell(-2)})
            for semantics in "nar":
                assert runs.run(state, semantics) == Final(ref_eval_r(program, state))
            assert len(declined) == stepped

    def test_an_abort_after_a_declined_call(self, hot, declined, monkeypatch):
        # n's 4 iterations push 8 values, past a bound of 6, so its closed
        # form declines and the block steps inside m's stepped level; POP z
        # then aborts in m's iteration j + 1, where the reference walker
        # does.  Inverted, n's body pops and steps, and POP z is a PUSH.
        monkeypatch.setattr(core, "_MOST_PUSHES", 6)
        program = parse("INC u; FOR m { DEC w; FOR n { PUSH y; INC y; PUSH x }; POP z }; POP x")
        states = [State({"m": Cell(3), "n": Cell(4), "z": Cell(0, (0,) * j, 0)}) for j in range(3)]
        runs = compile_program(program)
        for j, state in enumerate(states):
            outcome = runs.run(state, "a")
            assert outcome == ref_eval_a(program, state)
            assert outcome.record.trace_position == 1 + j * 14 + 13
            assert eval_traced(program, state, "a")[0][-1].abort == outcome.record
        assert len(declined) == 1 + 2 + 3  # n's entries up to the abort
        completes = State({"m": Cell(3), "n": Cell(4), "z": Cell(0, (0,) * 3, 0)})
        assert_runs_match_reference(program, [*states, completes], "a")

    # bodies whose pushing slot y pushes a pattern of 1, 2 and 3 values
    PATTERNS = {
        1: "FOR n { PUSH y; INC y }",
        2: "FOR n { PUSH y; INC y; PUSH y; DEC y; DEC y }",
        3: "FOR n { INC y; PUSH y; DEC y; PUSH y; PUSH y; INC y; INC y; INC x }",
    }

    @staticmethod
    def piece_counts(pushes):
        """Counts whose pushes fall either side of one piece and of two."""
        repeats = core._PIECE // pushes or 1
        return [repeats - 1, repeats, repeats + 1, 2 * repeats + 1]

    @pytest.mark.parametrize("pushes", PATTERNS)
    @pytest.mark.parametrize("piece", [2, 6])
    def test_pieces_against_the_reference_walker(self, hot, declined, monkeypatch, pushes, piece):
        # with pieces this small, counts either side of them stay cheap for
        # the walker, which copies a stack tuple on every PUSH; a piece of
        # 2 holds less than one pattern of 3, which is then its own piece
        monkeypatch.setattr(core, "_PIECE", piece)
        program = parse(self.PATTERNS[pushes])
        inverse = invert(program)  # its inverted entries push: "inverted"
        counts = self.piece_counts(pushes)
        states = [State({"n": Cell(n), "y": Cell(5, (-3,), 0)}) for count in counts for n in (count, -count)]
        for term in (program, inverse):
            assert_runs_match_reference(term, states)
        declined.clear()
        for term, sign in ((program, 1), (inverse, -1)):
            runs = compile_program(term)
            for semantics in "nar":
                for count in counts:
                    state = State({"n": Cell(sign * count), "y": Cell(5, (-3,), 0)})
                    assert runs.run(state, semantics) == Final(ref_eval_r(term, state))
        assert declined == []  # every one of these calls ran in closed form

    @pytest.mark.parametrize("pushes", PATTERNS)
    def test_counts_either_side_of_a_piece(self, hot, monkeypatch, pushes):
        # At the real piece the walker would take about 20 s a run (65,537
        # pushes copy 2 * 10**9 tuple slots), so the closed form is checked
        # against the stepped block, which the test above and every other
        # here check against the walker: with no pushes allowed, every
        # closed-form call declines and the block steps.
        program = parse(self.PATTERNS[pushes])
        for term, sign in ((program, 1), (invert(program), -1)):
            for count in self.piece_counts(pushes)[:3]:
                state = State({"n": Cell(sign * count), "y": Cell(5, (-3,), 0)})
                with monkeypatch.context() as patch:
                    patch.setattr(core, "_MOST_PUSHES", 0)
                    stepped = compile_program(term).run(state, "r")
                assert len(stepped.state.get("y").stack) == count * pushes + 1
                runs = compile_program(term)
                for semantics in "nar":
                    assert runs.run(state, semantics) == stepped

    ATOMS = (Inc, Dec, Push)

    @settings(max_examples=200, deadline=SLOW_EXAMPLE_DEADLINE)
    @given(st.lists(st.tuples(st.sampled_from(ATOMS), st.sampled_from("xyz")), min_size=1), st.integers(-3, 4), states)
    def test_hypothesis_push_bodies(self, atoms, count, full):
        atoms = [kind(name) for kind, name in atoms]
        body = Seq(*atoms) if len(atoms) > 1 else atoms[0]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "_HOT", 0)
            assert_runs_match_reference(For("n", body), [full.set("n", Cell(count))])
