import dataclasses
import hashlib
import itertools
import json
import random
import re
import time
import tracemalloc

import pytest
from hypothesis import given, settings

from scorelang import (
    Aborted,
    Cell,
    Dec,
    Fail,
    For,
    GenConfig,
    Inc,
    NonzeroCounterError,
    Pass,
    Pop,
    Program,
    Push,
    Seq,
    Skip,
    State,
    check_agreement_a_r,
    check_failure_correspondence,
    check_strong_reversibility,
    check_weak_reversibility_a,
    check_well_formed,
    compile_program,
    eval_a,
    eval_r,
    exhaustive_pop_injective,
    exhaustive_pop_push_inverse,
    gen_state,
    gen_term,
    invert,
    minimize,
    parse,
    parse_state,
    pretty,
    run_fuzz,
    variables_of,
    zero_counters,
)
from scorelang import harness, semantics
from scorelang.harness import _var_names

import reference_checks
import reference_shrinks
import reference_walker
from term_strategies import grid, raw_terms


def term_depth(term):
    """Depth, counting a sequence as the right-nested pairs it is drawn as:
    part k of n sits k + 1 pairs deep, the last part n - 1."""
    match term:
        case Seq(parts):
            last = len(parts) - 1
            return max(min(k + 1, last) + term_depth(part) for k, part in enumerate(parts))
        case For(_, body):
            return 1 + term_depth(body)
        case _:
            return 1


class TestGenTerm:
    def test_deterministic_in_seed(self):
        cfg = GenConfig(seed=42)
        assert gen_term(cfg) == gen_term(cfg)

    def test_different_seeds_vary(self):
        outputs = {gen_term(GenConfig(seed=s)) for s in range(30)}
        assert len(outputs) > 5

    def test_always_well_formed(self):
        for seed in range(200):
            term = gen_term(GenConfig(seed=seed))
            assert check_well_formed(term) == []

    def test_depth_bound(self):
        for seed in range(100):
            cfg = GenConfig(seed=seed, max_depth=3)
            assert term_depth(gen_term(cfg)) <= 3

    def test_identifier_pool(self):
        for seed in range(50):
            cfg = GenConfig(seed=seed, max_vars=2)
            assert variables_of(gen_term(cfg)) <= set(_var_names(2))

    def test_single_variable_loops_still_possible(self):
        # with one name, a FOR body cannot reference any variable
        cfg = GenConfig(seed=7, max_vars=1)
        for seed in range(100):
            term = gen_term(dataclasses.replace(cfg, seed=seed))
            assert check_well_formed(term) == []


# The programs some seeds draw.  A change to the generator that keeps each
# seed's programs (and so its fuzz reports) keeps these.
DEPTH_8 = {"max_depth": 8, "max_vars": 3}
GENERATED = [
    ({}, 2, "FOR x { SKIP }"),
    ({}, 20, "FOR y { INC w }"),
    ({}, 23, "FOR z { FOR x { SKIP } }"),
    ({}, 68, "FOR x { POP y }; PUSH z"),
    ({}, 78, "SKIP; FOR z { FOR w { INC y }; INC w; PUSH w }"),
    ({}, 84, "FOR x { PUSH w }; FOR z { DEC w; DEC x; PUSH w }"),
    ({}, 86, "SKIP; INC x; POP z; POP x; FOR x { POP z }"),
    (DEPTH_8, 20, "FOR z { FOR x { INC y }; FOR x { SKIP } }"),
    (DEPTH_8, 52, "FOR x { FOR z { DEC y; FOR y { SKIP; SKIP; SKIP } } }"),
    (DEPTH_8, 68, "FOR z { PUSH x; PUSH y }; POP y; FOR y { INC x }"),
    (DEPTH_8, 84, "FOR x { PUSH z }; DEC z; DEC x; PUSH z"),
    (DEPTH_8, 231, "FOR y { FOR z { FOR x { SKIP }; POP x; PUSH x } }; PUSH z; DEC z"),
]

FUZZ_SEED_2_100_CASES = """\
fuzz report
seed: 2
cases: 100
strong-reversibility: passed 100, failed 0
weak-reversibility-a: passed 81, vacuous 19, failed 0
a-r-agreement: passed 81, vacuous 19, failed 0
failure-correspondence: if-direction witnesses 0, only-if witnesses 1
seeded witness 'POP x; PUSH x' from 'x = 5, [2], 0': only-if discrepancy reported
only-if sample: POP y; PUSH y from y = -4, [0, -4, -1, -5], 0
result: PASS
"""

# Per configuration, the sha256 of the text and JSON reports of seeds 1-10,
# 200 cases each.  A change to the generator, the evaluator or the checks
# that keeps every report keeps these.
FUZZ_CONFIGS = {
    "default": {},
    "deep": {"max_depth": 8, "max_vars": 2},
    "wide": {"max_depth": 5, "max_vars": 6, "max_counter": 3, "value_range": (-3, 7)},
    # names past the pool run to x8..x11, so sorted order (x10 < x8) is not
    # the order of the program's slots
    "many-names": {"max_vars": 12},
}
FUZZ_REPORT_HASHES = {
    "default": "5f99bade35e749aeeb786aef55f9d7404415c62e561630df9ccc6d3efe55b786",
    "deep": "85410119820662522a25f0807c279de225862b8387d4121d802e1d445f0d9636",
    "wide": "4314ed537b04a132c183354a9f52ae37c01affaa46db85facb63056c1cc75691",
    "many-names": "87bbd98899f1a4a07fe8323b02cd81a32a7379960a4229c77991dfe2af9cf371",
}


class TestGeneratorPins:
    @pytest.mark.parametrize(("sizes", "seed", "text"), GENERATED)
    def test_seed_draws_its_program(self, sizes, seed, text):
        assert pretty(gen_term(GenConfig(seed=seed, **sizes))) == text

    def test_seed_gives_its_fuzz_report(self):
        assert run_fuzz(GenConfig(seed=2), 100).to_text() == FUZZ_SEED_2_100_CASES

    @pytest.mark.parametrize("config", sorted(FUZZ_REPORT_HASHES))
    def test_seeds_give_their_fuzz_reports(self, config):
        digest = hashlib.sha256()
        for seed in range(1, 11):
            report = run_fuzz(GenConfig(seed=seed, **FUZZ_CONFIGS[config]), 200)
            digest.update(report.to_text().encode())
            digest.update(json.dumps(report.to_json_dict(), sort_keys=True, indent=2).encode())
        assert digest.hexdigest() == FUZZ_REPORT_HASHES[config]


# Configurations at the edges of `Random._randbelow`'s rejection rule, which
# draws below n from n.bit_length() bits: a bound of 1 (one name, stacks of
# length 0, counters of 0, a value range of width 1), which still draws, and
# widths of 2^k and 2^k + 1.
DRAW_EDGES = {
    "default": {},
    "one-name": {"max_vars": 1},
    "empty-stacks": {"max_stack_len": 0},
    "zero-counters": {"max_counter": 0},
    "width-1": {"value_range": (3, 3)},
    "width-2": {"value_range": (-1, 0), "max_stack_len": 1, "max_counter": 1},
    "width-3": {"value_range": (0, 2), "max_stack_len": 2, "max_counter": 2},
    "width-8": {"value_range": (-4, 3), "max_stack_len": 7, "max_counter": 7},
    "width-9": {"value_range": (-4, 4), "max_stack_len": 8, "max_counter": 8, "max_vars": 9},
}


def reference_slot_lists(rng, cfg, slots):
    """`harness._drawer`'s slot lists, drawn by `Random.randint`."""
    lo, hi = cfg.value_range
    values, stacks, counters = [0] * len(slots), [None] * len(slots), [0] * len(slots)
    for slot in slots:
        values[slot] = rng.randint(lo, hi)
        stacks[slot] = [rng.randint(lo, hi) for _ in range(rng.randint(0, cfg.max_stack_len))][::-1]
        counters[slot] = rng.randint(0, cfg.max_counter)
    return values, stacks, counters


def reference_term(rng, names, depth, allow_seq=True):
    """`gen_term`'s program, drawn by `Random.choices` and `Random.choice`."""
    kinds = [Skip] + [Inc, Dec, Push, Pop] * bool(names)
    kinds += [Seq] * (depth >= 2 and allow_seq) + [For] * (depth >= 2 and bool(names))
    kind = rng.choices(kinds)[0]
    if kind is Skip:
        return Skip()
    if kind is Seq:
        first = reference_term(rng, names, depth - 1, allow_seq=False)
        return Seq(first, reference_term(rng, names, depth - 1))
    name = rng.choice(names)
    if kind is For:
        return For(name, reference_term(rng, [other for other in names if other != name], depth - 1))
    return kind(name)


class TestDrawsMatchTheRandomMethods:
    """The generator takes its bits straight from `Random.getrandbits`;
    each seed must still draw what `Random.choices`, `Random.choice` and
    `Random.randint` draw from it, and leave the generator where they do."""

    @pytest.mark.parametrize("edge", sorted(DRAW_EDGES))
    def test_slot_lists(self, edge):
        cfg = GenConfig(**DRAW_EDGES[edge])
        for seed in range(40):
            rng, reference = random.Random(seed), random.Random(seed)
            draw = harness._drawer(rng, cfg)
            for size in (1, 3, 0, cfg.max_vars):
                slots = random.Random(size).sample(range(size), size)
                assert draw(slots) == reference_slot_lists(reference, cfg, slots)
                assert rng.getstate() == reference.getstate()
            # the drawer reads `rng` as it draws, so it serves a reseeded `rng`
            rng.seed(seed + 1000)
            reference.seed(seed + 1000)
            assert draw(range(3)) == reference_slot_lists(reference, cfg, range(3))

    @pytest.mark.parametrize("edge", sorted(DRAW_EDGES))
    def test_programs(self, edge):
        cfg = GenConfig(**DRAW_EDGES[edge])
        for seed in range(200):
            rng, reference = random.Random(seed), random.Random(seed)
            for _ in range(3):
                assert gen_term(cfg, rng) == reference_term(reference, _var_names(cfg.max_vars), cfg.max_depth)
                assert rng.getstate() == reference.getstate()


def push_clause(cell):
    """The `push_r` clause that fires on `cell`, numbered as in its docstring."""
    value, stack, counter = cell
    return 1 if counter == 0 else 2 if value == 0 and stack else 3


def pop_clause(cell):
    """The `pop_r` clause that fires on `cell`, numbered as in its docstring."""
    value, stack, counter = cell
    return 3 if value or not stack else 1 if counter == 0 else 2


def test_default_generator_reaches_every_push_pop_clause(monkeypatch):
    """P; -P on the first 500 cases `run_fuzz` draws at the default
    configuration fires all three clauses of `push_r` and of `pop_r`.  The
    reference walker calls both for every PUSH and POP under `r`, where the
    compiled core inlines them, so this counts what the generator reaches."""
    hits = set()

    def counting(kind, fn, clause):
        def wrapper(cell):
            hits.add((kind, clause(cell)))
            return fn(cell)

        return wrapper

    monkeypatch.setattr(reference_walker, "push_r", counting("push", reference_walker.push_r, push_clause))
    monkeypatch.setattr(reference_walker, "pop_r", counting("pop", reference_walker.pop_r, pop_clause))
    cfg = GenConfig()
    master = random.Random(cfg.seed)
    for _ in range(500):
        rng = random.Random(master.getrandbits(64))
        program = gen_term(cfg, rng=rng)
        state = gen_state(cfg, compile_program(program).variables, rng=rng)
        assert reference_walker.ref_eval_r(Seq(program, invert(program)), state) == state
    assert sorted(hits) == [(kind, clause) for kind in ("pop", "push") for clause in (1, 2, 3)]


class TestGenState:
    def test_deterministic_in_seed(self):
        cfg = GenConfig(seed=9)
        assert gen_state(cfg, {"x", "y"}) == gen_state(cfg, {"x", "y"})

    def test_empty_support(self):
        assert gen_state(GenConfig(), set()) == State()

    @pytest.mark.parametrize("name", ["FOR", "1x", ""])
    def test_rejects_bad_name(self, name):
        with pytest.raises(ValueError, match=re.escape(f"invalid variable name: {name!r}")):
            gen_state(GenConfig(), {"x", name})

    def test_respects_bounds(self):
        cfg = GenConfig(value_range=(-2, 2), max_stack_len=1, max_counter=0)
        for seed in range(50):
            state = gen_state(dataclasses.replace(cfg, seed=seed), {"x", "y", "z"})
            for name in ("x", "y", "z"):
                value, stack, counter = state.get(name)
                assert -2 <= value <= 2
                assert len(stack) <= 1
                assert all(-2 <= e <= 2 for e in stack)
                assert counter == 0

    def test_zero_counters(self):
        state = State({"x": Cell(1, (2,), 3), "y": Cell(4)})
        assert zero_counters(state) == State({"x": Cell(1, (2,), 0), "y": Cell(4)})

    def test_zero_counters_keeps_a_counter_free_state(self):
        state = State({"x": Cell(1, (2,), 0), "y": Cell(4)})
        assert zero_counters(state) is state


# The cells some seeds draw, and the next 32 random bits after the draw.  A
# change to `gen_state` that keeps each seed's states, and so its fuzz
# reports, keeps these.  Names are drawn in sorted order, each once, and a
# default cell is drawn but not stored.
STATE_PINS = [
    (
        {}, 1, "xyzw",
        {"w": (-3, (-4, -1, -4, 2), 1), "x": (2, (-2, -4, 2), 0), "y": (1, (4, -5, 2), 1), "z": (-2, (-4, 0, -5, -5), 0)},
        2789779421,
    ),
    ({}, 7, "zyxz", {"x": (0, (1,), 2), "y": (-5, (), 2), "z": (-4, (4, -5), 2)}, 922121676),
    (
        {"max_stack_len": 0}, 3, "xyzw",
        {"w": (-2, (), 1), "x": (4, (), 2), "y": (4, (), 2), "z": (-5, (), 1)},
        2365602028,
    ),
    (
        {"max_counter": 0}, 4, "xyzw",
        {"w": (-2, (-4, 1), 0), "x": (-3, (), 0), "y": (-5, (3, -1, -5), 0), "z": (3, (0, -1, -3, -4), 0)},
        920842827,
    ),
    ({"value_range": (2, 2)}, 5, "xyz", {"x": (2, (2, 2), 0), "y": (2, (2,), 1), "z": (2, (2,), 2)}, 437976711),
    (
        {"value_range": (0, 0), "max_counter": 0}, 8, "xyzw",
        {"w": (0, (0, 0), 0), "y": (0, (0, 0, 0, 0), 0), "z": (0, (0, 0, 0), 0)},
        2083486416,
    ),
    (
        {"value_range": (-3, 7), "max_stack_len": 6, "max_counter": 3}, 6, ["x", "v", "a1"],
        {"a1": (6, (-2, 4, 1, -3, -3, -1), 3), "v": (2, (-3, 1), 3), "x": (0, (3, 5, 5, 7, -2), 1)},
        2419862217,
    ),
]


@pytest.mark.parametrize(("sizes", "seed", "names", "cells", "next_bits"), STATE_PINS)
def test_seed_draws_its_state(sizes, seed, names, cells, next_bits):
    state = gen_state(GenConfig(seed=seed, **sizes), names)
    assert {name: tuple(cell) for name, cell in state.as_dict().items()} == cells
    assert all(type(cell) is Cell and type(cell.stack) is tuple for cell in state.as_dict().values())
    rng = random.Random(seed)
    assert gen_state(GenConfig(**sizes), names, rng=rng) == state
    assert rng.getrandbits(32) == next_bits


class TestGenConfigValidation:
    def test_empty_value_range(self):
        with pytest.raises(ValueError):
            GenConfig(value_range=(3, -3))

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            GenConfig(max_depth=0)
        with pytest.raises(ValueError):
            GenConfig(max_stack_len=-1)


class TestChecks:
    def test_strong_on_over_popping_loop(self):
        verdict = check_strong_reversibility(
            parse("FOR x {POP s}"), State({"x": Cell(3), "s": Cell(0, (2, 1), 0)})
        )
        assert verdict == Pass()

    def test_strong_on_skip(self):
        assert check_strong_reversibility(Skip(), State({"x": Cell(9, (1,), 2)})) == Pass()

    def test_strong_on_illegal_pop(self):
        assert check_strong_reversibility(Pop("x"), State({"x": Cell(5, (2,), 0)})) == Pass()

    def test_weak_on_push(self):
        assert check_weak_reversibility_a(Push("x"), State({"x": Cell(4)})) == Pass()

    def test_weak_vacuous_on_abort(self):
        verdict = check_weak_reversibility_a(Pop("x"), State({"x": Cell(5, (2,), 0)}))
        assert verdict == Pass(vacuous=True)

    def test_weak_on_skip(self):
        assert check_weak_reversibility_a(Skip(), State()) == Pass()

    def test_agreement_on_legal_pop(self):
        assert check_agreement_a_r(Pop("x"), State({"x": Cell(0, (7, 3), 0)})) == Pass()

    def test_agreement_on_inc(self):
        assert check_agreement_a_r(Inc("x"), State()) == Pass()

    def test_agreement_vacuous_on_abort(self):
        verdict = check_agreement_a_r(Pop("x"), State({"x": Cell(0, (), 0)}))
        assert verdict == Pass(vacuous=True)

    def test_correspondence_broken_final(self):
        report = check_failure_correspondence(Pop("x"), State({"x": Cell(5, (2,), 0)}))
        assert report.a_aborted and report.r_final_broken
        assert report.direction_witness is None

    def test_correspondence_repaired_abort(self):
        report = check_failure_correspondence(
            parse("POP x; PUSH x"), State({"x": Cell(5, (2,), 0)})
        )
        assert report.a_aborted and not report.r_final_broken
        assert report.direction_witness == "only-if"

    def test_correspondence_on_skip(self):
        report = check_failure_correspondence(Skip(), State())
        assert not report.a_aborted and not report.r_final_broken
        assert report.direction_witness is None

    def test_weak_fails_when_the_inverse_run_aborts(self, monkeypatch):
        # the inverse assert run starts one above where the forward run
        # ended, so its POP x finds a nonzero value
        def fault(real):
            def exec_(self, values, stacks, counters, semantics, order, observe=None):
                if semantics == "a" and order == "-":
                    values[:] = [value + 1 for value in values]
                return real(self, values, stacks, counters, semantics, order, observe)

            return exec_

        monkeypatch.setattr(Program, "_exec", fault(Program._exec))
        verdict = check_weak_reversibility_a(Push("x"), State())
        assert verdict == Fail(Push("x"), State(), "inverse run aborted: value-nonzero on x")

    def test_agreement_fails_when_both_runs_end_broken(self, monkeypatch):
        # every run ends with the first variable's counter at 1, so the
        # assert and reversible runs agree, and the reversible one is broken
        def fault(real):
            def exec_(self, values, stacks, counters, semantics, order, observe=None):
                record = real(self, values, stacks, counters, semantics, order, observe)
                counters[0] = 1
                return record

            return exec_

        monkeypatch.setattr(Program, "_exec", fault(Program._exec))
        verdict = check_agreement_a_r(parse("INC y; DEC x"), State())
        assert verdict == Fail(parse("INC y; DEC x"), State(), "reversible run left broken variables: ['y']")

    def test_pair_checks_refuse_counters(self):
        # strong reversibility is a property of R-semantics, which takes any
        # counter; the other three are defined on the pair semantics only
        state = State({"x": Cell(5, (2,), 0), "y": Cell(0, (), 1)})
        assert check_strong_reversibility(Pop("x"), state) == Pass()
        for check in (check_weak_reversibility_a, check_agreement_a_r, check_failure_correspondence):
            with pytest.raises(NonzeroCounterError) as info:
                check(Pop("x"), state)
            assert info.value.variable == "y"


class TestExhaustiveOracles:
    def test_default_grid_has_600_cells(self):
        verdict = exhaustive_pop_push_inverse(2, 3, 1, 2)
        assert verdict == Pass(cases_run=600)

    def test_degenerate_grid(self):
        assert exhaustive_pop_push_inverse(0, 0, 0, 0) == Pass(cases_run=1)

    def test_pop_injective_on_default_grid(self):
        assert exhaustive_pop_injective(2, 3, 1, 2) == Pass(cases_run=600)

    @pytest.mark.parametrize("oracle", [exhaustive_pop_push_inverse, exhaustive_pop_injective])
    @pytest.mark.parametrize("at, name", enumerate(["value_bound", "stack_len_bound", "elem_bound", "counter_bound"]))
    def test_negative_bound_is_refused(self, oracle, at, name):
        # the default grid with one bound made negative: a grid with no
        # cell would otherwise pass having checked nothing
        bounds = [2, 3, 1, 2]
        bounds[at] = -1
        with pytest.raises(ValueError, match=f"^{name} must be non-negative, got -1$"):
            oracle(*bounds)


class TestOracleGrid:
    """The cells the oracles visit, their order and count, and which
    failing cell they report, pinned against `grid` with spies and fakes
    in place of `harness.push_r` and `harness.pop_r`."""

    @pytest.mark.parametrize("bounds", list(itertools.product(range(3), repeat=4)))
    def test_visits_every_cell_once_in_order(self, monkeypatch, bounds):
        popped, pushed = [], []
        monkeypatch.setattr(harness, "pop_r", lambda cell: popped.append(cell) or semantics.pop_r(cell))
        monkeypatch.setattr(harness, "push_r", lambda cell: pushed.append(cell) or semantics.push_r(cell))
        cells = grid(*bounds)
        v, s, e, c = bounds
        size = (2 * v + 1) * sum((2 * e + 1) ** k for k in range(s + 1)) * (c + 1)
        assert len(cells) == size
        # the round trip pushes each cell, then pushes back what popping it gave
        assert exhaustive_pop_push_inverse(*bounds) == Pass(cases_run=size)
        assert pushed[::2] == cells and all(type(cell) is Cell for cell in pushed[::2])
        assert exhaustive_pop_injective(*bounds) == Pass(cases_run=size)
        assert popped[2 * size :] == cells

    @pytest.mark.parametrize("oracle", [exhaustive_pop_push_inverse, exhaustive_pop_injective])
    def test_reports_the_last_cell_of_each_layer(self, monkeypatch, oracle):
        # the last cell of each value's and each stack length's layer fails
        # alone: the fake pops it as it pops the grid's first cell, so the
        # round trip breaks there and so does injectivity
        bounds = (2, 3, 1, 2)
        cells = grid(*bounds)
        first = cells[0]
        for value in range(-2, 3):
            for length in range(4):
                last = Cell(value, (1,) * length, 2)
                at = cells.index(last)
                assert at + 1 == len(cells) or cells[at + 1][:2] != (value, (1,) * length)
                monkeypatch.setattr(
                    harness, "pop_r", lambda cell: semantics.pop_r(first if cell == last else cell)
                )
                verdict = oracle(*bounds)
                assert isinstance(verdict, Fail)
                if oracle is exhaustive_pop_injective:
                    image = semantics.pop_r(first)
                    assert verdict.details == f"pop collision: {tuple(first)} and {tuple(last)} -> {tuple(image)}"
                else:
                    assert verdict.details.startswith((f"pop(push({tuple(last)})) = ", f"push(pop({tuple(last)})) = "))

    @pytest.mark.parametrize("oracle", [exhaustive_pop_push_inverse, exhaustive_pop_injective])
    @pytest.mark.parametrize("bounds", [(10**6, 12, 2, 10**6), (2**70, 2**70, 2, 2**70)])
    def test_enumeration_is_lazy(self, monkeypatch, oracle, bounds):
        # a grid of 10**12 cells or far more, whose first cell fails: the
        # verdict comes at once and in little memory, as no stack, value
        # or counter is made before the cell that needs it
        monkeypatch.setattr(harness, "pop_r", lambda cell: Cell(7))
        tracemalloc.start()
        try:
            started = time.perf_counter()
            verdict = oracle(*bounds)
            elapsed = time.perf_counter() - started
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        v = -bounds[0]
        if oracle is exhaustive_pop_injective:
            details = f"pop collision: {(v, (), 0)} and {(v, (), 1)} -> (7, (), 0)"
        else:
            details = f"pop(push({(v, (), 0)})) = (7, (), 0)"
        assert verdict == Fail(None, None, details)
        assert elapsed < 0.5
        assert peak < 100_000


class TestMinimize:
    def test_shrinks_to_local_minimum(self):
        program = Seq(Seq(Inc("y"), Pop("x")), For("z", Seq(Inc("y"), Inc("y"))))
        initial = State({"x": Cell(5, (1, 2), 1), "y": Cell(3), "z": Cell(2)})

        def fails(p, s):
            return _contains_pop_x(p) and s.get("x").value >= 2

        small_p, small_s = minimize(program, initial, fails)
        assert fails(small_p, small_s)
        assert small_p == Pop("x")
        assert small_s == State({"x": Cell(2)})

    def test_minimized_pair_replays(self):
        def fails(p, s):
            return _contains_pop_x(p) and s.get("x").value >= 2

        small_p, small_s = minimize(Seq(Pop("x"), Pop("x")), State({"x": Cell(4)}), fails)
        assert fails(small_p, small_s)
        # every single further shrink passes
        from scorelang.harness import _state_shrinks, _term_shrinks

        assert all(not fails(p, small_s) for p in _term_shrinks(small_p))
        assert all(not fails(small_p, s) for s in _state_shrinks(small_s))

    def test_long_sequence_shrinks_in_few_calls(self):
        # halving keeps the recursion and the number of calls logarithmic
        program = Seq(*[Inc("y")] * 1500, Pop("x"), *[Inc("y")] * 1500)
        calls = []

        def fails(p, s):
            calls.append(p)
            return _contains_pop_x(p)

        assert minimize(program, State(), fails) == (Pop("x"), State())
        assert len(calls) < 50

    def test_rejects_passing_input(self):
        with pytest.raises(ValueError):
            minimize(Skip(), State(), lambda p, s: False)

    @settings(max_examples=300)
    @given(raw_terms(max_depth=5))
    def test_term_shrinks_match_the_recursive_shrinks(self, term):
        # the same candidates in the same order, so `minimize` makes the
        # same predicate calls
        shrinks = list(harness._term_shrinks(term))
        assert shrinks == list(reference_shrinks.term_shrinks(term))
        assert [pretty(t) for t in shrinks] == [pretty(t) for t in reference_shrinks.term_shrinks(term)]

    def test_deep_loop_nest_shrinks(self):
        # The pair fails while POP x is the whole innermost body, or while
        # all 2,000 loops still run INC x; POP x.  So the first round passes
        # every loop's drop and drops INC x at the bottom of the nest, where
        # a walk that recursed per loop level would raise RecursionError;
        # every later round drops the outermost loop.
        depth = 2000
        program = Seq(Inc("x"), Pop("x"))
        for level in reversed(range(depth)):
            program = For(f"v{level}", program)
        calls = []

        def fails(p, s):
            calls.append(p)
            loops = 0
            while type(p) is For:
                p, loops = p.body, loops + 1
            return p == Pop("x") or (loops == depth and p == Seq(Inc("x"), Pop("x")))

        try:
            shrunk = minimize(program, State(), fails)
        except RecursionError:
            # reported as a plain failure: pytest would spend minutes on the
            # traceback, comparing the locals of its 1,000 frames
            shrunk = None
        assert shrunk == (Pop("x"), State())
        assert len(calls) == 1 + (depth + 2) + depth + 2

    def test_state_shrinks_are_distinct(self):
        from scorelang.harness import _state_shrinks

        assert list(_state_shrinks(State({"x": Cell(1)}))) == [State()]
        state = State({"x": Cell(2, (5,), 1), "y": Cell(-1, (0, 3), 2), "z": Cell(0, (0,), 0)})
        shrinks, with_repeats = list(_state_shrinks(state)), list(_state_shrinks_with_repeats(state))
        assert set(shrinks) == set(with_repeats)
        assert (len(shrinks), len(set(shrinks)), len(with_repeats)) == (13, 13, 18)

    @pytest.mark.parametrize(
        ("value", "half"), [(10**400, 10**400 // 2), (-(10**400), -(10**400) // 2), (2**54 + 6, 2**53 + 3), (-7, -3)]
    )
    def test_state_shrinks_halve_values_exactly(self, value, half):
        # a float halving overflows above about 1.8e308 and rounds above 2**53
        from scorelang.harness import _state_shrinks

        shrinks = [state.get("x") for state in _state_shrinks(State({"x": Cell(value)}))]
        step = value - 1 if value > 0 else value + 1
        assert shrinks == [Cell(0), Cell(half), Cell(step)]

    def test_dropping_repeated_states_keeps_every_result(self, monkeypatch):
        # two predicates, each on some 200 generated pairs it holds for
        def aborts(p, s):
            return isinstance(eval_a(p, s), Aborted)

        def ends_high(p, s):
            return any(cell.value >= 2 for cell in eval_r(p, s).as_dict().values())

        master = random.Random(4)
        cases = []
        for fails in (aborts, ends_high):
            cfg, found = GenConfig(seed=4), 0
            while found < 200:
                rng = random.Random(master.getrandbits(64))
                program = gen_term(cfg, rng=rng)
                state = gen_state(cfg, variables_of(program), rng=rng)
                state = zero_counters(state) if fails is aborts else state
                if fails(program, state):
                    cases.append((program, state, fails))
                    found += 1

        def minimize_all():
            """Every case's minimized pair, and the predicate calls made."""
            calls = []

            def counted(fails):
                def predicate(p, s):
                    calls.append(p)
                    return fails(p, s)

                return predicate

            return [minimize(p, s, counted(fails)) for p, s, fails in cases], len(calls)

        results, calls = minimize_all()
        monkeypatch.setattr(harness, "_state_shrinks", _state_shrinks_with_repeats)
        results_with_repeats, calls_with_repeats = minimize_all()
        assert results == results_with_repeats
        assert calls < calls_with_repeats


def _state_shrinks_with_repeats(state):
    """The reference state shrinks, which offer a cell again each time two
    of their rules give it: dropping the repeats must not change what
    `minimize` returns."""
    for name in sorted(state.variables()):
        value, stack, counter = state.get(name)
        yield state.set(name, Cell(0))
        if value != 0:
            toward_zero = [0, int(value / 2)]  # the same for a value of 1 or -1
            step = value - 1 if value > 0 else value + 1
            if step not in toward_zero:
                toward_zero.append(step)
            for smaller in toward_zero:
                yield state.set(name, Cell(smaller, stack, counter))
        if stack:
            yield state.set(name, Cell(value, stack[1:], counter))
            yield state.set(name, Cell(value, stack[:-1], counter))
            if stack[0] != 0:
                yield state.set(name, Cell(value, (0, *stack[1:]), counter))
        if counter > 0:
            yield state.set(name, Cell(value, stack, 0))
            yield state.set(name, Cell(value, stack, counter - 1))


def _contains_pop_x(term):
    match term:
        case Pop("x"):
            return True
        case Seq(parts):
            return any(_contains_pop_x(part) for part in parts)
        case For(_, body):
            return _contains_pop_x(body)
        case _:
            return False


class TestRunFuzz:
    def test_small_batch_passes(self):
        report = run_fuzz(GenConfig(seed=3), 300)
        assert report.ok
        assert report.strong.failed == 0
        assert report.weak.failed == 0
        assert report.agreement.failed == 0
        assert report.if_direction_witnesses == 0
        assert report.strong.passed == 300

    def test_zero_cases(self):
        report = run_fuzz(GenConfig(), 0)
        assert report.ok
        assert report.cases == 0
        assert report.seeded_only_if_reported

    def test_negative_cases_are_refused(self):
        with pytest.raises(ValueError, match="cases must be non-negative, got -3"):
            run_fuzz(GenConfig(), -3)

    def test_a_passing_case_builds_no_state(self, monkeypatch):
        """A case is drawn into slot lists and checked on them: a healthy
        batch builds a State only for its only-if samples and the check of
        the seeded witness."""
        built = []
        trusted = State._trusted.__func__

        def spy(cls, cells):
            built.append(cells)
            return trusted(cls, cells)

        def zero_counters(state):
            raise AssertionError("a case zeroed the counters of a State")

        monkeypatch.setattr(State, "_trusted", classmethod(spy))
        monkeypatch.setattr(harness, "zero_counters", zero_counters)
        report = run_fuzz(GenConfig(seed=1), 1500)
        assert report.ok and report.only_if_samples
        assert len(built) <= 10

    def test_deterministic_reports(self):
        first = run_fuzz(GenConfig(seed=11), 100)
        second = run_fuzz(GenConfig(seed=11), 100)
        assert first.to_text() == second.to_text()
        assert first.to_json_dict() == second.to_json_dict()

    def test_seeded_witness_always_reported(self):
        report = run_fuzz(GenConfig(seed=5), 10)
        assert report.seeded_only_if_reported
        assert "seeded witness 'POP x; PUSH x'" in report.to_text()

    def test_json_summary_shape(self):
        summary = run_fuzz(GenConfig(), 20).to_json_dict()
        assert summary["cases"] == 20
        assert summary["ok"] is True
        assert set(summary["strong"]) == {"passed", "failed"}
        assert set(summary["weak"]) == {"passed", "vacuous", "failed"}
        assert "if_direction_witnesses" in summary["correspondence"]

    @pytest.mark.parametrize("seed", [1, 2, 20])
    def test_each_distinct_program_compiles_once(self, monkeypatch, seed):
        compiled = []

        def spy(term):
            compiled.append(pretty(term))
            return compile_program(term)

        monkeypatch.setattr(harness, "compile_program", spy)
        cfg = GenConfig(seed=seed)
        assert run_fuzz(cfg, 1500).ok
        master, drawn = random.Random(cfg.seed), set()
        for _ in range(1500):
            drawn.add(pretty(gen_term(cfg, rng=random.Random(master.getrandbits(64)))))
        assert len(drawn) < 1500 // 3
        # and one call for the seeded witness, checked after the batch
        assert len(compiled) == len(drawn) + 1
        assert set(compiled[:-1]) == drawn and compiled[-1] == "POP x; PUSH x"

    def test_a_full_table_starts_afresh(self, monkeypatch):
        report = run_fuzz(GenConfig(seed=4), 400)
        monkeypatch.setattr(harness, "_MAX_COMPILED", 3)
        assert run_fuzz(GenConfig(seed=4), 400) == report

    @pytest.mark.parametrize("config", sorted(FUZZ_CONFIGS))
    def test_loops_hot_from_the_first_entry_give_the_same_reports(self, monkeypatch, config):
        """Cases that draw the same program share its compiled loops, and
        so their heat: with every loop hot at once, each run goes through
        the generated leaf functions, and the reports stay the same."""
        configs = [GenConfig(seed=seed, **FUZZ_CONFIGS[config]) for seed in (1, 5, 9)]
        reports = [run_fuzz(cfg, 200) for cfg in configs]
        monkeypatch.setattr(semantics, "_HOT", 0)
        for cfg, report in zip(configs, reports):
            hot = run_fuzz(cfg, 200)
            assert hot.to_text() == report.to_text()
            assert json.dumps(hot.to_json_dict()) == json.dumps(report.to_json_dict())


# Evaluator faults injected at `Program._exec`, the step that runs the
# passes on slot lists, through which `Program.run`, `run_fuzz` and every
# check run their programs; each factory gets the real method.
def _r_forgets_counters(real):
    def exec_(self, values, stacks, counters, semantics, order, observe=None):
        record = real(self, values, stacks, counters, semantics, order, observe)
        if semantics == "r":
            counters[:] = [0] * len(counters)
        return record

    return exec_


def _a_never_aborts(real):
    def exec_(self, values, stacks, counters, semantics, order, observe=None):
        return real(self, values, stacks, counters, "n" if semantics == "a" else semantics, order, observe)

    return exec_


FAULTS = {"r-forgets-counters": _r_forgets_counters, "a-never-aborts": _a_never_aborts}
RECHECK = {
    "strong-reversibility": check_strong_reversibility,
    "weak-reversibility-a": check_weak_reversibility_a,
    "a-r-agreement": check_agreement_a_r,
}


def _replay(program_text, state_text):
    return parse(program_text), parse_state(state_text.replace("; ", "\n"))


@pytest.fixture(params=sorted(FAULTS))
def faulty_report(request, monkeypatch):
    """A 200-case batch run against a broken evaluator, which stays
    patched in while the test replays the report."""
    monkeypatch.setattr(Program, "_exec", FAULTS[request.param](Program._exec))
    cfg = GenConfig(seed=20)
    return cfg, run_fuzz(cfg, 200)


class TestInjectedFaults:
    def test_report_fails(self, faulty_report):
        _, report = faulty_report
        assert not report.ok
        assert report.to_text().endswith("result: FAIL\n")

    def test_failure_counts_match_a_recount(self, faulty_report):
        cfg, report = faulty_report
        master = random.Random(cfg.seed)
        counts = dict.fromkeys(("strong", "weak", "agreement", "if"), 0)
        for _ in range(report.cases):
            rng = random.Random(master.getrandbits(64))
            program = gen_term(cfg, rng=rng)
            state = gen_state(cfg, variables_of(program), rng=rng)
            flat = zero_counters(state)
            counts["strong"] += isinstance(check_strong_reversibility(program, state), Fail)
            counts["weak"] += isinstance(check_weak_reversibility_a(program, flat), Fail)
            counts["agreement"] += isinstance(check_agreement_a_r(program, flat), Fail)
            counts["if"] += check_failure_correspondence(program, flat).direction_witness == "if"
        assert counts == {
            "strong": report.strong.failed,
            "weak": report.weak.failed,
            "agreement": report.agreement.failed,
            "if": report.if_direction_witnesses,
        }
        assert sum(counts.values()) > 0
        assert len(report.failures) == min(10, sum(counts.values()))

    def test_text_and_json_agree(self, faulty_report):
        _, report = faulty_report
        summary = report.to_json_dict()
        text = report.to_text()
        blocks = []
        for w in summary["failures"]:
            blocks += (f"FAIL [{w['check']}] program: {w['program']}", f"  state: {w['state']}", f"  {w['details']}")
        assert [line for line in text.splitlines() if line.startswith(("FAIL [", "  "))] == blocks
        strong, weak, agreement = summary["strong"], summary["weak"], summary["agreement"]
        correspondence = summary["correspondence"]
        assert f"strong-reversibility: passed {strong['passed']}, failed {strong['failed']}\n" in text
        for label, c in (("weak-reversibility-a", weak), ("a-r-agreement", agreement)):
            assert f"{label}: passed {c['passed']}, vacuous {c['vacuous']}, failed {c['failed']}\n" in text
        assert (
            f"failure-correspondence: if-direction witnesses {correspondence['if_direction_witnesses']}, "
            f"only-if witnesses {correspondence['only_if_witnesses']}\n"
        ) in text
        assert summary["ok"] is False

    def test_fail_details_match_the_printed_pair(self, faulty_report):
        _, report = faulty_report
        assert report.failures
        for witness in report.failures:
            program, state = _replay(witness.program, witness.state)
            if witness.check == "failure-correspondence":
                assert check_failure_correspondence(program, state).direction_witness == "if"
                details = "reversible run ended broken without an abort"
            else:
                verdict = RECHECK[witness.check](program, state)
                assert isinstance(verdict, Fail)
                details = verdict.details
            assert witness.details == details + " (minimized)"

    def test_failure_that_does_not_recur_is_reported_unshrunk(self, monkeypatch):
        # only the very first reversible run is broken, so the check passes
        # when run again and the case is reported as it was generated
        real, calls = Program._exec, itertools.count()

        def first_run_broken(self, values, stacks, counters, semantics, order, observe=None):
            record = real(self, values, stacks, counters, semantics, order, observe)
            if next(calls) == 0:
                counters[:] = [0] * len(counters)
            return record

        monkeypatch.setattr(Program, "_exec", first_run_broken)
        report = run_fuzz(GenConfig(seed=3), 1)
        assert report.strong.failed == 1
        assert report.failures == [
            harness.FuzzWitness(
                "strong-reversibility",
                "DEC z",
                "z = 5, [-1], 1",
                "P;-P changed the state: z: expected (5, (-1,), 1), got (5, (-1,), 0)",
            )
        ]


# Calls that each fault above must be able to change, so that the seam
# cannot quietly stop reaching the checks.
SEAM_PROBES = {
    "Program.run": lambda: compile_program(Pop("x")).run(State({"x": Cell(5, (2,), 1)}), "r"),
    "check_strong_reversibility": lambda: check_strong_reversibility(Dec("z"), State({"z": Cell(5, (-1,), 1)})),
    "check_weak_reversibility_a": lambda: check_weak_reversibility_a(Pop("x"), State({"x": Cell(5, (2,), 0)})),
    "check_agreement_a_r": lambda: check_agreement_a_r(Pop("x"), State({"x": Cell(5, (2,), 0)})),
    "check_failure_correspondence": lambda: check_failure_correspondence(Pop("x"), State({"x": Cell(5, (2,), 0)})),
    "run_fuzz": lambda: run_fuzz(GenConfig(seed=20), 50).to_text(),
}


def test_injected_faults_reach_every_run(monkeypatch):
    healthy = {name: probe() for name, probe in SEAM_PROBES.items()}
    changed = set()
    for fault in FAULTS.values():
        with monkeypatch.context() as patch:
            patch.setattr(Program, "_exec", fault(Program._exec))
            changed |= {name for name, probe in SEAM_PROBES.items() if probe() != healthy[name]}
    assert changed == set(SEAM_PROBES)


@pytest.mark.parametrize("fault", [None, *sorted(FAULTS)])
def test_slot_list_checks_match_the_state_checks(monkeypatch, fault):
    """On the first 300 pairs `run_fuzz` draws, healthy and under each
    injected fault, the slot-list checks give the verdicts of the checks
    written on States, details text included."""
    if fault is not None:
        monkeypatch.setattr(Program, "_exec", FAULTS[fault](Program._exec))
    cfg = GenConfig(seed=20)
    master = random.Random(cfg.seed)
    failed = 0
    for _ in range(300):
        rng = random.Random(master.getrandbits(64))
        program = compile_program(gen_term(cfg, rng=rng))
        state = gen_state(cfg, program.variables, rng=rng)
        results = harness._check_case(program, state)
        assert results == reference_checks.check_case(program, state)
        failed += any(isinstance(verdict, Fail) for verdict in results[1:4])
    assert (failed > 0) == (fault is not None)
