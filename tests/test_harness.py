import dataclasses
import hashlib
import itertools
import json
import random

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
from scorelang import harness
from scorelang.harness import _var_names

import reference_checks
import reference_shrinks
import reference_walker
from term_strategies import raw_terms


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
}
FUZZ_REPORT_HASHES = {
    "default": "5f99bade35e749aeeb786aef55f9d7404415c62e561630df9ccc6d3efe55b786",
    "deep": "85410119820662522a25f0807c279de225862b8387d4121d802e1d445f0d9636",
    "wide": "4314ed537b04a132c183354a9f52ae37c01affaa46db85facb63056c1cc75691",
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
