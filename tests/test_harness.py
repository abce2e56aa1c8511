import dataclasses

import pytest

from scorelang import (
    Cell,
    Fail,
    For,
    GenConfig,
    Inc,
    Pass,
    Pop,
    Push,
    Seq,
    Skip,
    State,
    check_agreement_a_r,
    check_failure_correspondence,
    check_strong_reversibility,
    check_weak_reversibility_a,
    check_well_formed,
    exhaustive_pop_injective,
    exhaustive_pop_push_inverse,
    gen_state,
    gen_term,
    minimize,
    parse,
    run_fuzz,
    variables_of,
    zero_counters,
)
from scorelang.harness import _var_names


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

    def test_all_weight_on_skip(self):
        weights = dict.fromkeys(("inc", "dec", "push", "pop", "seq", "for"), 0) | {"skip": 1}
        assert gen_term(GenConfig(weights=weights)) == Skip()

    def test_single_variable_loops_still_possible(self):
        # with one name, a FOR body cannot reference any variable
        cfg = GenConfig(seed=7, max_vars=1)
        for seed in range(100):
            term = gen_term(dataclasses.replace(cfg, seed=seed))
            assert check_well_formed(term) == []


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

    def test_all_zero_weights(self):
        with pytest.raises(ValueError):
            GenConfig(weights=dict.fromkeys(("skip", "inc", "dec", "push", "pop", "seq", "for"), 0))

    def test_unknown_weight_key(self):
        with pytest.raises(ValueError):
            GenConfig(weights={"while": 1})

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
