import hashlib
import json
import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import scorelang
from scorelang import Cell, Fail, Pass, exhaustive_pop_injective, harness, parse_state, pop_r
from scorelang.cli import main
from scorelang.state import dump_cell


@pytest.fixture
def workspace(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(*argv):
    """`python -m scorelang` in a fresh process: (exit code, stdout, stderr)."""
    src = str(Path(scorelang.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "scorelang", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestRun:
    def test_identity_loop_pair(self, workspace, capsys):
        program = workspace("example.score", "FOR x {POP s}; FOR x {PUSH s}")
        state = workspace("example.sst", "x = 3\ns = 0, [2, 1]")
        code, out, err = run_cli(capsys, "run", "--semantics", "r", program, state)
        assert code == 0
        assert out == "FINAL\ns = 0, [2, 1], 0\nx = 3, [], 0\n"
        assert err == ""

    def test_abort_exits_one(self, workspace, capsys):
        program = workspace("pop.score", "POP x")
        state = workspace("broken.sst", "x = 5, [2]")
        code, out, err = run_cli(capsys, "run", "--semantics", "a", program, state)
        assert code == 1
        assert out.startswith("ABORT\n")
        assert "reason: value-nonzero" in out
        assert "instruction: POP x" in out

    def test_assert_run_that_completes(self, workspace, capsys):
        program = workspace("p.score", "FOR n { PUSH x; INC x }; DEC x; POP x")
        state = workspace("s.sst", "n = 2\nx = 4, [9]")
        code, out, err = run_cli(capsys, "run", "-s", "a", program, state)
        assert (code, err) == (0, "")
        assert out == "FINAL\nn = 2, [], 0\nx = 1, [4, 9], 0\n"

    def test_skip_prints_only_header(self, workspace, capsys):
        program = workspace("skip.score", "SKIP")
        code, out, err = run_cli(capsys, "run", program)
        assert code == 0
        assert out == "FINAL\n"

    def test_default_semantics_is_reversible(self, workspace, capsys):
        program = workspace("p.score", "POP x; PUSH x")
        state = workspace("s.sst", "x = 5, [2]")
        code, out, _ = run_cli(capsys, "run", program, state)
        assert code == 0
        assert "x = 5, [2], 0" in out

    def test_backward_runs_the_inverse(self, workspace, capsys):
        program = workspace("p.score", "INC x; PUSH y")
        code, out, _ = run_cli(capsys, "run", program)
        assert code == 0
        assert out == "FINAL\nx = 1, [], 0\ny = 0, [0], 0\n"
        # backward POP y on the empty default stack counts one illegal pop
        code, out, _ = run_cli(capsys, "run", "--backward", program)
        assert code == 0
        assert out == "FINAL\nx = -1, [], 0\ny = 0, [], 1\n"

    def test_forward_then_backward_recovers_state_file(self, workspace, capsys):
        program = workspace("p.score", "FOR z { POP s; INC y }; PUSH y")
        initial_text = "z = 2\ns = 0, [7]\ny = -1"
        state = workspace("s.sst", initial_text)
        code, out, _ = run_cli(capsys, "run", program, state)
        assert code == 0
        final = workspace("final.sst", out.removeprefix("FINAL\n"))
        code, out, _ = run_cli(capsys, "run", "--backward", program, final)
        assert code == 0
        recovered = parse_state(out.removeprefix("FINAL\n"))
        assert recovered == parse_state(initial_text)

    def test_parse_error_exits_two(self, workspace, capsys):
        program = workspace("bad.score", "FOR x POP s")
        code, out, err = run_cli(capsys, "run", program)
        assert code == 2
        assert out == ""
        assert "parse error" in err

    def test_ill_formed_program_exits_two(self, workspace, capsys):
        program = workspace("bad.score", "FOR x {INC x}")
        code, _, err = run_cli(capsys, "run", program)
        assert code == 2
        assert "not well formed" in err

    def test_broken_state_rejected_for_pair_semantics(self, workspace, capsys):
        program = workspace("p.score", "INC x")
        state = workspace("s.sst", "x = 1, [], 2")
        code, _, err = run_cli(capsys, "run", "--semantics", "n", program, state)
        assert code == 2
        assert "counter" in err
        code, _, _ = run_cli(capsys, "run", "--semantics", "r", program, state)
        assert code == 0

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "run", "/nonexistent/p.score")
        assert code == 2
        assert "cannot read" in err

    def test_state_file_variables_always_printed(self, workspace, capsys):
        program = workspace("p.score", "SKIP")
        state = workspace("s.sst", "q = 0")
        code, out, _ = run_cli(capsys, "run", program, state)
        assert code == 0
        assert out == "FINAL\nq = 0, [], 0\n"

    def test_deterministic_output(self, workspace, capsys):
        program = workspace("p.score", "PUSH a; POP b")
        first = run_cli(capsys, "run", program)
        second = run_cli(capsys, "run", program)
        assert first == second

    @pytest.mark.parametrize(("source", "semantics"), [("", "r"), ("; POP x", "a")])
    def test_value_too_long_to_print_leaves_stdout_empty(self, workspace, capsys, source, semantics):
        # the nest runs in closed form and leaves x = 10**4400, past the
        # 4,300 digits `str` renders by default, in the final state or in
        # the abort record of the POP x after it
        program = workspace("p.score", "FOR a { FOR b { INC x } }" + source)
        state = workspace("s.sst", f"a = {10**2200}\nb = {10**2200}\n")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, out, err = run_cli(capsys, "run", "-s", semantics, program, state)
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, out) == (2, "")
        assert err.startswith("error: Exceeds the limit")

    @pytest.mark.parametrize(("source", "semantics"), [("", "r"), ("; INC x; POP x", "a")])
    def test_stack_element_too_long_to_print_leaves_stdout_empty(self, workspace, capsys, source, semantics):
        # PUSH x saves x = 10**4400 on x's stack, where the final state or
        # the abort record of the POP x that finds x = 1 renders it
        program = workspace("p.score", "FOR a { FOR b { INC x } }; PUSH x" + source)
        state = workspace("s.sst", f"a = {10**2200}\nb = {10**2200}\n")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, out, err = run_cli(capsys, "run", "-s", semantics, program, state)
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, out) == (2, "")
        assert err.startswith("error: Exceeds the limit")


class TestInvert:
    def test_loop_example(self, workspace, capsys):
        program = workspace("p.score", "INC x; FOR x {DEC y}")
        code, out, _ = run_cli(capsys, "invert", program)
        assert code == 0
        assert out == "FOR x { INC y }; DEC x\n"

    def test_skip(self, workspace, capsys):
        program = workspace("p.score", "SKIP")
        code, out, _ = run_cli(capsys, "invert", program)
        assert code == 0
        assert out == "SKIP\n"

    def test_double_inversion_round_trip(self, workspace, capsys):
        source = "FOR x { PUSH s; POP s }; DEC y"
        program = workspace("p.score", source)
        _, once, _ = run_cli(capsys, "invert", program)
        inverted = workspace("inv.score", once)
        _, twice, _ = run_cli(capsys, "invert", inverted)
        assert twice.strip() == source

    def test_parse_error(self, workspace, capsys):
        program = workspace("p.score", "INC")
        code, _, err = run_cli(capsys, "invert", program)
        assert code == 2
        assert "parse error" in err


class TestCheck:
    def test_violation_exits_three(self, workspace, capsys):
        program = workspace("p.score", "FOR x {INC x}")
        code, out, _ = run_cli(capsys, "check", program)
        assert code == 3
        assert out == "violation: leader 'x' occurs at body\n"

    def test_relaxed_allows_stack_ops_on_leader(self, workspace, capsys):
        program = workspace("p.score", "FOR x {PUSH x}")
        code, out, _ = run_cli(capsys, "check", "--relaxed", program)
        assert code == 0
        assert out == "ok\n"
        code, _, _ = run_cli(capsys, "check", program)
        assert code == 3

    def test_well_formed(self, workspace, capsys):
        program = workspace("p.score", "FOR x {INC y}")
        code, out, _ = run_cli(capsys, "check", program)
        assert code == 0
        assert out == "ok\n"


class TestFuzz:
    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "fuzz", "--cases", "50", "--seed", "1")
        assert code == 0
        assert "result: PASS" in out

    def test_byte_identical_reports(self, capsys):
        first = run_cli(capsys, "fuzz", "--cases", "40", "--seed", "9")
        second = run_cli(capsys, "fuzz", "--cases", "40", "--seed", "9")
        assert first == second

    def test_zero_cases(self, capsys):
        code, out, _ = run_cli(capsys, "fuzz", "--cases", "0")
        assert code == 0
        assert "cases: 0" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "fuzz", "--cases", "25", "--json")
        assert code == 0
        summary = json.loads(out)
        assert summary["ok"] is True
        assert summary["cases"] == 25

    def test_bounds_default_to_gen_config(self, capsys):
        code, out, _ = run_cli(capsys, "fuzz", "--json", "--cases", "200")
        assert code == 0
        assert json.loads(out) == harness.run_fuzz(harness.GenConfig(), 200).to_json_dict()

    def test_bad_range_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "fuzz", "--value-min", "5", "--value-max", "-5")
        assert code == 2
        assert "error" in err

    def test_negative_cases_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "fuzz", "--cases", "-5")
        assert (code, out) == (2, "")
        assert err == "error: --cases must not be negative, got -5\n"


class TestRunawayNest:
    """Case 1024 of `fuzz --seed 236521`, which needs about 7.2e18 steps
    under r.  Every loop it runs many times has a body that is a
    translation, so each runs in closed form; each command runs in a fresh
    process, whose timeout ends a run that hangs."""

    PROGRAM = "FOR x { POP z; FOR z { FOR y { DEC w } }; FOR w { INC y; INC z } }\n"
    STATE = "w = 3, [-5]\nx = 5, [-1, 1], 1\ny = 4\nz = -3, [], 2\n"
    FINAL = (
        "FINAL\n"
        "w = -2411166784077928983, [-5], 0\n"
        "x = 5, [-1, 1], 1\n"
        "y = -2411166785630722199, [], 0\n"
        "z = -2411166785630722206, [], 7\n"
    )

    def test_run_r_and_back(self, workspace):
        program, state = workspace("runaway.score", self.PROGRAM), workspace("runaway.sst", self.STATE)
        assert run_fresh("run", "-s", "r", program, state) == (0, self.FINAL, "")
        final = workspace("final.sst", self.FINAL.removeprefix("FINAL\n"))
        code, out, err = run_fresh("run", "-s", "r", "--backward", program, final)
        assert (code, err) == (0, "")
        assert parse_state(out.removeprefix("FINAL\n")) == parse_state(self.STATE)

    def test_assert_run_aborts_at_once(self, workspace):
        # the pair semantics see the state with its counters zeroed, as fuzz
        # runs them; POP z finds z = -3
        program = workspace("runaway.score", self.PROGRAM)
        state = workspace("flat.sst", "w = 3, [-5]\nx = 5, [-1, 1]\ny = 4\nz = -3\n")
        abort = "ABORT\nstep: 1\ninstruction: POP z\nvariable: z\nreason: value-nonzero\nvalue: -3\nstack: []\n"
        assert run_fresh("run", "-s", "a", program, state) == (1, abort, "")

    def test_fuzz_seed_finishes(self):
        code, out, err = run_fresh("fuzz", "--seed", "236521", "--cases", "1100")
        assert (code, err) == (0, "")
        assert out.endswith("result: PASS\n")


class TestOracle:
    def test_default_bounds(self, capsys):
        code, out, _ = run_cli(capsys, "oracle")
        assert code == 0
        assert out == "600 cells checked\n"

    def test_single_cell(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--value", "0", "--stack-len", "0", "--elem", "0", "--counter", "0"
        )
        assert code == 0
        assert out == "1 cells checked\n"

    def test_injectivity_flag(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--injectivity")
        assert code == 0
        assert out == "600 cells checked\n0 collisions\n"

    @pytest.mark.parametrize(
        "name, fake",
        [
            ("push_r", lambda cell: Cell(0, (cell.value, *cell.stack), 0)),  # never repairs
            ("pop_r", lambda cell: Cell(cell.value, cell.stack, min(cell.counter + 1, 2))),  # counter capped
            ("pop_r", lambda cell: Cell(0, cell.stack[1:], 0) if len(cell.stack) == 3 else pop_r(cell)),
        ],
    )
    def test_broken_push_pop_fail_lines_match_two_passes(self, capsys, monkeypatch, name, fake):
        monkeypatch.setattr(harness, name, fake)
        push, pop = harness.push_r, harness.pop_r
        stacks = [s for n in range(4) for s in product((-1, 0, 1), repeat=n)]
        grid = [Cell(v, s, c) for v in range(-2, 3) for s in stacks for c in range(3)]
        # the two passes the one-pass oracle replaced: every inverse first, then the collisions
        inverse = next(
            (
                f"FAIL: {outer}({inner}({tuple(cell)})) = {tuple(back)}"
                for cell in grid
                for outer, inner, back in (("pop", "push", pop(push(cell))), ("push", "pop", push(pop(cell))))
                if back != cell
            ),
            None,
        )
        seen = {}
        collision = next(
            (
                f"FAIL: pop collision: {tuple(seen[pop(cell)])} and {tuple(cell)} -> {tuple(pop(cell))}"
                for cell in grid
                if seen.setdefault(pop(cell), cell) is not cell
            ),
            None,
        )
        assert inverse is not None
        assert run_cli(capsys, "oracle", "--injectivity") == (3, inverse + "\n", "")
        injective = exhaustive_pop_injective(2, 3, 1, 2)
        assert injective == (Pass(cases_run=600) if collision is None else Fail(None, None, collision[6:]))

    @pytest.mark.parametrize("option", ["--value", "--stack-len", "--elem", "--counter"])
    def test_negative_bound_exits_two(self, capsys, option):
        code, out, err = run_cli(capsys, "oracle", "--injectivity", option, "-1")
        assert (code, out) == (2, "")
        assert err == f"error: {option} must not be negative, got -1\n"


class TestTrace:
    def test_counter_round_trip_blocks(self, workspace, capsys):
        program = workspace("p.score", "POP x; PUSH x")
        state = workspace("s.sst", "x = 5, [2]")
        code, out, _ = run_cli(capsys, "trace", "--semantics", "r", program, state)
        assert code == 0
        assert out == (
            "step 1: POP x\n"
            "x = 5, [2], 1\n"
            "step 2: PUSH x\n"
            "x = 5, [2], 0\n"
            "FINAL\n"
            "x = 5, [2], 0\n"
        )

    def test_skip_has_no_step_blocks(self, workspace, capsys):
        program = workspace("p.score", "SKIP")
        code, out, _ = run_cli(capsys, "trace", program)
        assert code == 0
        assert out == "FINAL\n"

    def test_abort_block(self, workspace, capsys):
        program = workspace("p.score", "POP x")
        state = workspace("s.sst", "x = 5, [2]")
        code, out, _ = run_cli(capsys, "trace", "--semantics", "a", program, state)
        assert code == 1
        assert out == (
            "ABORT at step 1: POP x\n"
            "reason: value-nonzero\n"
            "value: 5\n"
            "stack: [2]\n"
        )

    def test_loop_unfolding_blocks(self, workspace, capsys):
        program = workspace("p.score", "FOR x {INC y}")
        state = workspace("s.sst", "x = 2")
        code, out, _ = run_cli(capsys, "trace", program, state)
        assert code == 0
        assert out == (
            "step 1: INC y\n"
            "y = 1, [], 0\n"
            "step 2: INC y\n"
            "y = 2, [], 0\n"
            "FINAL\n"
            "x = 2, [], 0\n"
            "y = 2, [], 0\n"
        )


def rendered_trace(steps, final, names):
    """The `trace` stdout and exit code for `eval_traced`'s steps and final
    state, each step's cell printed by `dump_cell`."""
    out = []
    for step in steps:
        if step.abort is not None:
            record = step.abort
            stack = ", ".join(map(str, record.observed.stack))
            out.append(f"ABORT at step {step.index + 1}: {step.instruction}\nreason: {record.reason}\n")
            out.append(f"value: {record.observed.value}\nstack: [{stack}]\n")
            return "".join(out), 1
        out.append(f"step {step.index + 1}: {step.instruction}\n" + dump_cell(step.variable, step.state))
    return "".join(out) + "FINAL\n" + scorelang.dump_state(final, names), 0


class TestTraceObservers:
    """`scorelang trace` formats each step as the run goes, from its own
    observer; `eval_traced`'s observer builds TraceSteps.  The two agree."""

    def test_cli_prints_the_steps_of_eval_traced(self, tmp_path, capsys):
        cfg = scorelang.GenConfig()
        master = random.Random(15)
        aborted = 0
        for k in range(200):
            rng = random.Random(master.getrandbits(64))
            term = scorelang.gen_term(cfg, rng=rng)
            names = scorelang.variables_of(term)
            full = scorelang.gen_state(cfg, names, rng=rng)
            program = tmp_path / f"p{k}.score"
            program.write_text(scorelang.pretty(term), encoding="utf-8")
            for semantics in "nar":
                state = full if semantics == "r" else scorelang.zero_counters(full)
                state_file = tmp_path / f"s{k}{semantics}.sst"
                state_file.write_text(scorelang.dump_state(state, names), encoding="utf-8")
                for backward, run in ((False, term), (True, scorelang.invert(term))):
                    argv = ["trace", "-s", semantics, *["--backward"] * backward, str(program), str(state_file)]
                    code, out, err = run_cli(capsys, *argv)
                    expected, expected_code = rendered_trace(*scorelang.eval_traced(run, state, semantics), names)
                    assert (code, out, err) == (expected_code, expected, ""), (k, semantics, backward)
                    aborted += code == 1
        assert 0 < aborted < 400  # both outcomes of the assert runs were compared


class TestDeepPrograms:
    """A long flat program, and a deep loop nest whose loops all run, go
    through every command with exit 0 and the exact output."""

    CYCLES = 300
    DEPTH = 600
    SOURCES = {
        "flat": "; ".join(("INC x", "PUSH y", "POP y", "DEC z") * CYCLES),
        "nest": "".join(f"FOR a{i} {{ " for i in range(DEPTH)) + "INC x" + " }" * DEPTH,
    }
    # every leader of the nest is 1, so each of its loops runs once
    STATES = {"flat": "", "nest": "".join(f"a{i} = 1\n" for i in range(DEPTH))}

    def flat_stdout(self, command):
        n = self.CYCLES
        final = f"FINAL\nx = {n}, [], 0\ny = 0, [], 0\nz = -{n}, [], 0\n"
        if command == "check":
            return "ok\n"
        if command == "invert":
            return "; ".join(("INC z", "PUSH y", "POP y", "DEC x") * n) + "\n"
        if command == "run":
            return final
        blocks = []
        for k in range(1, n + 1):
            blocks += [f"INC x\nx = {k}", "PUSH y\ny = 0, [0]", "POP y\ny = 0, []", f"DEC z\nz = -{k}"]
        blocks = [b if b.endswith("]") else b + ", []" for b in blocks]
        return "".join(f"step {i}: {b}, 0\n" for i, b in enumerate(blocks, start=1)) + final

    def nest_stdout(self, command):
        names = sorted([f"a{i}" for i in range(self.DEPTH)] + ["x"])
        final = "FINAL\n" + "".join(f"{name} = 1, [], 0\n" for name in names)
        if command == "check":
            return "ok\n"
        if command == "invert":
            return self.SOURCES["nest"].replace("INC x", "DEC x") + "\n"
        if command == "run":
            return final
        return "step 1: INC x\nx = 1, [], 0\n" + final

    @pytest.mark.parametrize("command", ["check", "invert", "run", "trace"])
    @pytest.mark.parametrize("shape", ["flat", "nest"])
    def test_exits_cleanly(self, workspace, command, shape):
        program = workspace("deep.score", self.SOURCES[shape])
        state = [workspace("deep.sst", self.STATES[shape])] if command in ("run", "trace") else []
        code, out, err = run_fresh(command, program, *state)
        assert (code, err) == (0, "")
        expected = self.flat_stdout(command) if shape == "flat" else self.nest_stdout(command)
        assert out == expected


class TestUsage:
    def test_no_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_bad_semantics_choice(self, workspace, capsys):
        program = workspace("p.score", "SKIP")
        with pytest.raises(SystemExit) as info:
            main(["run", "--semantics", "x", program])
        assert info.value.code == 2

    def test_usage_error_then_run_in_one_process(self, workspace, capsys):
        # the argument parser is built once per process and reused, so a
        # call after a usage error must behave as in a fresh process
        program = workspace("p.score", "INC x; PUSH y")
        calls = [["run", "--semantics", "x", program], ["run", "-s", "a", "--backward", program]]
        in_process = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exit_:
                code = exit_.code
            captured = capsys.readouterr()
            in_process.append((code, captured.out, captured.err))
        assert in_process == [run_fresh(*argv) for argv in calls]
        assert [code for code, _, _ in in_process] == [2, 1]


# The corpus of `TestGoldenOutput`: 60 seeded programs, each a sequence of
# six generated terms, every third made ill-formed by putting a loop's leader
# into its own body (or, for a program with no loop, by wrapping it in a loop
# whose leader it then increments).
GOLDEN_SEEDS = range(1, 61)
GOLDEN_PLANTS = ("PUSH {0}; ", "INC {0}; ", "FOR {0} {{ SKIP }}; ")
GOLDEN_COMMANDS = {
    "check": ("check",),
    "check_relaxed": ("check", "--relaxed"),
    "invert": ("invert",),
    "run_r": ("run", "-s", "r"),
    "run_a_backward": ("run", "-s", "a", "--backward"),
    "trace_r": ("trace", "-s", "r"),
    "trace_a_backward": ("trace", "-s", "a", "--backward"),
}
# Computed before the loop proviso and the variable order moved into one walk.
GOLDEN_HASHES = {
    "check": "908bad2ce714c5f98adba20bde1435d939d9fb9c0d80bf7a5d564d6a7c8aedc5",
    "check_relaxed": "8f447e17c867e616a6d9d060bfe9d6898075d09cf10090061afc30d6c2fe8f77",
    "invert": "1a1150f5b637e9acb9bcbdbe3e5fb5e7e84794413b71a2aeefa14ab03c69629b",
    "run_a_backward": "c8aa728da7ec68eb47e1a6ca75c7673bf2dba8f625f67bd1d707a88aec67d6d5",
    "run_r": "aec80c88ac8d83990f3d93278467f3060ca373a49dad8e7ec12330d3813fec17",
    "trace_a_backward": "ff321c57c867bb98f81d51e62be163bb1ca630f36bdb4aa9c13742d1d1d7169b",
    "trace_r": "a0e962fd2a0859445137244a9196d5ecb220296d98c233379f0bb157e4247aaa",
}


def golden_source(seed):
    rng = random.Random(seed)
    src = "; ".join(scorelang.pretty(scorelang.gen_term(scorelang.GenConfig(), rng)) for _ in range(6))
    loops = [k for k in range(len(src)) if src.startswith("FOR ", k)]
    if seed % 3:
        return src
    if not loops:
        return f"FOR v {{ {src}; INC v }}"
    plant = GOLDEN_PLANTS[seed // 3 % len(GOLDEN_PLANTS)]
    start = loops[seed % len(loops)]
    leader = src[start + 4 : src.index(" ", start + 4)]
    body = src.index("{ ", start) + 2
    return src[:body] + plant.format(leader) + src[body:]


@pytest.fixture(scope="module")
def golden_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("golden")
    files = []
    for seed in GOLDEN_SEEDS:
        src = golden_source(seed)
        # most states have zero counters, so the assert runs get past their check
        cfg = scorelang.GenConfig(seed=seed, max_counter=2 if seed % 4 == 0 else 0)
        state = scorelang.gen_state(cfg, scorelang.variables_of(scorelang.parse(src)))
        program, state_file = folder / f"p{seed}.score", folder / f"s{seed}.sst"
        program.write_text(src, encoding="utf-8")
        state_file.write_text(scorelang.dump_state(state, state.variables()), encoding="utf-8")
        files.append((str(program), str(state_file)))
    return files


class TestGoldenOutput:
    """CLI stdout, stderr and exit code, byte for byte, on a fixed corpus:
    one sha256 per command over all 60 programs."""

    @pytest.mark.parametrize("command", sorted(GOLDEN_COMMANDS))
    def test_command_output_is_pinned(self, command, golden_files, capsys):
        argv = GOLDEN_COMMANDS[command]
        digest = hashlib.sha256()
        for program, state in golden_files:
            state_arg = (state,) if argv[0] in ("run", "trace") else ()
            code, out, err = run_cli(capsys, *argv, program, *state_arg)
            digest.update(f"{code}\0{out}\0{err}\0".encode())
        assert digest.hexdigest() == GOLDEN_HASHES[command]
