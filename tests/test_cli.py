"""The CLI checks that a row of `cli_cases.CASES` cannot make.  They set
the interpreter's int-to-string limit, call the CLI twice in one process,
monkeypatch or spy on it, read argparse's exits and help text, check
which command lines reach argparse and which are remembered, write to a
full device or a closed pipe, compute their expected output with
scorelang itself, or run every row again with its line ends rewritten.
Every fixed command line is a row of that table."""

import argparse
import dataclasses
import errno
import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import threading
from itertools import product

import pytest

import scorelang
from scorelang import Cell, Fail, Pass, exhaustive_pop_injective, harness, pop_r
from scorelang import cli
from scorelang.cli import main
from cli_cases import (
    ARGPARSE_SPELLINGS,
    CASES,
    PUSH_GROW,
    SCORELANG,
    _bytes,
    differences,
    flat,
    leader_writes,
    run_fresh,
    source_env,
)
import reference_walker


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


class TestRun:
    def test_deterministic_output(self, workspace, capsys):
        program = workspace("p.score", "PUSH a; POP b")
        first = run_cli(capsys, "run", program)
        second = run_cli(capsys, "run", program)
        assert first == second

    @pytest.mark.parametrize("command", ["run", "trace"])
    def test_a_term_is_parsed_only_to_refuse_a_program(self, workspace, capsys, monkeypatch, command):
        # the program is compiled from its text; only the refusal of an
        # ill-formed one parses it, for the error's term
        parsed = []
        for module in (cli, scorelang.semantics):
            real = module.parse
            monkeypatch.setattr(module, "parse", lambda src, real=real: parsed.append(src) or real(src))
        state = workspace("s.sst", "n = 2\n")
        for source, code in (("FOR n { INC x }", 0), ("FOR n { INC n }", 2)):
            parsed.clear()
            assert run_cli(capsys, command, workspace("p.score", source), state)[0] == code
            assert parsed == [source] * (code == 2)

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

    @pytest.mark.parametrize(
        ("argv", "pop", "expected"),
        [
            (["run"], "", [2]),  # the FINAL line
            (["run", "-s", "a"], "; POP y", [2]),  # the abort block's stack line
            (["trace"], "", [1, 2, 2]),  # two PUSH blocks, then the FINAL line
            (["trace", "-s", "a"], "; POP y", [1, 2, 2]),  # two PUSH blocks, then the abort block
        ],
    )
    def test_long_stacks_print_through_the_stack_printer(self, workspace, capsys, monkeypatch, argv, pop, expected):
        # y's stack grows to two past the short-stack bound, and the
        # stack printer prints it, as the list repr, whenever it is longer
        short, printed = scorelang.state._SHORT_STACK, []

        def spy(stack):
            printed.append(len(stack) - short)
            return repr(list(stack))

        monkeypatch.setattr(scorelang.state, "_stack_text", spy)
        program = workspace("p.score", "FOR n { PUSH y; INC y }" + pop)
        state = workspace("s.sst", f"n = {short + 2}\ny = 5\n")
        code, out, err = run_cli(capsys, *argv, program, state)
        assert (code, err) == (1 if pop else 0, "")
        assert f"[{', '.join(['1'] * (short + 1))}, 5]" in out
        assert printed == expected

    @pytest.mark.parametrize("command", ["run", "trace"])
    def test_output_is_built_before_it_is_written(self, workspace, capsys, command):
        # x's 640 nines parse at the lowest limit `str` accepts, but INC x
        # makes x 10**640, one digit too long for run's final state, after
        # a's line, and for trace's step block of INC x: the second, or the
        # 10,001st, after 10,000 blocks of INC a
        inputs = [("INC a; INC x", f"x = {'9' * 640}\n"), ("FOR n { INC a }; INC x", "n = 10000\nx = " + "9" * 640)]
        for source, state_text in inputs:
            program, state = workspace("p.score", source), workspace("s.sst", state_text)
            limit = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(640)
            try:
                code, out, err = run_cli(capsys, command, program, state)
            finally:
                sys.set_int_max_str_digits(limit)
            assert (code, out) == (2, ""), source
            assert err.startswith("error: Exceeds the limit")


def _texts(case):
    """The text inputs of `case` by name, or None if one is not UTF-8 or
    holds a lone CR, which is not known to end a line: such a row has no
    text to rewrite."""
    texts = {}
    for name, content in case.files.items():
        try:
            texts[name] = _bytes(content).decode("utf-8")
        except UnicodeDecodeError:
            return None
        if "\r" in texts[name].replace("\r\n", ""):
            return None
    return texts


# The rows with a line end to rewrite; a row with none is itself this test.
LINE_END_CASES = [case for case in CASES if any("\n" in text for text in (_texts(case) or {}).values())]


class TestLineEnds:
    """Every row of the case table with a line end in its text inputs, run
    in-process with those line ends rewritten, gives the row's exit code,
    stdout and stderr: no input is translated as it is read, and both
    parsers take CRLF and CR as they take LF."""

    @pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["crlf", "cr"])
    @pytest.mark.parametrize("case", LINE_END_CASES, ids=[case.name for case in LINE_END_CASES])
    def test_row_gives_its_output(self, case, ending, tmp_path, monkeypatch, capsys):
        for name, text in _texts(case).items():
            (tmp_path / name).write_bytes(text.replace("\r\n", "\n").replace("\n", ending).encode("utf-8"))
        monkeypatch.chdir(tmp_path)
        code = main(case.argv.split())
        out, err = capsys.readouterr()
        faults = differences(case, code, out.encode("utf-8"), err.encode("utf-8"))
        assert not faults, "\n".join(faults)


class TestOutputErrors:
    """A write to stdout that fails exits 2: silently when the reader has
    gone, else with one line on stderr."""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "command",
        ["run {p}", "trace {p}", "check {p}", "invert {p}", "fuzz --cases 5", "fuzz --cases 5 --json", "oracle"],
    )
    def test_full_device_exits_two(self, workspace, command):
        program = workspace("p.score", "FOR n { INC x }")
        argv = [*SCORELANG, *command.format(p=program).split()]
        with open("/dev/full", "w") as full:
            proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, text=True, env=source_env(), timeout=120)
        assert (proc.returncode, proc.stderr) == (2, f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n")

    @pytest.mark.parametrize(
        "command, source, state, head",
        [
            # the inverse or the trace of a 300,000-atom program
            ("invert", flat(("INC x", "DEC y"), 150_000), "", b"INC y; DEC"),
            ("trace", flat(("INC x", "DEC y"), 150_000), "", b"step 1: IN"),
            # 300 violations, about 330 KB, written a line at a time
            ("check", leader_writes(300), "", b"violation:"),
            # one FINAL line of y's 100,000 stacked values
            ("run", PUSH_GROW, "n = 100000\n", b"FINAL\nn = "),
        ],
        ids=["invert", "trace", "check", "run"],
    )
    def test_reader_gone_exits_two_silently(self, workspace, command, source, state, head):
        # each output is far more than a pipe holds
        files = [workspace("big.score", source)] + ([workspace("big.sst", state)] if state else [])
        proc = subprocess.Popen(
            [*SCORELANG, command, *files], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=source_env()
        )
        killer = threading.Timer(120, proc.kill)  # ends a run that hangs
        killer.start()
        try:
            read = proc.stdout.read(10)
            proc.stdout.close()
            _, err = proc.communicate()
        finally:
            killer.cancel()
        assert (read, proc.returncode, err) == (head, 2, b"")


# `python -c CAPPED_CLI CAP ARGV...` runs the CLI on ARGV with its address
# space capped, in that child process alone, at what the child maps once
# scorelang is imported plus CAP bytes.
CAPPED_CLI = """
import resource, sys
from scorelang.cli import main
with open("/proc/self/statm") as statm:
    mapped = int(statm.read().split()[0]) * resource.getpagesize()
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
cap = mapped + int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (cap if hard == resource.RLIM_INFINITY else min(cap, hard), hard))
sys.exit(main(sys.argv[2:]))
"""


class TestOutOfMemory:
    """A command that runs out of memory exits 2 with one line on stderr."""

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
    @pytest.mark.parametrize("semantics", ["n", "a", "r"])
    def test_capped_run_exits_two(self, workspace, semantics):
        # each outer iteration's inner loop pushes 2**20 zeros in one
        # closed-form call, 8 MiB of list, so 256 MiB past the child's own
        # baseline runs out after about 32 of the million iterations
        program = workspace("p.score", "FOR a { INC z; FOR b { PUSH y } }")
        state = workspace("s.sst", f"a = 1000000\nb = {2**20}\n")
        argv = [sys.executable, "-c", CAPPED_CLI, str(256 << 20), "run", "-s", semantics, program, state]
        proc = subprocess.run(argv, capture_output=True, text=True, env=source_env(), timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: out of memory\n")

    @pytest.mark.parametrize("line", ["run {p}", "trace {p}", "invert {p}", "check {p}", "fuzz", "oracle"])
    def test_memory_error_in_any_command_exits_two(self, workspace, capsys, monkeypatch, line):
        def out_of_memory(args):
            raise MemoryError

        argv = line.format(p=workspace("p.score", "SKIP")).split()
        monkeypatch.setitem(cli._COMMANDS, argv[0], out_of_memory)
        assert run_cli(capsys, *argv) == (2, "", "error: out of memory\n")


class TestFuzz:
    def test_bounds_default_to_gen_config(self, capsys):
        code, out, _ = run_cli(capsys, "fuzz", "--json", "--cases", "200")
        assert code == 0
        assert json.loads(out) == harness.run_fuzz(harness.GenConfig(), 200).to_json_dict()

    def test_options_are_the_gen_config_fields(self):
        # the options in order, then each field's default as `fuzz` alone gives it
        top = cli._argparser()
        sub = next(action for action in top._actions if isinstance(action, argparse._SubParsersAction))
        fuzz = sub.choices["fuzz"]
        options = [string for action in fuzz._actions[1:] for string in action.option_strings]
        assert fuzz._actions[0].option_strings == ["-h", "--help"]
        assert options == [
            "--cases",
            "--seed",
            "--max-depth",
            "--max-vars",
            "--value-min",
            "--value-max",
            "--max-stack-len",
            "--max-counter",
            "--json",
        ]
        args = top.parse_args(["fuzz"])
        defaults = harness.GenConfig()
        for field in dataclasses.fields(harness.GenConfig):
            if field.name == "value_range":
                value = (args.value_min, args.value_max)
            else:
                value = getattr(args, field.name)
            assert value == getattr(defaults, field.name), field.name


class TestOracle:
    def test_injectivity_help_text(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["oracle", "--help"])
        assert info.value.code == 0
        words = " ".join(capsys.readouterr().out.split())  # however argparse wraps it
        assert "--injectivity print '0 collisions' once the round trip passes" in words

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
        # two passes over the grid: the first failing round trip, which `oracle --injectivity`
        # prints, then the first pop collision, which `exhaustive_pop_injective` reports
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

def rendered_trace(steps, final, names):
    """The `trace` stdout and exit code for `eval_traced`'s steps and final
    state, each step's cell written as a state-file line, its stack's
    elements joined one by one."""
    out = []
    for step in steps:
        if step.abort is not None:
            record = step.abort
            stack = ", ".join(map(str, record.observed.stack))
            out.append(f"ABORT at step {step.index + 1}: {step.instruction}\nreason: {record.reason}\n")
            out.append(f"value: {record.observed.value}\nstack: [{stack}]\n")
            return "".join(out), 1
        value, stack, counter = step.state
        line = f"{step.variable} = {value}, [{', '.join(map(str, stack))}], {counter}\n"
        out.append(f"step {step.index + 1}: {step.instruction}\n{line}")
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

    @pytest.mark.parametrize("backward", [False, True])
    @pytest.mark.parametrize("semantics", "nar")
    def test_cli_prints_the_steps_of_the_reference_walker(self, tmp_path, capsys, semantics, backward):
        # runs of INC/DEC on a name between its PUSHes and POPs, many of the
        # POPs illegal, beside a second name, and some inside a loop: each
        # step's cell against the tree walker's whole-state snapshots, cut
        # to the stepped name's cell and rendered as `eval_traced`'s steps
        rng = random.Random(34)
        atoms = ["INC x", "DEC x", "PUSH x", "POP x", "INC y", "POP y"]
        finals = {
            "n": reference_walker.ref_eval_n,
            "a": lambda term, state: reference_walker.ref_eval_a(term, state).state,
            "r": reference_walker.ref_eval_r,
        }
        outcomes = set()
        for k in range(60):
            parts = rng.choices(atoms, weights=[4, 4, 2, 3, 1, 1], k=rng.randint(1, 16))
            if rng.random() < 0.4:
                cut = rng.randrange(len(parts))
                parts[cut:] = [f"FOR n {{ {'; '.join(parts[cut:])} }}"]
            source = "; ".join(parts)
            term = scorelang.parse(source)
            counter = rng.randint(0, 2) if semantics == "r" else 0
            stack = tuple(rng.choices(range(-2, 3), k=rng.randint(0, 3)))
            state = scorelang.State({"n": Cell(rng.randint(-3, 3)), "x": Cell(rng.randint(-1, 1), stack, counter)})
            names = scorelang.variables_of(term) | {"n", "x"}
            (tmp_path / "p.score").write_text(source, encoding="utf-8")
            (tmp_path / "s.sst").write_text(scorelang.dump_state(state, names), encoding="utf-8")
            run = scorelang.invert(term) if backward else term
            snapshots = reference_walker.ref_eval_traced(run, state, semantics)
            steps = [s if s.abort else s._replace(state=s.state.get(s.variable)) for s in snapshots]
            final = None if steps and steps[-1].abort else finals[semantics](run, state)
            expected, code = rendered_trace(steps, final, names)
            files = str(tmp_path / "p.score"), str(tmp_path / "s.sst")
            argv = ["trace", "-s", semantics, *["--backward"] * backward, *files]
            assert run_cli(capsys, *argv) == (code, expected, ""), (k, source, state)
            outcomes.add(code)
        assert outcomes == ({0, 1} if semantics == "a" else {0})


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

    @pytest.mark.parametrize("command", ["run", "trace", "check", "invert"])
    def test_empty_path_names_no_file(self, capsys, command):
        # a case row splits its command line at spaces, so it cannot pass ""
        missing = os.strerror(errno.ENOENT)
        assert run_cli(capsys, command, "") == (2, "", f"error: cannot read : {missing}\n")

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

    def test_recursion_error_exits_two(self, workspace, capsys, monkeypatch):
        def too_deep(args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setitem(cli._COMMANDS, "invert", too_deep)
        program = workspace("p.score", "SKIP")
        assert run_cli(capsys, "invert", program) == (2, "", "error: program nested too deeply\n")

    def test_positionals_split_by_an_option_are_left_to_argparse(self, workspace, capsys):
        # argparse up to 3.13.0 refuses the state after an option
        # ("unrecognized arguments"); its usage lines differ between
        # versions, so only the exit code and stdout are pinned
        program, state = workspace("p.score", "INC x"), workspace("s.sst", "x = 1")
        argv = ["run", program, "-s", "a", state]
        try:
            cli._argparser().parse_args(argv)
        except SystemExit:
            capsys.readouterr()
        else:
            pytest.skip("this version of argparse reads a positional after an option")
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert (info.value.code, capsys.readouterr().out) == (2, "")


class TestCommandLineReader:
    """argparse reads every command line `main` is given, once per
    distinct line while `cli._parsed` remembers it, and its help and
    usage errors on every call."""

    @pytest.fixture
    def parses(self, monkeypatch):
        """The argument lists argparse's `parse_known_args` is called with,
        from an empty memory of lines."""
        cli._parsed.cache_clear()
        calls = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def spy(parser, args=None, namespace=None):
            calls.append(args)
            return parse_known_args(parser, args, namespace)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
        return calls

    @pytest.mark.parametrize(("line", "code"), [("-h", 0), ("frobnicate", 2), ("run -s x p.score", 2)])
    def test_help_and_errors_reach_argparse(self, parses, capsys, line, code):
        # on every call: they are never remembered
        printed = []
        for _ in range(2):
            parses.clear()
            with pytest.raises(SystemExit) as info:
                main(line.split())
            assert info.value.code == code
            assert parses
            printed.append(capsys.readouterr())
        assert printed[0] == printed[1] and printed[0].out + printed[0].err
        assert bool(printed[0].out) == (code == 0)

    def test_table_rows_and_benchmark_lines_reach_argparse_once(self, parses, monkeypatch):
        benchmark = [
            "run -s n p.score s.sst",
            "trace -s r p.score s.sst",
            "run p.score s.sst",
            "check p.score",
            "invert p.score",
            "fuzz --json --cases 200 --seed 7",
            "oracle --injectivity --value 3 --stack-len 4 --elem 2 --counter 3",
        ]
        lines = list(dict.fromkeys([case.argv for case in CASES] + benchmark))
        read = []
        for name in cli._COMMANDS:
            monkeypatch.setitem(cli._COMMANDS, name, lambda args: read.append(args) or 0)
        for line in lines:
            argv = line.split()
            assert main(argv) == 0 and parses[:1] == [tuple(argv)], line
            parses.clear()
            assert main(argv) == 0 and parses == [], line
        assert read[::2] == read[1::2] == [cli._argparser().parse_args(line.split()) for line in lines]

    def test_respelled_rows_are_read_by_argparse_alone(self):
        # as its canonical row's line
        rows = {case.name: case.argv.split() for case in CASES}
        parse = cli._argparser().parse_args
        for name, spellings in ARGPARSE_SPELLINGS.items():
            for spelling in spellings:
                argv = rows[f"{name}-{spelling}"]
                assert parse(argv) == parse(rows[name]), argv

    def test_a_command_cannot_change_the_next_calls_arguments(self, monkeypatch):
        seen = []

        def meddle(args):
            seen.append(dict(vars(args)))
            args.semantics, args.extra = "a", []
            return 0

        monkeypatch.setitem(cli._COMMANDS, "run", meddle)
        for _ in range(2):
            assert main(["run", "-s", "n", "p.score"]) == 0
        assert seen == [vars(cli._argparser().parse_args(["run", "-s", "n", "p.score"]))] * 2

    def test_the_least_recent_line_is_forgotten(self, parses, monkeypatch):
        monkeypatch.setitem(cli._COMMANDS, "oracle", lambda args: 0)
        lines = [["oracle", "--value", str(value)] for value in range(cli._parsed.cache_info().maxsize + 1)]
        for argv in lines:
            main(argv)
        parses.clear()
        main(lines[-1])
        assert parses == []
        main(lines[0])
        assert parses[:1] == [tuple(lines[0])]


# Inputs of `TestCollectorPause`, by placeholder in its command lines.
PAUSE_FILES = {
    "ok": ("ok.score", "FOR n { PUSH x; INC x }; DEC x; POP x"),
    "ok_state": ("ok.sst", "n = 2\nx = 4, [9]"),
    "bad": ("bad.score", "FOR x POP s"),
    "ill": ("ill.score", "FOR x {INC x}"),
    "counter_state": ("counter.sst", "x = 1, [], 2"),
    "pop": ("pop.score", "POP x"),
    "pop_state": ("pop.sst", "x = 5, [2]"),
    # a hot leaf whose POP is left after cancelling: it has no closed form,
    # so it steps, and its first POP is illegal under each semantics
    "hot": ("hot.score", "FOR n { POP y; INC y; PUSH y }"),
    "hot_state": ("hot.sst", "n = 1000\ny = 0, []"),
}
PAUSE_CASES = [
    *(
        (f"{command} {argv}", code)
        for command in ("run", "trace")
        for argv, code in [
            ("-s a {ok} {ok_state}", 0),
            ("{bad}", 2),
            ("{ill}", 2),
            ("-s n {ok} {counter_state}", 2),
            ("/nonexistent/p.score", 2),
            ("-s a {pop} {pop_state}", 1),
        ]
    ),
    ("check {ok}", 0),
    ("check {bad}", 2),
    ("check {ill}", 3),
    ("check /nonexistent/p.score", 2),
    ("invert {ok}", 0),
    ("invert {bad}", 2),
    ("invert /nonexistent/p.score", 2),
    ("fuzz --cases 50", 0),
    ("fuzz --cases -1", 2),
    ("oracle", 0),
    ("oracle --value -1", 2),
    ("run -s n {hot} {hot_state}", 0),
    ("run -s a {hot} {hot_state}", 1),
    ("run -s r {hot} {hot_state}", 0),
]


class TestCollectorPause:
    """`main` pauses the cyclic collector while a command runs.  That
    frees everything only if no command leaves a reference cycle."""

    @pytest.fixture
    def argv_of(self, workspace):
        files = {key: workspace(name, text) for key, (name, text) in PAUSE_FILES.items()}
        return lambda line: line.format(**files).split()

    @pytest.mark.parametrize("line, expected", PAUSE_CASES)
    def test_commands_leave_no_cyclic_garbage(self, argv_of, capsys, line, expected):
        argv = argv_of(line)
        cli._argparser()  # built once per process, leaving argparse's formatters in cycles
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            code = main(argv)
            unreachable = gc.collect()
        finally:
            if enabled:
                gc.enable()
        capsys.readouterr()
        assert (code, unreachable) == (expected, 0)

    @pytest.mark.parametrize("line", ["run {ok}", "check {bad}", "fuzz --cases 5", "oracle --injectivity"])
    def test_collector_is_paused_for_every_command(self, argv_of, capsys, monkeypatch, line):
        argv = argv_of(line)
        during = []
        command = cli._COMMANDS[argv[0]]
        monkeypatch.setitem(cli._COMMANDS, argv[0], lambda args: during.append(gc.isenabled()) or command(args))
        assert gc.isenabled()
        main(argv)
        assert during == [False]
        assert gc.isenabled()

    @pytest.mark.parametrize("line, expected", [("run {ok}", 0), ("run {bad}", 2)])
    def test_exit_restores_the_collector(self, argv_of, capsys, line, expected):
        assert gc.isenabled()
        assert main(argv_of(line)) == expected
        assert gc.isenabled()

    def test_escaping_exception_restores_the_collector(self, argv_of, monkeypatch):
        def boom(args):
            assert not gc.isenabled()
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._COMMANDS, "run", boom)
        assert gc.isenabled()
        with pytest.raises(RuntimeError, match="boom"):
            main(argv_of("run {ok}"))
        assert gc.isenabled()

    def test_collector_disabled_by_the_caller_stays_disabled(self, argv_of, capsys):
        gc.disable()
        try:
            assert main(argv_of("run {ok}")) == 0
            assert main(argv_of("run {bad}")) == 2
            assert not gc.isenabled()
        finally:
            gc.enable()


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
