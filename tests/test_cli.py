"""The CLI checks that a row of `cli_cases.CASES` cannot make.  They set
the interpreter's int-to-string limit, call the CLI twice in one process,
monkeypatch or spy on it, read argparse's exits and help text, write to a
full device or a closed pipe, or compute their expected output with
scorelang itself.  Every fixed command line is a row of that table."""

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
from cli_cases import SCORELANG, flat, run_fresh, source_env
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


class TestOutputErrors:
    """A write to stdout that fails exits 2: silently when the reader has
    gone, else with one line on stderr."""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("command", ["run {p}", "trace {p}", "check {p}", "invert {p}", "fuzz --cases 5"])
    def test_full_device_exits_two(self, workspace, command):
        program = workspace("p.score", "FOR n { INC x }")
        argv = [*SCORELANG, *command.format(p=program).split()]
        with open("/dev/full", "w") as full:
            proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, text=True, env=source_env(), timeout=120)
        assert (proc.returncode, proc.stderr) == (2, f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n")

    @pytest.mark.parametrize(
        "command, head", [("invert", b"INC y; DEC"), ("trace", b"step 1: IN")], ids=["invert", "trace"]
    )
    def test_reader_gone_exits_two_silently(self, workspace, command, head):
        # the inverse or the trace of a 300,000-atom program is far more
        # than a pipe holds
        program = workspace("big.score", flat(("INC x", "DEC y"), 150_000))
        proc = subprocess.Popen(
            [*SCORELANG, command, program], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=source_env()
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


class TestFuzz:
    def test_bounds_default_to_gen_config(self, capsys):
        code, out, _ = run_cli(capsys, "fuzz", "--json", "--cases", "200")
        assert code == 0
        assert json.loads(out) == harness.run_fuzz(harness.GenConfig(), 200).to_json_dict()


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
