"""The CLI cases: one table of command lines, each with its input files and
its exact exit code, stdout and stderr, and the runner that checks them.

Each row of `CASES` names its command line, the files it reads (by names
relative to the fresh directory the case runs in), the exit code, stdout
and stderr it must give byte for byte, and a time bound in seconds.  A file
or an expected stream is literal text or bytes, or a generator function of
this module that builds it, as `functools.partial(nest, 100_000)`.  Expected
bytes come from literals or from a generator's own arithmetic, never from
scorelang code.

Every fixed command line of the CLI tests is a row here.  `test_cli.py`
keeps only the checks a row cannot make: those that set the interpreter's
int-to-string limit, call the CLI twice in one process, monkeypatch or spy
on it, read argparse's exits and help text, compare the CLI's own reading
of a command line with argparse's, write to a full device or a closed
pipe, compute their expected output with scorelang itself, or run every
row again in-process with its line ends rewritten to CRLF and CR.

`test_cli_cases.py` runs the table through `python -m scorelang`, and CI
runs it against the installed console script with

    python tests/cli_cases.py scorelang

which prints one line per case and exits 1 if any case fails.  To add a
case, add a row to `CASES`.
"""

from __future__ import annotations

import errno
import os
import re
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple, Union

import scorelang

Content = Union[str, bytes, Callable[[], Union[str, bytes]]]

DEFAULT_BOUND = 60  # seconds, for a case that names none


class Case(NamedTuple):
    name: str
    argv: str  # split at spaces; its file names are relative to the case's directory
    files: dict[str, Content] = {}
    out: Content = ""
    err: Content = ""
    code: int = 0
    bound: float = DEFAULT_BOUND


def _bytes(content: Content) -> bytes:
    if callable(content):
        content = content()
    return content.encode("utf-8") if isinstance(content, str) else content


def _difference(stream: str, got: bytes, expected: bytes) -> str:
    at = len(os.path.commonprefix([got, expected]))
    return (
        f"{stream} differs at byte {at} ({len(got)} bytes, expected {len(expected)}): "
        f"got {got[at:at + 40]!r}, expected {expected[at:at + 40]!r}"
    )


def run_case(case: Case, command: list[str]) -> list[str]:
    """Run `command` with the case's arguments in a fresh directory that
    holds its files, and return how the run differs from the row: a line
    each for its exit code, stdout and stderr, or one for a run past the
    time bound, or for an `OSError` in making the directory, writing its
    files, starting the command or removing the directory, which names
    the step, the errno and the message.  An empty list is a pass."""
    step = "making its directory"
    try:
        with tempfile.TemporaryDirectory() as folder:
            step = "writing its files"
            for name, content in case.files.items():
                Path(folder, name).write_bytes(_bytes(content))
            step = "starting its command"
            try:
                proc = subprocess.run(
                    [*command, *case.argv.split()], cwd=folder, capture_output=True, timeout=case.bound
                )
            except subprocess.TimeoutExpired:
                proc = None
            step = "removing its directory"
    except OSError as exc:
        code = errno.errorcode.get(exc.errno, "no errno")
        return [f"{type(exc).__name__} {code} in {step}: {exc.strerror or exc}"]
    if proc is None:
        return [f"no exit within {case.bound} s"]
    return differences(case, proc.returncode, proc.stdout, proc.stderr)


def differences(case: Case, code: int, out: bytes, err: bytes) -> list[str]:
    """How a run that gave `code`, `out` and `err` differs from the row: a
    line each for its exit code, stdout and stderr.  An empty list is a
    pass."""
    faults = [] if code == case.code else [f"exit {code}, expected {case.code}"]
    for stream, got, expected in (("stdout", out, case.out), ("stderr", err, case.err)):
        expected = _bytes(expected)
        if got != expected:
            faults.append(_difference(stream, got, expected))
    return faults


SCORELANG = [sys.executable, "-m", "scorelang"]  # the CLI of this interpreter, with `source_env`


def source_env() -> dict[str, str]:
    """The environment with the directory that holds the imported scorelang
    first on PYTHONPATH, so that `python -m scorelang` runs that code."""
    src = str(Path(scorelang.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def run_fresh(*argv: str) -> tuple[int, str, str]:
    """`python -m scorelang` in a fresh process: (exit code, stdout, stderr)."""
    proc = subprocess.run([*SCORELANG, *argv], capture_output=True, text=True, env=source_env(), timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


# Generators of the big inputs and of their expected outputs.


def nest(depth: int, atom: str = "INC x") -> str:
    """`FOR a0 { FOR a1 { ... atom } }`, `depth` loops deep, and a newline."""
    return "".join(f"FOR a{i} {{ " for i in range(depth)) + atom + " }" * depth + "\n"


def nest_state(depth: int) -> str:
    return "".join(f"a{i} = 1\n" for i in range(depth))


def nest_final(depth: int) -> str:
    """The final state of `nest(depth)` from `nest_state(depth)`: each loop
    runs once."""
    names = sorted([*(f"a{i}" for i in range(depth)), "x"])
    return "FINAL\n" + "".join(f"{name} = 1, [], 0\n" for name in names)


def nest_trace(depth: int) -> str:
    """The trace of `nest(depth)` from `nest_state(depth)`: one step."""
    return "step 1: INC x\nx = 1, [], 0\n" + nest_final(depth)


def flat(cycle: tuple[str, ...], times: int) -> str:
    return "; ".join(cycle * times) + "\n"


# a cycle of four atoms whose stack operations cancel, and its inverse
CYCLE = ("INC x", "PUSH y", "POP y", "DEC z")
INVERSE_CYCLE = ("INC z", "PUSH y", "POP y", "DEC x")


def flat_final(times: int) -> str:
    """The final state of `flat(CYCLE, times)` from the empty state."""
    return f"FINAL\nx = {times}, [], 0\ny = 0, [], 0\nz = -{times}, [], 0\n"


def flat_trace(times: int) -> str:
    """The trace of `flat(CYCLE, times)` from the empty state: a block per
    atom, then the final state."""
    blocks = []
    for k in range(1, times + 1):
        blocks += [f"INC x\nx = {k}, []", "PUSH y\ny = 0, [0]", "POP y\ny = 0, []", f"DEC z\nz = -{k}, []"]
    return "".join(f"step {i}: {block}, 0\n" for i, block in enumerate(blocks, start=1)) + flat_final(times)


def push_final(bottom: str) -> str:
    """The final state of `PUSH_LEAF` at n = 100000: every iteration after
    the first pushes y = 0, then y = 2, onto `bottom`, the first
    iteration's pushes over y's stack."""
    return f"FINAL\nn = 100000, [], 0\ny = 0, [{'2, 0, ' * 99999}{bottom}], 0\nz = 100000, [], 0\n"


def grow_stack(count: int, bottom: int) -> str:
    """y's stack, top first, after `count` iterations of `PUSH_GROW` from
    y = `bottom`: the first PUSH saves `bottom`, and every later one the 1
    that INC y left."""
    return ", ".join(["1"] * (count - 1) + [str(bottom)])


def grow_final(count: int, bottom: int) -> str:
    """The final state of `PUSH_GROW` at n = `count` from y = `bottom`."""
    return f"FINAL\nn = {count}, [], 0\ny = 1, [{grow_stack(count, bottom)}], 0\n"


def grow_twice_final(count: int, middle: int, bottom: int) -> str:
    """The final state of `GROW_TWICE` at n = `count` from y = `bottom`,
    with m = `middle` - 1: m INC y take the 1 the first loop left to
    `middle`, which the second loop pushes first."""
    stack = f"{grow_stack(count, middle)}, {grow_stack(count, bottom)}"
    return f"FINAL\nm = {middle - 1}, [], 0\nn = {count}, [], 0\ny = 1, [{stack}], 0\n"


def grow_trace(count: int, bottom: int) -> str:
    """The trace of `PUSH_GROW` at n = `count` from y = `bottom`: each
    iteration's PUSH y and INC y print y's stack so far."""
    blocks = []
    for k in range(1, count + 1):
        stack = grow_stack(k, bottom)
        blocks += [f"PUSH y\ny = 0, [{stack}]", f"INC y\ny = 1, [{stack}]"]
    return "".join(f"step {i}: {block}, 0\n" for i, block in enumerate(blocks, start=1)) + grow_final(count, bottom)


def grow_abort_trace(count: int, bottom: int) -> str:
    """The trace under a of `PUSH_GROW` at n = `count` from y = `bottom`,
    then POP y: the loop's steps, then the abort of the POP, which finds
    y = 1 over the stack the loop built."""
    steps = grow_trace(count, bottom).split("FINAL")[0]
    return (
        f"{steps}ABORT at step {2 * count + 1}: POP y\n"
        f"reason: value-nonzero\nvalue: 1\nstack: [{grow_stack(count, bottom)}]\n"
    )


def grid_report(value: int, stack_len: int, elem: int, counter: int, injectivity: bool = False) -> str:
    """What a passing `oracle` prints for its bounds: the grid's cells,
    (2v+1)(c+1) for each of the sum over k <= s of (2e+1)**k stacks."""
    cells = (2 * value + 1) * sum((2 * elem + 1) ** k for k in range(stack_len + 1)) * (counter + 1)
    return f"{cells} cells checked\n" + "0 collisions\n" * injectivity


# `big`: 20,000 INC/DEC atoms on d0..d6, in groups of eight, three loops deep.
BIG_OPS = [("INC" if i % 3 else "DEC") + f" d{i % 7}" for i in range(20000)]
BIG_GROUP = "{}; {}; FOR a {{ {}; {}; FOR b {{ {}; {}; FOR c {{ {}; {} }} }} }}"
BIG_INVERSE_GROUP = "FOR a {{ FOR b {{ FOR c {{ {7}; {6} }}; {5}; {4} }}; {3}; {2} }}; {1}; {0}"


def big() -> str:
    return "; ".join(BIG_GROUP.format(*BIG_OPS[i : i + 8]) for i in range(0, len(BIG_OPS), 8)) + "\n"


def big_inverse() -> str:
    """`big` run backward: the groups in reverse order, each group's atoms
    and loops in reverse order, INC and DEC swapped."""
    ops = [("DEC" if op.startswith("INC") else "INC") + op[3:] for op in BIG_OPS]
    groups = (BIG_INVERSE_GROUP.format(*ops[i : i + 8]) for i in range(0, len(ops), 8))
    return "; ".join(reversed(list(groups))) + "\n"


def big_lines() -> str:
    """`big` with one instruction per line, indented, and a comment holding
    ";", "{" and "}" on every third line."""
    lines, depth = [], 0
    for lexeme in re.findall(r"FOR \w+ \{|[A-Z]+ \w+|\}|;", big()):
        if lexeme == ";":
            lines[-1] += ";"
            continue
        depth -= lexeme == "}"
        lines.append("  " * depth + lexeme)
        depth += lexeme.endswith("{")
    body = "".join(line + "  # ;{}" * (k % 3 == 0) + "\n" for k, line in enumerate(lines))
    return "# big.score, one instruction per line\n" + body


def big_final() -> str:
    """The final state of `big` with every leader 1: each d_k gains the
    net of its INCs and DECs."""
    net = [sum(1 if i % 3 else -1 for i in range(k, len(BIG_OPS), 7)) for k in range(7)]
    return "FINAL\n" + "".join(f"{v} = 1, [], 0\n" for v in "abc") + "".join(
        f"d{k} = {n}, [], 0\n" for k, n in enumerate(net)
    )


def atoms(count: int) -> str:
    """`count` INC x atoms on one line, with no line end."""
    return "; ".join(["INC x"] * count)


# Sources of 10^6 atoms on one line that `check` refuses: at their end,
# for a ";" with no instruction after it or a loop left open, and in their
# middle, for a "}" that closes no loop after 250,000 loops glued to their
# braces.  Each error's column comes from the generated text's length.
def trailing_semicolon() -> str:
    return atoms(1_000_000) + ";"


def open_loop() -> str:
    return "FOR a { " + atoms(1_000_000)


def unmatched_head() -> str:
    return "; ".join(["FOR a {INC x}"] * 250_000) + " "


def unmatched_close() -> str:
    return unmatched_head() + "}; " + atoms(500_000)


def refusal(head: Callable[[], str], message: str) -> str:
    """The error `check` prints for a one-line source refused just after
    the text `head` builds."""
    return f"parse error: 1:{len(head()) + 1}: {message}\n"


# Inputs shared by several rows.

# two lines with CRLF line ends and comments
LOOP = {
    "loop.score": "INC x;  # two lines, CRLF\r\nFOR n { PUSH x; INC x }\r\n",
    "loop.sst": "# n: the loop count\r\nn = 2\r\nx = 1, [5], 0  # top first\r\n",
}
# the same two files with CR line ends
LOOP_CR = {name: text.replace("\r\n", "\r") for name, text in LOOP.items()}
# a nest of 2**64 iterations whose second aborts: the abort reads a
# countdown past 2**63 partly spent
LATE = {
    "late.score": "FOR a { FOR b { POP y; PUSH z } }\n",
    "late.sst": "a = 4294967296\nb = 4294967296\ny = 0, [1], 0\nz = 0, [5], 0\n",
}
# a hot mixed nest, its inner loop run inverted (k < 0): the outer level
# steps, and so does the inner body, which pops and so has no closed form
HOT = {
    "hot.score": "FOR m { INC w; FOR k { INC y; PUSH y } }\n",
    "hot.sst": "m = 600\nk = -3\ny = 0, [1, 1, 1, 1, 1, 1, 1, 1, 1, 1], 0\n",
}
HOT_FINAL = "FINAL\nk = -3, [], 0\nm = 600, [], 0\nw = 600, [], 0\n"
# a hot perfect nest, its inner loop run inverted (k < 0): it runs as k's
# loop, 900 times
PERFECT = {
    "perfect.score": "FOR m { FOR k { PUSH y; DEC x } }\n",
    "perfect.sst": "m = 300\nk = -3\ny = 0, [" + ", ".join(["0"] * 20) + "], 0\n",
}
PERFECT_FINAL = "FINAL\nk = -3, [], 0\nm = 300, [], 0\nx = 900, [], 0\n"
# case 1024 of `fuzz --seed 236521`, about 7.2e18 steps under r: every loop
# it runs many times has a translation body, which runs in closed form
RUNAWAY = "FOR x { POP z; FOR z { FOR y { DEC w } }; FOR w { INC y; INC z } }\n"
# a hot leaf that pushes and never pops runs in closed form
PUSH_LEAF = "FOR n { INC z; PUSH y; INC y; INC y; PUSH y }\n"
# a pushing loop, whose final stack is as long as its count; and that loop
# then a POP that aborts under a, over the stack it built
PUSH_GROW = "FOR n { PUSH y; INC y }\n"
GROW_TWICE = {
    "grow.score": "FOR n { PUSH y; INC y }; FOR m { INC y }; FOR n { PUSH y; INC y }\n",
    "grow.sst": "n = 2500\nm = 1234566\ny = 3\n",
}
GROW_ABORT = {"grow.score": "FOR n { PUSH y; INC y }; POP y\n", "grow.sst": "n = 100\ny = -2\n"}
# a hot leaf that keeps a POP has no closed form and steps
POP_LEAF = {"pop.score": "FOR n { POP y; INC y; PUSH y }\n", "pop.sst": "n = 1000000\ny = 0, []\n"}
POP_FINAL = "FINAL\nn = 1000000, [], 0\n"
BIG = {"big.score": big, "big.sst": "a = 1\nb = 1\nc = 1\n"}
# a 100,000-deep nest and a flat sequence of 10^6 atoms, and their inverses
DEEP, DEEP_INVERSE = partial(nest, 100_000), partial(nest, 100_000, "DEC x")
FLAT, FLAT_INVERSE = partial(flat, CYCLE, 250_000), partial(flat, INVERSE_CYCLE, 250_000)
# a flat program of 300 cycles and a nest 600 deep whose loops all run once
SHORT_FLAT = {"flat.score": partial(flat, CYCLE, 300), "flat.sst": ""}
NEST_600 = {"nest.score": partial(nest, 600), "nest.sst": partial(nest_state, 600)}
# small programs and states of several rows
POP_5 = {"p.score": "POP x", "s.sst": "x = 5, [2]"}
POP_PUSH = {"p.score": "POP x; PUSH x", "s.sst": "x = 5, [2]"}
COUNTER = {"p.score": "INC x", "s.sst": "x = 1, [], 2"}
RECOVER = "FOR z { POP s; INC y }; PUSH y"
RECOVER_FINAL = "FINAL\ns = 7, [], 1\ny = 0, [1], 0\nz = 2, [], 0\n"
ROUND_TRIP_INVERSE = "INC y; FOR x { PUSH s; POP s }\n"


def _abort(step: int, instruction: str, reason: str, value: int, stack: str = "") -> str:
    """The abort record `run` prints for a POP that leaves `stack`."""
    variable = instruction.split()[1]
    return (
        f"ABORT\nstep: {step}\ninstruction: {instruction}\nvariable: {variable}\n"
        f"reason: {reason}\nvalue: {value}\nstack: [{stack}]\n"
    )


def _report(seed: int, cases: int, passed: int, only_if: str = "") -> str:
    """The report of a fuzz batch that passes, in which `passed` cases
    complete under a and the rest abort, with its only-if sample if any."""
    vacuous = cases - passed
    return (
        f"fuzz report\nseed: {seed}\ncases: {cases}\nstrong-reversibility: passed {cases}, failed 0\n"
        f"weak-reversibility-a: passed {passed}, vacuous {vacuous}, failed 0\n"
        f"a-r-agreement: passed {passed}, vacuous {vacuous}, failed 0\n"
        f"failure-correspondence: if-direction witnesses 0, only-if witnesses {int(bool(only_if))}\n"
        "seeded witness 'POP x; PUSH x' from 'x = 5, [2], 0': only-if discrepancy reported\n"
        + (f"only-if sample: {only_if}\n" if only_if else "")
        + "result: PASS\n"
    )


CASES = [
    Case("oracle", "oracle", out="600 cells checked\n"),
    Case("oracle-injectivity", "oracle --injectivity", out="600 cells checked\n0 collisions\n"),
    # fuzz batches give their recorded reports: over six names, counters
    # up to 3; the default bounds at seeds 1 and 9; and no case at all
    Case("fuzz-seed-7", "fuzz --cases 300 --seed 7 --max-vars 6 --max-counter 3", out=_report(7, 300, 247)),
    Case("fuzz-seed-1", "fuzz --cases 50 --seed 1", out=_report(1, 50, 39)),
    Case("fuzz-seed-9", "fuzz --cases 40 --seed 9", out=_report(9, 40, 29)),
    Case("fuzz-zero-cases", "fuzz --cases 0", out=_report(1, 0, 0)),
    Case(
        "fuzz-json",
        "fuzz --cases 25 --json",
        out=(
            '{\n  "agreement": {\n    "failed": 0,\n    "passed": 21,\n    "vacuous": 4\n  },\n'
            '  "cases": 25,\n'
            '  "correspondence": {\n    "if_direction_witnesses": 0,\n    "only_if_witnesses": 0\n  },\n'
            '  "failures": [],\n  "ok": true,\n  "only_if_samples": [],\n  "seed": 1,\n'
            '  "seeded_only_if_reported": true,\n'
            '  "strong": {\n    "failed": 0,\n    "passed": 25\n  },\n'
            '  "weak": {\n    "failed": 0,\n    "passed": 21,\n    "vacuous": 4\n  }\n}\n'
        ),
    ),
    Case("fuzz-bad-range", "fuzz --value-min 5 --value-max -5", err="error: empty value range: (5, -5)\n", code=2),
    Case("fuzz-negative-cases", "fuzz --cases -5", err="error: --cases must not be negative, got -5\n", code=2),
    # the seed whose case 1024 is the runaway program below
    Case(
        "fuzz-seed-236521",
        "fuzz --seed 236521 --cases 1100",
        out=_report(
            236521,
            1100,
            868,
            "FOR w { FOR z { POP y; FOR x { PUSH y; INC y } } } from "
            "w = -5, [2], 0; x = 4, [], 0; y = 1, [2, -1], 0; z = -2, [1, -5, -4], 0",
        ),
    ),
    Case("oracle-single-cell", "oracle --value 0 --stack-len 0 --elem 0 --counter 0", out="1 cells checked\n"),
    # the benchmark's grid, 21,868 cells
    Case(
        "oracle-bench-grid",
        "oracle --value 3 --stack-len 4 --elem 2 --counter 3",
        out=partial(grid_report, 3, 4, 2, 3),
        bound=10,
    ),
    Case(
        "oracle-bench-grid-injectivity",
        "oracle --value 3 --stack-len 4 --elem 2 --counter 3 --injectivity",
        out=partial(grid_report, 3, 4, 2, 3, True),
        bound=10,
    ),
    *(
        Case(
            f"oracle-negative-{option}",
            f"oracle --injectivity --{option} -1",
            err=f"error: --{option} must not be negative, got -1\n",
            code=2,
        )
        for option in ("value", "stack-len", "elem", "counter")
    ),
    Case(
        "trace-crlf",
        "trace loop.score loop.sst",
        LOOP,
        out=(
            "step 1: INC x\nx = 2, [5], 0\nstep 2: PUSH x\nx = 0, [2, 5], 0\n"
            "step 3: INC x\nx = 1, [2, 5], 0\nstep 4: PUSH x\nx = 0, [1, 2, 5], 0\n"
            "step 5: INC x\nx = 1, [1, 2, 5], 0\n"
            "FINAL\nn = 2, [], 0\nx = 1, [1, 2, 5], 0\n"
        ),
    ),
    Case("run-crlf", "run loop.score loop.sst", LOOP, out="FINAL\nn = 2, [], 0\nx = 1, [1, 2, 5], 0\n"),
    # POP x finds x = 1
    Case(
        "trace-a-abort",
        "trace -s a abort.score loop.sst",
        {**LOOP, "abort.score": "FOR n { PUSH x; INC x }; POP x\n"},
        out=(
            "step 1: PUSH x\nx = 0, [1, 5], 0\nstep 2: INC x\nx = 1, [1, 5], 0\n"
            "step 3: PUSH x\nx = 0, [1, 1, 5], 0\nstep 4: INC x\nx = 1, [1, 1, 5], 0\n"
            "ABORT at step 5: POP x\nreason: value-nonzero\nvalue: 1\nstack: [1, 1, 5]\n"
        ),
        code=1,
    ),
    Case("late-run-a", "run -s a late.score late.sst", LATE, _abort(3, "POP y", "value-nonzero", 1), code=1, bound=10),
    Case(
        "late-trace-a",
        "trace -s a late.score late.sst",
        LATE,
        out=(
            "step 1: POP y\ny = 1, [], 0\nstep 2: PUSH z\nz = 0, [0, 5], 0\n"
            "ABORT at step 3: POP y\nreason: value-nonzero\nvalue: 1\nstack: []\n"
        ),
        code=1,
        bound=10,
    ),
    Case(
        "late-run-a-backward",
        "run -s a --backward late.score late.sst",
        LATE,
        _abort(3, "POP z", "value-nonzero", 5),
        code=1,
        bound=10,
    ),
    Case(
        "late-trace-a-backward",
        "trace -s a --backward late.score late.sst",
        LATE,
        out=(
            "step 1: POP z\nz = 5, [], 0\nstep 2: PUSH y\ny = 0, [0, 1], 0\n"
            "ABORT at step 3: POP z\nreason: value-nonzero\nvalue: 5\nstack: []\n"
        ),
        code=1,
        bound=10,
    ),
    # loop.score run backward under a: DEC x, then POP x, which finds x = 0
    # and pops 5, then DEC x, and the second POP x finds x = 4
    Case(
        "run-a-backward",
        "run -s a --backward loop.score loop.sst",
        LOOP,
        _abort(4, "POP x", "value-nonzero", 4),
        code=1,
    ),
    Case(
        "trace-a-backward",
        "trace -s a --backward loop.score loop.sst",
        LOOP,
        out=(
            "step 1: DEC x\nx = 0, [5], 0\nstep 2: POP x\nx = 5, [], 0\nstep 3: DEC x\nx = 4, [], 0\n"
            "ABORT at step 4: POP x\nreason: value-nonzero\nvalue: 4\nstack: []\n"
        ),
        code=1,
    ),
    # a no-break space alone on line 2
    Case(
        "state-nbsp-line",
        "run loop.score blank.sst",
        {**LOOP, "blank.sst": "n = 2\n\u00a0\n"},
        err="parse error: 2:1: unexpected character '\\xa0'\n",
        code=2,
    ),
    Case(
        "state-not-utf8",
        "run ok.score bad.sst",
        {"ok.score": "INC x\n", "bad.sst": b"\xff"},
        err="error: cannot read bad.sst: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n",
        code=2,
    ),
    # the reader: CR line ends, a CRLF break before a fault, bytes that are
    # not UTF-8, a byte order mark, and a directory, in a program and in a
    # state file
    Case("run-cr", "run loop.score loop.sst", LOOP_CR, out="FINAL\nn = 2, [], 0\nx = 1, [1, 2, 5], 0\n"),
    Case("invert-cr", "invert loop.score", LOOP_CR, out="FOR n { DEC x; POP x }; DEC x\n"),
    Case(
        "parse-error-after-crlf",
        "check p.score",
        {"p.score": "INC x;  # CRLF\r\nFOR x POP s\r\n"},
        err="parse error: 2:7: expected '{' after FOR x, found 'POP'\n",
        code=2,
    ),
    Case(
        "program-not-utf8",
        "run bad.score",
        {"bad.score": b"INC x;\n\xff"},
        err="error: cannot read bad.score: 'utf-8' codec can't decode byte 0xff in position 7: invalid start byte\n",
        code=2,
    ),
    Case(
        "program-bom",
        "run p.score",
        {"p.score": b"\xef\xbb\xbfINC x\n"},
        err="parse error: 1:1: unexpected character '\\ufeff'\n",
        code=2,
    ),
    Case(
        "state-bom",
        "run ok.score s.sst",
        {"ok.score": "INC x\n", "s.sst": b"\xef\xbb\xbfx = 1\n"},
        err="parse error: 1:1: unexpected character '\\ufeff'\n",
        code=2,
    ),
    Case("program-directory", "run .", err="error: cannot read .: Is a directory\n", code=2),
    Case(
        "state-directory",
        "run ok.score .",
        {"ok.score": "INC x\n"},
        err="error: cannot read .: Is a directory\n",
        code=2,
    ),
    # a file name with a trailing slash names a directory, so `open` refuses
    # it as the system does
    Case(
        "program-trailing-slash",
        "run ok.score/",
        {"ok.score": "INC x\n"},
        err="error: cannot read ok.score/: Not a directory\n",
        code=2,
    ),
    # an idle nest with a huge count, and a 5,000-deep nest of loops that
    # run once, each finish at once
    Case(
        "idle-nest",
        "run idle.score idle.sst",
        {"idle.score": "FOR n { FOR m { SKIP } }; INC x\n", "idle.sst": "n = 1000000000000000000\n"},
        out="FINAL\nm = 0, [], 0\nn = 1000000000000000000, [], 0\nx = 1, [], 0\n",
        bound=20,
    ),
    Case(
        "nest-5000",
        "run nest.score nest.sst",
        {"nest.score": partial(nest, 5000), "nest.sst": partial(nest_state, 5000)},
        out=partial(nest_final, 5000),
        bound=20,
    ),
    Case("hot-n", "run -s n hot.score hot.sst", HOT, HOT_FINAL + "y = -1, [], 0\n", bound=20),
    Case("hot-r", "run -s r hot.score hot.sst", HOT, HOT_FINAL + "y = -1790, [], 1790\n", bound=20),
    # under a it aborts in the inner body, at step 25
    Case("hot-a", "run -s a hot.score hot.sst", HOT, _abort(25, "POP y", "empty-stack", 0), code=1, bound=20),
    Case("perfect-n", "run -s n perfect.score perfect.sst", PERFECT, PERFECT_FINAL + "y = 0, [], 0\n", bound=20),
    Case("perfect-r", "run -s r perfect.score perfect.sst", PERFECT, PERFECT_FINAL + "y = 0, [], 880\n", bound=20),
    # under a it aborts in its 21st iteration, at the step that stepping reports
    Case(
        "perfect-a",
        "run -s a perfect.score perfect.sst",
        PERFECT,
        _abort(42, "POP y", "empty-stack", 0),
        code=1,
        bound=20,
    ),
    # a loop count of 2**63, past the machine word, stepped by trace: it
    # aborts in its first iteration
    Case(
        "word-trace-a",
        "trace -s a word.score word.sst",
        {"word.score": "FOR n { INC y; POP x }\n", "word.sst": "n = 9223372036854775808\n"},
        out="step 1: INC y\ny = 1, [], 0\nABORT at step 2: POP x\nreason: empty-stack\nvalue: 0\nstack: []\n",
        code=1,
        bound=20,
    ),
    Case(
        "runaway-r",
        "run -s r runaway.score runaway.sst",
        {"runaway.score": RUNAWAY, "runaway.sst": "w = 3, [-5]\nx = 5, [-1, 1], 1\ny = 4\nz = -3, [], 2\n"},
        out=(
            "FINAL\nw = -2411166784077928983, [-5], 0\nx = 5, [-1, 1], 1\n"
            "y = -2411166785630722199, [], 0\nz = -2411166785630722206, [], 7\n"
        ),
        bound=20,
    ),
    # run backward from the final state above, it gives back the initial one
    Case(
        "runaway-r-backward",
        "run -s r --backward runaway.score final.sst",
        {
            "runaway.score": RUNAWAY,
            "final.sst": (
                "w = -2411166784077928983, [-5], 0\nx = 5, [-1, 1], 1\n"
                "y = -2411166785630722199, [], 0\nz = -2411166785630722206, [], 7\n"
            ),
        },
        out="FINAL\nw = 3, [-5], 0\nx = 5, [-1, 1], 1\ny = 4, [], 0\nz = -3, [], 2\n",
    ),
    # the pair semantics see the state with its counters zeroed, as fuzz
    # runs them; POP z finds z = -3
    Case(
        "runaway-a",
        "run -s a runaway.score flat.sst",
        {"runaway.score": RUNAWAY, "flat.sst": "w = 3, [-5]\nx = 5, [-1, 1]\ny = 4\nz = -3\n"},
        out=_abort(1, "POP z", "value-nonzero", -3),
        code=1,
    ),
    # from counter 0 each iteration after the first pushes 0 and 2, under
    # each semantics
    *(
        Case(
            f"push-leaf-{semantics}",
            f"run -s {semantics} push.score push.sst",
            {"push.score": PUSH_LEAF, "push.sst": "n = 100000\ny = 3, [7], 0\n"},
            out=partial(push_final, "2, 3, 7"),
            bound=20,
        )
        for semantics in "nar"
    ),
    # under r with y's counter 1, the first PUSH y repairs it, so the closed
    # form declines, the body steps and pushes 5 first
    Case(
        "push-leaf-counter-r",
        "run -s r push.score push.sst",
        {"push.score": PUSH_LEAF, "push.sst": "n = 100000\ny = 3, [7], 1\n"},
        out=partial(push_final, "5, 7"),
        bound=20,
    ),
    # a stack of 5,000 values under each semantics: all of them small, and
    # all but the bottom one, which is beyond any small-int table
    *(
        Case(
            f"push-grow-{semantics}{name}",
            f"run -s {semantics} grow.score grow.sst",
            {"grow.score": PUSH_GROW, "grow.sst": f"n = 5000\ny = {bottom}\n"},
            out=partial(grow_final, 5000, bottom),
            bound=20,
        )
        for semantics in "nar"
        for name, bottom in (("", 3), ("-big-bottom", 1234567))
    ),
    # 70,000 values, past one piece of the closed form's extension and of
    # the printer's lookups, which each take at most 65,536
    *(
        Case(
            f"push-grow-{semantics}-70000",
            f"run -s {semantics} grow.score grow.sst",
            {"grow.score": PUSH_GROW, "grow.sst": "n = 70000\ny = 3\n"},
            out=partial(grow_final, 70000, 3),
            bound=20,
        )
        for semantics in "nar"
    ),
    # a stack whose one value beyond any small-int table is in its middle
    Case(
        "push-grow-big-middle",
        "run grow.score grow.sst",
        GROW_TWICE,
        out=partial(grow_twice_final, 2500, 1234567, 3),
        bound=20,
    ),
    # every PUSH block of this trace prints y's stack so far, up to 300 long
    Case(
        "push-grow-trace",
        "trace grow.score grow.sst",
        {"grow.score": PUSH_GROW, "grow.sst": "n = 300\ny = -7\n"},
        out=partial(grow_trace, 300, -7),
        bound=20,
    ),
    # the POP after the loop aborts under a, over the 100 values it pushed
    Case(
        "push-grow-abort-a",
        "run -s a grow.score grow.sst",
        GROW_ABORT,
        out=_abort(201, "POP y", "value-nonzero", 1, grow_stack(100, -2)),
        code=1,
    ),
    Case(
        "push-grow-abort-trace-a",
        "trace -s a grow.score grow.sst",
        GROW_ABORT,
        out=partial(grow_abort_trace, 100, -2),
        code=1,
    ),
    # a million iterations within the time bound: under n each POP after
    # the first takes the value the last PUSH saved, under r each PUSH
    # repairs the counter the POP before it raised, and under a the first
    # POP finds y's stack empty
    Case("pop-leaf-n", "run -s n pop.score pop.sst", POP_LEAF, POP_FINAL + "y = 0, [1000000], 0\n", bound=20),
    Case("pop-leaf-r", "run -s r pop.score pop.sst", POP_LEAF, POP_FINAL + "y = 1000000, [], 0\n", bound=20),
    Case("pop-leaf-a", "run -s a pop.score pop.sst", POP_LEAF, _abort(1, "POP y", "empty-stack", 0), code=1, bound=20),
    # the 20,000-atom INC/DEC program in canonical form, loops three deep,
    # every leader 1, and the same program one instruction per line
    Case("big-check", "check big.score", BIG, out="ok\n", bound=20),
    Case("big-run", "run big.score big.sst", BIG, out=big_final, bound=20),
    Case("big-invert", "invert big.score", BIG, out=big_inverse, bound=20),
    Case("big-invert-twice", "invert inverse.score", {"inverse.score": big_inverse}, out=big, bound=20),
    Case("big-lines-check", "check lines.score", {"lines.score": big_lines}, out="ok\n", bound=20),
    Case("big-lines-invert", "invert lines.score", {"lines.score": big_lines}, out=big_inverse, bound=20),
    # a source that ends in ";" lacks its last instruction
    Case(
        "trailing-semicolon",
        "check trailing.score",
        {"trailing.score": "INC x;\n"},
        err="parse error: 2:1: expected an instruction, found end of input\n",
        code=2,
    ),
    # refusals in time linear in the source
    Case(
        "refuse-trailing-semicolon",
        "check p.score",
        {"p.score": trailing_semicolon},
        err=partial(refusal, trailing_semicolon, "expected an instruction, found end of input"),
        code=2,
        bound=20,
    ),
    Case(
        "refuse-open-loop",
        "check p.score",
        {"p.score": open_loop},
        err=partial(refusal, open_loop, "expected '}' to close FOR a, found end of input"),
        code=2,
        bound=20,
    ),
    Case(
        "refuse-unmatched-close",
        "check p.score",
        {"p.score": unmatched_close},
        err=partial(refusal, unmatched_head, "unmatched '}'"),
        code=2,
        bound=20,
    ),
    # invert round trips at size
    Case("deep-invert", "invert deep.score", {"deep.score": DEEP}, DEEP_INVERSE, bound=20),
    Case("deep-invert-twice", "invert inverse.score", {"inverse.score": DEEP_INVERSE}, DEEP, bound=20),
    Case("flat-invert", "invert flat.score", {"flat.score": FLAT}, FLAT_INVERSE, bound=20),
    Case("flat-invert-twice", "invert inverse.score", {"inverse.score": FLAT_INVERSE}, FLAT, bound=20),
    Case("invert-loop", "invert p.score", {"p.score": "INC x; FOR x {DEC y}"}, "FOR x { INC y }; DEC x\n"),
    Case("invert-skip", "invert p.score", {"p.score": "SKIP"}, "SKIP\n"),
    Case(
        "check-violation",
        "check p.score",
        {"p.score": "FOR x {INC x}"},
        "violation: leader 'x' occurs at body\n",
        code=3,
    ),
    # a stack operation on a leader is refused, unless relaxed
    Case(
        "check-stack-op-on-leader",
        "check p.score",
        {"p.score": "FOR x {PUSH x}"},
        "violation: leader 'x' occurs at body\n",
        code=3,
    ),
    Case("check-relaxed", "check --relaxed p.score", {"p.score": "FOR x {PUSH x}"}, "ok\n"),
    Case("check-well-formed", "check p.score", {"p.score": "FOR x {INC y}"}, "ok\n"),
    Case("invert-round-trip", "invert p.score", {"p.score": "FOR x { PUSH s; POP s }; DEC y"}, ROUND_TRIP_INVERSE),
    Case(
        "invert-round-trip-twice",
        "invert p.score",
        {"p.score": ROUND_TRIP_INVERSE},
        "FOR x { PUSH s; POP s }; DEC y\n",
    ),
    Case(
        "invert-parse-error",
        "invert p.score",
        {"p.score": "INC"},
        err="parse error: 1:4: expected a variable name after INC, found end of input\n",
        code=2,
    ),
    # two loops over s with the same count undo each other under r
    Case(
        "run-loop-pair-r",
        "run --semantics r p.score s.sst",
        {"p.score": "FOR x {POP s}; FOR x {PUSH s}", "s.sst": "x = 3\ns = 0, [2, 1]"},
        "FINAL\ns = 0, [2, 1], 0\nx = 3, [], 0\n",
    ),
    Case("run-a-abort", "run --semantics a p.score s.sst", POP_5, _abort(1, "POP x", "value-nonzero", 5, "2"), code=1),
    Case(
        "run-a-completes",
        "run -s a p.score s.sst",
        {"p.score": "FOR n { PUSH x; INC x }; DEC x; POP x", "s.sst": "n = 2\nx = 4, [9]"},
        "FINAL\nn = 2, [], 0\nx = 1, [4, 9], 0\n",
    ),
    Case("run-skip", "run p.score", {"p.score": "SKIP"}, "FINAL\n"),
    # a state file's names are printed whether or not the program uses them
    Case("run-state-names", "run p.score s.sst", {"p.score": "SKIP", "s.sst": "q = 0"}, "FINAL\nq = 0, [], 0\n"),
    # under the default semantics, r, POP x finds x = 5 and counts an
    # illegal pop, which PUSH x repairs
    Case("run-default-r", "run p.score s.sst", POP_PUSH, "FINAL\nx = 5, [2], 0\n"),
    # backward, POP y on the empty default stack counts one illegal pop
    Case("run-inc-push", "run p.score", {"p.score": "INC x; PUSH y"}, "FINAL\nx = 1, [], 0\ny = 0, [0], 0\n"),
    Case(
        "run-inc-push-backward",
        "run --backward p.score",
        {"p.score": "INC x; PUSH y"},
        "FINAL\nx = -1, [], 0\ny = 0, [], 1\n",
    ),
    # the second POP s finds s = 7 and counts an illegal pop; run backward
    # from the final state, the program gives back the initial one
    Case(
        "run-recover",
        "run p.score s.sst",
        {"p.score": RECOVER, "s.sst": "z = 2\ns = 0, [7]\ny = -1"},
        RECOVER_FINAL,
    ),
    Case(
        "run-recover-backward",
        "run --backward p.score final.sst",
        {"p.score": RECOVER, "final.sst": RECOVER_FINAL.removeprefix("FINAL\n")},
        "FINAL\ns = 0, [7], 0\ny = -1, [], 0\nz = 2, [], 0\n",
    ),
    Case(
        "run-parse-error",
        "run p.score",
        {"p.score": "FOR x POP s"},
        err="parse error: 1:7: expected '{' after FOR x, found 'POP'\n",
        code=2,
    ),
    Case(
        "run-ill-formed",
        "run p.score",
        {"p.score": "FOR x {INC x}"},
        err="error: program is not well formed (leader(s) occur in loop body: x)\n",
        code=2,
    ),
    # the pair semantics refuse a state with a counter, which r takes
    Case(
        "run-n-counter",
        "run --semantics n p.score s.sst",
        COUNTER,
        err="error: variable 'x' has a nonzero counter; pair semantics require counter 0\n",
        code=2,
    ),
    Case("run-r-counter", "run --semantics r p.score s.sst", COUNTER, "FINAL\nx = 2, [], 2\n"),
    Case(
        "run-missing-file",
        "run /nonexistent/p.score",
        err="error: cannot read /nonexistent/p.score: No such file or directory\n",
        code=2,
    ),
    # a trace prints a block per step: the step and its variable's cell
    Case(
        "trace-r-counter",
        "trace --semantics r p.score s.sst",
        POP_PUSH,
        "step 1: POP x\nx = 5, [2], 1\nstep 2: PUSH x\nx = 5, [2], 0\nFINAL\nx = 5, [2], 0\n",
    ),
    Case("trace-skip", "trace p.score", {"p.score": "SKIP"}, "FINAL\n"),
    Case(
        "trace-a-abort-block",
        "trace --semantics a p.score s.sst",
        POP_5,
        "ABORT at step 1: POP x\nreason: value-nonzero\nvalue: 5\nstack: [2]\n",
        code=1,
    ),
    Case(
        "trace-loop",
        "trace p.score s.sst",
        {"p.score": "FOR x {INC y}", "s.sst": "x = 2"},
        "step 1: INC y\ny = 1, [], 0\nstep 2: INC y\ny = 2, [], 0\nFINAL\nx = 2, [], 0\ny = 2, [], 0\n",
    ),
    # a long flat program and a deep nest through every command
    Case("flat-300-check", "check flat.score", SHORT_FLAT, "ok\n"),
    Case("flat-300-invert", "invert flat.score", SHORT_FLAT, partial(flat, INVERSE_CYCLE, 300)),
    Case("flat-300-run", "run flat.score flat.sst", SHORT_FLAT, partial(flat_final, 300)),
    Case("flat-300-trace", "trace flat.score flat.sst", SHORT_FLAT, partial(flat_trace, 300)),
    Case("nest-600-check", "check nest.score", NEST_600, "ok\n"),
    Case("nest-600-invert", "invert nest.score", NEST_600, partial(nest, 600, "DEC x")),
    Case("nest-600-run", "run nest.score nest.sst", NEST_600, partial(nest_final, 600)),
    Case("nest-600-trace", "trace nest.score nest.sst", NEST_600, partial(nest_trace, 600)),
]

# Spellings that only argparse reads, not the CLI's own reader of a
# well-formed line: an abbreviated option, `--option=value`, a short
# option with its value attached, and `--` before a positional.  Each row
# is its canonical row with the command line respelled, so it must give
# that row's exit code, stdout and stderr byte for byte.
ARGPARSE_SPELLINGS = {
    "run-a-abort": {
        "abbreviated": "run --sem a p.score s.sst",
        "equals": "run --semantics=a p.score s.sst",
        "attached": "run -sa p.score s.sst",
    },
    "trace-a-backward": {"abbreviated": "trace --back -s a loop.score loop.sst"},
    "check-well-formed": {"double-dash": "check -- p.score"},
}
CASES += [
    case._replace(name=f"{case.name}-{spelling}", argv=argv)
    for case in CASES
    for spelling, argv in ARGPARSE_SPELLINGS.get(case.name, {}).items()
]


def main(command: list[str]) -> int:
    if not command:
        print("usage: python tests/cli_cases.py COMMAND...  (for example: scorelang)", file=sys.stderr)
        return 2
    failed = 0
    for case in CASES:
        start = time.perf_counter()
        faults = run_case(case, command)
        failed += bool(faults)
        print(f"{'FAIL' if faults else 'ok'} {case.name} ({time.perf_counter() - start:.2f} s)", *faults, sep="\n  ")
    print(f"{len(CASES) - failed} of {len(CASES)} cases passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
