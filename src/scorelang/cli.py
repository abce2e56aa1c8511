"""Command-line entry point.

Commands: run, invert, check, fuzz, oracle, trace.  Program files use the
".score" extension, state files ".sst".  Exit status: 0 on success, 1 on
an assert-semantics abort, 2 on usage or parse errors, on input that
cannot be read, on output that cannot be written and when memory runs
out, 3 on a property failure.

The options are declared once, to argparse, in `_argparser`, and argparse
reads every command line.  What it reads is remembered for the last 256
distinct lines (`_parsed`), so an in-process caller that repeats a line
skips argparse's pass over it; help and usage errors are never remembered.

Every command runs with the cyclic garbage collector paused: what the
commands build holds no reference cycles, and on a 20,000-atom program
collection passes took about a fifth of a run (see `main`).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import json
import os
import sys

from .harness import Fail, GenConfig, exhaustive_pop_push_inverse, run_fuzz
from .parser import ParseError, parse
from .semantics import (
    _SEMANTICS,
    Aborted,
    IllFormedProgramError,
    NonzeroCounterError,
    compile_program,
)
from .state import _SHORT_STACK, _declared_state, _stack_text, dump_state, parse_state_declarations
from .syntax import _render, check_well_formed

EXIT_OK = 0
EXIT_ABORT = 1
EXIT_USAGE = 2
EXIT_PROPERTY = 3
_WRITE_PIECE = 1 << 16  # characters of output per write


def _read(path: str) -> str:
    """The text of the file at `path`: its bytes, read at once, decoded as
    strict UTF-8 with no newline translation, since `parse` and
    `parse_state_declarations` take LF, CRLF and CR line ends alike.  A
    file that cannot be opened or read, or that is not UTF-8, raises a
    `ValueError` that names it, which `main` prints as a usage error."""
    try:
        with open(path, "rb", buffering=0) as file:  # unbuffered: one read of the whole file
            return file.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from exc


def _require_non_negative(args: argparse.Namespace, *options: str) -> None:
    for option in options:
        value = getattr(args, option)
        if value < 0:
            raise ValueError(f"--{option.replace('_', '-')} must not be negative, got {value}")


def _run_program(args: argparse.Namespace, out: list[str], observe=None) -> int:
    """Run the program of `args` from its state in the direction
    `--backward` gives, observed by `observe` if given, and write the
    blocks in `out`, then the abort block or FINAL and the final state of
    the program's names and the state file's.  An observed run's abort
    block opens with one `ABORT at step N: POP x` line, as its step blocks
    do.  The state file is read before the program is checked, so its
    errors come first.  The whole text is built before any of it is
    written, so a value that cannot be rendered leaves stdout empty."""
    term = parse(_read(args.program))
    declarations = [] if args.state is None else parse_state_declarations(_read(args.state))
    program = compile_program(term)
    outcome = program.run(_declared_state(declarations), args.semantics, "-" if args.backward else "+", observe)
    if isinstance(outcome, Aborted):
        record = outcome.record
        step, instruction = record.trace_position + 1, record.instruction
        if observe is None:
            out.append(f"ABORT\nstep: {step}\ninstruction: {instruction}\nvariable: {record.variable}\n")
        else:
            out.append(f"ABORT at step {step}: {instruction}\n")
        value, stack = record.observed.value, record.observed.stack
        long = len(stack) > _SHORT_STACK  # printed as `dump_state` prints it, after the value
        out.append(f"reason: {record.reason}\nvalue: {value}\nstack: {_stack_text(stack) if long else [*stack]}\n")
    else:
        names = {*program.variables, *(name for name, _ in declarations)}
        out.append("FINAL\n" + dump_state(outcome.state, names))
    text = "".join(out)
    # Written in pieces: a pipe whose reader has gone can take a short
    # write of one large text unseen, but then fails the next write.
    for start in range(0, len(text), _WRITE_PIECE):
        sys.stdout.write(text[start : start + _WRITE_PIECE])
    return EXIT_ABORT if isinstance(outcome, Aborted) else EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    return _run_program(args, [])


def cmd_invert(args: argparse.Namespace) -> int:
    term = parse(_read(args.program))
    print(_render(term, 1))  # the inverse, printed from `term` in one walk
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    term = parse(_read(args.program))
    violations = check_well_formed(term, relaxed=args.relaxed)
    if not violations:
        print("ok")
        return EXIT_OK
    for violation in violations:
        print(f"violation: leader '{violation.leader}' occurs at {'.'.join(violation.path)}")
    return EXIT_PROPERTY


def cmd_fuzz(args: argparse.Namespace) -> int:
    _require_non_negative(args, "cases")
    bounds = {**vars(args), "value_range": (args.value_min, args.value_max)}
    cfg = GenConfig(**{field.name: bounds[field.name] for field in dataclasses.fields(GenConfig)})
    report = run_fuzz(cfg, args.cases)
    if args.json:
        print(json.dumps(report.to_json_dict(), sort_keys=True, indent=2))
    else:
        sys.stdout.write(report.to_text())
    return EXIT_OK if report.ok else EXIT_PROPERTY


def cmd_oracle(args: argparse.Namespace) -> int:
    _require_non_negative(args, "value", "stack_len", "elem", "counter")
    verdict = exhaustive_pop_push_inverse(args.value, args.stack_len, args.elem, args.counter)
    if isinstance(verdict, Fail):
        print(f"FAIL: {verdict.details}")
        return EXIT_PROPERTY
    print(f"{verdict.cases_run} cells checked")
    if args.injectivity:
        # push(pop(c)) == c held on every grid cell, so no two grid cells pop alike
        print("0 collisions")
    return EXIT_OK


def cmd_trace(args: argparse.Namespace) -> int:
    out: list[str] = []  # one block per step so far
    append = out.append
    tails: dict[str, str] = {}  # each name's ", stack, counter" line end as last written

    def observe(instruction, name, value, stack, counter):
        # the step's block: its label, then its cell as `dump_state` writes
        # it, the reversed list of its ints printing as the stack, top first.
        # INC and DEC leave the stack and counter as they were, so only a
        # PUSH or a POP, or a name's first step, writes its line end anew.
        tail = None if instruction[0] == "P" else tails.get(name)
        if tail is None:
            value = str(value)  # first, so an int too long to write is reported as it was
            stack = _stack_text(stack[::-1]) if len(stack) > _SHORT_STACK else stack[::-1]
            tail = tails[name] = f", {stack}, {counter}\n"
        append(f"step {len(out) + 1}: {instruction}\n{name} = {value}{tail}")

    return _run_program(args, out, observe)


@functools.cache  # built once per process: building it costs more than a small run
def _argparser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="scorelang", description="Reversible stack language workbench.")
    sub = top.add_subparsers(dest="command", required=True)

    def add_program_command(name: str, help_text: str) -> None:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("program", help="program file (.score)")
        p.add_argument("state", nargs="?", default=None, help="initial state file (.sst)")
        p.add_argument("--semantics", "-s", choices=_SEMANTICS, default="r", help="evaluator (default r)")
        p.add_argument("--backward", action="store_true", help="run the inverted program")

    add_program_command("run", "run a program and print the final state")
    add_program_command("trace", "run a program printing one block per executed instruction")
    sub.add_parser("invert", help="print the inverse of a program").add_argument("program")
    check_p = sub.add_parser("check", help="check the loop-leader proviso")
    check_p.add_argument("program")
    check_p.add_argument("--relaxed", action="store_true", help="forbid only INC/DEC of loop leaders")

    fuzz_p = sub.add_parser("fuzz", help="randomized reversibility checks")
    fuzz_p.add_argument("--cases", type=int, default=1000)
    for field in dataclasses.fields(GenConfig):  # the seed and bounds default to GenConfig's
        if field.name == "value_range":  # the one field given as two options
            fuzz_p.add_argument("--value-min", type=int, default=field.default[0])
            fuzz_p.add_argument("--value-max", type=int, default=field.default[1])
        else:
            fuzz_p.add_argument(f"--{field.name.replace('_', '-')}", type=int, default=field.default)
    fuzz_p.add_argument("--json", action="store_true", help="print a machine-readable summary")

    oracle_p = sub.add_parser("oracle", help="exhaustive push/pop inverse check on a cell grid")
    oracle_p.add_argument("--value", type=int, default=2, help="|value| bound")
    oracle_p.add_argument("--stack-len", type=int, default=3, help="stack length bound")
    oracle_p.add_argument("--elem", type=int, default=1, help="|stack element| bound")
    oracle_p.add_argument("--counter", type=int, default=2, help="counter bound")
    oracle_p.add_argument("--injectivity", action="store_true", help="print '0 collisions' once the round trip passes")
    return top


_LINES_REMEMBERED = 256  # more than the distinct lines of any benchmark workload


@functools.lru_cache(maxsize=_LINES_REMEMBERED)
def _parsed(line: tuple[str, ...]) -> dict:
    """The attributes of the Namespace `_argparser()` reads from `line`.
    Help and usage errors leave argparse by `SystemExit`, which is not
    remembered, so they print on every call."""
    return vars(_argparser().parse_args(line))


_COMMANDS = {
    "run": cmd_run,
    "invert": cmd_invert,
    "check": cmd_check,
    "fuzz": cmd_fuzz,
    "oracle": cmd_oracle,
    "trace": cmd_trace,
}


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit status.

    `argv` (by default the process's arguments) is read by argparse or,
    for a line read before, taken from `_parsed`'s memory.  Either way
    the command gets a Namespace of its own, so nothing it sets on it
    reaches another call.

    Every command runs with the cyclic collector paused, if it was on, and
    `main` turns it back on when the command ends, however it ends.  Terms,
    blocks, slot lists, states and reports hold no reference cycles, so
    reference counting frees all a command leaves, and the paused passes
    would only walk live objects again: they took about a fifth of an
    in-process run of a 20,000-atom program, 18-21 ms of 99-110 ms, in 68
    collections.  A 1,500-case fuzz batch made 3 collections, under 1 ms
    of 85 ms, and the oracle's cells are freed as it goes, so it makes
    none: the pause can only save them."""
    args = argparse.Namespace(**_parsed(tuple(sys.argv[1:] if argv is None else argv)))
    paused = gc.isenabled()
    if paused:
        gc.disable()
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (IllFormedProgramError, NonzeroCounterError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("error: program nested too deeply", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader has gone, so say nothing, and point stdout at the null
        # device, so that the flush at exit does not raise again (Python's
        # `signal` docs, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except OSError as exc:  # from writing output: `_read` turns read errors into usage errors
        print(f"error: cannot write output: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if paused:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
