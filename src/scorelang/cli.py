"""Command-line entry point.

Commands: run, invert, check, fuzz, oracle, trace.  Program files use the
".score" extension, state files ".sst".  Exit status: 0 on success, 1 on
an assert-semantics abort, 2 on usage or parse errors (including programs
nested too deeply to process), 3 on a property failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .harness import Fail, GenConfig, _grid_oracle, run_fuzz
from .parser import ParseError, parse
from .semantics import (
    AbortRecord,
    Aborted,
    IllFormedProgramError,
    NonzeroCounterError,
    Program,
    compile_program,
)
from .state import DEFAULT_CELL, State, _declared_state, parse_state_declarations
from .syntax import check_well_formed, invert, pretty

EXIT_OK = 0
EXIT_ABORT = 1
EXIT_USAGE = 2
EXIT_PROPERTY = 3


class _UsageError(Exception):
    pass


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _load(args: argparse.Namespace) -> tuple[Program, State, set[str]]:
    """The program, the initial state, and the names to print: the
    program's and the state file's.  The state file is read before the
    program is checked, so its errors come first."""
    term = parse(_read(args.program))
    declarations = [] if args.state is None else parse_state_declarations(_read(args.state))
    program = compile_program(term)
    names = {*program.variables, *(name for name, _ in declarations)}
    return program, _declared_state(declarations), names


def _final_text(state: State, names: set[str]) -> str:
    """FINAL, then each of `names` (sorted) as `dump_state` writes it.  The
    integers of a state read from a file, and of every run from it, are
    plain ints, whose repr is their str, so each stack prints as one list
    repr, as in `_abort_lines` and the trace observer's lines: faster than
    `dump_state`'s join of the elements' str, which a State built in Python
    needs, since it may hold int subclasses that print otherwise."""
    get = state.as_dict().get
    out = ["FINAL\n"]
    for name in sorted(names):
        value, stack, counter = get(name, DEFAULT_CELL)
        out.append(f"{name} = {value}, {[*stack] if stack else '[]'}, {counter}\n")
    return "".join(out)


def _abort_lines(record: AbortRecord) -> list[str]:
    stack = record.observed.stack
    return [
        f"step: {record.trace_position + 1}",
        f"instruction: {record.instruction}",
        f"variable: {record.variable}",
        f"reason: {record.reason}",
        f"value: {record.observed.value}",
        f"stack: {[*stack] if stack else '[]'}",
    ]


def _require_non_negative(args: argparse.Namespace, *options: str) -> None:
    for option in options:
        value = getattr(args, option)
        if value < 0:
            raise _UsageError(f"--{option.replace('_', '-')} must not be negative, got {value}")


def cmd_run(args: argparse.Namespace) -> int:
    program, initial, names = _load(args)
    outcome = program.run(initial, args.semantics, "-" if args.backward else "+")
    # the whole text is built before any of it is written, so a value that
    # cannot be rendered leaves stdout empty
    if isinstance(outcome, Aborted):
        sys.stdout.write("".join(f"{line}\n" for line in ["ABORT", *_abort_lines(outcome.record)]))
        return EXIT_ABORT
    sys.stdout.write(_final_text(outcome.state, names))
    return EXIT_OK


def cmd_invert(args: argparse.Namespace) -> int:
    term = parse(_read(args.program))
    print(pretty(invert(term)))
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
    cfg = GenConfig(
        seed=args.seed,
        max_depth=args.max_depth,
        max_vars=args.max_vars,
        value_range=(args.value_min, args.value_max),
        max_stack_len=args.max_stack_len,
        max_counter=args.max_counter,
    )
    report = run_fuzz(cfg, args.cases)
    if args.json:
        print(json.dumps(report.to_json_dict(), sort_keys=True, indent=2))
    else:
        sys.stdout.write(report.to_text())
    return EXIT_OK if report.ok else EXIT_PROPERTY


def cmd_oracle(args: argparse.Namespace) -> int:
    _require_non_negative(args, "value", "stack_len", "elem", "counter")
    bounds = (args.value, args.stack_len, args.elem, args.counter)
    verdict, injective = _grid_oracle(bounds, injective=args.injectivity)
    if isinstance(verdict, Fail):
        print(f"FAIL: {verdict.details}")
        return EXIT_PROPERTY
    print(f"{verdict.cases_run} cells checked")
    if injective is not None:
        if isinstance(injective, Fail):
            print(f"FAIL: {injective.details}")
            return EXIT_PROPERTY
        print("0 collisions")
    return EXIT_OK


def cmd_trace(args: argparse.Namespace) -> int:
    program, initial, names = _load(args)
    out: list[str] = []  # one block per step so far
    append = out.append

    def observe(instruction, name, value, stack, counter):
        # the step's block: its label, then its cell as `dump_cell` writes
        # it; a state file's integers are ints, so the reversed list of them
        # prints as the stack, top first
        append(f"step {len(out) + 1}: {instruction}\n{name} = {value}, {stack[::-1]}, {counter}\n")

    outcome = program.run(initial, args.semantics, "-" if args.backward else "+", observe)
    if isinstance(outcome, Aborted):
        record = outcome.record
        out.append(f"ABORT at step {record.trace_position + 1}: {record.instruction}\n")
        out += (f"{line}\n" for line in _abort_lines(record)[3:])  # reason, value, stack
        sys.stdout.write("".join(out))
        return EXIT_ABORT
    out.append(_final_text(outcome.state, names))
    sys.stdout.write("".join(out))
    return EXIT_OK


@functools.cache  # built once per process: building it costs more than a small run
def _argparser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="scorelang", description="Reversible stack language workbench.")
    sub = top.add_subparsers(dest="command", required=True)

    def add_program_command(name: str, help_text: str) -> None:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("program", help="program file (.score)")
        p.add_argument("state", nargs="?", default=None, help="initial state file (.sst)")
        p.add_argument("--semantics", "-s", choices=("n", "a", "r"), default="r", help="evaluator (default r)")
        p.add_argument("--backward", action="store_true", help="run the inverted program")

    add_program_command("run", "run a program and print the final state")
    add_program_command("trace", "run a program printing one block per executed instruction")
    sub.add_parser("invert", help="print the inverse of a program").add_argument("program")
    check_p = sub.add_parser("check", help="check the loop-leader proviso")
    check_p.add_argument("program")
    check_p.add_argument("--relaxed", action="store_true", help="forbid only INC/DEC of loop leaders")

    fuzz_p = sub.add_parser("fuzz", help="randomized reversibility checks")
    fuzz_p.add_argument("--cases", type=int, default=1000)
    defaults = GenConfig()  # the seed and bounds default to GenConfig's
    fuzz_p.add_argument("--seed", type=int, default=defaults.seed)
    fuzz_p.add_argument("--max-depth", type=int, default=defaults.max_depth)
    fuzz_p.add_argument("--max-vars", type=int, default=defaults.max_vars)
    fuzz_p.add_argument("--value-min", type=int, default=defaults.value_range[0])
    fuzz_p.add_argument("--value-max", type=int, default=defaults.value_range[1])
    fuzz_p.add_argument("--max-stack-len", type=int, default=defaults.max_stack_len)
    fuzz_p.add_argument("--max-counter", type=int, default=defaults.max_counter)
    fuzz_p.add_argument("--json", action="store_true", help="print a machine-readable summary")

    oracle_p = sub.add_parser("oracle", help="exhaustive push/pop inverse check on a cell grid")
    oracle_p.add_argument("--value", type=int, default=2, help="|value| bound")
    oracle_p.add_argument("--stack-len", type=int, default=3, help="stack length bound")
    oracle_p.add_argument("--elem", type=int, default=1, help="|stack element| bound")
    oracle_p.add_argument("--counter", type=int, default=2, help="counter bound")
    oracle_p.add_argument("--injectivity", action="store_true", help="also check pop for collisions")
    return top


_COMMANDS = {
    "run": cmd_run,
    "invert": cmd_invert,
    "check": cmd_check,
    "fuzz": cmd_fuzz,
    "oracle": cmd_oracle,
    "trace": cmd_trace,
}


def main(argv: list[str] | None = None) -> int:
    args = _argparser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (IllFormedProgramError, NonzeroCounterError, _UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("error: program nested too deeply", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
