"""Big-step evaluators for score programs.

Three semantics share the same control structure and differ only in how
PUSH and POP touch a variable's cell:

* ``eval_n`` -- the naive pair semantics.  PUSH saves the value on the
  stack and zeroes it; POP overwrites the value with the total head of the
  stack.  Total, but not reversible: POP forgets the value it overwrites.

* ``eval_a`` -- the assert-based pair semantics.  POP additionally demands
  a zero value and a non-empty stack and aborts the whole run otherwise,
  so every completed run can be undone.  Programs denote partial injective
  functions; aborts are reported as data, never as exceptions.

* ``eval_r`` -- the total reversible semantics on full (value, stack,
  counter) triples via `push_r` and `pop_r`.  No run ever aborts: an
  illegal pop merely increments the counter ("breaking" the variable), and
  a later push decrements it ("repairing"), so pushing and popping are
  exact mutual inverses on every cell.

Loops read their leader's value v once at entry and run the body |v|
times, using the inverted body when v is negative.  Since the leader
cannot occur in a well-formed body, every run terminates with work bounded
by the program size times the product of loop-entry magnitudes; no fuel or
timeout is involved.

All evaluators refuse ill-formed programs up front, and the two pair
semantics additionally refuse input states with a nonzero counter.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from operator import length_hint

from .state import Cell, DEFAULT_CELL, State
from .syntax import _INVERSE, _KEYWORD, Dec, For, Inc, Pop, Push, Skip, Term, Violation, _parts, check_well_formed

__all__ = [
    "AbortRecord",
    "Final",
    "Aborted",
    "RunOutcome",
    "TraceStep",
    "EvalError",
    "IllFormedProgramError",
    "NonzeroCounterError",
    "push_r",
    "pop_r",
    "eval_n",
    "eval_a",
    "eval_r",
    "eval_traced",
]


class EvalError(Exception):
    """A program or state rejected before execution starts."""


class IllFormedProgramError(EvalError):
    def __init__(self, violations: list[Violation]):
        leaders = ", ".join(sorted({v.leader for v in violations}))
        super().__init__(f"program is not well formed (leader(s) occur in loop body: {leaders})")
        self.violations = violations


class NonzeroCounterError(EvalError):
    def __init__(self, variable: str):
        super().__init__(f"variable {variable!r} has a nonzero counter; pair semantics require counter 0")
        self.variable = variable


@dataclass(frozen=True, slots=True)
class AbortRecord:
    """Why an assert-semantics run stopped.

    ``reason`` is "value-nonzero" (checked first) or "empty-stack";
    ``observed`` is the failing variable's (value, stack) view with counter
    0; ``trace_position`` is the 0-based execution index the failing
    instruction would have had.
    """

    instruction: str
    variable: str
    reason: str
    observed: Cell
    trace_position: int


@dataclass(frozen=True, slots=True)
class Final:
    state: State


@dataclass(frozen=True, slots=True)
class Aborted:
    record: AbortRecord


RunOutcome = Final | Aborted


@dataclass(frozen=True, slots=True)
class TraceStep:
    """One executed atomic instruction.

    ``state`` is the cell of ``variable`` after the step, or None for the
    final aborting step, in which case ``abort`` carries the record.
    """

    index: int
    instruction: str
    variable: str
    state: Cell | None
    abort: AbortRecord | None = None


def push_r(cell: Cell) -> Cell:
    """Total reversible push, dispatching on the first matching clause:

    1. counter 0:                     save the value on the stack, zero it;
    2. value 0, non-empty, counter>0: leave the broken cell untouched;
    3. otherwise (counter>0):         repair one illegal pop (counter - 1).
    """
    value, stack, counter = cell
    if counter == 0:
        return Cell(0, (value, *stack), 0)
    if value == 0 and stack:
        return cell
    return Cell(value, stack, counter - 1)


def pop_r(cell: Cell) -> Cell:
    """Total reversible pop, dispatching on the first matching clause:

    1. value 0, non-empty, counter 0: pop the top into the value;
    2. value 0, non-empty, counter>0: leave the broken cell untouched;
    3. otherwise:                     count one illegal pop (counter + 1).

    Clause 3 fires exactly when the assert semantics would abort, so the
    counter records how many pops must be undone before the cell can act
    on its stack again.  `push_r` inverts each clause, giving
    ``pop_r(push_r(c)) == c == push_r(pop_r(c))`` for every cell.
    """
    value, stack, counter = cell
    if value == 0 and stack:
        if counter == 0:
            return Cell(stack[0], stack[1:], 0)
        return cell
    return Cell(value, stack, counter + 1)


# ---------------------------------------------------------------- the core
#
# A run compiles its term into blocks: tuples of flat ``(opcode, arg)``
# entries, where ``arg`` is a variable's slot for INC/DEC/PUSH/POP.  Each
# slot indexes three per-run lists (values, stacks with the top at the end,
# counters), so every step is an O(1) list update.  The three semantics
# share every opcode except the ones PUSH and POP compile to.
#
# A loop entry's arg is ``(leader slot, cache, direction, atoms before)``,
# direction 1 meaning the body runs inverted.  The cache, one per FOR node
# and run, holds the loop body and its two blocks, forward and inverted,
# each compiled on first use and kept for the rest of the run, so no (loop,
# direction) pair is compiled twice and a direction that never runs is
# never compiled.  The inverted block is compiled straight from the body
# term, with the entries in reverse order and INC/DEC and PUSH/POP swapped;
# a trace adds an observer entry after each atom.
#
# Under the assert semantics the abort position needs the number of steps
# run so far.  Rather than count every step, a run adds the body's atom
# count (its INC/DEC/PUSH/POP entries) times the iteration count at each
# loop entry ("scheduled" steps), and an abort adds up, over the open
# loops, the scheduled steps that did not run.  POP_A and loop entries therefore also
# carry the number of atoms before them in their block.

_INC, _DEC, _PUSH, _PUSH_R, _POP_N, _POP_A, _POP_R, _LOOP, _OBSERVE = range(9)


def _atom_ops(push: int, pop: int) -> tuple[dict, dict]:
    """The opcode each atom class compiles to, run forward and inverted."""
    forward = {Inc: _INC, Dec: _DEC, Push: push, Pop: pop}
    return forward, {cls: forward[inverse] for cls, inverse in _INVERSE.items()}


_ATOM_OPS = {"n": _atom_ops(_PUSH, _POP_N), "a": _atom_ops(_PUSH, _POP_A), "r": _atom_ops(_PUSH_R, _POP_R)}
# The keyword of each atom opcode, for trace labels.
_OP_KEYWORD = {op: _KEYWORD[cls] for forward, _ in _ATOM_OPS.values() for cls, op in forward.items()}
_BODY = 2  # index of the body term in a loop cache; 0 and 1 hold its blocks


class _Run:
    """Slot storage, the compiler, and the optional trace of one evaluation."""

    __slots__ = (
        "cells", "slots", "names", "values", "stacks", "counters", "ops", "loops", "trace", "scheduled", "failed"
    )

    def __init__(self, cells: dict[str, Cell], semantics: str, trace: list[TraceStep] | None):
        self.cells = cells
        self.slots: dict[str, int] = {}
        self.names: list[str] = []
        self.values: list[int] = []
        self.stacks: list[list[int]] = []
        self.counters: list[int] = []
        self.ops = _ATOM_OPS[semantics]
        self.loops: dict[int, list] = {}
        self.trace = trace
        self.scheduled = 0
        self.failed = -1

    def new_slot(self, name: str) -> int:
        """Number `name`, met for the first time, and load its initial cell."""
        slot = self.slots[name] = len(self.names)
        value, stack, counter = self.cells.get(name, DEFAULT_CELL)
        self.names.append(name)
        self.values.append(value)
        self.stacks.append(list(reversed(stack)))
        self.counters.append(counter)
        return slot

    def compile(self, term: Term, inverted: int) -> tuple[tuple, int]:
        """The block of `term` run forward (0) or inverted (1), and its atom
        count.  No part of a sequence is a sequence, and a loop body is
        compiled when `_execute` first enters the loop in that direction,
        so this is one pass over the parts."""
        ops, slots = self.ops[inverted], self.slots
        trace = self.trace is not None
        entries: list[tuple] = []
        atoms = 0
        parts = _parts(term)
        for t in parts[::-1] if inverted else parts:
            kind = type(t)
            if kind is Skip:
                continue
            name = t.leader if kind is For else t.var
            slot = slots.get(name)
            if slot is None:
                slot = self.new_slot(name)
            if kind is For:
                cache = self.loops.get(id(t))
                if cache is None:
                    cache = self.loops[id(t)] = [None, None, t.body]
                entries.append((_LOOP, (slot, cache, inverted, atoms)))
            else:
                op = ops[kind]
                entries.append((op, (slot, atoms) if op == _POP_A else slot))
                if trace:
                    entries.append((_OBSERVE, (f"{_OP_KEYWORD[op]} {name}", name, slot)))
                atoms += 1
        return tuple(entries), atoms

    def result(self) -> State:
        cells = self.cells
        for name, value, stack, counter in zip(self.names, self.values, self.stacks, self.counters):
            if value or stack or counter:
                cells[name] = Cell(value, tuple(reversed(stack)), counter)
            else:
                cells.pop(name, None)
        return State._trusted(cells)

    def abort_record(self, left: int) -> AbortRecord:
        """The record of the POP that aborted with `left` scheduled steps
        not run; the state has not changed since."""
        slot = self.failed
        value, name = self.values[slot], self.names[slot]
        reason = "value-nonzero" if value else "empty-stack"
        observed = Cell(value, tuple(reversed(self.stacks[slot])), 0)
        return AbortRecord(f"POP {name}", name, reason, observed, self.scheduled - left)


def _execute(run: _Run, block: tuple, atoms: int):
    """Run one block; None when it completes, else the number of its
    scheduled steps that did not run because a POP aborted, whose slot
    is then ``run.failed``.  A loop entry pushes a frame (enclosing iterator,
    its atoms, atoms before the entry, body atoms, repeats left) and goes on
    with the body's block repeated, so nesting does not recurse."""
    values, stacks, counters = run.values, run.stacks, run.counters
    frames: list[tuple] = []
    it = iter(block)
    while True:
        for op, arg in it:
            if op == _INC:
                values[arg] += 1
            elif op == _DEC:
                values[arg] -= 1
            elif op == _PUSH:
                stacks[arg].append(values[arg])
                values[arg] = 0
            elif op == _PUSH_R:
                if not counters[arg]:
                    stacks[arg].append(values[arg])
                    values[arg] = 0
                elif values[arg] or not stacks[arg]:
                    counters[arg] -= 1
            elif op == _POP_N:
                stack = stacks[arg]
                values[arg] = stack.pop() if stack else 0
            elif op == _POP_A:
                slot, before = arg
                stack = stacks[slot]
                if values[slot] or not stack:
                    run.failed = slot
                    left = atoms - before
                    for _, outer_atoms, entry_before, body_atoms, repeats in frames:
                        left += length_hint(repeats) * body_atoms + outer_atoms - entry_before
                    return left
                values[slot] = stack.pop()
            elif op == _POP_R:
                if values[arg] or not stacks[arg]:
                    counters[arg] += 1
                elif not counters[arg]:
                    values[arg] = stacks[arg].pop()
            elif op == _LOOP:
                leader, cache, direction, before = arg
                count = values[leader]
                if count:
                    if count < 0:
                        count = -count
                        direction ^= 1
                    compiled = cache[direction]
                    if compiled is None:
                        compiled = cache[direction] = run.compile(cache[_BODY], direction)
                    body, body_atoms = compiled
                    run.scheduled += count * body_atoms
                    repeats = repeat(body, count)
                    frames.append((it, atoms, before, body_atoms, repeats))
                    it, atoms = chain.from_iterable(repeats), body_atoms
                    break
            else:
                instruction, name, slot = arg
                trace = run.trace
                cell = Cell(values[slot], tuple(reversed(stacks[slot])), counters[slot])
                trace.append(TraceStep(len(trace), instruction, name, cell))
        else:
            if not frames:
                return None
            it, atoms = frames.pop()[:2]


def _start(term: Term, state: State, semantics: str, trace: list[TraceStep] | None):
    """Check the preconditions, compile `term` and run it: the finished run
    and None, or the run and the abort record."""
    violations = check_well_formed(term)
    if violations:
        raise IllFormedProgramError(violations)
    cells = state.as_dict()
    if semantics != "r" and any(cell.counter for cell in cells.values()):
        raise NonzeroCounterError(min(name for name, cell in cells.items() if cell.counter))
    run = _Run(cells, semantics, trace)
    block, atoms = run.compile(term, 0)
    run.scheduled = atoms
    left = _execute(run, block, atoms)
    return run, None if left is None else run.abort_record(left)


def eval_n(term: Term, state: State) -> State:
    """Run under the naive pair semantics; counters stay 0 throughout."""
    return _start(term, state, "n", None)[0].result()


def eval_a(term: Term, state: State) -> RunOutcome:
    """Run under the assert semantics: Final(state) or Aborted(record)."""
    run, record = _start(term, state, "a", None)
    return Final(run.result()) if record is None else Aborted(record)


def eval_r(term: Term, state: State) -> State:
    """Run under the total reversible semantics; legal on every state."""
    return _start(term, state, "r", None)[0].result()


def eval_traced(term: Term, state: State, semantics: str = "r") -> tuple[list[TraceStep], State | None]:
    """Run like the chosen evaluator, recording every executed
    INC/DEC/PUSH/POP in execution order (loop bodies unfold; SKIP leaves no
    step), each with the cell it touched.  Returns the steps and the final
    state; under the assert semantics an abort instead ends the steps with
    one carrying the record, and the final state is None.
    """
    if semantics not in ("n", "a", "r"):
        raise ValueError(f"unknown semantics {semantics!r}; expected 'n', 'a' or 'r'")
    steps: list[TraceStep] = []
    run, record = _start(term, state, semantics, steps)
    if record is not None:
        steps.append(TraceStep(record.trace_position, record.instruction, record.variable, None, record))
        return steps, None
    return steps, run.result()
