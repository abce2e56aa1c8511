"""Big-step evaluators for score programs.

Three semantics share the same control structure.  From a state whose
counters are all 0, which the two pair semantics require, they agree on
every step but one.  PUSH saves a variable's value on its stack and zeroes
it, and a legal POP, one that finds a zero value and a non-empty stack,
moves the top of the stack into the value.  They differ only in what an
illegal POP does, one whose value is nonzero or whose stack is empty:

* ``eval_n`` -- the naive pair semantics.  An illegal POP overwrites the
  value with the total head of the stack (0 when it is empty).  Total, but
  not reversible: POP forgets the value it overwrites.

* ``eval_a`` -- the assert-based pair semantics.  An illegal POP aborts the
  whole run, so every completed run can be undone.  Programs denote partial
  injective functions; aborts are reported as data, never as exceptions.

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

`compile_program` checks a program and numbers its variables once, and
the `Program` it returns runs any number of states under any of the three
semantics, forward, inverted, or one direction after the other (P;-P),
compiling each block on first use, once for all three semantics.  The
four `eval_*` functions compile and run once.  An ill-formed program is
refused when it is compiled, and the two pair semantics refuse input
states with a nonzero counter.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from operator import length_hint

from .state import Cell, DEFAULT_CELL, State
from .syntax import (
    _INVERSE,
    _KEYWORD,
    Dec,
    For,
    Inc,
    Pop,
    Push,
    Skip,
    Term,
    Violation,
    _parts,
    _scan,
)

__all__ = [
    "AbortRecord",
    "Final",
    "Aborted",
    "RunOutcome",
    "TraceStep",
    "EvalError",
    "IllFormedProgramError",
    "NonzeroCounterError",
    "Program",
    "compile_program",
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
# `compile_program` checks a term against the strict leader proviso and
# numbers its variables from one walk, `syntax._scan`, the walk that
# `check_well_formed` and `variables_of` also read, so the rule is checked
# in one place.  Each name gets a slot, in order of first occurrence, loop
# bodies included, so every block of the program agrees on the slots
# whichever run compiles it.  A run loads each slot from its state into
# three lists (values, stacks with the top at the end, counters), so every
# step is an O(1) list update.
#
# A program compiles into blocks: tuples of flat ``(opcode, arg)`` entries,
# where ``arg`` is a variable's slot for INC/DEC/PUSH, and the slot and the
# atoms before it for POP.  The blocks do not depend on the semantics, which
# is an argument of the run: the three agree on every step but an illegal
# POP, one whose value is nonzero or whose stack is empty, and only that
# branch of `_execute` reads it.  PUSH is `push_r` under all three: the
# pair semantics run only on states whose counters are 0, and only an
# illegal POP under `r` ever raises a counter, so there `push_r` always
# takes its first clause, the pair push, and a legal POP is the pair pop.
# A traced run adds an observer entry after each atom, so a program keeps
# one set of blocks for untraced runs and one for traced runs.
#
# A loop entry's arg is ``(leader slot, cache, index, atoms before)``.  The
# cache, one per FOR node, holds the loop's four blocks, each compiled on
# first use, and its body; the whole program has such a cache too.  A
# block's index is its direction (1 meaning the body runs inverted) plus 2
# when traced, so a negative count flips the direction with ``^= 1``.  So
# no (loop, direction, traced) block is compiled twice, and one that never
# runs is never compiled.  The inverted block is compiled straight from the
# term, with the entries in reverse order and INC/DEC and PUSH/POP swapped.
#
# Under the assert semantics the abort position needs the number of steps
# run so far.  Rather than count every step, a run adds the body's atom
# count (its INC/DEC/PUSH/POP entries) times the iteration count at each
# loop entry ("scheduled" steps), and an abort adds up, over the open
# loops, the scheduled steps that did not run.  POP and loop entries
# therefore also carry the number of atoms before them in their block.

_INC, _DEC, _PUSH, _POP, _LOOP, _OBSERVE = range(6)
_SEMANTICS = ("n", "a", "r")
# The opcode each atom class compiles to, run forward and inverted.
_FORWARD = {Inc: _INC, Dec: _DEC, Push: _PUSH, Pop: _POP}
_OPCODES = (_FORWARD, {cls: _FORWARD[inverse] for cls, inverse in _INVERSE.items()})
# The keyword of each atom opcode, for trace labels.
_OP_KEYWORD = {op: _KEYWORD[cls] for cls, op in _FORWARD.items()}
_BODY = 4  # index of the body term in a loop cache; 0 to 3 hold its blocks
_DIRECTION = {"+": 0, "-": 1}  # the passes of `Program.run`'s order
# Builds a Cell from a (value, stack, counter) tuple without the Python-level
# `Cell.__new__`, which costs more than the rest of storing a cell.
_new_cell = tuple.__new__


def _unknown_semantics(semantics: str) -> ValueError:
    return ValueError(f"unknown semantics {semantics!r}; expected 'n', 'a' or 'r'")


def _execute(program: Program, block, atoms: int, scheduled: int, values, stacks, counters, semantics, trace) -> tuple:
    """Run one block of `program` on the slot lists under `semantics`,
    `scheduled` counting the steps scheduled so far, the block's own
    included.  Returns the number of steps run and -1 when the block
    completes, else the number run before a POP aborted and the POP's slot.
    A loop entry pushes a frame (enclosing iterator, its atoms, atoms before
    the entry, body atoms, repeats left) and goes on with the body's block
    repeated, so nesting does not recurse."""
    frames: list[tuple] = []
    it = iter(block)
    while True:
        for op, arg in it:
            if op == _INC:
                values[arg] += 1
            elif op == _DEC:
                values[arg] -= 1
            elif op == _PUSH:
                if not counters[arg]:
                    stacks[arg].append(values[arg])
                    values[arg] = 0
                elif values[arg] or not stacks[arg]:
                    counters[arg] -= 1
            elif op == _POP:
                slot, before = arg
                stack = stacks[slot]
                if values[slot] or not stack:  # an illegal pop: only here do the semantics differ
                    if semantics == "r":
                        counters[slot] += 1
                    elif semantics == "n":
                        values[slot] = stack.pop() if stack else 0
                    else:
                        left = atoms - before
                        for _, outer_atoms, entry_before, body_atoms, repeats in frames:
                            left += length_hint(repeats) * body_atoms + outer_atoms - entry_before
                        return scheduled - left, slot
                elif not counters[slot]:
                    values[slot] = stack.pop()
            elif op == _LOOP:
                leader, cache, index, before = arg
                count = values[leader]
                if count:
                    if count < 0:
                        count = -count
                        index ^= 1
                    body, body_atoms = cache[index] or program._block(cache, index)
                    scheduled += count * body_atoms
                    repeats = repeat(body, count)
                    frames.append((it, atoms, before, body_atoms, repeats))
                    it, atoms = chain.from_iterable(repeats), body_atoms
                    break
            else:
                instruction, name, slot = arg
                cell = Cell(values[slot], tuple(reversed(stacks[slot])), counters[slot])
                trace.append(TraceStep(len(trace), instruction, name, cell))
        else:
            if not frames:
                return scheduled, -1
            it, atoms = frames.pop()[:2]


class Program:
    """A well-formed term, checked and numbered once, to run over many states.

    `variables` holds every name of the term, loop leaders and the names of
    bodies that never run included, in order of first occurrence.  Blocks
    are compiled on first use and kept, per direction and apart for traced
    runs, and all three semantics run the same blocks, so each later run
    only executes.
    """

    __slots__ = ("term", "variables", "_slots", "_loops", "_top")

    def __init__(self, term: Term, slots: dict[str, int]):
        self.term = term
        self.variables: tuple[str, ...] = tuple(slots)
        self._slots = slots
        self._loops: dict[int, list] = {}  # each FOR node's cache, by the node's id
        self._top = [None, None, None, None, term]  # the whole program's cache

    def run(
        self, state: State, semantics: str = "r", order: str = "+", trace: list[TraceStep] | None = None
    ) -> RunOutcome:
        """Run from `state` under semantics "n", "a" or "r".

        `order` lists the passes, run one after another as one program:
        "+" is the program and "-" its inverse, so "+-" runs P; -P.  The
        result is Final(state), or Aborted(record) when an assert run
        aborts.  Given `trace`, an empty list, the run appends a TraceStep
        for every executed INC/DEC/PUSH/POP (loop bodies unfold; SKIP leaves
        no step), each with the cell it touched, and for an abort a last one
        carrying the record.  The pair semantics refuse a state with a
        nonzero counter.
        """
        if semantics not in _SEMANTICS:
            raise _unknown_semantics(semantics)
        if order.strip("+-"):
            raise ValueError(f"order must be made of '+' and '-', got {order!r}")
        slots = self._load(state, semantics)
        record = self._exec(*slots, semantics, order, trace)
        if record is not None:
            return Aborted(record)
        return Final(self._store(state, *slots))

    # `run` composes the three steps below.  The harness's checks call them
    # apart, to load a state once and run each pass on a copy of its lists.

    def _load(self, state: State, semantics: str) -> tuple[list, list, list]:
        """The slot lists of `state`: values, stacks with the top at the
        end, and counters.  The pair semantics refuse a nonzero counter."""
        cells = state.as_dict()
        if semantics != "r" and any(cell.counter for cell in cells.values()):
            raise NonzeroCounterError(min(name for name, cell in cells.items() if cell.counter))
        loaded = [cells.get(name, DEFAULT_CELL) for name in self.variables]
        return [cell[0] for cell in loaded], [[*cell[1][::-1]] for cell in loaded], [cell[2] for cell in loaded]

    def _exec(self, values, stacks, counters, semantics: str, order: str, trace: list[TraceStep] | None = None):
        """Run the passes of `order` in place on the slot lists.  Returns
        None, or the AbortRecord of an assert run that aborts."""
        traced = trace is not None
        steps = 0
        for sign in order:
            block, atoms = self._block(self._top, _DIRECTION[sign] + 2 * traced)
            steps, failed = _execute(self, block, atoms, steps + atoms, values, stacks, counters, semantics, trace)
            if failed >= 0:
                value, name = values[failed], self.variables[failed]
                reason = "value-nonzero" if value else "empty-stack"
                observed = Cell(value, tuple(reversed(stacks[failed])), 0)
                record = AbortRecord(f"POP {name}", name, reason, observed, steps)
                if traced:
                    trace.append(TraceStep(steps, record.instruction, name, None, record))
                return record
        return None

    def _store(self, state: State, values, stacks, counters) -> State:
        """`state` with the program's names set from the slot lists."""
        cells = state.as_dict()
        for name, value, stack, counter in zip(self.variables, values, stacks, counters):
            if value or stack or counter:
                cells[name] = _new_cell(Cell, (value, tuple(stack[::-1]), counter))
            else:
                cells.pop(name, None)
        return State._trusted(cells)

    def _block(self, cache: list, index: int) -> tuple[tuple, int]:
        """The block of a cache's term at `index`, compiled on first use."""
        compiled = cache[index]
        if compiled is None:
            compiled = cache[index] = self._compile(cache[_BODY], index)
        return compiled

    def _compile(self, term: Term, index: int) -> tuple[tuple, int]:
        """The block of `term` at `index` (run inverted when odd, traced from
        2 on), and its atom count.  No part of a sequence is a sequence, and
        a loop body is compiled when `_execute` first enters the loop in
        that direction, so this is one pass over the parts."""
        inverted, traced = index & 1, index >> 1
        ops, slots, loops = _OPCODES[inverted], self._slots, self._loops
        entries: list[tuple] = []
        atoms = 0
        parts = _parts(term)
        for t in parts[::-1] if inverted else parts:
            kind = type(t)
            if kind is Skip:
                continue
            if kind is For:
                cache = loops.get(id(t))
                if cache is None:
                    cache = loops[id(t)] = [None, None, None, None, t.body]
                entries.append((_LOOP, (slots[t.leader], cache, index, atoms)))
            else:
                name = t.var
                slot = slots[name]
                op = ops[kind]
                entries.append((op, (slot, atoms) if op == _POP else slot))
                if traced:
                    entries.append((_OBSERVE, (f"{_OP_KEYWORD[op]} {name}", name, slot)))
                atoms += 1
        return tuple(entries), atoms


def compile_program(term: Term) -> Program:
    """Check `term` against the strict leader proviso and number its
    variables, in one walk.  A program that breaks the proviso raises
    IllFormedProgramError with every violation."""
    violations, slots = _scan(term, False)
    if violations:
        raise IllFormedProgramError(violations)
    return Program(term, slots)


def eval_n(term: Term, state: State) -> State:
    """Run under the naive pair semantics; counters stay 0 throughout."""
    return compile_program(term).run(state, "n").state


def eval_a(term: Term, state: State) -> RunOutcome:
    """Run under the assert semantics: Final(state) or Aborted(record)."""
    return compile_program(term).run(state, "a")


def eval_r(term: Term, state: State) -> State:
    """Run under the total reversible semantics; legal on every state."""
    return compile_program(term).run(state, "r").state


def eval_traced(term: Term, state: State, semantics: str = "r") -> tuple[list[TraceStep], State | None]:
    """Run like the chosen evaluator, recording every executed
    INC/DEC/PUSH/POP in execution order (loop bodies unfold; SKIP leaves no
    step), each with the cell it touched.  Returns the steps and the final
    state; under the assert semantics an abort instead ends the steps with
    one carrying the record, and the final state is None.
    """
    if semantics not in _SEMANTICS:
        raise _unknown_semantics(semantics)
    steps: list[TraceStep] = []
    outcome = compile_program(term).run(state, semantics, trace=steps)
    return steps, None if type(outcome) is Aborted else outcome.state
