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
traced or not, compiling each block on first use, once for all of these
runs.  The four `eval_*` functions compile and run once.  An ill-formed
program is refused when it is compiled, and the two pair semantics refuse
input states with a nonzero counter.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from itertools import chain, compress, repeat

from .state import _PIECE, Cell, DEFAULT_CELL, State, _new_cell
from .syntax import (
    _INVERSE,
    _PREFIX,
    Dec,
    For,
    Inc,
    Pop,
    Push,
    Skip,
    Term,
    Violation,
    _Record,
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


@dataclass(init=False, repr=False, eq=False, slots=True)
class AbortRecord(_Record):
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


@dataclass(init=False, repr=False, eq=False, slots=True)
class Final(_Record):
    """A run that ended, and its final state."""

    state: State


@dataclass(init=False, repr=False, eq=False, slots=True)
class Aborted(_Record):
    """An assert-semantics run that stopped, and why."""

    record: AbortRecord


RunOutcome = Final | Aborted


@dataclass(init=False, repr=False, eq=False, slots=True)
class TraceStep(_Record):
    """One executed atomic instruction.

    ``state`` is the cell of ``variable`` after the step, or None for the
    final aborting step, in which case ``abort`` carries the record.
    """

    index: int
    instruction: str
    variable: str
    state: Cell | None
    abort: AbortRecord | None = None


# What `Program.run` calls after each executed atom of a traced run:
# ``observe(instruction, variable, value, stack, counter)``.
_Observer = Callable[[str, str, int, list, int], object]


def push_r(cell: Cell) -> Cell:
    """Total reversible push, dispatching on the first matching clause:

    1. counter 0:                     save the value on the stack, zero it;
    2. value 0, non-empty, counter>0: leave the broken cell untouched;
    3. otherwise (counter>0):         repair one illegal pop (counter - 1).
    """
    value, stack, counter = cell
    if counter == 0:
        return _new_cell(Cell, (0, (value, *stack), 0))
    if value == 0 and stack:
        return cell
    return _new_cell(Cell, (value, stack, counter - 1))


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
            return _new_cell(Cell, (stack[0], stack[1:], 0))
        return cell
    return _new_cell(Cell, (value, stack, counter + 1))


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
# atoms before it for POP.  The blocks depend neither on the semantics nor
# on whether the run is observed; both are arguments of the run.  The three
# semantics agree on every step but an illegal POP, one whose value is
# nonzero or whose stack is empty, and one branch of `_execute`'s POP step
# holds their three outcomes side by side: `r` counts a break, `n` takes
# the stack's total head, and `a` returns its abort position.  PUSH is
# `push_r` under all three: the pair semantics run only on states whose
# counters are 0, and only an illegal POP under `r` ever raises a counter,
# so there `push_r` always takes its first clause, the pair push, and a
# legal POP is the pair pop.  An observed run calls its observer after each
# atom it steps, with the atom's label (its opcode's `_LABELS` prefix, then
# the slot's name), the name, and the slot's live value, stack list and
# counter.
#
# A loop entry's arg is ``(leader slot, cache, index, atoms before)``.  The
# cache, one per FOR node, holds the loop's two plans, each made on first
# use, its body and its heat; the whole program has such a cache too.  A
# plan's index is its direction, 1 meaning the body runs inverted, so a
# negative count flips it with ``^= 1``.  So no (loop, direction) block is
# compiled twice, and one that never runs is never compiled.  The inverted
# block is compiled straight from the term, with the entries in reverse
# order and INC/DEC and PUSH/POP swapped.
#
# A plan is ``(block, atoms, run)``: the block, its atom count, and how an
# entry runs it.  ``run`` is None while the loop is cold: the block steps
# through `_execute`, and its entries count the loop's heat.  Once the loop
# is hot, ``run`` is the block's closed form (below), or False when it has
# none and always steps.  So a loop entry makes one plan lookup and one
# dispatch.  An observed entry counts no heat and runs no closed form: it
# steps, so the observer sees every atom.
#
# An idle loop, one whose body holds no atom at any depth, changes nothing
# however large its count.  The walk that `compile_program` makes anyway,
# `syntax._scan`, records the idle FOR nodes, and their caches are empty
# (``()``), so `_compile` gives them no entry and their bodies are never
# compiled.  Deciding idleness with a walk of the body when its block is
# first compiled would walk a count-1 nest n deep n times over.
#
# Under the assert semantics the abort position needs the number of steps
# run so far.  Rather than count every step, a run adds the body's atom
# count (its INC/DEC/PUSH/POP entries) times the iteration count at each
# loop entry ("scheduled" steps), and an abort adds up, over the open
# loops, the scheduled steps that did not run.  POP and loop entries
# therefore also carry the number of atoms before them in their block.  An
# illegal POP under `a` returns from `_execute` at once with the abort
# position, from the running block's atoms less those before it and from
# the open loops' frames, all still in `_execute`'s locals.  Every POP that
# runs is stepped, so that branch sees every abort.
#
# A perfect nest, ``FOR m { FOR k { B } }`` whose outer body is only the
# inner loop, runs as one loop.  A loop reads its leader once, and the
# strict proviso keeps k out of B, so k keeps its value for the whole run
# of m's loop: the nest is k's loop run |m|*|k| times, inverted when the
# signs of m and k differ (loop coalescing).  So a loop entry steps down
# while its plan's block holds no atom and one loop entry, multiplying the
# count by the inner leader's value, and runs the innermost plan with the
# product, stepped or in closed form.  Each iteration runs the same atoms
# in the same order as level-by-level stepping, and `scheduled` gets the
# same total, so no abort position moves.  The outer levels' plans are
# made, for their blocks, but they never step and count no heat.  A mixed
# nest, one with atoms beside its inner loop, steps its outer level.
#
# A hot leaf loop, one whose block holds no loop entry, runs in closed form
# in an unobserved run when its atoms keep no POP.  `_closed_form` reduces
# each slot's word of atoms, cancelling an atom against the last one left
# on its slot when the pair is INC then DEC, DEC then INC, or PUSH then
# POP; atoms on different slots commute.  INC and DEC undo each other on
# any cell, and so does PUSH then POP: under `r` it is
# ``pop_r(push_r(c)) == c``, and under `n` and `a`, whose counters are 0,
# the PUSH leaves the value 0 on a non-empty stack, so the POP is legal.
# (POP then PUSH does not cancel: it aborts under `a`, and it loses a
# nonzero value under `n`.)  When no word keeps a POP, each reads
# ``x0 PUSH x1 PUSH ... PUSH xm``, each xi a net count of INCs less DECs,
# and the body can never abort.  A slot with no PUSH gains count * x0.  A
# PUSH on a counter of 0 takes `push_r`'s first clause, the pair push,
# and leaves the counter 0, so from value v a slot with m PUSHes pushes
# v + x0, x1, ..., x(m-1), then (xm + x0, x1, ..., x(m-1)) count - 1
# times, and is left holding xm.  So `_leaf_function` returns a closure
# that adds to each value and extends each stack list with its pattern
# repeated, at most `_PIECE` values at a time, each piece one list
# extension in C from one tuple repetition made once per call, so the
# temporary stays bounded.  An iterator over the pattern cost as much at
# 5,000 values (6.5 ns per value, Python 3.11) and 6.2 ns at 2^20, where
# the pieces cost 2.4; but growing the list piece by piece leaves it up to
# an eighth larger than one extension of the whole run.  The closure
# declines, and the entry steps the block as a cold one does, when a
# pushing slot's counter is not 0 at entry, which only an illegal POP
# under `r` brings about, or when the call would push more than
# `_MOST_PUSHES` values, about what stepping pushes in a second: such a
# run steps until its memory runs out.
# `scheduled` gets count times the block's atoms either way, so no abort
# position moves.  A leaf that keeps a POP gets False, like a block that
# holds a loop entry, and always steps.
#
# A loop's heat counts the iterations its cold plans have scheduled, in
# either direction, and a plan gets its run, the closure or False, on the
# first unobserved entry past `_HOT`, so a loop that runs a few iterations
# never pays for `_closed_form`'s walk and the closure.  The plan lives in
# the loop's cache, so a Program makes each closure at most once.

_INC, _DEC, _PUSH, _POP, _LOOP = range(5)
# The opcode each atom class compiles to, run forward and inverted.
_FORWARD = {Inc: _INC, Dec: _DEC, Push: _PUSH, Pop: _POP}
_OPCODES = (_FORWARD, {cls: _FORWARD[inverse] for cls, inverse in _INVERSE.items()})
# By opcode, the start of an observed atom's label; `_FORWARD` lists the
# atom classes in the order of their opcodes.
_LABELS = tuple(_PREFIX[cls] for cls in _FORWARD)
# A loop cache: 0 and 1 hold its plans, then its body term and its heat.
_BODY, _HEAT = 2, 3
# Not count > 1: that slowed minimize 9-18%, as a closure costs about 4 us to make, a count-2 entry 1 us to step.
_HOT = 500  # iterations a loop schedules before its plans get runs, so `_closed_form` pays off
_DIRECTION = {"+": 0, "-": 1}  # the passes of `Program.run`'s order
_NONE_LEFT = iter(())  # the countdown of a loop run once, which has no iteration left to yield


def _loop_cache(body: Term) -> list:
    """A fresh loop cache for `body`: no plan made yet, cold."""
    return [None, None, body, 0]


# The semantics `Program.run` accepts, and the CLI offers; only an illegal
# POP in `_execute` tells them apart.
_SEMANTICS = ("n", "a", "r")

_MOST_PUSHES = 2**24  # the most values a closed-form call pushes; past it, the block steps


def _closed_form(block: tuple) -> list[tuple[int, list[int]]] | None:
    """Each slot's word of atoms in `block`, a loop body, once its inverse
    pairs (INC then DEC, DEC then INC, PUSH then POP) have cancelled, as
    ``(slot, [x0, x1, ..., xm])`` for the word ``x0 PUSH x1 ... PUSH xm``,
    each xi a net count of INCs less DECs; or None when a word keeps a POP
    or the block holds a loop entry.  Atoms on different slots commute, so
    each slot's word is reduced on its own; a slot whose word cancels is
    left out."""
    words: dict[int, list[int]] = {}
    for op, arg in block:
        if op == _LOOP:
            return None
        word = words.setdefault(arg[0] if op == _POP else arg, [0])
        if op == _PUSH:
            word.append(0)
        elif op != _POP:
            word[-1] += 1 if op == _INC else -1
        elif len(word) > 1 and not word[-1]:  # the last atom left is a PUSH
            word.pop()
        else:
            return None  # no later atom cancels a POP that is left
    return [(k, word) for k, word in words.items() if word != [0]]


def _leaf_function(block: tuple):
    """The closed form ``run(values, stacks, counters, count)`` of `block`,
    a loop body, which runs it `count` times on the slot lists and returns
    whether it did; or False when the block holds a loop entry or its words
    keep a POP (`_closed_form`), so that it always steps.  No loop's block
    is empty, since an idle loop gets no entry.  The closure makes one
    addition per slot without a PUSH, and per slot with one, one list
    extension per piece of at most `_PIECE` values of its repeated
    pattern (a pattern of more values is a piece alone), and declines when
    a pushing slot's counter is not 0 or the call would push more than
    `_MOST_PUSHES` values."""
    forms = _closed_form(block)
    if forms is None:
        return False
    moves = [(k, x[0]) for k, x in forms if len(x) == 1]
    # from value v and counter 0, count iterations push v + x0, x1, ...,
    # x(m-1), then (xm + x0, x1, ..., x(m-1)) count - 1 times, and leave xm;
    # a piece repeats the pattern as often as `_PIECE` values allow
    grows = [
        (k, x[0], (x[-1] + x[0], *x[1:-1]), x[-1], _PIECE // (len(x) - 1) or 1) for k, x in forms if len(x) > 1
    ]
    pushes = sum(len(pattern) for _, _, pattern, *_ in grows)

    def run(values, stacks, counters, count):
        if grows and (count * pushes > _MOST_PUSHES or any(counters[k] for k, *_ in grows)):
            return False
        for k, change in moves:
            values[k] += change * count
        for k, first, pattern, last, repeats in grows:
            stack = stacks[k]
            top = len(stack)
            whole, rest = divmod(count, repeats)
            if whole:
                piece = pattern * repeats
                for _ in range(whole):
                    stack += piece
            stack += pattern * rest
            stack[top] = values[k] + first  # the first iteration starts from v, not xm
            values[k] = last
        return True

    return run


def _abort_position(scheduled: int, left: int, frames: list[tuple]) -> int:
    """The steps run before an abort: `scheduled` less the `left` steps of
    the innermost block that did not run and those of each open loop,
    whose iterations left it reads off the loop's countdown."""
    for _, outer_atoms, entry_before, body_atoms, countdown in frames:
        left += next(countdown, 0) * body_atoms + outer_atoms - entry_before
    return scheduled - left


def _execute(
    program: Program, block, atoms: int, scheduled: int, values, stacks, counters, semantics: str, observe
) -> tuple:
    """Run one block of `program` on the slot lists under `semantics`, one
    of `_SEMANTICS`, with `scheduled` counting the steps scheduled so far,
    the block's own included.  Returns the number of steps run and -1 when
    the block completes, else, from the branch of the POP step where the
    semantics differ, the number run before a POP aborted under `a` and the
    POP's slot.  Given `observe`, each atom stepped calls it with the
    atom's label and name and the slot's live value, stack list and
    counter, and no loop counts heat or runs in closed form, so every atom
    is stepped.  A loop entry first steps down a
    perfect nest to its innermost loop, which then runs with the product of
    the counts, in the direction their signs give.  It calls its plan's
    closed form when it has one, and is done if that runs; else it pushes
    a frame (enclosing iterator, its atoms, atoms before the entry, body
    atoms, countdown) and goes on with the body's block repeated, so
    nesting does not recurse.  The countdown yields, for each iteration,
    the iterations left with it, so a count of any size runs, and an abort
    reads what is left; a loop run once goes on with its block itself, its
    countdown `_NONE_LEFT`."""
    names = program.variables
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
                        return _abort_position(scheduled, atoms - before, frames), slot
                elif not counters[slot]:
                    values[slot] = stack.pop()
            else:
                leader, cache, index, before = arg
                count = values[leader]
                while count:
                    if count < 0:
                        count = -count
                        index ^= 1
                    body, body_atoms, run = cache[index] or program._plan(cache, index)
                    if body_atoms or len(body) > 1:
                        break
                    # a perfect nest: no step of it can change the inner count
                    leader, cache, index, _ = body[0][1]
                    count *= values[leader]
                else:
                    continue  # the loop, or an inner loop of its perfect nest, runs no iteration
                scheduled += count * body_atoms
                if observe is None:
                    if run is None:
                        cache[_HEAT] += count
                        if cache[_HEAT] > _HOT:
                            run = _leaf_function(body)
                            cache[index] = body, body_atoms, run
                    if run and run(values, stacks, counters, count):
                        continue
                if count == 1:
                    frames.append((it, atoms, before, body_atoms, _NONE_LEFT))
                    it = iter(body)
                else:
                    countdown = iter(range(count, 0, -1))
                    frames.append((it, atoms, before, body_atoms, countdown))
                    it = chain.from_iterable(compress(repeat(body), countdown))
                atoms = body_atoms
                break
            if observe is not None:
                slot = arg[0] if op == _POP else arg
                name = names[slot]
                observe(_LABELS[op] + name, name, values[slot], stacks[slot], counters[slot])
        else:
            if not frames:
                return scheduled, -1
            it, atoms = frames.pop()[:2]


class Program:
    """A well-formed term, checked and numbered once, to run over many states.

    `variables` holds every name of the term, loop leaders and the names of
    bodies that never run included, in order of first occurrence.  Blocks
    are compiled on first use and kept, one per direction, and every run
    executes the same blocks, traced or not, under all three semantics, so
    each later run only executes.  A run hands `_execute` its semantics'
    name, which only the POP step's branch for an illegal POP reads: the
    one place where the semantics differ, from which an assert abort
    returns its position.  An observed run also hands it its observer,
    which gets each atom's label, joined from its opcode's keyword and its
    slot's name as the step runs.  A perfect loop nest runs as its
    innermost loop, with the product of the counts, and a hot leaf loop of
    an unobserved run whose atoms keep no POP runs in the closed form
    `_leaf_function` makes from its block, once per Program.
    `idle` holds the ids of the term's idle FOR nodes.
    """

    __slots__ = ("term", "variables", "_slots", "_loops", "_top")

    def __init__(self, term: Term, slots: dict[str, int], idle: Iterable[int]):
        self.term = term
        self.variables: tuple[str, ...] = tuple(slots)
        self._slots = slots
        # each FOR node's cache, by the node's id; an idle loop's is empty
        self._loops: dict[int, list | tuple] = dict.fromkeys(idle, ())
        self._top = _loop_cache(term)  # the whole program's cache

    def run(self, state: State, semantics: str = "r", order: str = "+", observe: _Observer | None = None) -> RunOutcome:
        """Run from `state` under semantics "n", "a" or "r".

        `order` lists the passes, run one after another as one program:
        "+" is the program and "-" its inverse, so "+-" runs P; -P.  The
        result is Final(state), or Aborted(record) when an assert run
        aborts.  Given `observe`, the run calls
        ``observe(instruction, variable, value, stack, counter)`` after
        every executed INC/DEC/PUSH/POP (loop bodies unfold; SKIP makes no
        call) with the live fields of the variable's cell: ``stack`` is the
        run's own list, top at the end, which the observer must neither keep
        nor change.  An aborting POP makes no call; the record says where it
        stopped.  An exception from `observe` ends the run.  The pair
        semantics refuse a state with a nonzero counter.
        """
        if semantics not in _SEMANTICS:
            raise ValueError(f"unknown semantics {semantics!r}; expected 'n', 'a' or 'r'")
        if order.strip("+-"):
            raise ValueError(f"order must be made of '+' and '-', got {order!r}")
        slots = self._load(state, semantics)
        aborted = self._exec(*slots, semantics, order, observe)
        if aborted is not None:
            return Aborted(self._abort_record(*slots, *aborted))
        return Final(self._store(state, *slots))

    # `run` composes the steps below.  The harness's checks call them
    # apart, to load a state once and run each pass on a copy of its lists.

    def _load(self, state: State, semantics: str) -> tuple[list, list, list]:
        """The slot lists of `state`: values, stacks with the top at the
        end, and counters.  The pair semantics refuse a nonzero counter."""
        cells = state.as_dict()
        if semantics != "r" and any(cell.counter for cell in cells.values()):
            raise NonzeroCounterError(min(name for name, cell in cells.items() if cell.counter))
        loaded = [cells.get(name, DEFAULT_CELL) for name in self.variables]
        return [cell[0] for cell in loaded], [[*cell[1][::-1]] for cell in loaded], [cell[2] for cell in loaded]

    def _exec(self, values, stacks, counters, semantics: str, order: str, observe: _Observer | None = None):
        """Run the passes of `order` in place on the slot lists.  Returns
        None, or for an assert run that aborts, the steps run before its
        POP aborted and the POP's slot, from which `_abort_record` builds
        the record for those callers that read it."""
        steps, top = 0, self._top
        for sign in order:
            block, atoms, _ = top[_DIRECTION[sign]] or self._plan(top, _DIRECTION[sign])
            steps, failed = _execute(self, block, atoms, steps + atoms, values, stacks, counters, semantics, observe)
            if failed >= 0:
                return steps, failed
        return None

    def _abort_record(self, values, stacks, counters, steps: int, slot: int) -> AbortRecord:
        """The AbortRecord of an assert run that `_exec` stopped after
        `steps` steps at a POP of `slot`, from the slot lists it left."""
        value, name = values[slot], self.variables[slot]
        reason = "value-nonzero" if value else "empty-stack"
        return AbortRecord(f"POP {name}", name, reason, Cell(value, tuple(reversed(stacks[slot])), 0), steps)

    def _store(self, state: State, values, stacks, counters) -> State:
        """`state` with the program's names set from the slot lists."""
        cells = state.as_dict()
        for name, value, stack, counter in zip(self.variables, values, stacks, counters):
            if value or stack or counter:
                cells[name] = _new_cell(Cell, (value, tuple(stack[::-1]), counter))
            else:
                cells.pop(name, None)
        return State._trusted(cells)

    def _plan(self, cache: list, index: int) -> tuple:
        """The plan of a cache's term at `index`, made on first use, which
        every caller reaches through `cache[index] or ...`: its block, its
        atom count, and its run, None while cold."""
        plan = cache[index] = (*self._compile(cache[_BODY], index), None)
        return plan

    def _compile(self, term: Term, index: int) -> tuple[tuple, int]:
        """The block of `term` at `index`, run inverted when 1, and its atom
        count.  No part of a sequence is a sequence, an idle loop gets no
        entry, and a loop body is compiled when `_execute` first enters the
        loop in that direction, so this is one pass over the parts."""
        ops, slots, loops = _OPCODES[index], self._slots, self._loops
        entries: list[tuple] = []
        atoms = 0
        parts = _parts(term)
        for t in parts[::-1] if index else parts:
            kind = type(t)
            if kind is Skip:
                continue
            if kind is For:
                cache = loops.get(id(t))
                if cache is None:
                    cache = loops[id(t)] = _loop_cache(t.body)
                if cache:
                    entries.append((_LOOP, (slots[t.leader], cache, index, atoms)))
            else:
                slot = slots[t.var]
                op = ops[kind]
                entries.append((op, (slot, atoms) if op == _POP else slot))
                atoms += 1
        return tuple(entries), atoms


def compile_program(term: Term) -> Program:
    """Check `term` against the strict leader proviso and number its
    variables, in one walk.  A program that breaks the proviso raises
    IllFormedProgramError with every violation."""
    violations, slots, idle = _scan(term, False)
    if violations:
        raise IllFormedProgramError(violations)
    return Program(term, slots, idle)


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
    steps: list[TraceStep] = []
    append = steps.append

    def observe(instruction, name, value, stack, counter):
        append(TraceStep(len(steps), instruction, name, _new_cell(Cell, (value, tuple(stack[::-1]), counter)), None))

    outcome = compile_program(term).run(state, semantics, "+", observe)
    if type(outcome) is Aborted:
        record = outcome.record
        append(TraceStep(record.trace_position, record.instruction, record.variable, None, record))
        return steps, None
    return steps, outcome.state
