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
from itertools import chain, compress, cycle, islice, repeat

from .state import Cell, DEFAULT_CELL, State, _new_cell
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
# nonzero or whose stack is empty, and that branch of `_execute`, like the
# POP line of every generated function, calls the run's entry of `_ILLEGAL`,
# the one place where they differ.  PUSH is `push_r` under all three: the
# pair semantics run only on states whose counters are 0, and only an
# illegal POP under `r` ever raises a counter, so there `push_r` always
# takes its first clause, the pair push, and a legal POP is the pair pop.
# An observed run calls its observer after each atom it steps, with the
# atom's label and name from the Program's `_labels` table, by opcode and
# slot, and the slot's live value, stack list and counter.
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
# entry runs it.  ``run`` is False for a block that holds a loop entry and
# so always steps through `_execute`, the function generated from the block
# (below) once the loop is hot, and None while the block is cold: it steps,
# and its entries count the loop's heat.  So a loop entry makes one plan
# lookup and one dispatch.  An observed entry counts no heat and calls no
# function: it steps, so the observer sees every atom.
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
# illegal POP under `a` raises `_Abort` with the steps of its block's
# iteration that count as run before it, and one handler in `_execute`
# turns that into the abort position, whether the POP was stepped or ran in
# a generated function.
#
# A perfect nest, ``FOR m { FOR k { B } }`` whose outer body is only the
# inner loop, runs as one loop.  A loop reads its leader once, and the
# strict proviso keeps k out of B, so k keeps its value for the whole run
# of m's loop: the nest is k's loop run |m|*|k| times, inverted when the
# signs of m and k differ (loop coalescing).  So a loop entry steps down
# while its plan's block holds no atom and one loop entry, multiplying the
# count by the inner leader's value, and runs the innermost plan with the
# product, stepped or generated.  Each iteration runs the same
# atoms in the same order as level-by-level stepping, and `scheduled` gets
# the same total, so no abort position moves.  The outer levels' plans are
# made, for their blocks, but they never step and count no heat.  A mixed
# nest, one with atoms beside its inner loop, steps its outer level.
#
# A hot leaf loop, one whose block holds no loop entry, runs in an
# unobserved run through a Python function generated from its block
# (`_leaf_function`): each slot's value and counter in a local, each stack
# list aliased, and the block's atoms written out under ``for i in
# range(count)``, with the same meaning as `_execute`'s branches.  So every
# call runs exactly count times the block's atoms, or aborts, a number
# known before the call.  An illegal POP is one call to its semantics'
# helper in `_ILLEGAL`, as when stepping, so one function serves all three
# semantics.  The call gets a base, the entry's atoms before less count
# times the block's atoms, and a POP's line hands its helper ``base + i *
# atoms + before``.  So under `a` the `_Abort` counts from the start of the
# enclosing block, the steps the loop left unrun taken off, and the abort
# position is the same as when stepping.  A block that holds a loop entry
# gets False and always steps, so no function calls another and a
# function's text is linear in its block.
# Compiling a function costs about as much as stepping its body 500 times,
# so a loop's heat counts the iterations its cold plans have scheduled, in
# either direction, and a plan gets its run, the function or False, on the
# first unobserved entry past `_HOT`.  The plan lives in the loop's cache,
# so a Program generates each function at most once, and a fresh Program
# pays for it again.  Observed runs always step.
#
# A hot leaf whose atoms keep no POP runs in closed form.  `_closed_form`
# reduces each slot's word of atoms, cancelling an atom against the last
# one left on its slot when the pair is INC then DEC, DEC then INC, or PUSH
# then POP; atoms on different slots commute.  INC and DEC undo each other
# on any cell, and so does PUSH then POP: under `r` it is
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
# that adds to each value and extends each stack list from its repeated
# pattern, with no temporary copy.  It calls the block's generated loop,
# made on first need, when a pushing slot's counter is not 0 at entry,
# which only an illegal POP under `r` brings about, or when the call would
# push more than `_MOST_PUSHES` values, about what stepping pushes in a
# second: such a run steps as it did, until its memory runs out.
# `scheduled` still gets count times the block's atoms, so no abort
# position moves.  Any other leaf keeps its generated loop as written,
# pairs and all: it runs count iterations anyway, and each POP's line
# counts the atoms before it in the block as written.

_INC, _DEC, _PUSH, _POP, _LOOP = range(5)
_SEMANTICS = ("n", "a", "r")
# The opcode each atom class compiles to, run forward and inverted.
_FORWARD = {Inc: _INC, Dec: _DEC, Push: _PUSH, Pop: _POP}
_OPCODES = (_FORWARD, {cls: _FORWARD[inverse] for cls, inverse in _INVERSE.items()})
# A loop cache: 0 and 1 hold its plans, then its body term and its heat.
_BODY, _HEAT = 2, 3
_HOT = 500  # iterations a loop schedules before its functions are generated
_DIRECTION = {"+": 0, "-": 1}  # the passes of `Program.run`'s order
_NONE_LEFT = iter(())  # the countdown of a loop run once, which has no iteration left to yield


def _loop_cache(body: Term) -> list:
    """A fresh loop cache for `body`: no plan made yet, cold."""
    return [None, None, body, 0]


def _unknown_semantics(semantics: str) -> ValueError:
    return ValueError(f"unknown semantics {semantics!r}; expected 'n', 'a' or 'r'")


class _Abort(Exception):
    """An illegal POP under the assert semantics: the POP's slot, and the
    steps of the running block's iteration that count as run before it."""

    def __init__(self, slot: int, ran: int):
        self.slot, self.ran = slot, ran


def _illegal_n(value, stack, counter, slot, ran):
    return stack.pop() if stack else 0, counter


def _illegal_a(value, stack, counter, slot, ran):
    raise _Abort(slot, ran)


def _illegal_r(value, stack, counter, slot, ran):
    return value, counter + 1


# What an illegal POP does under each semantics, stepped or in a generated
# function: ``value, counter = illegal(value, stack, counter, slot, ran)``,
# where ``ran`` is the steps of the running block's iteration that count as
# run before the POP.  Only the assert helper reads the last two.
_ILLEGAL = {"n": _illegal_n, "a": _illegal_a, "r": _illegal_r}

# The lines of each atom in a generated function, over the locals of its
# slot k: v{k} and c{k} hold the value and the counter, s{k} is the stack
# list.  A POP hands its helper ``base`` plus the steps the call ran before
# it: {atoms} per earlier iteration and the {before} atoms ahead of it in
# its own.
_ATOM_LINES = {
    _INC: ("v{k} += 1",),
    _DEC: ("v{k} -= 1",),
    _PUSH: ("if not c{k}:", "    s{k}.append(v{k})", "    v{k} = 0", "elif v{k} or not s{k}:", "    c{k} -= 1"),
    _POP: (
        "if v{k} or not s{k}:",
        "    v{k}, c{k} = illegal(v{k}, s{k}, c{k}, {k}, base + i * {atoms} + {before})",
        "elif not c{k}:",
        "    v{k} = s{k}.pop()",
    ),
}
# Each atom's lines as one text, indented for the function's loop.
_ATOM_TEXT = {op: "".join(f"{' ' * 12}{line}\n" for line in lines) for op, lines in _ATOM_LINES.items()}


_MOST_PUSHES = 2**24  # the most values a closed-form call pushes; past it, the generated loop runs


def _closed_form(block: tuple) -> list[tuple[int, list[int]]] | None:
    """Each slot's word of atoms in `block`, a leaf body, once its inverse
    pairs (INC then DEC, DEC then INC, PUSH then POP) have cancelled, as
    ``(slot, [x0, x1, ..., xm])`` for the word ``x0 PUSH x1 ... PUSH xm``,
    each xi a net count of INCs less DECs; or None when a word keeps a POP.
    Atoms on different slots commute, so each slot's word is reduced on its
    own; a slot whose word cancels is left out."""
    words: dict[int, list[int]] = {}
    for op, arg in block:
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
    """The function ``run(values, stacks, counters, count, illegal, base)``
    that runs `block`, a loop body, `count` times on the slot lists, an
    illegal POP calling `illegal` (from `_ILLEGAL`) with ``base`` plus the
    steps the call ran before it; or False when the block holds a loop
    entry.  No loop's block is empty, since an idle loop gets no entry.  A
    block whose words keep no POP (`_closed_form`) runs as one addition per
    slot without a PUSH and one extension per slot with one; its generated
    loop is made on the first call whose pushing slots do not all have
    counter 0 or that would push more than `_MOST_PUSHES` values."""
    if any(op == _LOOP for op, _ in block):
        return False
    forms = _closed_form(block)
    if forms is None:
        return _loop_function(block)
    moves = [(k, x[0]) for k, x in forms if len(x) == 1]
    # from value v and counter 0, count iterations push v + x0, x1, ...,
    # x(m-1), then (xm + x0, x1, ..., x(m-1)) count - 1 times, and leave xm
    grows = [(k, x[0], (x[-1] + x[0], *x[1:-1]), x[-1]) for k, x in forms if len(x) > 1]
    pushes = sum(len(pattern) for _, _, pattern, _ in grows)
    loop = None

    def run(values, stacks, counters, count, illegal, base):
        nonlocal loop
        if grows and (count * pushes > _MOST_PUSHES or any(counters[k] for k, *_ in grows)):
            loop = loop or _loop_function(block)
            return loop(values, stacks, counters, count, illegal, base)
        for k, change in moves:
            values[k] += change * count
        for k, first, pattern, last in grows:
            stack = stacks[k]
            top = len(stack)
            stack.extend(islice(cycle(pattern), count * len(pattern)))
            stack[top] = values[k] + first  # the first iteration starts from v, not xm
            values[k] = last

    return run


def _loop_function(block: tuple):
    """`block`'s function for `_leaf_function`, generated: the block's atoms
    written out under ``for i in range(count)``."""
    stacked: dict[int, bool] = {}  # each slot of the block: whether it uses its stack
    body = []
    for op, arg in block:
        slot, before = arg if op == _POP else (arg, 0)
        stacked[slot] = stacked.get(slot, False) or op == _PUSH or op == _POP
        body.append(_ATOM_TEXT[op].format(k=slot, atoms=len(block), before=before))
    load, store = [], []
    for k, uses_stack in stacked.items():
        load.append(f"    v{k} = values[{k}]\n")
        store.append(f"        values[{k}] = v{k}\n")
        if uses_stack:
            load.append(f"    s{k} = stacks[{k}]\n    c{k} = counters[{k}]\n")
            store.append(f"        counters[{k}] = c{k}\n")
    head = "def run(values, stacks, counters, count, illegal, base):\n"
    source = "".join((head, *load, "    try:\n        for i in range(count):\n", *body, "    finally:\n", *store))
    namespace: dict = {}
    exec(compile(source, "<leaf loop>", "exec"), namespace)
    return namespace.pop("run")  # so the function and its globals make no cycle


def _abort_position(scheduled: int, left: int, frames: list[tuple]) -> int:
    """The steps run before an abort: `scheduled` less the `left` steps of
    the innermost block that did not run and those of each open loop,
    whose iterations left it reads off the loop's countdown."""
    for _, outer_atoms, entry_before, body_atoms, countdown in frames:
        left += next(countdown, 0) * body_atoms + outer_atoms - entry_before
    return scheduled - left


def _execute(
    program: Program, block, atoms: int, scheduled: int, values, stacks, counters, illegal, observe
) -> tuple:
    """Run one block of `program` on the slot lists, an illegal POP calling
    `illegal`, the semantics' entry of `_ILLEGAL`, and `scheduled` counting
    the steps scheduled so far, the block's own included.  Returns the
    number of steps run and -1 when the block completes, else the number
    run before a POP aborted and the POP's slot.  Given `observe`, each
    atom stepped calls it with the atom's label and name and the slot's
    live value, stack list and counter, and no loop counts heat or calls a
    function, so every atom is stepped.  A loop entry first steps down a
    perfect nest to its innermost loop, which then runs with the product of
    the counts, in the direction their signs give.  It calls its plan's
    function when it has one; else it pushes a frame (enclosing iterator,
    its atoms, atoms before the entry, body atoms, countdown) and goes on
    with the body's block repeated, so nesting does not recurse.  The
    countdown yields, for each iteration, the iterations left with it, so a
    count of any size runs, and an abort reads what is left; a loop run
    once goes on with its block itself, its countdown `_NONE_LEFT`."""
    labels = program._labels
    frames: list[tuple] = []
    it = iter(block)
    try:
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
                        values[slot], counters[slot] = illegal(values[slot], stack, counters[slot], slot, before)
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
                        if run:
                            # an abort in the call counts from the start of this block
                            run(values, stacks, counters, count, illegal, before - count * body_atoms)
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
                    label, name = labels[op][slot]
                    observe(label, name, values[slot], stacks[slot], counters[slot])
            else:
                if not frames:
                    return scheduled, -1
                it, atoms = frames.pop()[:2]
    except _Abort as stop:
        return _abort_position(scheduled, atoms - stop.ran, frames), stop.slot


class Program:
    """A well-formed term, checked and numbered once, to run over many states.

    `variables` holds every name of the term, loop leaders and the names of
    bodies that never run included, in order of first occurrence.  Blocks
    are compiled on first use and kept, one per direction, and every run
    executes the same blocks, traced or not, under all three semantics, so
    each later run only executes.  A run hands `_execute` its semantics'
    entry of `_ILLEGAL`, the one place where they differ, and an observed
    run also its observer, which reads each atom's label and name from
    `_labels`, a table made on the first observed run.  A perfect loop nest
    runs as its innermost loop, with the product of the counts, and a hot
    leaf loop of an unobserved run calls the function `_leaf_function`
    makes from its block, once per Program.  `idle` holds the ids of the
    term's idle FOR nodes.
    """

    __slots__ = ("term", "variables", "_slots", "_loops", "_top", "_labels")

    def __init__(self, term: Term, slots: dict[str, int], idle: Iterable[int]):
        self.term = term
        self.variables: tuple[str, ...] = tuple(slots)
        self._slots = slots
        # each FOR node's cache, by the node's id; an idle loop's is empty
        self._loops: dict[int, list | tuple] = dict.fromkeys(idle, ())
        self._top = _loop_cache(term)  # the whole program's cache
        # by opcode and slot, each atom's trace label and name, once observed
        self._labels: list | None = None

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
            raise _unknown_semantics(semantics)
        if order.strip("+-"):
            raise ValueError(f"order must be made of '+' and '-', got {order!r}")
        slots = self._load(state, semantics)
        record = self._exec(*slots, semantics, order, observe)
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

    def _exec(self, values, stacks, counters, semantics: str, order: str, observe: _Observer | None = None):
        """Run the passes of `order` in place on the slot lists.  Returns
        None, or the AbortRecord of an assert run that aborts."""
        if observe is not None and self._labels is None:
            # `_FORWARD` lists the atom classes in the order of their opcodes
            self._labels = [[(f"{_KEYWORD[cls]} {name}", name) for name in self.variables] for cls in _FORWARD]
        illegal = _ILLEGAL[semantics]
        steps = 0
        for sign in order:
            block, atoms, _ = self._plan(self._top, _DIRECTION[sign])
            steps, failed = _execute(self, block, atoms, steps + atoms, values, stacks, counters, illegal, observe)
            if failed >= 0:
                value, name = values[failed], self.variables[failed]
                reason = "value-nonzero" if value else "empty-stack"
                observed = Cell(value, tuple(reversed(stacks[failed])), 0)
                return AbortRecord(f"POP {name}", name, reason, observed, steps)
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

    def _plan(self, cache: list, index: int) -> tuple:
        """The plan of a cache's term at `index`, made on first use: its
        block, its atom count, and its run, None while cold."""
        plan = cache[index]
        if plan is None:
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
    if semantics not in _SEMANTICS:
        raise _unknown_semantics(semantics)
    steps: list[TraceStep] = []
    append = steps.append

    def observe(instruction, name, value, stack, counter):
        append(TraceStep(len(steps), instruction, name, _new_cell(Cell, (value, tuple(stack[::-1]), counter))))

    outcome = compile_program(term).run(state, semantics, "+", observe)
    if type(outcome) is Aborted:
        record = outcome.record
        append(TraceStep(record.trace_position, record.instruction, record.variable, None, record))
        return steps, None
    return steps, outcome.state
