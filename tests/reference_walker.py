"""The tree-walking evaluator that scorelang's compiled core replaced.

Kept here, unoptimized, as the oracle the core is checked against: it
re-dispatches on every node, rebuilds cells as tuples, runs `invert` on
every negative loop entry and snapshots the whole state after each traced
step.  It recurses along sequences, so it is only fit for small terms.

`ref_idle_loops` keeps the walk of each loop body that once told the core
whether a loop is idle, as the oracle for the idle loops `syntax._scan`
records in its one walk.
"""

from __future__ import annotations

from typing import NamedTuple

from scorelang import (
    AbortRecord,
    Aborted,
    Cell,
    DEFAULT_CELL,
    Dec,
    Final,
    For,
    IllFormedProgramError,
    Inc,
    NonzeroCounterError,
    Pop,
    Push,
    Seq,
    Skip,
    State,
    Term,
    check_well_formed,
    hd,
    invert,
    pop_r,
    push_r,
    tl,
)


class Snapshot(NamedTuple):
    """One traced step: the whole state after it, or the abort record."""

    index: int
    instruction: str
    variable: str
    state: State | None
    abort: AbortRecord | None = None


class _AbortSignal(Exception):
    def __init__(self, record: AbortRecord):
        self.record = record


class _StepLog:
    __slots__ = ("count", "sink")

    def __init__(self, sink=None):
        self.count = 0
        self.sink = sink

    def note(self, instruction: str, variable: str, cells: dict[str, Cell]) -> None:
        index = self.count
        self.count = index + 1
        if self.sink is not None:
            self.sink(Snapshot(index, instruction, variable, State(dict(cells))))


def _run(term: Term, cells: dict[str, Cell], mode: str, log: _StepLog | None) -> None:
    match term:
        case Seq(parts):
            for part in parts:
                _run(part, cells, mode, log)
        case Inc(x):
            value, stack, counter = cells.get(x, DEFAULT_CELL)
            cells[x] = Cell(value + 1, stack, counter)
            if log is not None:
                log.note(f"INC {x}", x, cells)
        case Dec(x):
            value, stack, counter = cells.get(x, DEFAULT_CELL)
            cells[x] = Cell(value - 1, stack, counter)
            if log is not None:
                log.note(f"DEC {x}", x, cells)
        case Push(x):
            cell = cells.get(x, DEFAULT_CELL)
            if mode == "r":
                cells[x] = push_r(cell)
            else:
                cells[x] = Cell(0, (cell.value, *cell.stack), 0)
            if log is not None:
                log.note(f"PUSH {x}", x, cells)
        case Pop(x):
            cell = cells.get(x, DEFAULT_CELL)
            if mode == "r":
                cells[x] = pop_r(cell)
            elif mode == "n":
                cells[x] = Cell(hd(cell.stack), tl(cell.stack), 0)
            else:
                value, stack, _ = cell
                if value != 0:
                    raise _AbortSignal(
                        AbortRecord(f"POP {x}", x, "value-nonzero", Cell(value, stack, 0), log.count)
                    )
                if not stack:
                    raise _AbortSignal(
                        AbortRecord(f"POP {x}", x, "empty-stack", Cell(value, stack, 0), log.count)
                    )
                cells[x] = Cell(stack[0], stack[1:], 0)
            if log is not None:
                log.note(f"POP {x}", x, cells)
        case For(leader, body):
            count = cells.get(leader, DEFAULT_CELL).value
            program = body if count >= 0 else invert(body)
            for _ in range(abs(count)):
                _run(program, cells, mode, log)
        case Skip():
            pass
        case _:
            raise TypeError(f"not a term: {term!r}")


def _check_preconditions(term: Term, state: State, *, pair_view: bool) -> None:
    violations = check_well_formed(term)
    if violations:
        raise IllFormedProgramError(violations)
    if pair_view:
        for name in sorted(state.variables()):
            if state.get(name).counter != 0:
                raise NonzeroCounterError(name)


def ref_eval_n(term: Term, state: State) -> State:
    _check_preconditions(term, state, pair_view=True)
    cells = state.as_dict()
    _run(term, cells, "n", None)
    return State(cells)


def ref_eval_a(term: Term, state: State):
    _check_preconditions(term, state, pair_view=True)
    cells = state.as_dict()
    log = _StepLog()
    try:
        _run(term, cells, "a", log)
    except _AbortSignal as signal:
        return Aborted(signal.record)
    return Final(State(cells))


def ref_eval_r(term: Term, state: State) -> State:
    _check_preconditions(term, state, pair_view=False)
    cells = state.as_dict()
    _run(term, cells, "r", None)
    return State(cells)


def ref_eval_traced(term: Term, state: State, semantics: str = "r") -> list[Snapshot]:
    """A snapshot after every executed INC/DEC/PUSH/POP; under the assert
    semantics an abort ends the list with a snapshot carrying the record."""
    _check_preconditions(term, state, pair_view=semantics != "r")
    steps: list[Snapshot] = []
    log = _StepLog(steps.append)
    cells = state.as_dict()
    try:
        _run(term, cells, semantics, log)
    except _AbortSignal as signal:
        record = signal.record
        steps.append(Snapshot(record.trace_position, record.instruction, record.variable, None, record))
    return steps


def _body_is_idle(body: Term) -> bool:
    """Whether `body` holds no atom at any depth: the walk the compiled core
    once made of a loop's body the first time it asked."""
    idle, todo = True, [body]
    while todo and idle:
        t = todo.pop()
        kind = type(t)
        if kind is Seq:
            todo += t.parts
        elif kind is For:
            todo.append(t.body)
        else:
            idle = kind is Skip
    return idle


def ref_idle_loops(term: Term) -> set[int]:
    """The ids of the FOR nodes of `term`, at any depth, whose body holds
    no atom at any depth, each found by a walk of its own body."""
    found: set[int] = set()
    todo = [term]
    while todo:
        t = todo.pop()
        if type(t) is Seq:
            todo += t.parts
        elif type(t) is For:
            todo.append(t.body)
            if _body_is_idle(t.body):
                found.add(id(t))
    return found
