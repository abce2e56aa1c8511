"""Randomized and exhaustive checks of the reversibility guarantees.

The harness generates well-formed programs and matching states, runs the
reversibility checks on them, enumerates small cell grids to confirm the
push/pop inverse guarantee, and shrinks any counterexample it finds to a
minimal replayable (program, state) pair.
"""

from __future__ import annotations

import random
import sys
from dataclasses import asdict, dataclass, field
from itertools import chain, islice, product, repeat
from typing import Callable, Iterable, Iterator

from .semantics import Program, compile_program, pop_r, push_r
from .state import Cell, DEFAULT_CELL, State, _new_cell, dump_state
from .syntax import _KEYWORD, For, Pop, Push, Seq, Skip, Term, _Record, _atom, _loop, _parts, _sequence, pretty

__all__ = [
    "GenConfig",
    "Pass",
    "Fail",
    "Verdict",
    "FailureCorrespondence",
    "CheckCounts",
    "FuzzWitness",
    "FuzzReport",
    "gen_term",
    "gen_state",
    "check_strong_reversibility",
    "check_weak_reversibility_a",
    "check_agreement_a_r",
    "check_failure_correspondence",
    "exhaustive_pop_push_inverse",
    "exhaustive_pop_injective",
    "minimize",
    "run_fuzz",
    "zero_counters",
]

@dataclass(init=False, repr=False, eq=False)
class GenConfig(_Record):
    """The seed and the size bounds of random programs and states.

    Each node of a program is drawn uniformly from the constructors that
    the remaining depth and names allow.  The defaults reach every
    `push_r`/`pop_r` clause, but they do not bound the loop-unfolding
    product: a nest of loops can draw a program that needs far too many
    steps to finish, and no step budget bounds a run yet.
    """

    seed: int = 1
    max_depth: int = 6
    max_vars: int = 4
    value_range: tuple[int, int] = (-5, 5)
    max_stack_len: int = 4
    max_counter: int = 2

    def __post_init__(self) -> None:
        lo, hi = self.value_range
        if lo > hi:
            raise ValueError(f"empty value range: {self.value_range}")
        if self.max_depth < 1 or self.max_vars < 1:
            raise ValueError("max_depth and max_vars must be positive")
        if self.max_stack_len < 0 or self.max_counter < 0:
            raise ValueError("max_stack_len and max_counter must be non-negative")


@dataclass(init=False, repr=False, eq=False)
class Pass(_Record):
    """A check that held, on `cases_run` cases; `vacuous` when it held only
    because an assert run aborted."""

    cases_run: int = 1
    vacuous: bool = False


@dataclass(init=False, repr=False, eq=False)
class Fail(_Record):
    """A replayable counterexample; program/initial are None only for the
    cell-grid oracle, which checks cells rather than runs."""

    program: Term | None
    initial: State | None
    details: str


Verdict = Pass | Fail


_NAME_POOL = "xyzwuvst"


def _var_names(count: int) -> list[str]:
    return [_NAME_POOL[i] if i < len(_NAME_POOL) else f"x{i}" for i in range(count)]


_SKIP = Skip()
# The kinds a node is drawn from, by whether names are left, whether the
# depth leaves room for children, and whether a sequence may start here.
# The kinds, and their order, fix each seed's programs, and so its fuzz
# reports.
_KINDS = {
    (named, deep, seq): ((Skip, *_KEYWORD) if named else (Skip,))
    + (Seq,) * (deep and seq)
    + (For,) * (deep and named)
    for named in (False, True)
    for deep in (False, True)
    for seq in (False, True)
}

# `_gen` and `_drawer` draw what `Random.choices`, `Random.choice` and
# `Random.randint` would, so each seed draws what it drew through them on
# Python 3.10-3.13.  A kind is `choices`' draw, ``int(random() * n)``; every
# other draw below n is `Random._randbelow`'s: ``getrandbits(k)`` for k =
# n.bit_length(), again while the draw is n or more.  They take those bits
# straight from `rng.getrandbits`, without a Python call per draw, as
# `random.Random` does; a subclass that overrides `random` but not
# `getrandbits` draws below n through `random` instead, and its draws
# here differ from its methods'.


def _gen(rng: random.Random, names: list[str], depth: int, allow_seq: bool) -> Term:
    kinds = _KINDS[bool(names), depth >= 2, allow_seq]
    kind = kinds[int(rng.random() * len(kinds))]  # rng.choices(kinds)[0]
    if kind is Skip:
        return _SKIP
    if kind is Seq:
        # a first part that is never a sequence, then a rest that may be one
        # and whose parts follow
        first = _gen(rng, names, depth - 1, allow_seq=False)
        second = _gen(rng, names, depth - 1, allow_seq=True)
        return _sequence((first, *_parts(second)))
    n = len(names)  # i is rng.choice(names)'s index
    bits = n.bit_length()
    i = rng.getrandbits(bits)
    while i >= n:
        i = rng.getrandbits(bits)
    if kind is For:
        return _loop(names[i], _gen(rng, names[:i] + names[i + 1 :], depth - 1, allow_seq=True))
    return _atom(kind, names[i])


def gen_term(cfg: GenConfig, rng: random.Random | None = None) -> Term:
    """A well-formed term of depth <= max_depth, deterministic in the seed.

    Loop leaders are excluded from the identifiers available to their body,
    so the well-formedness proviso holds by construction.
    """
    if rng is None:
        rng = random.Random(cfg.seed)
    return _gen(rng, _var_names(cfg.max_vars), cfg.max_depth, allow_seq=True)


def gen_state(cfg: GenConfig, names: Iterable[str], rng: random.Random | None = None) -> State:
    """A random state over `names`, deterministic in the seed."""
    if rng is None:
        rng = random.Random(cfg.seed)
    names = sorted(set(names))
    drawn = zip(names, *_drawer(rng, cfg)(range(len(names))))
    return State({name: Cell(v, tuple(s[::-1]), c) for name, v, s, c in drawn})


def _drawer(rng: random.Random, cfg: GenConfig) -> Callable[[range | list[int]], tuple[list, list, list]]:
    """A function that draws slot lists from `rng` for names whose slots,
    in sorted-name order, are its argument: per name a value, a stack
    length, its elements from the top down and a counter.  As in a loaded
    program, each stack list has its top at the end.  A default cell is
    drawn like any other, and `gen_state` leaves it out.  Each draw comes
    from a lazy C iterator that takes the bits of one `Random._randbelow`
    call from `rng` when it is read, and no sooner, so a reseeded `rng`
    serves every later call."""
    bits = rng.getrandbits

    def below(n: int) -> Iterator[int]:  # rng._randbelow(n), once per item read
        return filter(n.__gt__, map(bits, repeat(n.bit_length())))

    lo, hi = cfg.value_range
    elements = map(lo.__add__, below(hi - lo + 1))  # rng.randint(lo, hi), once per item read
    lengths, counts = below(cfg.max_stack_len + 1), below(cfg.max_counter + 1)

    def draw(slots: range | list[int]) -> tuple[list, list, list]:
        size = len(slots)
        values, stacks, counters = [0] * size, [None] * size, [0] * size
        for slot in slots:
            values[slot] = next(elements)
            stacks[slot] = [*islice(elements, next(lengths))][::-1]
            counters[slot] = next(counts)
        return values, stacks, counters

    return draw


def zero_counters(state: State) -> State:
    """The same state with every counter projected to 0: `state` itself
    when no counter is set."""
    cells = state._cells
    if not any(cell[2] for cell in cells.values()):
        return state
    return State._trusted({name: Cell(v, s, 0) for name, (v, s, _) in cells.items() if v or s})


def _first_diff(expected: State, got: State) -> str:
    for name in sorted(expected.variables() | got.variables()):
        if expected.get(name) != got.get(name):
            return f"{name}: expected {tuple(expected.get(name))}, got {tuple(got.get(name))}"
    return "states differ"


# The four checks are defined once, in `_check_slots`, from five runs of
# one compiled program on slot lists.  `run_fuzz` draws each case straight
# into those lists and counts its results; `_check_case` loads a State into
# them once, and each public check below, like the re-check of a shrunk
# witness, returns its entry of it.  Each run but the last works on its
# own copy of the lists it starts from, the last on the lists of the run it
# inverts, and the checks compare lists; a fuzz case builds a State only
# for a failure or a correspondence witness.


def check_strong_reversibility(program: Term, initial: State) -> Verdict:
    """P;-P and -P;P must both restore `initial` exactly under eval_r."""
    return _check_case(compile_program(program), initial)[1]


def check_weak_reversibility_a(program: Term, initial: State) -> Verdict:
    """A completed assert-semantics run must be undone exactly by the
    inverse program; aborting runs pass vacuously."""
    return _check_case(compile_program(program), initial, "a")[2]


def check_agreement_a_r(program: Term, initial: State) -> Verdict:
    """A completed assert-semantics run must match the reversible run with
    all counters 0; aborting runs pass vacuously."""
    return _check_case(compile_program(program), initial, "a")[3]


@dataclass(init=False, repr=False, eq=False)
class FailureCorrespondence(_Record):
    """How an aborting assert run relates to the reversible run's final
    broken variables.

    ``direction_witness`` is "only-if" when the assert run aborted but the
    reversible run repaired everything (a discrepancy that is reported,
    not failed), "if" when the reversible run ended broken without an
    abort (never expected), and None when the two agree.
    """

    a_aborted: bool
    r_final_broken: bool
    direction_witness: str | None


# The four results a case can have, by (a aborted, r final broken); every
# Pass is one of two shared ones.
_CORRESPONDENCE = {
    (False, False): FailureCorrespondence(False, False, None),
    (False, True): FailureCorrespondence(False, True, "if"),
    (True, False): FailureCorrespondence(True, False, "only-if"),
    (True, True): FailureCorrespondence(True, True, None),
}
_PASS, _VACUOUS = Pass(), Pass(vacuous=True)
_IF_BROKEN, _ONLY_IF_REPAIRED = _CORRESPONDENCE[False, True], _CORRESPONDENCE[True, False]


def check_failure_correspondence(program: Term, initial: State) -> FailureCorrespondence:
    return _check_case(compile_program(program), initial, "a")[4]


def _run(program: Program, slots: tuple, semantics: str, order: str = "+") -> tuple[tuple, tuple | None]:
    """A run on a copy of `slots`: the slot lists it ends with, and what
    `Program._exec` returns, None unless an assert run aborts."""
    values, stacks, counters = slots
    after = [*values], [*map(list, stacks)], [*counters]
    return after, program._exec(*after, semantics, order)


def _check_case(program: Program, initial: State, semantics: str = "r") -> tuple:
    """`_check_slots` on `initial`, loaded once, with the counter-free
    state first.  Loading for the pair semantics ("a") refuses a nonzero
    counter."""
    flat, *results = _check_slots(program, program._load(initial, semantics), initial)
    return program._store(initial, *flat), *results


def _check_slots(program: Program, full: tuple, base: State) -> tuple:
    """The counter-free slot lists and the results of the four checks on
    one pair, from up to five runs: strong reversibility, weak
    reversibility, a-r agreement and the FailureCorrespondence.  Strong
    reversibility runs P;-P and -P;P on the slot lists `full`; the three
    checks defined on the pair semantics see them with counters zeroed and
    share one assert and one reversible run, and weak reversibility adds
    the assert run of the inverse when the first one completes.  Each run
    works on its own copy of the lists but that last one, which goes on in
    place from where the assert run ended, once the agreement check has
    read its lists.  So the counter-free lists share the values and stacks
    of `full`, which no run changes, and its counters too when none is
    set.  No run serves two checks: were P;-P split so that its P pass
    was also the reversible run when no counter is set, a fault that acts
    once per run, such as an `r` run that forgets its counters as it
    ends, would also act between P and -P, and strong reversibility would
    no longer give the verdict it gives on whole States.  A failure's
    State is `base` with the program's names set from the lists it starts
    from."""
    strong = _PASS
    for order, label in (("+-", "P;-P"), ("-+", "-P;P")):
        after, _ = _run(program, full, "r", order)
        if after != full:
            strong = _fail(program, base, full, f"{label} changed the state: {_diff(program, base, full, after)}")
            break

    flat = (full[0], full[1], [0] * len(full[2])) if any(full[2]) else full
    after, abort = _run(program, flat, "a")
    reversible = _run(program, flat, "r")[0]
    broken = any(reversible[2])
    aborted = abort is not None
    weak = agreement = _VACUOUS if aborted else _PASS
    if not aborted:
        if reversible != after:
            agreement = _fail(program, base, flat, f"semantics disagree: {_diff(program, base, after, reversible)}")
        elif broken:
            names = sorted(name for name, counter in zip(program.variables, reversible[2]) if counter)
            agreement = _fail(program, base, flat, f"reversible run left broken variables: {names}")
        inverse = program._exec(*after, "a", "-")  # in place: no check reads the assert run's lists again
        if inverse is not None:
            record = program._abort_record(*after, *inverse)
            weak = _fail(program, base, flat, f"inverse run aborted: {record.reason} on {record.variable}")
        elif after != flat:
            weak = _fail(program, base, flat, f"inverse run missed the start: {_diff(program, base, flat, after)}")
    return flat, strong, weak, agreement, _CORRESPONDENCE[aborted, broken]


def _fail(program: Program, base: State, start: tuple, details: str) -> Fail:
    """The failing verdict of `program` from the slot lists `start`."""
    return Fail(program.term, program._store(base, *start), details)


def _diff(program: Program, base: State, expected: tuple, got: tuple) -> str:
    """`_first_diff` of the states of two slot lists."""
    return _first_diff(program._store(base, *expected), program._store(base, *got))


def _enumerate_cells(value_bound: int, stack_len_bound: int, elem_bound: int, counter_bound: int) -> Iterator[Cell]:
    """The grid's cells, lazily: by value, then stack length, then elements
    top first, then counter.  Each layer of one value and one length is a
    chain of C iterators over its own `product` of elements, so no Python
    frame runs per cell and no more than one stack is held at a time.  A
    negative bound raises ValueError at the call."""
    names = ("value_bound", "stack_len_bound", "elem_bound", "counter_bound")
    for name, bound in zip(names, (value_bound, stack_len_bound, elem_bound, counter_bound)):
        if bound < 0:  # an empty grid would pass having checked no cell
            raise ValueError(f"{name} must be non-negative, got {bound}")
    elems = range(-elem_bound, elem_bound + 1)
    # Each stack repeats once per counter (`repeat` counts in a C ssize_t,
    # and no run gets that far) beside one endless run of counters, which
    # stays in step: a layer's `zip` ends on its stacks before it takes
    # another counter.
    per_stack = repeat(min(counter_bound + 1, sys.maxsize))
    counters = chain.from_iterable(repeat(range(counter_bound + 1)))
    layers = (
        zip(repeat(value), chain.from_iterable(map(repeat, product(elems, repeat=length), per_stack)), counters)
        for value in range(-value_bound, value_bound + 1)
        for length in range(stack_len_bound + 1)
    )
    return map(_new_cell, repeat(Cell), chain.from_iterable(layers))


def exhaustive_pop_push_inverse(value_bound: int, stack_len_bound: int, elem_bound: int, counter_bound: int) -> Verdict:
    """Brute-force check that pop and push are mutual inverses on every
    cell with |value| <= value_bound, stack length <= stack_len_bound,
    |elements| <= elem_bound, and counter <= counter_bound.  A negative
    bound raises ValueError.  `cases_run` counts the cells checked: every
    grid holds at least one."""
    push, pop = push_r, pop_r  # read per call, so a replaced `harness.push_r` is the one checked
    for cases, cell in enumerate(_enumerate_cells(value_bound, stack_len_bound, elem_bound, counter_bound), 1):
        roundtrip = pop(push(cell))
        if roundtrip != cell:
            return Fail(None, None, f"pop(push({tuple(cell)})) = {tuple(roundtrip)}")
        roundtrip = push(pop(cell))
        if roundtrip != cell:
            return Fail(None, None, f"push(pop({tuple(cell)})) = {tuple(roundtrip)}")
    return Pass(cases_run=cases)


def exhaustive_pop_injective(value_bound: int, stack_len_bound: int, elem_bound: int, counter_bound: int) -> Verdict:
    """Check that pop_r never maps two distinct grid cells to equal cells,
    on the grid `exhaustive_pop_push_inverse` checks."""
    seen: dict[Cell, Cell] = {}
    pop = pop_r
    for cases, cell in enumerate(_enumerate_cells(value_bound, stack_len_bound, elem_bound, counter_bound), 1):
        image = pop(cell)
        other = seen.setdefault(image, cell)
        if other is not cell:
            return Fail(None, None, f"pop collision: {tuple(other)} and {tuple(cell)} -> {tuple(image)}")
    return Pass(cases_run=cases)


def _term_shrinks(term: Term) -> Iterator[Term]:
    """Smaller terms.  A sequence splits into halves: each half alone, then
    each half's shrinks beside the other, so any run of parts can go in a
    few steps.  A loop gives its body, then the body's shrinks in place; an
    atom gives SKIP.  The walk keeps the subterms still to shrink on a
    stack, each with the way back out to `term`, so no nest is too deep."""
    todo = [(term, None)]
    while todo:
        term, outer = todo.pop()
        if type(term) is Seq:
            half = len(term.parts) // 2
            left, right = _sequence(term.parts[:half]), _sequence(term.parts[half:])
            yield _plug(left, outer)
            yield _plug(right, outer)
            todo += (right, (_RIGHT_OF, left, outer)), (left, (_LEFT_OF, right, outer))
        elif type(term) is For:
            yield _plug(term.body, outer)
            todo.append((term.body, (_BODY_OF, term.leader, outer)))
        elif type(term) is not Skip:
            yield _plug(_SKIP, outer)


# Where a subterm sits in its enclosing term: the links of the way out,
# ``(where, sibling or leader, next link)``, that `_term_shrinks` keeps.
_LEFT_OF, _RIGHT_OF, _BODY_OF = range(3)


def _plug(term: Term, outer: tuple | None) -> Term:
    """`term` put in the place that the links `outer` lead out from."""
    while outer is not None:
        where, other, outer = outer
        if where == _BODY_OF:
            term = _loop(other, term)
        else:
            term = Seq(term, other) if where == _LEFT_OF else Seq(other, term)
    return term


def _state_shrinks(state: State) -> Iterator[State]:
    """Smaller states, one variable's cell at a time: the default cell,
    then the value toward zero, the stack without its top, its bottom or
    with a zero top, then the counter toward zero.  A cell that two of
    these give is offered once: `minimize` takes the first copy if it
    fails, so a repeat could only pass."""
    for name in sorted(state.variables()):
        value, stack, counter = state.get(name)
        cells = [DEFAULT_CELL]
        if value:
            half, step = (value // 2, value - 1) if value > 0 else (-(-value // 2), value + 1)
            cells += (Cell(smaller, stack, counter) for smaller in (0, half, step))
        if stack:
            cells += (Cell(value, stack[1:], counter), Cell(value, stack[:-1], counter))
            if stack[0] != 0:
                cells.append(Cell(value, (0, *stack[1:]), counter))
        if counter > 0:
            cells += (Cell(value, stack, 0), Cell(value, stack, counter - 1))
        for cell in dict.fromkeys(cells):
            yield state.set(name, cell)


def minimize(
    program: Term, initial: State, fails: Callable[[Term, State], bool]
) -> tuple[Term, State]:
    """Greedily shrink a failing (program, state) pair to a local minimum:
    program structure first, then state values, stacks and counters.  The
    result still fails and every single further shrink step passes."""
    if not fails(program, initial):
        raise ValueError("minimize requires a failing (program, state) pair")
    while True:
        smaller = _shrink(program, _term_shrinks, lambda p: fails(p, initial))
        simpler = _shrink(initial, _state_shrinks, lambda s: fails(smaller, s))
        if smaller is program and simpler is initial:
            return program, initial
        program, initial = smaller, simpler


def _shrink(value, shrinks: Callable[[object], Iterator], fails: Callable[[object], bool]):
    """Replace `value` by its first failing shrink until none fails.  A
    shrink is never `value` itself, so an unchanged result is `value`."""
    while True:
        for candidate in shrinks(value):
            if fails(candidate):
                value = candidate
                break
        else:
            return value


@dataclass(init=False, repr=False, eq=False)
class CheckCounts(_Record):
    """How many cases one check of a fuzz batch passed, passed vacuously
    and failed."""

    # mutable and so unhashable, unlike the other records
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    passed: int = 0
    vacuous: int = 0
    failed: int = 0

    def add(self, verdict: Verdict) -> bool:
        if isinstance(verdict, Fail):
            self.failed += 1
            return False
        if verdict.vacuous:
            self.vacuous += 1
        else:
            self.passed += 1
        return True


@dataclass(init=False, repr=False, eq=False)
class FuzzWitness(_Record):
    """A reported fuzz case: the check's name, the program and state as
    printed, and what went wrong."""

    check: str
    program: str
    state: str
    details: str


_MAX_STORED_WITNESSES = 10
_MAX_ONLY_IF_SAMPLES = 5
# The distinct programs a fuzz batch keeps compiled at once, each with its
# blocks and any closed forms, a few kB.  A default batch draws
# about 300 in 1,500 cases and about 6,500 in 100,000, so a long batch
# starts its table afresh now and then, and its memory stays bounded.
_MAX_COMPILED = 1024

_SEEDED_WITNESS_PROGRAM = Seq(Pop("x"), Push("x"))
_SEEDED_WITNESS_STATE = State({"x": Cell(5, (2,), 0)})
_EMPTY = State()  # the base of a fuzz case's States, which hold only its program's names


@dataclass(init=False, repr=False, eq=False)
class FuzzReport(_Record):
    """Aggregated results of one randomized batch.

    The "if" correspondence direction (a broken reversible run implies an
    abort) is asserted and fails the batch; "only-if" discrepancies are
    counted and sampled but expected, starting with the always-included
    seeded witness ``POP x; PUSH x`` from ``x = (5, [2], 0)``.
    """

    # mutable and so unhashable, unlike the other records
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    seed: int
    cases: int
    strong: CheckCounts = field(default_factory=CheckCounts)
    weak: CheckCounts = field(default_factory=CheckCounts)
    agreement: CheckCounts = field(default_factory=CheckCounts)
    if_direction_witnesses: int = 0
    only_if_witnesses: int = 0
    failures: list[FuzzWitness] = field(default_factory=list)
    only_if_samples: list[FuzzWitness] = field(default_factory=list)
    seeded_only_if_reported: bool = False

    @property
    def ok(self) -> bool:
        return (
            self.strong.failed == 0
            and self.weak.failed == 0
            and self.agreement.failed == 0
            and self.if_direction_witnesses == 0
        )

    def to_text(self) -> str:
        lines = [
            "fuzz report",
            f"seed: {self.seed}",
            f"cases: {self.cases}",
            f"strong-reversibility: passed {self.strong.passed}, failed {self.strong.failed}",
            f"weak-reversibility-a: passed {self.weak.passed}, vacuous {self.weak.vacuous}, "
            f"failed {self.weak.failed}",
            f"a-r-agreement: passed {self.agreement.passed}, vacuous {self.agreement.vacuous}, "
            f"failed {self.agreement.failed}",
            f"failure-correspondence: if-direction witnesses {self.if_direction_witnesses}, "
            f"only-if witnesses {self.only_if_witnesses}",
        ]
        seeded = "reported" if self.seeded_only_if_reported else "MISSING"
        lines.append(f"seeded witness 'POP x; PUSH x' from 'x = 5, [2], 0': only-if discrepancy {seeded}")
        for witness in self.failures:
            lines.append(f"FAIL [{witness.check}] program: {witness.program}")
            lines.append(f"  state: {witness.state}")
            lines.append(f"  {witness.details}")
        for witness in self.only_if_samples:
            lines.append(f"only-if sample: {witness.program} from {witness.state}")
        lines.append(f"result: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "cases": self.cases,
            "strong": {"passed": self.strong.passed, "failed": self.strong.failed},
            "weak": asdict(self.weak),
            "agreement": asdict(self.agreement),
            "correspondence": {
                "if_direction_witnesses": self.if_direction_witnesses,
                "only_if_witnesses": self.only_if_witnesses,
            },
            "seeded_only_if_reported": self.seeded_only_if_reported,
            "failures": [asdict(w) for w in self.failures],
            "only_if_samples": [asdict(w) for w in self.only_if_samples],
            "ok": self.ok,
        }


def _witness(check: str, program: Term, state: State, details: str) -> FuzzWitness:
    dumped = dump_state(state, state.variables()).rstrip("\n").replace("\n", "; ")
    return FuzzWitness(check, pretty(program), dumped, details)


_CHECK_NAMES = ("strong-reversibility", "weak-reversibility-a", "a-r-agreement", "failure-correspondence")
_BROKEN_WITHOUT_ABORT = "reversible run ended broken without an abort"


def _failure_details(check: int, program: Term, initial: State) -> str | None:
    """How check number `check` of `_check_case` fails on the pair, or
    None if it passes; failure correspondence fails in its "if" direction."""
    result = _check_case(compile_program(program), initial)[check + 1]
    if isinstance(result, FailureCorrespondence):
        return _BROKEN_WITHOUT_ABORT if result.direction_witness == "if" else None
    return result.details if isinstance(result, Fail) else None


def run_fuzz(cfg: GenConfig, cases: int) -> FuzzReport:
    """Run the four randomized checks over `cases` generated pairs.

    Strong reversibility sees the raw generated states; the three checks
    defined on the pair semantics see the same states with counters zeroed.
    Each case is drawn straight into its program's slot lists, and a State
    is built only for a failure or a correspondence witness.  Each reported
    failure is shrunk, and its details are those of the shrunk pair.  Each
    distinct program drawn is compiled once per batch, and its blocks serve
    every case that draws it.
    """
    if cases < 0:
        raise ValueError(f"cases must be non-negative, got {cases}")
    master = random.Random(cfg.seed)
    report = FuzzReport(cfg.seed, cases)

    def record_failure(check: int, program: Term, initial: State, details: str) -> None:
        if len(report.failures) >= _MAX_STORED_WITNESSES:
            return
        try:
            program, initial = minimize(program, initial, lambda p, s: _failure_details(check, p, s) is not None)
        except ValueError:  # the check passes when run again on the same pair
            pass
        else:
            details = _failure_details(check, program, initial) + " (minimized)"
        report.failures.append(_witness(_CHECK_NAMES[check], program, initial, details))

    names = _var_names(cfg.max_vars)
    # Each distinct program drawn, keyed by its printed text, through which
    # a Seq or For would compare and hash anyway, with its slots in
    # sorted-name order, the order the names are drawn in.  The table starts
    # afresh once full.
    compiled: dict[str, tuple[Program, list[int]]] = {}
    rng = random.Random()
    # `random.Random.seed` without its Python checks of the seed's type, or
    # its reset of `gauss_next`, which no draw here reads
    reseed = super(random.Random, rng).seed
    draw = _drawer(rng, cfg)
    # the cases whose three verdicts all pass, and those where strong
    # reversibility passes and the other two pass vacuously, added to the
    # counts once at the end.  Adding each case's three verdicts through
    # `CheckCounts.add` instead gave `verify` `fuzz_cases_per_s` 0.951x,
    # and was faster in only 1 of 12 paired runs.
    usual = [0, 0]
    for _ in range(cases):
        reseed(master.getrandbits(64))
        term = _gen(rng, names, cfg.max_depth, allow_seq=True)
        key = pretty(term)
        entry = compiled.get(key)
        if entry is None:
            if len(compiled) >= _MAX_COMPILED:
                compiled.clear()
            program = compile_program(term)
            entry = compiled[key] = program, sorted(range(len(program.variables)), key=program.variables.__getitem__)
        program, slots = entry
        flat, strong, weak, agreement, correspondence = _check_slots(program, draw(slots), _EMPTY)
        if strong is _PASS and weak is agreement:  # both _PASS or both _VACUOUS
            usual[weak is _VACUOUS] += 1
        else:
            verdicts = strong, weak, agreement
            for check, (counts, verdict) in enumerate(zip((report.strong, report.weak, report.agreement), verdicts)):
                if not counts.add(verdict):
                    record_failure(check, verdict.program, verdict.initial, verdict.details)
        if correspondence is _IF_BROKEN:
            report.if_direction_witnesses += 1
            record_failure(3, program.term, program._store(_EMPTY, *flat), _BROKEN_WITHOUT_ABORT)
        elif correspondence is _ONLY_IF_REPAIRED:
            report.only_if_witnesses += 1
            if len(report.only_if_samples) < _MAX_ONLY_IF_SAMPLES:
                flat_state = program._store(_EMPTY, *flat)
                report.only_if_samples.append(
                    _witness(_CHECK_NAMES[3], program.term, flat_state, "abort repaired by counters")
                )
    passed, vacuous = usual
    report.strong.passed += passed + vacuous
    for counts in (report.weak, report.agreement):
        counts.passed += passed
        counts.vacuous += vacuous

    seeded = check_failure_correspondence(_SEEDED_WITNESS_PROGRAM, _SEEDED_WITNESS_STATE)
    report.seeded_only_if_reported = seeded.direction_witness == "only-if"
    return report
