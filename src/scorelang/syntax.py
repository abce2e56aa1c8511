"""Abstract syntax for score programs.

A program is built from seven constructors: SKIP, INC x, DEC x, PUSH x,
POP x, sequencing, and bounded FOR loops.  Loops obey a well-formedness
proviso: the loop leader may not occur in the loop body.  That pins the
iteration count at loop entry and makes every construct invertible by a
purely syntactic transformation (`invert`).
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError, dataclass
from operator import length_hint

__all__ = [
    "Term",
    "Skip",
    "Inc",
    "Dec",
    "Push",
    "Pop",
    "Seq",
    "For",
    "Identifier",
    "Violation",
    "invert",
    "check_well_formed",
    "variables_of",
    "pretty",
    "is_identifier",
]

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"  # an identifier, for every regex that reads one
_IDENT_RE = re.compile(_IDENT + r"\Z")

Identifier = str


def is_identifier(name: str) -> bool:
    """True for a lexically valid, non-keyword variable name."""
    return isinstance(name, str) and bool(_IDENT_RE.match(name)) and name not in KEYWORDS


def _require_identifier(name: str) -> None:
    if not is_identifier(name):
        if isinstance(name, str) and name in KEYWORDS:
            raise ValueError(f"keyword {name!r} cannot be a variable name")
        raise ValueError(f"invalid variable name: {name!r}")


def _refuse_assign(self, name: str, value: object) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _frozen(cls: type) -> type:
    """`cls`, a slotted frozen dataclass, with a `__setattr__` and a
    `__delattr__` that raise `FrozenInstanceError` for every name.  The
    ones that `dataclass(frozen=True, slots=True)` generates call `super()`
    with the class that it replaced for a name that is not a field, which
    raises TypeError (Python 3.10-3.13)."""
    cls.__setattr__, cls.__delattr__ = _refuse_assign, _refuse_delete
    return cls


class Term:
    """Base class for program terms.

    Terms are immutable trees compared structurally; a `Seq` holds a flat
    run of parts, so sequencing is associative.
    """

    __slots__ = ()


class _Compound(Term):
    """`Seq` and `For` compare and hash through their printed text, which
    is canonical (``parse(pretty(t)) == t``), so no nest is too deep for
    `==` or `hash`, unlike the recursive methods `dataclass` generates."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return pretty(self) == pretty(other)

    def __hash__(self) -> int:
        return hash(pretty(self))


@_frozen
@dataclass(frozen=True, slots=True)
class Skip(Term):
    pass


@_frozen
@dataclass(frozen=True, slots=True)
class _Unary(Term):
    """The shared shape of INC, DEC, PUSH and POP: one target variable."""

    var: Identifier

    def __post_init__(self) -> None:
        _require_identifier(self.var)


# The four atoms are plain subclasses of `_Unary` with no slot of their own,
# so `_Unary`'s ``var`` slot is the only one, the one `_atom` sets.  They
# inherit its generated methods, which read ``self.__class__``: the repr
# names the atom, `==` holds only between atoms of one class, and assigning
# ``var`` raises `FrozenInstanceError`.  Decorating each with `dataclass`
# again would only make the same methods anew at every import.


class Inc(_Unary):
    """INC x: add one to x."""

    __slots__ = ()


class Dec(_Unary):
    """DEC x: subtract one from x."""

    __slots__ = ()


class Push(_Unary):
    """PUSH x: save x's value on its stack and set x to 0."""

    __slots__ = ()


class Pop(_Unary):
    """POP x: move the top of x's stack back into its value."""

    __slots__ = ()


@_frozen
@dataclass(frozen=True, slots=True, init=False, eq=False)
class Seq(_Compound):
    """Two or more terms run in order.  Nested sequences are spliced in, so
    ``Seq(a, Seq(b, c)) == Seq(Seq(a, b), c) == Seq(a, b, c)`` and no part
    of a Seq is a Seq.  The parts are given unnamed, or by name as the
    repr and `dataclasses.replace` give them: ``Seq(parts=(a, b))``."""

    parts: tuple[Term, ...]

    def __init__(self, *terms: Term, parts: tuple[Term, ...] = ()) -> None:
        parts = (*terms, *parts)
        if Seq in map(type, parts):
            flat: list[Term] = []
            for part in parts:
                flat += part.parts if type(part) is Seq else (part,)
            parts = tuple(flat)
        if len(parts) < 2:
            raise ValueError(f"a sequence needs at least two parts, got {len(parts)}")
        object.__setattr__(self, "parts", parts)


def _parts(term: Term) -> tuple[Term, ...]:
    """The parts of a sequence; any other term is a run of one part."""
    return term.parts if type(term) is Seq else (term,)


def _sequence(parts: tuple[Term, ...] | list[Term]) -> Term:
    """The sequence of one or more `parts`, or its only part, built without
    the constructor's scan: the caller vouches that no part is a Seq."""
    if len(parts) == 1:
        return parts[0]
    new = object.__new__(Seq)
    object.__setattr__(new, "parts", tuple(parts))
    return new


@_frozen
@dataclass(frozen=True, slots=True, eq=False)
class For(_Compound):
    leader: Identifier
    body: Term

    def __post_init__(self) -> None:
        _require_identifier(self.leader)


# The slots of `For` and of the atoms, set straight through their member
# descriptors, past the frozen classes' `__setattr__`.
_set_leader = For.__dict__["leader"].__set__
_set_body = For.__dict__["body"].__set__
_set_var = _Unary.__dict__["var"].__set__


def _loop(leader: Identifier, body: Term) -> For:
    """The loop over `body` led by `leader`, built without the constructor's
    check: the caller vouches that `leader` is a valid identifier."""
    new = object.__new__(For)
    _set_leader(new, leader)
    _set_body(new, body)
    return new


def _atom(cls: type[_Unary], name: Identifier) -> _Unary:
    """The INC, DEC, PUSH or POP of class `cls` on `name`, built without the
    constructor's check: the caller vouches that `name` is a valid
    identifier."""
    new = object.__new__(cls)
    _set_var(new, name)
    return new


# The atoms' keywords and inverses.  The parser's, the printer's, the
# evaluator's and the generator's tables of atoms are derived from these.
_KEYWORD = {Inc: "INC", Dec: "DEC", Push: "PUSH", Pop: "POP"}
_INVERSE = {Inc: Dec, Dec: Inc, Push: Pop, Pop: Push}
KEYWORDS = frozenset({"SKIP", *_KEYWORD.values(), "FOR"})


# The walkers below keep one frame per open loop body instead of recursing,
# so neither long sequences nor deep loop nests reach Python's recursion
# limit: each is one loop over the parts of the current run, the root's or
# a loop body's.  A FOR pushes a frame and opens its body's run; when a run
# ends, the walker pops the frame and closes the loop.  No part of a Seq is
# a Seq, so a run's parts are atoms, SKIPs and loops.  The walkers dispatch
# on the exact class of each node.

_PREFIX = {cls: keyword + " " for cls, keyword in _KEYWORD.items()}
# The prefix each atom class prints with, forward and inverted.
_PREFIXES = (_PREFIX, {cls: _PREFIX[inverse] for cls, inverse in _INVERSE.items()})


def _not_a_term(t: object) -> TypeError:
    return TypeError(f"not a term: {t!r}")


def invert(term: Term) -> Term:
    """Structural inverse of a term.

    INC and DEC swap, PUSH and POP swap, sequences reverse and invert each
    part, loops invert their body in place, SKIP is a fixed point.  The
    function is total (it does not require well-formedness, but preserves
    it) and self-dual: ``invert(invert(t)) == t``.
    """
    # A frame is a run being inverted, last part first: its parts still to
    # invert, the inverses done so far and the leader of the loop whose
    # body it is.  `frames` holds the frames of the runs holding an open
    # loop, whose body's run is the current one.
    frames: list[tuple] = []
    items, done, leader = reversed(_parts(term)), [], None
    while True:
        for t in items:
            cls = type(t)
            swap = _INVERSE.get(cls)
            if swap is not None:
                done.append(_atom(swap, t.var))  # the name was checked in `t`
            elif cls is For:
                frames.append((items, done, leader))
                items, done, leader = reversed(_parts(t.body)), [], t.leader
                break
            elif cls is Skip:
                done.append(t)
            else:
                raise _not_a_term(t)
        else:
            if not frames:
                return _sequence(done)
            body = _loop(leader, _sequence(done))
            items, done, leader = frames.pop()
            done.append(body)


def variables_of(term: Term) -> frozenset[Identifier]:
    """All identifiers occurring syntactically in `term` (targets and leaders)."""
    return frozenset(_scan(term, True)[1])


@_frozen
@dataclass(frozen=True, slots=True)
class Violation:
    """A loop leader occurring inside its own body.

    `path` is the chain of field names from the checked term's root down
    to the offending node: ``body`` into a loop, and into part k of a
    sequence of n parts ``second`` k times, then ``first`` unless k is the
    last part (the names a right-nested pairing of the parts gives).
    """

    leader: Identifier
    path: tuple[str, ...]


def _path(frame: tuple) -> tuple[str, ...]:
    """The root-first path to the part just taken from `frame`'s run of
    parts.  Each open run's iterator stands just past the part it is in,
    so its index is worked out from how many parts are left."""
    names = []
    while frame is not None:
        items, n, frame = frame[:3]
        k = n - length_hint(items) - 1
        # leaf first: "first" unless the last part, after k "second"s, then
        # "body" unless this is the root's run
        names += ("first",) * (k < n - 1) + ("second",) * k + ("body",) * (frame is not None)
    names.reverse()
    return tuple(names)


def check_well_formed(term: Term, *, relaxed: bool = False) -> list[Violation]:
    """Collect loop-proviso violations; an empty list means well formed.

    The default (strict) reading forbids any occurrence of a FOR leader in
    its body: INC/DEC/PUSH/POP targets and nested FOR leaders alike, since
    all of them can disturb the leader's cell and hence the iteration
    count.  With ``relaxed=True`` only INC and DEC of the leader are
    rejected.  Violations come in source order.
    """
    return _scan(term, relaxed)[0]


def _scan(term: Term, relaxed: bool) -> tuple[list[Violation], dict[Identifier, int], set[int]]:
    """The one walk behind `check_well_formed`, `variables_of` and
    `semantics.compile_program`: the proviso's violations in source order,
    every name of `term`, loop bodies included, numbered in order of first
    occurrence, and the ids of its idle FOR nodes, those whose body holds
    no atom at any depth."""
    violations: list[Violation] = []
    slots: dict[str, int] = {}
    opens: list[int] = []  # per slot, how many open loops that name leads
    idle: set[int] = set()
    atoms = 0  # the atoms met so far
    # A frame is a run of parts being checked, the root's or an open loop
    # body's: its parts still to check, its length, the frame of the run
    # holding the loop (None for the root), the loop leader's slot, the loop
    # and the atoms met before its body.  The frames of the open runs form
    # a chain, which `_path` follows.
    parts = _parts(term)
    frame: tuple | None = (iter(parts), len(parts), None, -1, None, 0)
    while frame is not None:
        items, _, up, leader, loop, before = frame
        for t in items:
            cls = type(t)
            if cls is For:
                name = t.leader
            elif cls in _INVERSE:
                name = t.var
                atoms += 1
            elif cls is Skip:
                continue
            else:
                raise _not_a_term(t)
            slot = slots.get(name)
            if slot is None:  # a name met for the first time leads no open loop
                slot = slots[name] = len(opens)
                opens.append(0)
            elif opens[slot] and (cls is Inc or cls is Dec or not relaxed):
                violations.append(Violation(name, _path(frame)))
            if cls is For:
                opens[slot] += 1
                parts = _parts(t.body)
                frame = (iter(parts), len(parts), frame, slot, t, atoms)
                break
        else:
            if leader >= 0:
                opens[leader] -= 1
                if atoms == before:
                    idle.add(id(loop))
            frame = up
    return violations, slots, idle


def pretty(term: Term) -> str:
    """Concrete syntax for a term.

    Sequences render flat ("A; B; C") and loop bodies in braces, so the
    output of any term parses back to an equal term.
    """
    return _render(term, 0)


def _render(term: Term, index: int) -> str:
    """The concrete syntax of `term` at `index`, which prints its inverse
    when 1: each run's parts last first, each atom's prefix swapped, so
    ``_render(t, 1) == pretty(invert(t))`` without building the inverse."""
    # A frame is the parts of a run still to print; `frames` holds those of
    # the runs holding an open loop.  Every part is followed by "; ", and
    # the last one is dropped when its run ends.
    prefixes, walk = _PREFIXES[index], (iter, reversed)[index]
    out: list[str] = []
    frames: list = []
    items = walk(_parts(term))
    while True:
        for t in items:
            cls = type(t)
            prefix = prefixes.get(cls)
            if prefix is not None:
                out += (prefix, t.var, "; ")
            elif cls is For:
                out += ("FOR ", t.leader, " { ")
                frames.append(items)
                items = walk(_parts(t.body))
                break
            elif cls is Skip:
                out += ("SKIP", "; ")
            else:
                raise _not_a_term(t)
        else:
            out.pop()
            if not frames:
                return "".join(out)
            out += (" }", "; ")
            items = frames.pop()
