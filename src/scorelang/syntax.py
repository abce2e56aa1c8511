"""Abstract syntax for score programs.

A program is built from seven constructors: SKIP, INC x, DEC x, PUSH x,
POP x, sequencing, and bounded FOR loops.  Loops obey a well-formedness
proviso: the loop leader may not occur in the loop body.  That pins the
iteration count at loop entry and makes every construct invertible by a
purely syntactic transformation (`invert`).
"""

from __future__ import annotations

import re
from dataclasses import MISSING, FrozenInstanceError, dataclass
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


# The package's record classes (the terms here, the run outcomes in
# `semantics`, the check results in `harness`) are dataclasses declared
# with ``init=False, repr=False, eq=False``, so that `dataclass` compiles
# none of their methods with `exec` at each import, and take them from
# `_Record`, written once here.  `dataclasses.fields`, `replace` and
# `asdict` work on them as on any dataclass.  A record's fields are its
# ``__match_args__``: `dataclass` lists every field there.


def _rebuild(cls: type, values: tuple) -> _Record:
    """The record of class `cls` with field values `values`, the inverse of
    `_Record.__reduce__`.  It binds them through `_Record.__init__`, since
    a `Seq`'s own constructor takes its parts unnamed."""
    new = object.__new__(cls)
    _Record.__init__(new, *values)
    return new


class _Record:
    """A frozen record.  The constructor takes its fields in order, by
    position or by name, fills the rest from their defaults and then calls
    `__post_init__`; the repr, `==` (within one class), the hash and
    pickling read the fields; assigning or deleting any attribute raises
    `FrozenInstanceError`.  A mutable record takes `object`'s
    `__setattr__` and `__delattr__` back, and None as its `__hash__`."""

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        names = self.__match_args__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__}() takes {len(names)} arguments but {len(args)} were given")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        for name in names[len(args) :]:
            field = self.__dataclass_fields__[name]
            value = kwargs.pop(name, field.default)
            if value is MISSING and field.default_factory is MISSING:
                raise TypeError(f"{type(self).__name__}() missing argument {name!r}")
            object.__setattr__(self, name, field.default_factory() if value is MISSING else value)
        if kwargs:
            raise TypeError(f"{type(self).__name__}() got an unexpected or repeated argument {next(iter(kwargs))!r}")
        self.__post_init__()

    def __post_init__(self) -> None:
        """A record whose fields need a check overrides this."""

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return _rebuild, (type(self), self._values())


class Term(_Record):
    """Base class for program terms.

    Terms are immutable trees compared structurally; a `Seq` holds a flat
    run of parts, so sequencing is associative.
    """

    __slots__ = ()


class _Compound(Term):
    """`Seq` and `For` compare and hash through their printed text, which
    is canonical (``parse(pretty(t)) == t``), so no nest is too deep for
    `==` or `hash`; `_Record`'s methods compare and hash the fields, and
    so would recurse into the body or the parts."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return pretty(self) == pretty(other)

    def __hash__(self) -> int:
        return hash(pretty(self))


@dataclass(init=False, repr=False, eq=False, slots=True)
class Skip(Term):
    """SKIP: do nothing."""


@dataclass(init=False, repr=False, eq=False, slots=True)
class _Unary(Term):
    """The shared shape of INC, DEC, PUSH and POP: one target variable."""

    var: Identifier

    def __post_init__(self) -> None:
        _require_identifier(self.var)


# The four atoms are plain subclasses of `_Unary` with no slot of their own,
# so `_Unary`'s ``var`` slot is the only one, the one `_atom` sets.  They
# inherit its fields and `_Record`'s methods, which read the class of the
# instance: the repr names the atom, `==` holds only between atoms of one
# class, and assigning ``var`` raises `FrozenInstanceError`.


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


@dataclass(init=False, repr=False, eq=False, slots=True)
class Seq(_Compound):
    """Two or more terms run in order.  Nested sequences are spliced in, so
    ``Seq(a, Seq(b, c)) == Seq(Seq(a, b), c) == Seq(a, b, c)`` and no part
    of a Seq is a Seq.  The parts are given unnamed, or by name as the
    repr and `dataclasses.replace` give them: ``Seq(parts=(a, b))``."""

    parts: tuple[Term, ...]

    def __init__(self, *terms: Term, parts: tuple[Term, ...] = ()) -> None:
        flat: list[Term] = []
        for part in (*terms, *parts):
            flat += part.parts if type(part) is Seq else (part,)
        if len(flat) < 2:
            raise ValueError(f"a sequence needs at least two parts, got {len(flat)}")
        object.__setattr__(self, "parts", tuple(flat))


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


@dataclass(init=False, repr=False, eq=False, slots=True)
class For(_Compound):
    """FOR x { body }: run the body |v| times, inverted if v < 0, for x's
    value v at entry."""

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
    """All identifiers occurring syntactically in `term` (targets and leaders),
    read from its canonical printed text, whose only other words are
    keywords."""
    return frozenset(re.findall(_IDENT, pretty(term))) - KEYWORDS


@dataclass(init=False, repr=False, eq=False, slots=True)
class Violation(_Record):
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
    # `semantics.compile_program` makes a walk of its own that builds blocks
    # as it goes, and calls this only for a term that breaks the strict
    # proviso, to report its violations.
    violations: list[Violation] = []
    opens: dict[Identifier, int] = {}  # per name, how many open loops it leads
    # A frame is a run of parts being checked, the root's or an open loop
    # body's: its parts still to check, its length, the frame of the run
    # holding the loop (None for the root) and the loop's leader.  The
    # frames of the open runs form a chain, which `_path` follows.
    parts = _parts(term)
    frame: tuple | None = (iter(parts), len(parts), None, None)
    while frame is not None:
        items, _, up, leader = frame
        for t in items:
            cls = type(t)
            if cls is For:
                name = t.leader
            elif cls in _INVERSE:
                name = t.var
            elif cls is Skip:
                continue
            else:
                raise _not_a_term(t)
            if opens.get(name) and (cls is Inc or cls is Dec or not relaxed):
                violations.append(Violation(name, _path(frame)))
            if cls is For:
                opens[name] = opens.get(name, 0) + 1
                parts = _parts(t.body)
                frame = (iter(parts), len(parts), frame, name)
                break
        else:
            if up is not None:
                opens[leader] -= 1
            frame = up
    return violations


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
