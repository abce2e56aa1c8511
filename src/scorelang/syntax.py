"""Abstract syntax for score programs.

A program is built from seven constructors: SKIP, INC x, DEC x, PUSH x,
POP x, sequencing, and bounded FOR loops.  Loops obey a well-formedness
proviso: the loop leader may not occur in the loop body.  That pins the
iteration count at loop entry and makes every construct invertible by a
purely syntactic transformation (`invert`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

KEYWORDS = frozenset({"SKIP", "INC", "DEC", "PUSH", "POP", "FOR"})

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

Identifier = str


def is_identifier(name: str) -> bool:
    """True for a lexically valid, non-keyword variable name."""
    return bool(_IDENT_RE.match(name)) and name not in KEYWORDS


def _require_identifier(name: str) -> None:
    if not isinstance(name, str) or not _IDENT_RE.match(name):
        raise ValueError(f"invalid variable name: {name!r}")
    if name in KEYWORDS:
        raise ValueError(f"keyword {name!r} cannot be a variable name")


class Term:
    """Base class for program terms.

    Terms are immutable trees compared structurally; `Seq` is binary and
    non-associative at this level (the pretty-printer flattens it).
    """

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Skip(Term):
    pass


@dataclass(frozen=True, slots=True)
class _Unary(Term):
    """The shared shape of INC, DEC, PUSH and POP: one target variable."""

    var: Identifier

    def __post_init__(self) -> None:
        _require_identifier(self.var)


@dataclass(frozen=True, slots=True)
class Inc(_Unary):
    pass


@dataclass(frozen=True, slots=True)
class Dec(_Unary):
    pass


@dataclass(frozen=True, slots=True)
class Push(_Unary):
    pass


@dataclass(frozen=True, slots=True)
class Pop(_Unary):
    pass


@dataclass(frozen=True, slots=True)
class Seq(Term):
    first: Term
    second: Term


@dataclass(frozen=True, slots=True)
class For(Term):
    leader: Identifier
    body: Term

    def __post_init__(self) -> None:
        _require_identifier(self.leader)


# The walkers below keep their own stack of pending work instead of
# recursing, so neither long sequences nor deep loop nests reach Python's
# recursion limit.  They dispatch on the exact class of each node.

_INVERSE = {Inc: Dec, Dec: Inc, Push: Pop, Pop: Push}
_KEYWORD = {Inc: "INC ", Dec: "DEC ", Push: "PUSH ", Pop: "POP "}


class _Mark:
    """A pending step on a walker's stack, told apart from terms (and from
    anything else a malformed term may hold) by its class."""

    __slots__ = ("text",)

    def __init__(self, text: str | None) -> None:
        self.text = text


_JOIN = _Mark(None)
_SEMI = _Mark("; ")
_CLOSE = _Mark(" }")


def _not_a_term(t: object) -> TypeError:
    return TypeError(f"not a term: {t!r}")


def invert(term: Term) -> Term:
    """Structural inverse of a term.

    INC and DEC swap, PUSH and POP swap, sequences reverse and invert both
    arms, loops invert their body in place, SKIP is a fixed point.  The
    function is total (it does not require well-formedness, but preserves
    it) and self-dual: ``invert(invert(t)) == t``.
    """
    # `todo` holds terms still to invert and, for each Seq or For met, a
    # mark to assemble its inverse from the finished ones on `done`: _JOIN
    # for a Seq, one holding the leader for a For.
    done: list[Term] = []
    todo: list = [term]
    # Each distinct atom's inverse is built once and then shared.
    inverses: dict[tuple[type, str], Term] = {}
    while todo:
        t = todo.pop()
        cls = type(t)
        swap = _INVERSE.get(cls)
        if swap is not None:
            inverse = inverses.get((cls, t.var))
            if inverse is None:
                inverse = inverses[cls, t.var] = swap(t.var)
            done.append(inverse)
        elif cls is Seq:
            todo += (_JOIN, t.first, t.second)
        elif cls is For:
            todo += (_Mark(t.leader), t.body)
        elif t is _JOIN:
            first = done.pop()
            done[-1] = Seq(done[-1], first)
        elif cls is _Mark:
            done[-1] = For(t.text, done[-1])
        elif cls is Skip:
            done.append(t)
        else:
            raise _not_a_term(t)
    return done[0]


def variables_of(term: Term) -> frozenset[Identifier]:
    """All identifiers occurring syntactically in `term` (targets and leaders)."""
    names: set[str] = set()
    todo = [term]
    while todo:
        t = todo.pop()
        cls = type(t)
        if cls is Seq:
            todo += (t.first, t.second)
        elif cls in _INVERSE:
            names.add(t.var)
        elif cls is For:
            names.add(t.leader)
            todo.append(t.body)
        elif cls is not Skip:
            raise _not_a_term(t)
    return frozenset(names)


@dataclass(frozen=True, slots=True)
class Violation:
    """A loop leader occurring inside its own body.

    `path` is the chain of field names (``first``/``second``/``body``) from
    the checked term's root down to the offending node.
    """

    leader: Identifier
    path: tuple[str, ...]


def _path(link: tuple | None) -> tuple[str, ...]:
    """Unwind a node's link, (field name, parent's link), into a root-first path."""
    names = []
    while link is not None:
        field, link = link
        names.append(field)
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
    violations: list[Violation] = []
    # How many enclosing loops each leader leads.
    banned: dict[str, int] = {}
    # Entries are (node, its link), the root's link being None; a path is
    # built from a link only for a violation.  (_JOIN, leader) marks the end
    # of that leader's loop body.
    todo: list[tuple] = [(term, None)]
    while todo:
        t, link = todo.pop()
        cls = type(t)
        if cls is Seq:
            todo += ((t.second, ("second", link)), (t.first, ("first", link)))
        elif cls is Inc or cls is Dec:
            if t.var in banned:
                violations.append(Violation(t.var, _path(link)))
        elif cls is Push or cls is Pop:
            if not relaxed and t.var in banned:
                violations.append(Violation(t.var, _path(link)))
        elif cls is For:
            leader = t.leader
            if not relaxed and leader in banned:
                violations.append(Violation(leader, _path(link)))
            banned[leader] = banned.get(leader, 0) + 1
            todo += ((_JOIN, leader), (t.body, ("body", link)))
        elif t is _JOIN:
            if banned[link] == 1:
                del banned[link]
            else:
                banned[link] -= 1
        elif cls is not Skip:
            raise _not_a_term(t)
    return violations


def pretty(term: Term) -> str:
    """Concrete syntax for a term.

    Sequences render flat ("A; B; C") and loop bodies in braces, so the
    output of any parsed term parses back to an equal term.
    """
    # `todo` holds terms still to print and marks holding the text between them.
    out: list[str] = []
    todo: list = [term]
    while todo:
        t = todo.pop()
        cls = type(t)
        keyword = _KEYWORD.get(cls)
        if keyword is not None:
            out += (keyword, t.var)
        elif cls is Seq:
            todo += (t.second, _SEMI, t.first)
        elif cls is _Mark:
            out.append(t.text)
        elif cls is For:
            todo += (_CLOSE, t.body, _Mark(f"FOR {t.leader} {{ "))
        elif cls is Skip:
            out.append("SKIP")
        else:
            raise _not_a_term(t)
    return "".join(out)
