"""The front end that scorelang's one-scan tokenizer, explicit-stack parser
and loop-based walkers replaced.

Kept here, unoptimized, as the oracle the package is checked against: the
tokenizer steps through the source one character at a time and builds a
`Token` per lexeme, the parser is recursive descent, and `invert`,
`pretty` and `check_well_formed` recurse into every part and loop body
with a `match` per node, so they are only fit for shallow terms.  So do
two oracles for what the package reads off its own walks:
`variables_in_order`, the variable order of a compiled program, and
`equal`, structural equality of terms.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from scorelang import Dec, For, Inc, ParseError, Pop, Push, Seq, Skip, Term, Violation
from scorelang.syntax import KEYWORDS


class Token(NamedTuple):
    kind: str  # "keyword" | "ident" | "semi" | "lbrace" | "rbrace" | "eof"
    text: str
    line: int
    column: int


_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_PUNCT_KINDS = {";": "semi", "{": "lbrace", "}": "rbrace"}


def split_lines(src: str) -> list[str]:
    """Split on any newline convention (LF, CRLF, CR)."""
    return src.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def tokenize(src: str) -> list[Token]:
    tokens: list[Token] = []
    lines = split_lines(src)
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0]
        pos = 0
        while pos < len(line):
            ch = line[pos]
            if ch in " \t\f\v":
                pos += 1
                continue
            if ch in _PUNCT_KINDS:
                tokens.append(Token(_PUNCT_KINDS[ch], ch, lineno, pos + 1))
                pos += 1
                continue
            m = _WORD_RE.match(line, pos)
            if m is None:
                raise ParseError(lineno, pos + 1, f"unexpected character {ch!r}")
            word = m.group()
            kind = "keyword" if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, lineno, pos + 1))
            pos = m.end()
    tokens.append(Token("eof", "", len(lines), len(lines[-1]) + 1))
    return tokens


def _show(tok: Token) -> str:
    return "end of input" if tok.kind == "eof" else f"'{tok.text}'"


_ATOM_EXPECTED = ("SKIP", "INC", "DEC", "PUSH", "POP", "FOR")
_UNARY = {"INC": Inc, "DEC": Dec, "PUSH": Push, "POP": Pop}


def _atom(tokens: list[Token], i: int) -> tuple[Term, int]:
    tok = tokens[i]
    if tok.kind == "keyword":
        if tok.text == "SKIP":
            return Skip(), i + 1
        if tok.text in _UNARY:
            name = tokens[i + 1]
            if name.kind != "ident":
                raise ParseError(
                    name.line,
                    name.column,
                    f"expected a variable name after {tok.text}, found {_show(name)}",
                    expected=("identifier",),
                )
            return _UNARY[tok.text](name.text), i + 2
        if tok.text == "FOR":
            name = tokens[i + 1]
            if name.kind != "ident":
                raise ParseError(
                    name.line,
                    name.column,
                    f"expected a variable name after FOR, found {_show(name)}",
                    expected=("identifier",),
                )
            opener = tokens[i + 2]
            if opener.kind != "lbrace":
                raise ParseError(
                    opener.line,
                    opener.column,
                    f"expected '{{' after FOR {name.text}, found {_show(opener)}",
                    expected=("{",),
                )
            body, j = _seq(tokens, i + 3)
            closer = tokens[j]
            if closer.kind != "rbrace":
                raise ParseError(
                    closer.line,
                    closer.column,
                    f"expected '}}' to close FOR {name.text}, found {_show(closer)}",
                    expected=("}",),
                )
            return For(name.text, body), j + 1
    raise ParseError(
        tok.line,
        tok.column,
        f"expected an instruction, found {_show(tok)}",
        expected=_ATOM_EXPECTED,
    )


def _seq(tokens: list[Token], i: int) -> tuple[Term, int]:
    parts: list[Term] = []
    term, i = _atom(tokens, i)
    parts.append(term)
    while tokens[i].kind == "semi":
        term, i = _atom(tokens, i + 1)
        parts.append(term)
    return (parts[0] if len(parts) == 1 else Seq(*parts)), i


def parse(src: str) -> Term:
    """Parse program text into a term, raising ParseError on the first fault."""
    tokens = tokenize(src)
    term, i = _seq(tokens, 0)
    tok = tokens[i]
    if tok.kind != "eof":
        if tok.kind == "rbrace":
            raise ParseError(tok.line, tok.column, "unmatched '}'")
        raise ParseError(
            tok.line, tok.column, f"expected ';' or end of input, found {_show(tok)}", expected=(";",)
        )
    return term


def invert(term: Term) -> Term:
    """Structural inverse of a term.

    INC and DEC swap, PUSH and POP swap, sequences reverse and invert each
    part, loops invert their body in place, SKIP is a fixed point.  The
    function is total (it does not require well-formedness, but preserves
    it) and self-dual: ``invert(invert(t)) == t``.
    """
    match term:
        case Skip():
            return term
        case Inc(x):
            return Dec(x)
        case Dec(x):
            return Inc(x)
        case Push(x):
            return Pop(x)
        case Pop(x):
            return Push(x)
        case Seq(parts):
            return Seq(*(invert(part) for part in reversed(parts)))
        case For(leader, body):
            return For(leader, invert(body))
    raise TypeError(f"not a term: {term!r}")


def variables_of(term: Term) -> frozenset[str]:
    """All identifiers occurring syntactically in `term` (targets and leaders)."""
    names: set[str] = set()
    todo = [term]
    while todo:
        t = todo.pop()
        match t:
            case Inc(x) | Dec(x) | Push(x) | Pop(x):
                names.add(x)
            case Seq(parts):
                todo.extend(parts)
            case For(leader, body):
                names.add(leader)
                todo.append(body)
            case Skip():
                pass
            case _:
                raise TypeError(f"not a term: {t!r}")
    return frozenset(names)


def variables_in_order(term: Term) -> tuple[str, ...]:
    """Every identifier of `term`, in order of first occurrence: a loop's
    leader before its body, the parts of a sequence left to right."""
    names: dict[str, None] = {}

    def scan(t: Term) -> None:
        match t:
            case Inc(x) | Dec(x) | Push(x) | Pop(x):
                names.setdefault(x)
            case Seq(parts):
                for part in parts:
                    scan(part)
            case For(leader, body):
                names.setdefault(leader)
                scan(body)
            case Skip():
                pass
            case _:
                raise TypeError(f"not a term: {t!r}")

    scan(term)
    return tuple(names)


def equal(a: Term, b: Term) -> bool:
    """Structural equality: the same constructor, the same names and equal
    children, recursively."""
    match a, b:
        case Skip(), Skip():
            return True
        case (Inc(x), Inc(y)) | (Dec(x), Dec(y)) | (Push(x), Push(y)) | (Pop(x), Pop(y)):
            return x == y
        case Seq(xs), Seq(ys):
            return len(xs) == len(ys) and all(equal(x, y) for x, y in zip(xs, ys))
        case For(x, xbody), For(y, ybody):
            return x == y and equal(xbody, ybody)
    return False


def check_well_formed(term: Term, *, relaxed: bool = False) -> list[Violation]:
    """Collect loop-proviso violations; an empty list means well formed.

    The default (strict) reading forbids any occurrence of a FOR leader in
    its body: INC/DEC/PUSH/POP targets and nested FOR leaders alike, since
    all of them can disturb the leader's cell and hence the iteration
    count.  With ``relaxed=True`` only INC and DEC of the leader are
    rejected.
    """
    violations: list[Violation] = []

    def scan(t: Term, path: tuple[str, ...], banned: frozenset[str]) -> None:
        match t:
            case Skip():
                pass
            case Inc(x) | Dec(x):
                if x in banned:
                    violations.append(Violation(x, path))
            case Push(x) | Pop(x):
                if not relaxed and x in banned:
                    violations.append(Violation(x, path))
            case Seq(parts):
                # part k is reached as in a right-nested pair of first and rest
                for k, part in enumerate(parts):
                    scan(part, path + ("second",) * k + ("first",) * (k < len(parts) - 1), banned)
            case For(leader, body):
                if not relaxed and leader in banned:
                    violations.append(Violation(leader, path))
                scan(body, path + ("body",), banned | {leader})
            case _:
                raise TypeError(f"not a term: {t!r}")

    scan(term, (), frozenset())
    return violations


def pretty(term: Term) -> str:
    """Concrete syntax for a term.

    Sequences render flat ("A; B; C") and loop bodies in braces, so the
    output of any parsed term parses back to an equal term.
    """
    match term:
        case Skip():
            return "SKIP"
        case Inc(x):
            return f"INC {x}"
        case Dec(x):
            return f"DEC {x}"
        case Push(x):
            return f"PUSH {x}"
        case Pop(x):
            return f"POP {x}"
        case Seq(parts):
            return "; ".join(pretty(part) for part in parts)
        case For(leader, body):
            return f"FOR {leader} {{ {pretty(body)} }}"
    raise TypeError(f"not a term: {term!r}")
