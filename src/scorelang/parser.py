"""Concrete syntax for score programs.

Grammar::

    program := seq
    seq     := atom (";" atom)*            -- one Seq of all the atoms
    atom    := "SKIP" | "INC" ident | "DEC" ident | "PUSH" ident
             | "POP" ident | "FOR" ident "{" seq "}"
    ident   := [A-Za-z_][A-Za-z0-9_]*      -- keywords are reserved

Keywords are case-sensitive uppercase, "#" starts a comment running to the
end of the line, and whitespace (including newlines, in any convention) is
insignificant.  Program files conventionally use the ".score" extension.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from itertools import islice
from operator import length_hint
from typing import NoReturn

from .syntax import _KEYWORD, KEYWORDS, Skip, Term, _atom, _loop, _sequence

__all__ = ["ParseError", "parse"]


class ParseError(Exception):
    """A lexical or grammatical fault at a 1-based (line, column) position."""

    def __init__(self, line: int, column: int, message: str, expected: tuple[str, ...] = ()):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column
        self.message = message
        self.expected = tuple(expected)


_COMMENT_RE = re.compile(r"#[^\r\n]*")
# A character outside the lexicon, or a digit that does not continue a word
# (matching any digit, then ruling out one after a word character, keeps
# the search to a fast scan for a character class).
_FAULT_RE = re.compile(r"[^A-Za-z_;{} \t\f\v\r\n](?<![A-Za-z0-9_][0-9])")
_LEXEME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[;{}]")


def _position(text: str, offset: int) -> tuple[int, int]:
    """1-based (line, column) of `offset` in `text`, under any newline
    convention.  Replacing each comment by a space keeps every line break
    (and keeps a CR before a comment apart from an LF after it) and changes
    a line only after its last lexeme, so an offset into the comment-free
    text has the same position in the source."""
    head = text[:offset]
    line = 1 + head.count("\n") + head.count("\r") - head.count("\r\n")
    return line, offset - max(head.rfind("\n"), head.rfind("\r"))


def tokenize(src: str) -> list[str]:
    """The lexemes of `src` in order (words, ";", "{" and "}"), followed by
    "" for the end of input.  Raises ParseError at the first character
    that no lexeme, whitespace or comment accounts for."""
    code = _COMMENT_RE.sub(" ", src) if "#" in src else src
    fault = _FAULT_RE.search(code)
    if fault is not None:
        raise ParseError(*_position(code, fault.start()), f"unexpected character {fault.group()!r}")
    # Past the fault check every word starts with a letter or "_", so
    # splitting at blanks, with blanks around ";", "{" and "}", gives the
    # lexemes that `_LEXEME_RE` finds, faster.
    lexemes = code.replace(";", " ; ").replace("{", " { ").replace("}", " } ").split()
    lexemes.append("")
    return lexemes


def _fail(src: str, lexemes: list[str], it: Iterator[str], message: str, expected: tuple[str, ...] = ()) -> NoReturn:
    """Raise a ParseError at the lexeme `it` gave last, whose index and
    position are found only now."""
    i = len(lexemes) - length_hint(it) - 1
    if lexemes[i]:
        code = _COMMENT_RE.sub(" ", src)
        position = _position(code, next(islice(_LEXEME_RE.finditer(code), i, None)).start())
    else:
        position = _position(src, len(src))
    raise ParseError(*position, message, expected)


def _found(lexeme: str) -> str:
    return f", found '{lexeme}'" if lexeme else ", found end of input"


_ATOM_EXPECTED = ("SKIP", *_KEYWORD.values(), "FOR")
_UNARY = {keyword: cls for cls, keyword in _KEYWORD.items()}
_NOT_NAMES = KEYWORDS | {";", "{", "}", ""}


def parse(src: str) -> Term:
    """Parse program text into a term, raising ParseError on the first fault.

    One pass of an iterator over the lexemes: `parts` collects the atoms of
    the sequence being read and `open_loops` holds, per enclosing FOR, the
    enclosing sequence's parts and the loop's leader, so no nesting
    recurses.  No lexeme index is kept; a fault's index, and from it its
    line and column, is worked out only when `_fail` raises."""
    lexemes = tokenize(src)
    it = iter(lexemes)
    # Terms are immutable, so each distinct atom is built once and then
    # shared, from one table of atoms by name per keyword.  The lexer
    # vouches for every name that is no keyword, so a name is checked only
    # when its atom is new, and atoms and loops are built past their
    # constructors' checks.
    tables: dict[str, dict[str, Term]] = {keyword: {} for keyword in _UNARY}
    open_loops: list[tuple[list[Term], str]] = []
    parts: list[Term] = []
    for word in it:  # the first lexeme of an instruction
        table = tables.get(word)
        if table is not None:
            name = next(it)
            atom = table.get(name)
            if atom is None:
                if name in _NOT_NAMES:
                    _fail(src, lexemes, it, f"expected a variable name after {word}" + _found(name), ("identifier",))
                atom = table[name] = _atom(_UNARY[word], name)
            parts.append(atom)
        elif word == "SKIP":
            parts.append(Skip())
        elif word == "FOR":
            name = next(it)
            if name in _NOT_NAMES:
                _fail(src, lexemes, it, "expected a variable name after FOR" + _found(name), ("identifier",))
            brace = next(it)
            if brace != "{":
                _fail(src, lexemes, it, f"expected '{{' after FOR {name}" + _found(brace), ("{",))
            open_loops.append((parts, name))
            parts = []
            continue
        else:
            _fail(src, lexemes, it, "expected an instruction" + _found(word), _ATOM_EXPECTED)
        # An instruction ended: close every sequence, and loop, that ends
        # here.  The end of input is the last lexeme, and every branch that
        # meets it returns or raises, so `next` never runs past it.
        word = next(it)
        while word != ";":
            body = _sequence(parts)
            if not open_loops:
                if not word:
                    return body
                if word == "}":
                    _fail(src, lexemes, it, "unmatched '}'")
                _fail(src, lexemes, it, "expected ';' or end of input" + _found(word), (";",))
            parts, leader = open_loops.pop()
            if word != "}":
                _fail(src, lexemes, it, f"expected '}}' to close FOR {leader}" + _found(word), ("}",))
            parts.append(_loop(leader, body))
            word = next(it)
