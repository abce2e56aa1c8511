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
from itertools import islice
from typing import NoReturn

from .syntax import _KEYWORD, KEYWORDS, Skip, Term, _loop, _sequence

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


def split_lines(src: str) -> list[str]:
    """Split on any newline convention (LF, CRLF, CR)."""
    return src.replace("\r\n", "\n").replace("\r", "\n").split("\n")


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
    lexemes = _LEXEME_RE.findall(code)
    lexemes.append("")
    return lexemes


def _fail(src: str, lexemes: list[str], i: int, message: str, expected: tuple[str, ...] = ()) -> NoReturn:
    """Raise a ParseError at lexeme `i`, whose position is found only now."""
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

    One loop over the lexemes: `parts` collects the atoms of the sequence
    being read and `open_loops` holds, per enclosing FOR, the enclosing
    sequence's parts and the loop's leader, so no nesting recurses."""
    lexemes = tokenize(src)
    # Terms are immutable, so each distinct atom is built (and its name
    # checked) once and then shared.
    atoms: dict[tuple[str, str], Term] = {}
    open_loops: list[tuple[list[Term], str]] = []
    parts: list[Term] = []
    i = 0
    while True:
        word = lexemes[i]
        make = _UNARY.get(word)
        if make is not None:
            name = lexemes[i + 1]
            if name in _NOT_NAMES:
                _fail(src, lexemes, i + 1, f"expected a variable name after {word}" + _found(name), ("identifier",))
            atom = atoms.get((word, name))
            if atom is None:
                atom = atoms[word, name] = make(name)
            parts.append(atom)
            i += 2
        elif word == "SKIP":
            parts.append(Skip())
            i += 1
        elif word == "FOR":
            name = lexemes[i + 1]
            if name in _NOT_NAMES:
                _fail(src, lexemes, i + 1, "expected a variable name after FOR" + _found(name), ("identifier",))
            if lexemes[i + 2] != "{":
                _fail(src, lexemes, i + 2, f"expected '{{' after FOR {name}" + _found(lexemes[i + 2]), ("{",))
            open_loops.append((parts, name))
            parts = []
            i += 3
            continue
        else:
            _fail(src, lexemes, i, "expected an instruction" + _found(word), _ATOM_EXPECTED)
        # An instruction ended: close every sequence, and loop, that ends here.
        word = lexemes[i]
        while word != ";":
            body = _sequence(parts)
            if not open_loops:
                if not word:
                    return body
                if word == "}":
                    _fail(src, lexemes, i, "unmatched '}'")
                _fail(src, lexemes, i, "expected ';' or end of input" + _found(word), (";",))
            parts, leader = open_loops.pop()
            if word != "}":
                _fail(src, lexemes, i, f"expected '}}' to close FOR {leader}" + _found(word), ("}",))
            parts.append(_loop(leader, body))  # the lexer vouches for the leader
            i += 1
            word = lexemes[i]
        i += 1
