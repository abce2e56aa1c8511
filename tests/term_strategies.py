"""Shared hypothesis strategies for terms, cells and states, and the
oracles' cell grid."""

import itertools

import hypothesis.strategies as st

from scorelang import Cell, Dec, For, Inc, Pop, Push, Seq, Skip, State

NAMES = ("x", "y", "z", "w")

idents = st.sampled_from(NAMES)
values = st.integers(-6, 6)
stacks = st.lists(values, max_size=4).map(tuple)
counters = st.integers(0, 3)
cells = st.builds(Cell, values, stacks, counters)
flat_cells = st.builds(Cell, values, stacks, st.just(0))
states = st.dictionaries(idents, cells, max_size=len(NAMES)).map(State)
flat_states = st.dictionaries(idents, flat_cells, max_size=len(NAMES)).map(State)



def grid(value_bound, stack_len_bound, elem_bound, counter_bound):
    """The oracles' grid in its visiting order: value, then stack length,
    then elements top first, then counter."""
    elems = range(-elem_bound, elem_bound + 1)
    return [
        Cell(value, stack, counter)
        for value in range(-value_bound, value_bound + 1)
        for length in range(stack_len_bound + 1)
        for stack in itertools.product(elems, repeat=length)
        for counter in range(counter_bound + 1)
    ]


_VAR_ATOMS = {"inc": Inc, "dec": Dec, "push": Push, "pop": Pop}


@st.composite
def raw_terms(draw, max_depth=4):
    """Arbitrary terms: possibly ill-formed, arbitrary Seq nesting (which
    the constructor flattens, so every shape prints and parses back equal)."""
    kinds = ["skip", "inc", "dec", "push", "pop"]
    if max_depth > 1:
        kinds += ["seq", "for"]
    kind = draw(st.sampled_from(kinds))
    if kind == "skip":
        return Skip()
    if kind in _VAR_ATOMS:
        return _VAR_ATOMS[kind](draw(idents))
    if kind == "seq":
        return Seq(*draw(st.lists(raw_terms(max_depth - 1), min_size=2, max_size=4)))
    return For(draw(idents), draw(raw_terms(max_depth - 1)))


@st.composite
def wf_terms(draw, max_depth=4, names=NAMES, stack_ops=True):
    """Well-formed terms (loop leaders barred from their bodies), with
    arbitrary Seq nesting."""
    names = tuple(names)
    kinds = ["skip"]
    if names:
        kinds += ["inc", "dec"] + (["push", "pop"] if stack_ops else [])
    if max_depth > 1:
        kinds.append("seq")
        if names:
            kinds.append("for")
    kind = draw(st.sampled_from(kinds))
    if kind == "skip":
        return Skip()
    if kind in _VAR_ATOMS:
        return _VAR_ATOMS[kind](draw(st.sampled_from(names)))
    if kind == "seq":
        return Seq(*draw(st.lists(wf_terms(max_depth - 1, names, stack_ops), min_size=2, max_size=4)))
    leader = draw(st.sampled_from(names))
    rest = tuple(n for n in names if n != leader)
    return For(leader, draw(wf_terms(max_depth - 1, rest, stack_ops)))


@st.composite
def leader_reusing_terms(draw, max_depth=3):
    """Terms that break the strict proviso: a loop whose body reuses its
    leader as an INC, DEC, PUSH or POP target or as a nested loop's
    leader, among other parts, inside up to two more loops."""
    leader = draw(idents)
    kind = draw(st.sampled_from([*_VAR_ATOMS, "for"]))
    reuse = For(leader, draw(raw_terms(max_depth))) if kind == "for" else _VAR_ATOMS[kind](leader)
    rest = [draw(raw_terms(max_depth)) for _ in range(draw(st.integers(0, 2)))]
    term = For(leader, Seq(*draw(st.permutations([reuse, *rest]))) if rest else reuse)
    for _ in range(draw(st.integers(0, 2))):
        parts = [draw(raw_terms(max_depth)) for _ in range(draw(st.integers(0, 2)))]
        term = Seq(*draw(st.permutations([term, *parts]))) if parts else term
        if draw(st.booleans()):
            term = For(draw(idents), term)
    return term
