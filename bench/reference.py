"""Independent reference for every output the benchmark checks.

Nothing here imports scorelang.  Programs are plain tuples with n-ary
sequences:

    ("skip",)  ("inc", x)  ("dec", x)  ("push", x)  ("pop", x)
    ("seq", [part, ...])  ("for", leader, body)

The interpreter keeps each cell as a mutable ``[value, stack, counter]``
with the stack's top at the end of the list, so pushes cost O(1) whatever
the program under test does.  Sequences are lists, so only FOR nesting
recurses here.
"""

from __future__ import annotations

ATOMS = ("inc", "dec", "push", "pop")
_KEYWORD = {"inc": "INC", "dec": "DEC", "push": "PUSH", "pop": "POP"}
_INVERSE = {"inc": "dec", "dec": "inc", "push": "pop", "pop": "push"}


class Abort(Exception):
    """An assert-semantics POP that found a nonzero value or an empty stack."""

    def __init__(self, position: int, variable: str, reason: str, value: int, stack: list[int]):
        super().__init__(reason)
        self.position = position
        self.variable = variable
        self.reason = reason
        self.value = value
        self.stack = list(stack)


def seq(parts: list) -> tuple:
    return parts[0] if len(parts) == 1 else ("seq", list(parts))


def invert(term: tuple) -> tuple:
    kind = term[0]
    if kind in _INVERSE:
        return (_INVERSE[kind], term[1])
    if kind == "seq":
        return ("seq", [invert(p) for p in reversed(term[1])])
    if kind == "for":
        return ("for", term[1], invert(term[2]))
    return term


def pretty(term: tuple) -> str:
    kind = term[0]
    if kind in _KEYWORD:
        return f"{_KEYWORD[kind]} {term[1]}"
    if kind == "seq":
        return "; ".join(pretty(p) for p in term[1])
    if kind == "for":
        return f"FOR {term[1]} {{ {pretty(term[2])} }}"
    return "SKIP"


def variables(term: tuple) -> set[str]:
    kind = term[0]
    if kind in _KEYWORD:
        return {term[1]}
    if kind == "seq":
        return set().union(*(variables(p) for p in term[1]))
    if kind == "for":
        return {term[1]} | variables(term[2])
    return set()


def well_formed(term: tuple, banned: frozenset = frozenset()) -> bool:
    """Strict proviso: no loop leader occurs anywhere in its own body."""
    kind = term[0]
    if kind in _KEYWORD:
        return term[1] not in banned
    if kind == "seq":
        return all(well_formed(p, banned) for p in term[1])
    if kind == "for":
        return term[1] not in banned and well_formed(term[2], banned | {term[1]})
    return True


def size(term: tuple) -> int:
    """Source instructions: atoms, SKIPs and FOR headers."""
    kind = term[0]
    if kind == "seq":
        return sum(size(p) for p in term[1])
    if kind == "for":
        return 1 + size(term[2])
    return 1


# --------------------------------------------------------------------- cells


def new_cells(declarations: list[tuple[str, tuple]]) -> dict[str, list]:
    """Mutable cells from (name, (value, stack_top_first, counter)) pairs."""
    return {name: [v, list(reversed(s)), c] for name, (v, s, c) in declarations}


def _cell(cells: dict, name: str) -> list:
    cell = cells.get(name)
    if cell is None:
        cell = cells[name] = [0, [], 0]
    return cell


def push_r(cell: list) -> None:
    value, stack, counter = cell
    if counter == 0:
        stack.append(value)
        cell[0] = 0
    elif not (value == 0 and stack):
        cell[2] = counter - 1


def pop_r(cell: list) -> None:
    value, stack, counter = cell
    if value == 0 and stack:
        if counter == 0:
            cell[0] = stack.pop()
    else:
        cell[2] = counter + 1


def execute(term: tuple, cells: dict, semantics: str, on_step=None) -> int:
    """Run `term` in place under "n", "a" or "r"; return the executed step
    count.  `on_step(instruction, variable, cell)` sees every executed atom.
    An assert-semantics abort raises `Abort`."""
    steps = 0
    work = [term]
    while work:
        t = work.pop()
        kind = t[0]
        if kind == "seq":
            work.extend(reversed(t[1]))
        elif kind == "repeat":
            _, body, left = t
            if left > 1:
                work.append(("repeat", body, left - 1))
            work.append(body)
        elif kind == "for":
            count = _cell(cells, t[1])[0]
            if count:
                body = t[2] if count > 0 else invert(t[2])
                work.append(("repeat", body, abs(count)))
        elif kind == "skip":
            pass
        else:
            x = t[1]
            cell = _cell(cells, x)
            if kind == "inc":
                cell[0] += 1
            elif kind == "dec":
                cell[0] -= 1
            elif kind == "push":
                if semantics == "r":
                    push_r(cell)
                else:
                    cell[1].append(cell[0])
                    cell[0] = 0
            elif semantics == "r":
                pop_r(cell)
            elif semantics == "n":
                cell[0] = cell[1].pop() if cell[1] else 0
            else:
                if cell[0] != 0:
                    raise Abort(steps, x, "value-nonzero", cell[0], cell[1][::-1])
                if not cell[1]:
                    raise Abort(steps, x, "empty-stack", 0, [])
                cell[0] = cell[1].pop()
            steps += 1
            if on_step is not None:
                on_step(f"{_KEYWORD[kind]} {x}", x, cell)
    return steps


# ----------------------------------------------------------- rendered output


def cell_line(name: str, cell) -> str:
    value, stack, counter = cell if cell is not None else (0, [], 0)
    inner = ", ".join(str(e) for e in reversed(stack))
    return f"{name} = {value}, [{inner}], {counter}\n"


def state_text(declarations: list[tuple[str, tuple]]) -> str:
    """A state file binding every declared cell with all fields explicit."""
    lines = []
    for name, (value, stack, counter) in declarations:
        lines.append(f"{name} = {value}, [{', '.join(map(str, stack))}], {counter}\n")
    return "".join(lines)


def _final_block(term: tuple, cells: dict, declarations) -> str:
    names = variables(term) | {name for name, _ in declarations}
    return "FINAL\n" + "".join(cell_line(n, cells.get(n)) for n in sorted(names))


def expected_run(term: tuple, declarations, semantics: str) -> tuple[str, int, int]:
    """(stdout, exit code, executed steps) of ``scorelang run``."""
    cells = new_cells(declarations)
    try:
        steps = execute(term, cells, semantics)
    except Abort as abort:
        stack = ", ".join(map(str, abort.stack))
        out = (
            f"ABORT\nstep: {abort.position + 1}\ninstruction: POP {abort.variable}\n"
            f"variable: {abort.variable}\nreason: {abort.reason}\n"
            f"value: {abort.value}\nstack: [{stack}]\n"
        )
        return out, 1, abort.position
    return _final_block(term, cells, declarations), 0, steps


def expected_trace(term: tuple, declarations, semantics: str) -> tuple[str, int, int]:
    """(stdout, exit code, executed steps) of ``scorelang trace``."""
    cells = new_cells(declarations)
    lines: list[str] = []

    def note(instruction: str, variable: str, cell: list) -> None:
        lines.append(f"step {len(lines) // 2 + 1}: {instruction}\n")
        lines.append(cell_line(variable, cell))

    try:
        steps = execute(term, cells, semantics, note)
    except Abort as abort:
        stack = ", ".join(map(str, abort.stack))
        lines.append(
            f"ABORT at step {abort.position + 1}: POP {abort.variable}\n"
            f"reason: {abort.reason}\nvalue: {abort.value}\nstack: [{stack}]\n"
        )
        return "".join(lines), 1, abort.position
    return "".join(lines) + _final_block(term, cells, declarations), 0, steps


def expected_invert(term: tuple) -> str:
    return pretty(invert(term)) + "\n"


# ----------------------------------------------------------- oracle and fuzz


def oracle_cells(value: int, stack_len: int, elem: int, counter: int) -> int:
    """Cells on the grid ``scorelang oracle`` enumerates."""
    stacks = sum((2 * elem + 1) ** length for length in range(stack_len + 1))
    return (2 * value + 1) * stacks * (counter + 1)


def expected_oracle(value: int, stack_len: int, elem: int, counter: int) -> str:
    return f"{oracle_cells(value, stack_len, elem, counter)} cells checked\n0 collisions\n"


def fuzz_problems(report: dict, seed: int, cases: int) -> list[str]:
    """Invariants every ``fuzz --json`` report of a correct build satisfies."""
    problems = []

    def need(condition: bool, what: str) -> None:
        if not condition:
            problems.append(what)

    need(report.get("ok") is True, "ok is not true")
    need(report.get("seed") == seed, "seed differs")
    need(report.get("cases") == cases, "cases differs")
    need(report.get("seeded_only_if_reported") is True, "seeded witness not reported")
    need(report.get("failures") == [], "failures listed")
    strong, weak, agree = report.get("strong", {}), report.get("weak", {}), report.get("agreement", {})
    corr = report.get("correspondence", {})
    need(strong.get("failed") == 0 and strong.get("passed") == cases, "strong counts")
    for name, counts in (("weak", weak), ("agreement", agree)):
        need(counts.get("failed") == 0, f"{name} failed")
        need(counts.get("passed", -1) + counts.get("vacuous", -1) == cases, f"{name} counts")
    # both checks are vacuous exactly when the assert run aborts
    need(weak.get("vacuous") == agree.get("vacuous"), "weak and agreement vacuous differ")
    need(corr.get("if_direction_witnesses") == 0, "if-direction witness")
    # an only-if witness needs an aborting assert run
    need(0 <= corr.get("only_if_witnesses", -1) <= weak.get("vacuous", -1), "only-if exceeds aborts")
    return problems
