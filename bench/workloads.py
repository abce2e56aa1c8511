"""Seeded inputs for each workload, with the expected output of every
operation computed by `reference` (never by scorelang).

A seed changes the contents of every input (values, stacks, variable
choices, program shapes) but never its size, so the work per operation,
the operations per round and the latency ranks are the same for every
seed.  Every size below was chosen so that, on the machine recorded in
README.md, each program class of a workload takes a similar share of a
round.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import reference as ref

# cli_loops
KERNEL_N = 6000  # FOR n { INC x; PUSH x; POP x; DEC y }: 4 steps per iteration
PUSH_GROW_N = 2500  # FOR n { PUSH y; INC y } at n and 2n
NEST_OUTER, NEST_INNER = 1000, -4  # FOR m { FOR k { 8 atoms } }, k < 0
ABORT_N = 20000  # kernel, then a POP that aborts under "a"
TRACE_VARS, TRACE_ITERS = 200, 4  # trace (r and a) of one loop over 200 variables
# cli_large_source
LARGE_ATOMS = 20000
POSITIVE_LEADERS = [f"P{i}" for i in range(4)]  # each 1: the body runs once
NEGATIVE_LEADERS = [f"N{i}" for i in range(4)]  # each -1: the inverted body runs once
DATA_VARS = [f"d{i}" for i in range(30)]
# verify
FUZZ_CASES = 1500
FUZZ_SEEDS_PER_RUN = 16
# The generator bounds a case's work only by the product of its loop
# counts, so a rare seed yields a case that runs for minutes (for example
# `fuzz --cases 1500 --seed 236521` did not finish in five minutes at the
# commit recorded in README.md).  Fuzz seeds come from 1-100, each of which
# finishes a 1500-case batch in about 0.25 s there, so that every run ends
# in bounded time.  The slow case is left to a step budget in scorelang.
FUZZ_SEED_POOL = range(1, 101)
ORACLE_GRID = (3, 4, 2, 3)  # --value --stack-len --elem --counter: 21868 cells
MINIMIZE_PAIRS, MINIMIZE_ATOMS = 3, 200
# coverage operations, small enough to be a minor share of any round
COVER_FRONTEND_ATOMS = 1000
COVER_KERNEL_N = 1500
COVER_TRACE_VARS = 100
COVER_FUZZ_CASES = 200
COVER_ORACLE_GRID = (2, 4, 1, 3)  # 2420 cells

WORKLOADS = ("cli_loops", "cli_large_source", "verify")

# Kinds of work behind the throughput metrics.  A workload whose own
# operations lack a kind gets one small coverage operation of it per round.
KINDS = ("run", "trace", "frontend", "fuzz", "oracle")
MAIN_KINDS = {
    "cli_loops": {"run", "trace"},
    "cli_large_source": {"run", "frontend"},
    "verify": {"fuzz", "oracle"},
}


@dataclass
class Op:
    """One timed operation: a CLI call or one `minimize` call.

    `kind` is run, trace, frontend, fuzz, oracle or minimize; `work` is in
    the kind's unit (steps, source instructions, cases, cells).
    """

    kind: str
    label: str
    work: int
    argv: list[str] | None = None
    expect_out: str | None = None
    expect_code: int = 0
    seeds: tuple[int, ...] = ()  # fuzz: round r uses seeds[r % len(seeds)]
    minimize: tuple | None = None  # (reference program, {name: cell})
    coverage: bool = False
    prepared: tuple | None = None  # minimize's (Term, State), built after import


@dataclass
class Inputs:
    ops: list[Op] = field(default_factory=list)
    files: dict[str, str] = field(default_factory=dict)


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{label}:{seed}")


def _random_cell(rng: random.Random, counter_max: int = 0) -> tuple:
    stack = tuple(rng.randint(-9, 9) for _ in range(rng.randint(0, 3)))
    return (rng.randint(-20, 20), stack, rng.randint(0, counter_max))


class _OpMaker:
    def __init__(self, inputs: Inputs, workdir: Path):
        self.inputs = inputs
        self.workdir = workdir

    def file(self, name: str, text: str) -> str:
        path = self.workdir / name
        self.inputs.files[str(path)] = text
        return str(path)

    def program(self, name: str, term: tuple, declarations):
        prog = self.file(f"{name}.score", ref.pretty(term))
        state = self.file(f"{name}.sst", ref.state_text(declarations))
        return prog, state

    def run(self, label, term, declarations, semantics="r", coverage=False):
        prog, state = self.program(label, term, declarations)
        out, code, steps = ref.expected_run(term, declarations, semantics)
        self.inputs.ops.append(
            Op("run", label, steps, ["run", "-s", semantics, prog, state], out, code, coverage=coverage)
        )

    def trace(self, label, term, declarations, semantics="r", coverage=False):
        prog, state = self.program(label, term, declarations)
        out, code, steps = ref.expected_trace(term, declarations, semantics)
        argv = ["trace", "-s", semantics, prog, state]
        self.inputs.ops.append(Op("trace", label, steps, argv, out, code, coverage=coverage))

    def frontend(self, label, term, source, coverage=False):
        prog = self.file(f"{label}.score", source)
        n = ref.size(term)
        ops = self.inputs.ops
        ops.append(Op("frontend", f"{label}.check", n, ["check", prog], "ok\n", coverage=coverage))
        ops.append(
            Op("frontend", f"{label}.invert", n, ["invert", prog], ref.expected_invert(term), coverage=coverage)
        )
        return prog

    def fuzz(self, label, rng, cases, coverage=False):
        """A fuzz batch whose seed changes every round, so that a run sees
        FUZZ_SEEDS_PER_RUN case mixes and not one."""
        seeds = tuple(rng.sample(FUZZ_SEED_POOL, FUZZ_SEEDS_PER_RUN))
        argv = ["fuzz", "--json", "--cases", str(cases)]
        self.inputs.ops.append(Op("fuzz", label, cases, argv, seeds=seeds, coverage=coverage))

    def oracle(self, label, grid, coverage=False):
        v, length, elem, counter = grid
        argv = ["oracle", "--injectivity", "--value", str(v), "--stack-len", str(length)]
        argv += ["--elem", str(elem), "--counter", str(counter)]
        cells = ref.oracle_cells(*grid)
        self.inputs.ops.append(Op("oracle", label, cells, argv, ref.expected_oracle(*grid), coverage=coverage))


# ------------------------------------------------------------------ programs


def kernel() -> tuple:
    return ("for", "n", ref.seq([("inc", "x"), ("push", "x"), ("pop", "x"), ("dec", "y")]))


def kernel_state(rng: random.Random, n: int) -> list:
    return [("n", (n, (), 0)), ("x", _random_cell(rng)), ("y", _random_cell(rng))]


def push_grow() -> tuple:
    return ("for", "n", ref.seq([("push", "y"), ("inc", "y")]))


def nest_program(rng: random.Random) -> tuple:
    """FOR m { FOR k { body } } over eight atoms on six variables; every
    POP follows a PUSH of the same variable, so no semantics aborts."""
    names = rng.sample(["a", "b", "c", "d", "e", "f", "g", "h"], 6)
    body = [("inc", names[0]), ("push", names[1]), ("pop", names[1]), ("dec", names[2])]
    body += [("inc", names[3]), ("push", names[4]), ("pop", names[4]), ("dec", names[5])]
    return ("for", "m", ("for", "k", ref.seq(body)))


def wide_program(rng: random.Random, nvars: int) -> tuple:
    """One loop whose body touches each of `nvars` variables once."""
    body = []
    for i in range(nvars):
        v = f"v{i}"
        body.append(rng.choice([("inc", v), ("dec", v)]))
    return ("for", "n", ref.seq(body))


def nest_chunks(rng: random.Random, items: list, levels: list[tuple[int, int]], leaders, banned=()):
    """Group `items` into FOR blocks level by level.  `levels[i]` gives the
    chunk size range at depth i; below the top level a fifth of the chunks
    stay inline.  `leaders` is a list of leader groups: consecutive loops
    of one level take their leader from the groups in turn, so when the
    groups differ in sign the share of inverted loops does not depend on
    the seed.  Each loop's leader avoids the leaders of the loops around
    it, so the result is well formed by construction."""
    if not levels:
        return items
    lo, hi = levels[0]
    out, i, loops = [], 0, 0
    while i < len(items):
        n = rng.randint(lo, hi)
        chunk = items[i : i + n]
        i += n
        if banned and len(levels) > 1 and rng.random() < 0.2:
            out.extend(nest_chunks(rng, chunk, levels[1:], leaders, banned))
            continue
        group = leaders[loops % len(leaders)]
        loops += 1
        leader = rng.choice([x for x in group if x not in banned])
        body = nest_chunks(rng, chunk, levels[1:], leaders, (*banned, leader))
        out.append(("for", leader, ref.seq(body)))
    return out


def large_program(rng: random.Random, atoms: int) -> tuple:
    """`atoms` random atoms on DATA_VARS, grouped into loops nested up to
    three deep.  The top level and every body stay short, far below the
    recursion depth at which the parser and tree walkers fail."""
    leaves = [(rng.choice(ref.ATOMS), rng.choice(DATA_VARS)) for _ in range(atoms)]
    for i in rng.sample(range(atoms), atoms // 100):
        leaves[i] = ("skip",)
    top = max(1, atoms // 40)
    levels = [(top - top // 5, top + top // 5), (20, 30), (4, 8)]
    return ref.seq(nest_chunks(rng, leaves, levels, [POSITIVE_LEADERS, NEGATIVE_LEADERS]))


def large_state(rng: random.Random) -> list:
    leaders = [(x, (1, (), 0)) for x in POSITIVE_LEADERS] + [(x, (-1, (), 0)) for x in NEGATIVE_LEADERS]
    return leaders + [(x, _random_cell(rng, counter_max=2)) for x in DATA_VARS]


def source_text(term: tuple, rng: random.Random) -> str:
    """Multi-line concrete syntax with indentation and comments."""
    lines: list[str] = []

    def emit(t: tuple, depth: int, last: bool) -> None:
        pad = "  " * depth
        sep = "" if last else ";"
        if t[0] == "seq":
            for i, p in enumerate(t[1]):
                emit(p, depth, last and i == len(t[1]) - 1)
        elif t[0] == "for":
            if depth == 0:
                lines.append(f"# block {len(lines)}")
            lines.append(f"{pad}FOR {t[1]} {{")
            emit(t[2], depth + 1, True)
            lines.append(f"{pad}}}{sep}")
        else:
            comment = "  # note" if rng.random() < 0.02 else ""
            lines.append(f"{pad}{ref.pretty(t)}{sep}{comment}")

    emit(term, 0, True)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- minimize


def minimize_pair(shape: random.Random, fill: random.Random, atoms: int) -> tuple:
    """A reference program holding exactly one ``POP x`` before exactly
    one ``INC y`` among `atoms` other atoms, and a state satisfying the
    benchmark's predicate.  Greedy shrinking can only end at
    ``POP x; INC y`` from x = (2, [], 0), y = (0, [0], 0).

    `shape` fixes the nesting, where the two atoms sit and the state, which
    is all the predicate looks at, so every seed costs `minimize` the same;
    `fill` picks the other atoms."""
    names = ["x", "y", "z", "w"]
    leaves = []
    while len(leaves) < atoms:
        atom = (fill.choice(ref.ATOMS), fill.choice(names))
        if atom not in (("pop", "x"), ("inc", "y")):
            leaves.append(atom)
    i, j = sorted(shape.sample(range(atoms + 1), 2))
    leaves.insert(j, ("inc", "y"))
    leaves.insert(i, ("pop", "x"))
    term = ref.seq(nest_chunks(shape, leaves, [(40, 60), (8, 16), (2, 5)], [["a", "b", "c"]]))
    cells = {
        "x": (shape.randint(2, 9), tuple(shape.randint(-3, 3) for _ in range(shape.randint(0, 3))), shape.randint(0, 2)),
        "y": (shape.randint(-4, 4), tuple(shape.randint(-3, 3) for _ in range(shape.randint(1, 4))), shape.randint(0, 2)),
        "z": _random_cell(shape, counter_max=2),
        "a": (1, (), 0),
        "b": (-1, (), 0),
        "c": (2, (), 0),
    }
    return term, cells


MINIMIZED_PROGRAM = ("seq", [("pop", "x"), ("inc", "y")])
MINIMIZED_STATE = {"x": (2, (), 0), "y": (0, (0,), 0)}


# ----------------------------------------------------------------- workloads


def _cover(b: _OpMaker, workload: str, seed: int) -> None:
    """One small operation of each kind the workload's own operations lack."""
    missing = set(KINDS) - MAIN_KINDS[workload]
    rng = _rng(seed, "cover")
    if "run" in missing:
        b.run("cover_kernel_r", kernel(), kernel_state(rng, COVER_KERNEL_N), "r", coverage=True)
    if "trace" in missing:
        term = wide_program(rng, COVER_TRACE_VARS)
        decl = [("n", (2, (), 0))] + [(f"v{i}", _random_cell(rng)) for i in range(COVER_TRACE_VARS)]
        b.trace("cover_trace_wide", term, decl, coverage=True)
    if "frontend" in missing:
        term = large_program(rng, COVER_FRONTEND_ATOMS)
        b.frontend("cover_source", term, source_text(term, rng), coverage=True)
    if "fuzz" in missing:
        b.fuzz("cover_fuzz", rng, COVER_FUZZ_CASES, coverage=True)
    if "oracle" in missing:
        b.oracle("cover_oracle", COVER_ORACLE_GRID, coverage=True)


def build(workload: str, seed: int, workdir: Path) -> Inputs:
    """The operations of one round, in the order a round runs them."""
    inputs = Inputs()
    b = _OpMaker(inputs, workdir)
    rng = _rng(seed, workload)
    if workload == "cli_loops":
        for semantics in ("n", "a", "r"):
            b.run(f"kernel_{semantics}", kernel(), kernel_state(rng, KERNEL_N), semantics)
        for n in (PUSH_GROW_N, 2 * PUSH_GROW_N):
            b.run(f"push_grow_{n}", push_grow(), [("n", (n, (), 0)), ("y", (rng.randint(-9, 9), (), 0))])
        decl = [("m", (NEST_OUTER, (), 0)), ("k", (NEST_INNER, (), 0))]
        decl += [(x, _random_cell(rng)) for x in "abcdefgh"]
        b.run("negative_nest", nest_program(rng), decl, "r")
        z = (rng.randint(1, 9), (), 0) if rng.random() < 0.5 else (0, (), 0)
        term = ref.seq([kernel(), ("pop", "z")])
        b.run("late_abort_a", term, kernel_state(rng, ABORT_N) + [("z", z)], "a")
        for semantics in ("r", "a"):
            decl = [("n", (TRACE_ITERS, (), 0))] + [(f"v{i}", _random_cell(rng)) for i in range(TRACE_VARS)]
            b.trace(f"trace_wide_{semantics}", wide_program(rng, TRACE_VARS), decl, semantics)
    elif workload == "cli_large_source":
        term = large_program(rng, LARGE_ATOMS)
        prog = b.frontend("large", term, source_text(term, rng))
        decl = large_state(rng)
        state = b.file("large.sst", ref.state_text(decl))
        out, code, steps = ref.expected_run(term, decl, "r")
        inputs.ops.append(Op("run", "large.run", steps, ["run", prog, state], out, code))
    elif workload == "verify":
        b.fuzz("fuzz", rng, FUZZ_CASES)
        b.oracle("oracle", ORACLE_GRID)
        for i in range(MINIMIZE_PAIRS):
            term, cells = minimize_pair(random.Random(f"minimize-shape:{i}"), rng, MINIMIZE_ATOMS)
            inputs.ops.append(Op("minimize", f"minimize_{i}", 1, minimize=(term, cells)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    _cover(b, workload, seed)
    return inputs
