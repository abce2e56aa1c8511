"""scorelang benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload cli_loops --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository: the package is imported from
``src/`` beside this directory.  With ``--trace 0`` the last line of
stdout is a JSON object with every end-to-end metric; with ``--trace 1``
it holds every per-layer metric instead.  The line before it starts with
``detail`` and carries per-program times, the latency tail's rank, the
probe ladders and the machine facts that `compare.py` reads.  See
README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import reference as ref
import tracing
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Seconds one round takes on the machine recorded in README.md.  A run
# does round(seconds / ROUND_SECONDS) rounds, so every run and every
# commit measures the same operations and the latency ranks never move.
ROUND_SECONDS = {"cli_loops": 1.2, "cli_large_source": 1.25, "verify": 0.8}
TRACED_SHARE = 0.3  # rounds of a --trace 1 run, as a share of a --trace 0 run, per pass
SETUP_REPEATS = 5
CALIBRATION_ATOMS = 600
CALIBRATION_NOMINAL_S = 0.0025  # calibrate() on the host recorded in README.md
PUSH_GROW_PROBE_N = 10000
PROBE_PAIRS = 5
FLAT_LADDER = (100, 300, 700, 990, 1000, 3000, 10000)
NEST_LADDER = (100, 200, 400, 500, 1000, 2000)
PROBE_COMMANDS = ("check", "invert", "run", "trace")

THROUGHPUT = {
    "run": "run_steps_per_s",
    "trace": "trace_steps_per_s",
    "frontend": "frontend_instrs_per_s",
    "fuzz": "fuzz_cases_per_s",
    "oracle": "oracle_cells_per_s",
}
END_TO_END_UNITS = {
    "setup_s": "s",
    "run_steps_per_s": "1/s",
    "trace_steps_per_s": "1/s",
    "frontend_instrs_per_s": "1/s",
    "fuzz_cases_per_s": "1/s",
    "oracle_cells_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "flat_seq_limit": "count",
    "for_nest_limit": "count",
}
# Traced functions whose call count is a per-layer metric too.
COUNTED = {
    "syntax.check_well_formed",
    "syntax.invert",
    "state.dump_state",
    "semantics.eval_n",
    "semantics.eval_a",
    "semantics.eval_r",
    "semantics.eval_traced",
}
EVALS = ("semantics.eval_n", "semantics.eval_a", "semantics.eval_r", "semantics.eval_traced")
PREDICATE_SPAN = "bench.minimize_predicate"


def per_layer_units() -> dict[str, str]:
    units = {}
    for module, functions in tracing.TRACED.items():
        for function in functions:
            name = f"{module}.{function}"
            units[f"{name}.self_s"] = "s"
            if name in COUNTED:
                units[f"{name}.calls"] = "count"
    units.update(
        {
            "parser.tokens_per_s": "1/s",
            "semantics.steps_per_s": "1/s",
            "semantics.eval_r.push_grow_ratio": "ratio",
            "harness.fuzz.vacuous_share": "ratio",
            "harness.minimize.predicate_calls": "count",
            "harness.minimize.accept_ratio": "ratio",
            "bench.tracing_overhead": "ratio",
        }
    )
    return units


# ------------------------------------------------------------------ program


class Package:
    """The imported scorelang modules; attributes are looked up at call
    time, so a traced run reaches the installed wrappers."""

    def __init__(self) -> None:
        self.top = sys.modules["scorelang"]
        self.cli = sys.modules["scorelang.cli"]
        self.harness = sys.modules["scorelang.harness"]


def purge_package() -> None:
    for name in [n for n in sys.modules if n == "scorelang" or n.startswith("scorelang.")]:
        del sys.modules[name]


def _depth() -> int:
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def call_cli(pkg: Package, argv: list[str], console_headroom: bool = False):
    """(exit code or exception, stdout, stderr, seconds) of one in-process call.

    With `console_headroom`, the recursion limit is raised by the frames
    this benchmark stacks above `cli.main`, so a deep program meets the
    same limit as under the `scorelang` console script, where `main` is
    the second frame."""
    out, err = io.StringIO(), io.StringIO()
    limit = sys.getrecursionlimit()
    if console_headroom:
        sys.setrecursionlimit(limit + _depth() - 1)
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = pkg.cli.main(argv)
    except (Exception, SystemExit) as exc:  # a traceback or an argparse exit is an outcome here
        code = exc
    finally:
        sys.setrecursionlimit(limit)
    return code, out.getvalue(), err.getvalue(), perf_counter() - start


def setup(warm: list[list[str]]) -> list[float]:
    """Import the package and warm every command, SETUP_REPEATS times;
    host-scaled seconds of each."""
    times = []
    before = calibrate()
    for _ in range(SETUP_REPEATS):
        purge_package()
        start = perf_counter()
        importlib.import_module("scorelang.cli")
        pkg = Package()
        for argv in warm:
            call_cli(pkg, argv)
        seconds = perf_counter() - start
        after = calibrate()
        times.append(seconds * host_scale(before, after))
        before = after
    return times


# ---------------------------------------------------------------- minimize


def to_term(term: tuple, pkg: Package):
    sl = pkg.top
    kind = term[0]
    if kind == "seq":
        node = to_term(term[1][-1], pkg)
        for part in reversed(term[1][:-1]):
            node = sl.Seq(to_term(part, pkg), node)
        return node
    if kind == "for":
        return sl.For(term[1], to_term(term[2], pkg))
    if kind == "skip":
        return sl.Skip()
    return {"inc": sl.Inc, "dec": sl.Dec, "push": sl.Push, "pop": sl.Pop}[kind](term[1])


_ATOM_CLASSES = {"Inc", "Dec", "Push", "Pop"}
_FIELDS: dict[type, tuple[str, ...]] = {}


def _children(term) -> list:
    cls = type(term)
    names = _FIELDS.get(cls)
    if names is None:
        names = _FIELDS[cls] = tuple(f.name for f in dataclasses.fields(term))
    out = []
    for name in names:
        value = getattr(term, name)
        if isinstance(value, tuple):
            out.extend(value)
        elif not isinstance(value, str):
            out.append(value)
    return out


def from_term(term) -> tuple:
    """A scorelang term as a reference term, read through its dataclass
    fields so that binary and n-ary sequences both convert."""
    name = type(term).__name__
    if name in _ATOM_CLASSES:
        return (name.lower(), term.var)
    if name == "Skip":
        return ("skip",)
    if name == "For":
        return ("for", term.leader, from_term(term.body))
    parts = []
    for child in _children(term):
        converted = from_term(child)
        parts.extend(converted[1] if converted[0] == "seq" else [converted])
    return ("seq", parts)


class Predicate:
    """The benchmark's failure predicate for `minimize`: the program holds
    both ``POP x`` and ``INC y``, x's value is at least 2, y's stack is not
    empty, and ``P; -P`` run under `eval_r` gives back the state.  The last
    part always holds in a correct build; it makes every call run the
    evaluator, as the predicates `run_fuzz` hands to `minimize` do.  Counts
    its calls and how many returned true.

    Shrink candidates share most subterms with the term they came from, so
    what each subterm holds is remembered by identity (the memo keeps the
    subterm alive, so its id is never reused); a call then walks only the
    nodes `minimize` built for that candidate."""

    def __init__(self, pkg: Package) -> None:
        self.pkg = pkg
        self.calls = 0
        self.accepted = 0
        self._memo: dict[int, tuple] = {}

    def _holds(self, term) -> int:
        """Bit 1: holds POP x; bit 2: holds INC y."""
        memo = self._memo
        hit = memo.get(id(term))
        if hit is not None:
            return hit[1]
        name = type(term).__name__
        if name in _ATOM_CLASSES:
            bits = (name == "Pop" and term.var == "x") | 2 * (name == "Inc" and term.var == "y")
        else:
            bits = 0
            for child in _children(term):
                bits |= self._holds(child)
        memo[id(term)] = (term, bits)
        return bits

    def __call__(self, program, state) -> bool:
        self.calls += 1
        sl = self.pkg.top
        restored = sl.eval_r(sl.Seq(program, sl.invert(program)), state).as_dict() == state.as_dict()
        hit = self._holds(program) == 3 and state.get("x").value >= 2 and len(state.get("y").stack) >= 1
        hit = hit and restored
        self.accepted += hit
        return hit


# ---------------------------------------------------------------- operations


def perform(op: wl.Op, round_: int, pkg: Package, predicate: Predicate, tracer: tracing.Tracer | None = None):
    """Run one operation: (seconds, problem or None, output signature)."""
    if op.kind == "minimize":
        return perform_minimize(op, pkg, predicate, tracer)
    argv = op.argv
    if op.kind == "fuzz":
        seed = op.seeds[round_ % len(op.seeds)]
        argv = [*argv, "--seed", str(seed)]
    code, stdout, stderr, seconds = call_cli(pkg, argv)
    if isinstance(code, BaseException):
        problem = f"{type(code).__name__}: {code}"[:300]
    elif code != op.expect_code:
        problem = f"exit {code}, expected {op.expect_code}; stderr: {stderr[:200]}"
    elif stderr:
        problem = f"unexpected stderr: {stderr[:200]}"
    elif op.kind == "fuzz":
        try:
            problem = "; ".join(ref.fuzz_problems(json.loads(stdout), seed, op.work)) or None
        except ValueError:
            problem = "fuzz output is not JSON"
    elif stdout != op.expect_out:
        problem = f"stdout differs from reference at char {_first_diff(stdout, op.expect_out)}"
    else:
        problem = None
    return seconds, problem, (repr(code), stdout)


def _first_diff(a: str, b: str) -> int:
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


def perform_minimize(op, pkg, predicate, tracer):
    program, state = op.prepared
    fails = predicate if tracer is None else tracer.wrap(PREDICATE_SPAN, predicate)
    start = perf_counter()
    try:
        result = pkg.harness.minimize(program, state, fails)
    except Exception as exc:
        return perf_counter() - start, f"{type(exc).__name__}: {exc}"[:300], repr(exc)
    seconds = perf_counter() - start
    got_program = from_term(result[0])
    got_state = {name: tuple(cell) for name, cell in result[1].as_dict().items()}
    problem = None
    if got_program != wl.MINIMIZED_PROGRAM or got_state != wl.MINIMIZED_STATE:
        problem = f"minimized to {ref.pretty(got_program)} from {got_state}"
    return seconds, problem, (repr(got_program), sorted(got_state.items()))


def prepare(ops: list[wl.Op], pkg: Package) -> None:
    for op in ops:
        if op.kind == "minimize":
            term, cells = op.minimize
            op.prepared = (to_term(term, pkg), pkg.top.State({n: pkg.top.Cell(*c) for n, c in cells.items()}))


# ------------------------------------------------------------------- probes


def flat_probe(n: int) -> tuple:
    cycle = [("inc", "x"), ("push", "y"), ("pop", "y"), ("dec", "z")]
    term = ("seq", [cycle[i % 4] for i in range(n)])
    return ref.pretty(term), {
        "check": "ok\n",
        "invert": ref.expected_invert(term),
        "run": ref.expected_run(term, [], "r")[0],
        "trace": ref.expected_trace(term, [], "r")[0],
    }, ""


def nest_probe(d: int) -> tuple:
    """FOR a0 { FOR a1 { ... INC x ... } } with every leader 1, built as
    text so that no reference walker recurses d deep."""
    opening = "".join(f"FOR a{i} {{ " for i in range(d))
    closing = " }" * d
    names = sorted([f"a{i}" for i in range(d)] + ["x"])
    final = "FINAL\n" + "".join(f"{n} = 1, [], 0\n" for n in names)
    return opening + "INC x" + closing, {
        "check": "ok\n",
        "invert": opening + "DEC x" + closing + "\n",
        "run": final,
        "trace": "step 1: INC x\nx = 1, [], 0\n" + final,
    }, "".join(f"a{i} = 1\n" for i in range(d))


def climb(pkg: Package, workdir: Path, ladder, make, tally) -> dict:
    """Per command, the largest rung that passes; each command stops at its
    first failing rung.  A RecursionError or a clean non-zero exit is a
    failed rung, not an error; a wrong output or another exception is both."""
    limits = dict.fromkeys(PROBE_COMMANDS, 0)
    notes: dict[str, str] = {}
    prog, sst = workdir / "probe.score", workdir / "probe.sst"
    for rung in ladder:
        climbing = [c for c in PROBE_COMMANDS if c not in notes]
        if not climbing:
            break
        source, expected, state = make(rung)
        prog.write_text(source)
        sst.write_text(state)
        for command in climbing:
            argv = [command, str(prog)] + ([str(sst)] if command in ("run", "trace") else [])
            code, stdout, _, _ = call_cli(pkg, argv, console_headroom=True)
            tally["attempted"] += 1
            if isinstance(code, BaseException):
                notes[command] = f"fails at {rung}: {type(code).__name__}"
                tally["failed"] += not isinstance(code, RecursionError)
            elif code != 0:
                notes[command] = f"fails at {rung}: exit {code}"
            elif stdout != expected[command]:
                notes[command] = f"wrong output at {rung}"
                tally["failed"] += 1
            else:
                limits[command] = rung
    return {"limit": min(limits.values()), "per_command": limits, "first_failure": notes}


# ------------------------------------------------------------------- metrics


def nearest_rank(n: int, p: float) -> int:
    """1-based rank of the p-th percentile of n samples."""
    return max(1, math.ceil(round(p * n / 100, 9)))


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it, which is
    the value at rank n - 10: (percentile, value, 1-based rank)."""
    ordered = sorted(values)
    rank = max(1, len(ordered) - 10)
    return 100 * rank / len(ordered), ordered[rank - 1], rank


def machine_facts() -> dict:
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            text = (ROOT / ".git" / text[5:]).read_text().strip()
        commit = text
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "commit": commit}


def rounds_for(workload: str, seconds: float) -> int:
    return max(3, round(seconds / ROUND_SECONDS[workload]))


_CALIBRATION_RNG = random.Random("calibration")
_CALIBRATION_PROGRAM = wl.large_program(_CALIBRATION_RNG, CALIBRATION_ATOMS)
_CALIBRATION_STATE = wl.large_state(_CALIBRATION_RNG)


def calibrate() -> float:
    """Seconds the benchmark's own reference takes, now, to run and invert
    a fixed program; see host_scale."""
    start = perf_counter()
    ref.expected_run(_CALIBRATION_PROGRAM, _CALIBRATION_STATE, "r")
    ref.expected_invert(_CALIBRATION_PROGRAM)
    return perf_counter() - start


def host_scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two calibrations into
    seconds on a host running at the nominal speed.  A host whose
    processors are shared drifts by a quarter either way within seconds.
    scorelang and the reference are both plain interpreted Python doing
    similar work, so most of the drift cancels in the ratio (see README.md)."""
    return 2 * CALIBRATION_NOMINAL_S / (before + after)


class Record(NamedTuple):
    round: int
    op: int  # index into the round's operations
    seconds: float  # scaled by host_scale
    raw_seconds: float
    problem: str | None
    signature: object


def timed_rounds(ops, pkg, rounds: range, predicate: Predicate, tracer=None) -> list[Record]:
    """Run the given rounds of `ops`, calibrating between operations.  When
    tracing, operations get consecutive span ids from 0 across calls."""
    records: list[Record] = []
    before = calibrate()
    for r in rounds:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op += 1
            seconds, problem, signature = perform(op, r, pkg, predicate, tracer)
            after = calibrate()
            records.append(Record(r, i, seconds * host_scale(before, after), seconds, problem, signature))
            before = after
    return records


def end_to_end(args, ops, pkg, workdir, setup_times, detail) -> tuple[dict, int, int]:
    predicate = Predicate(pkg)
    rounds = rounds_for(args.workload, args.seconds)
    records = timed_rounds(ops, pkg, range(rounds), predicate)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    metrics = {"setup_s": statistics.median(setup_times)}
    for kind, name in THROUGHPUT.items():
        per_round = []
        for r in range(rounds):
            mine = [rec for rec in records if rec.round == r and ops[rec.op].kind == kind]
            per_round.append(sum(ops[rec.op].work for rec in mine) / sum(rec.seconds for rec in mine))
        metrics[name] = statistics.median(per_round)
    latencies = [rec.seconds * 1000 for rec in records if not ops[rec.op].coverage]
    # nearest rank, not an average of two neighbours that may be different programs
    metrics["latency_p50_ms"] = sorted(latencies)[nearest_rank(len(latencies), 50) - 1]
    p, metrics["latency_tail_ms"], rank = tail(latencies)
    metrics["peak_rss_mb"] = peak_rss_mb

    tally = {"attempted": len(records), "failed": sum(1 for rec in records if rec.problem)}
    flat = climb(pkg, workdir, FLAT_LADDER, flat_probe, tally)
    nest = climb(pkg, workdir, NEST_LADDER, nest_probe, tally)
    metrics["flat_seq_limit"] = flat["limit"]
    metrics["for_nest_limit"] = nest["limit"]

    def median_of(label: str, field: str) -> float:
        return statistics.median(getattr(rec, field) for rec in records if ops[rec.op].label == label)

    detail.update(
        rounds=rounds,
        setup_samples_s=setup_times,
        latency_tail={"percentile": p, "rank": rank, "samples": len(latencies)},
        programs={op.label: median_of(op.label, "seconds") for op in ops},
        programs_raw={op.label: median_of(op.label, "raw_seconds") for op in ops},
        host_scale_median=statistics.median(rec.seconds / rec.raw_seconds for rec in records),
        probes={"flat_seq": flat, "for_nest": nest},
        problems=sorted({f"{ops[rec.op].label}: {rec.problem}" for rec in records if rec.problem})[:20],
        error_rate=tally["failed"] / tally["attempted"],
    )
    return metrics, tally["attempted"], tally["failed"]


def push_grow_ratio(pkg: Package) -> tuple[float, int]:
    """eval_r time on FOR n { PUSH y; INC y } at 2n over the time at n: the
    median over PROBE_PAIRS pairs, each timed back to back so that the host's
    drift mostly falls between pairs.  The second value counts wrong results."""
    sl = pkg.top
    term = sl.parse("FOR n { PUSH y; INC y }")
    ratios, wrong = [], 0
    for _ in range(PROBE_PAIRS):
        seconds = {}
        for n in (PUSH_GROW_PROBE_N, 2 * PUSH_GROW_PROBE_N):
            start = perf_counter()
            final = sl.eval_r(term, sl.State({"n": sl.Cell(n)}))
            seconds[n] = perf_counter() - start
            wrong += tuple(final.get("y")) != (1, (1,) * (n - 1) + (0,), 0)
        ratios.append(seconds[2 * PUSH_GROW_PROBE_N] / seconds[PUSH_GROW_PROBE_N])
    return statistics.median(ratios), wrong


def per_layer(args, ops, pkg, detail) -> tuple[dict, int, int, bool]:
    main = [op for op in ops if not op.coverage]
    rounds = max(2, round(rounds_for(args.workload, args.seconds) * TRACED_SHARE))
    plain: list[Record] = []
    traced: list[Record] = []
    plain_predicate, predicate = Predicate(pkg), Predicate(pkg)
    tracer = tracing.Tracer()
    # alternate untraced and traced rounds, so that neither side gets the
    # warmer process or the calmer stretch of the host
    for r in range(rounds):
        plain += timed_rounds(main, pkg, range(r, r + 1), plain_predicate)
        tracer.install()
        try:
            traced += timed_rounds(main, pkg, range(r, r + 1), predicate, tracer)
        finally:
            tracer.uninstall()
    same = all(a.signature == b.signature for a, b in zip(plain, traced))
    failed = sum(1 for rec in plain + traced if rec.problem)
    ratio, wrong = push_grow_ratio(pkg)
    attempted = len(plain) + len(traced) + 2 * PROBE_PAIRS

    # span self times are scaled by the host factor of the operation they ran in
    scale = [rec.seconds / rec.raw_seconds for rec in traced]
    summary = tracing.summarize(tracer.spans)
    empty = {"calls": 0, "self_s": 0.0, "items": 0, "by_op": {}}

    def self_s(name: str, executions=None) -> float:
        by_op = summary.get(name, empty)["by_op"]
        return sum(s * scale[k] for k, s in by_op.items() if executions is None or k in executions)

    metrics = {}
    for module, functions in tracing.TRACED.items():
        for function in functions:
            name = f"{module}.{function}"
            metrics[f"{name}.self_s"] = self_s(name) / rounds
            if name in COUNTED:
                metrics[f"{name}.calls"] = summary.get(name, empty)["calls"] / rounds
    parser_s = self_s("parser.tokenize") + self_s("parser.parse")
    tokens = summary.get("parser.tokenize", empty)["items"]
    metrics["parser.tokens_per_s"] = tokens / parser_s if parser_s else 0.0
    stepped = {k for k, rec in enumerate(traced) if main[rec.op].kind in ("run", "trace")}
    steps = sum(main[traced[k].op].work for k in stepped)
    eval_s = sum(self_s(name, stepped) for name in EVALS)
    metrics["semantics.steps_per_s"] = steps / eval_s if eval_s else 0.0
    metrics["semantics.eval_r.push_grow_ratio"] = ratio
    vacuous = passed = 0
    for rec in plain:
        if main[rec.op].kind == "fuzz":
            weak = json.loads(rec.signature[1])["weak"]
            vacuous += weak["vacuous"]
            passed += weak["passed"]
    metrics["harness.fuzz.vacuous_share"] = vacuous / (vacuous + passed) if vacuous + passed else 0.0
    metrics["harness.minimize.predicate_calls"] = predicate.calls / rounds
    metrics["harness.minimize.accept_ratio"] = predicate.accepted / predicate.calls if predicate.calls else 0.0
    metrics["bench.tracing_overhead"] = sum(rec.seconds for rec in traced) / sum(rec.seconds for rec in plain)

    detail.update(
        rounds=rounds,
        spans=len(tracer.spans),
        span_names=sorted(summary),
        traced_matches_untraced=same,
        problems=sorted({f"{main[rec.op].label}: {rec.problem}" for rec in plain + traced if rec.problem})[:20],
    )
    return metrics, attempted, failed + wrong, same


# --------------------------------------------------------------------- main


def warm_inputs(workdir: Path) -> list[list[str]]:
    prog, state = workdir / "warm.score", workdir / "warm.sst"
    prog.write_text("INC x; FOR x { PUSH y; INC y }; FOR x { DEC y; POP y }\n")
    state.write_text("x = 2\n")
    runs = [["run", "-s", s, str(prog), str(state)] for s in "nar"]
    return runs + [
        ["trace", str(prog), str(state)],
        ["check", str(prog)],
        ["invert", str(prog)],
        ["fuzz", "--json", "--cases", "20"],
        ["oracle", "--injectivity"],
    ]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "scorelang" / "__init__.py").is_file():
        print(f"error: no scorelang package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still be using it
            (ROOT / ".bench_work").rmdir()


def measure(args, workdir: Path) -> int:
    try:
        setup_times = setup(warm_inputs(workdir))
    except Exception as exc:  # the package does not import: no result
        print(f"error: cannot set up scorelang: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    pkg = Package()
    inputs = wl.build(args.workload, args.seed, workdir)
    for path, text in inputs.files.items():
        Path(path).write_text(text)
    prepare(inputs.ops, pkg)

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "machine": machine_facts()}
    if args.trace:
        metrics, attempted, failed, same = per_layer(args, inputs.ops, pkg, detail)
        units = per_layer_units()
    else:
        metrics, attempted, failed = end_to_end(args, inputs.ops, pkg, workdir, setup_times, detail)
        same = True
        units = END_TO_END_UNITS
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": failed == 0 and same,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
