"""Checks of the benchmark's own reference against hand-worked cases.

    python3 -m pytest -q bench/test_reference.py

None of these import scorelang: the reference must stand on its own.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

import reference as ref
import run
import tracing
import workloads as wl


def cell(value, stack_top_first=(), counter=0):
    return [value, list(reversed(stack_top_first)), counter]


@pytest.mark.parametrize(
    "op, before, after",
    [
        # push_r clause 1, 2, 3
        (ref.push_r, (3, (1,), 0), (0, (3, 1), 0)),
        (ref.push_r, (0, (5,), 2), (0, (5,), 2)),
        (ref.push_r, (4, (), 1), (4, (), 0)),
        # pop_r clause 1, 2, 3
        (ref.pop_r, (0, (7, 1), 0), (7, (1,), 0)),
        (ref.pop_r, (0, (7,), 1), (0, (7,), 1)),
        (ref.pop_r, (5, (2,), 0), (5, (2,), 1)),
    ],
)
def test_push_pop_clauses(op, before, after):
    c = cell(*before)
    op(c)
    assert c == cell(*after)


KERNEL_DECL = [("n", (3, (), 0)), ("x", (1, (5,), 0)), ("y", (0, (), 0))]


@pytest.mark.parametrize("semantics", "nar")
def test_kernel_closed_form(semantics):
    out, code, steps = ref.expected_run(wl.kernel(), KERNEL_DECL, semantics)
    assert out == "FINAL\nn = 3, [], 0\nx = 4, [5], 0\ny = -3, [], 0\n"
    assert (code, steps) == (0, 12)


def test_push_grow_keeps_every_push():
    out, code, steps = ref.expected_run(wl.push_grow(), [("n", (3, (), 0)), ("y", (7, (), 0))], "r")
    assert out == "FINAL\nn = 3, [], 0\ny = 1, [1, 1, 7], 0\n"
    assert steps == 6


def test_negative_leader_runs_inverted_body():
    term = ("for", "k", ("seq", [("inc", "a"), ("push", "b")]))
    out, _, steps = ref.expected_run(term, [("k", (-2, (), 0))], "r")
    # body inverted: POP b; DEC a, twice; each POP of an empty b is illegal
    assert out == "FINAL\na = -2, [], 0\nb = 0, [], 2\nk = -2, [], 0\n"
    assert steps == 4


def test_abort_records():
    term = ("seq", [("inc", "x"), ("pop", "x")])
    out, code, steps = ref.expected_run(term, [], "a")
    assert out == "ABORT\nstep: 2\ninstruction: POP x\nvariable: x\nreason: value-nonzero\nvalue: 1\nstack: []\n"
    assert (code, steps) == (1, 1)
    out, code, _ = ref.expected_run(("pop", "z"), [], "a")
    assert "step: 1\n" in out and "reason: empty-stack\nvalue: 0\nstack: []\n" in out and code == 1


def test_trace_lines():
    out, code, steps = ref.expected_trace(("seq", [("inc", "x"), ("push", "x")]), [], "r")
    assert out == "step 1: INC x\nx = 1, [], 0\nstep 2: PUSH x\nx = 0, [1], 0\nFINAL\nx = 0, [1], 0\n"
    assert (code, steps) == (0, 2)
    out, code, _ = ref.expected_trace(("seq", [("inc", "q"), ("pop", "z")]), [("z", (3, (4,), 0))], "a")
    assert out == "step 1: INC q\nq = 1, [], 0\nABORT at step 2: POP z\nreason: value-nonzero\nvalue: 3\nstack: [4]\n"
    assert code == 1


def test_invert_and_pretty():
    term = ("seq", [("inc", "x"), ("for", "y", ("seq", [("push", "z"), ("dec", "x")]))])
    assert ref.pretty(term) == "INC x; FOR y { PUSH z; DEC x }"
    assert ref.expected_invert(term) == "FOR y { INC x; POP z }; DEC x\n"
    assert ref.invert(ref.invert(term)) == term


def test_well_formed_and_size():
    assert ref.well_formed(("for", "a", ("for", "b", ("inc", "c"))))
    assert not ref.well_formed(("for", "a", ("for", "b", ("pop", "a"))))
    assert not ref.well_formed(("for", "a", ("for", "a", ("inc", "c"))))
    assert ref.size(("seq", [("skip",), ("for", "a", ("inc", "c"))])) == 3


def test_oracle_cell_counts():
    assert ref.oracle_cells(2, 3, 1, 2) == 600  # the oracle's default grid
    assert ref.oracle_cells(*wl.ORACLE_GRID) == 7 * (1 + 5 + 25 + 125 + 625) * 4 == 21868
    assert ref.expected_oracle(0, 0, 0, 0) == "1 cells checked\n0 collisions\n"


def fuzz_report(**changes):
    report = {
        "seed": 1,
        "cases": 2000,
        "strong": {"passed": 2000, "failed": 0},
        "weak": {"passed": 1559, "vacuous": 441, "failed": 0},
        "agreement": {"passed": 1559, "vacuous": 441, "failed": 0},
        "correspondence": {"if_direction_witnesses": 0, "only_if_witnesses": 6},
        "seeded_only_if_reported": True,
        "failures": [],
        "only_if_samples": [],
        "ok": True,
    }
    report.update(changes)
    return report


def test_fuzz_invariants():
    assert ref.fuzz_problems(fuzz_report(), 1, 2000) == []
    assert ref.fuzz_problems(fuzz_report(ok=False), 1, 2000) == ["ok is not true"]
    assert ref.fuzz_problems(fuzz_report(), 1, 1000) != []
    skewed = fuzz_report(agreement={"passed": 1560, "vacuous": 440, "failed": 0})
    assert "weak and agreement vacuous differ" in ref.fuzz_problems(skewed, 1, 2000)
    assert ref.fuzz_problems(fuzz_report(seeded_only_if_reported=False), 1, 2000) != []


def test_large_programs_are_fixed_size_well_formed_and_shallow():
    sizes = set()
    for seed in (1, 2):
        rng = random.Random(seed)
        term = wl.large_program(rng, 2000)
        assert ref.well_formed(term)
        assert max_spine(term) < 300
        atoms = sum(1 for _ in _atoms(term))
        sizes.add(atoms)
        decl = wl.large_state(rng)
        _, code, steps = ref.expected_run(term, decl, "r")
        # every leader is +-1 and never written, so each loop runs once
        assert code == 0 and steps == 2000 - 2000 // 100
    assert sizes == {2000}
    assert wl.large_program(random.Random(5), 500) == wl.large_program(random.Random(5), 500)


def max_spine(term: tuple) -> int:
    """Sequence elements plus loop headers on the longest path from the
    root: about the recursion depth a right-nested binary walker needs."""
    if term[0] == "seq":
        return max(i + max_spine(p) for i, p in enumerate(term[1])) + 1
    if term[0] == "for":
        return 1 + max_spine(term[2])
    return 1


def _atoms(term):
    if term[0] == "seq":
        for part in term[1]:
            yield from _atoms(part)
    elif term[0] == "for":
        yield from _atoms(term[2])
    else:
        yield term


def test_source_text_round_trips_through_pretty():
    rng = random.Random(3)
    term = wl.large_program(rng, 300)
    text = wl.source_text(term, rng)
    assert "# block" in text
    flat = " ".join(line.split("#", 1)[0].strip() for line in text.splitlines())
    assert " ".join(flat.split()) == ref.pretty(term)


def test_minimize_pairs_hold_one_of_each_needed_atom():
    term, cells = wl.minimize_pair(random.Random("shape"), random.Random(9), 50)
    atoms = list(_atoms(term))
    assert atoms.count(("pop", "x")) == 1 and atoms.count(("inc", "y")) == 1
    assert atoms.index(("pop", "x")) < atoms.index(("inc", "y"))
    assert ref.well_formed(term)
    assert cells["x"][0] >= 2 and len(cells["y"][1]) >= 1
    again, _ = wl.minimize_pair(random.Random("shape"), random.Random(10), 50)
    assert [a == b for a, b in zip(_atoms(term), _atoms(again))].count(False) > 0  # fill differs
    assert atoms.index(("pop", "x")) == list(_atoms(again)).index(("pop", "x"))  # shape does not


def test_probe_closed_forms_match_reference():
    source, expected, state = run.nest_probe(2)
    term = ("for", "a0", ("for", "a1", ("inc", "x")))
    decl = [("a0", (1, (), 0)), ("a1", (1, (), 0))]
    assert source == ref.pretty(term)
    assert state == "a0 = 1\na1 = 1\n"
    assert expected["run"] == ref.expected_run(term, decl, "r")[0]
    assert expected["trace"] == ref.expected_trace(term, decl, "r")[0]
    assert expected["invert"] == ref.expected_invert(term)
    source, expected, _ = run.flat_probe(5)
    assert source == "INC x; PUSH y; POP y; DEC z; INC x"
    assert expected["run"] == "FINAL\nx = 2, [], 0\ny = 0, [], 0\nz = -1, [], 0\n"


def test_tail_keeps_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0, 90)
    assert run.tail([float(i) for i in range(40, 0, -1)]) == (75.0, 30.0, 30)
    assert run.tail([3.0, 1.0, 2.0])[1:] == (1.0, 1)
    assert run.nearest_rank(9, 50) == 5 and run.nearest_rank(10, 50) == 5


def test_self_time_subtracts_direct_children():
    spans = [
        ["a", -1, 0, 0.0, 10.0, 0],
        ["b", 0, 0, 2.0, 5.0, 0],
        ["d", 1, 0, 3.0, 4.0, 7],
        ["c", 0, 0, 6.0, 7.0, 0],
    ]
    summary = tracing.summarize(spans)
    assert {k: v["self_s"] for k, v in summary.items()} == {"a": 6.0, "b": 2.0, "d": 1.0, "c": 1.0}
    assert summary["d"]["items"] == 7 and summary["a"]["calls"] == 1


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
