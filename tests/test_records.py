"""The package's record classes: dataclasses whose methods are shared from
one base in `syntax.py`, not generated, with the behaviour and the text of
the methods `dataclass` generated for them before."""

import copy
import dataclasses
import importlib
import inspect
import pickle
from dataclasses import FrozenInstanceError

import pytest

from scorelang import (
    AbortRecord,
    Aborted,
    Cell,
    CheckCounts,
    Dec,
    Fail,
    FailureCorrespondence,
    Final,
    For,
    FuzzReport,
    FuzzWitness,
    GenConfig,
    Inc,
    Pass,
    Pop,
    Push,
    Seq,
    Skip,
    State,
    TraceStep,
    Violation,
    compile_program,
    eval_a,
    parse,
)
from scorelang.syntax import _Unary
from test_core import fuzz_corpus

RECORDS = [
    Skip,
    _Unary,
    Seq,
    For,
    Violation,
    AbortRecord,
    Final,
    Aborted,
    TraceStep,
    GenConfig,
    Pass,
    Fail,
    FailureCorrespondence,
    CheckCounts,
    FuzzWitness,
    FuzzReport,
]


def _package_classes():
    for name in ("syntax", "parser", "state", "semantics", "harness", "cli"):
        module = importlib.import_module(f"scorelang.{name}")
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                yield value


def test_no_class_holds_a_generated_function():
    """`dataclass` compiles the methods it makes with `exec`, so their code
    comes from ``"<string>"``; the records share hand-written methods
    instead, and a later default ``@dataclass`` fails here.  The repr it
    makes is wrapped, so every value is unwrapped first.  `Cell`, a
    NamedTuple, keeps the `__new__` that `collections.namedtuple` makes
    with `eval`."""
    generated = []
    for cls in _package_classes():
        for name, value in vars(cls).items():
            code = getattr(inspect.unwrap(value), "__code__", None)
            if code is not None and code.co_filename == "<string>" and (cls, name) != (Cell, "__new__"):
                generated.append(f"{cls.__qualname__}.{name}")
    assert not generated
    assert all(dataclasses.is_dataclass(cls) for cls in RECORDS)


def test_every_record_has_its_own_docstring():
    """`dataclass` gives a class with no docstring one made from its
    signature, which with a shared constructor would read
    ``(*args, **kwargs)``."""
    for cls in RECORDS:
        assert cls.__doc__ and not cls.__doc__.startswith(cls.__name__ + "("), cls


# A value of each frozen record, made anew on each call, its repr as the
# generated method printed it, and one changed field for `replace`.
FROZEN = [
    (Skip, "Skip()", None),
    (lambda: Inc("x"), "Inc(var='x')", ("var", "y")),
    (lambda: Dec("x"), "Dec(var='x')", ("var", "y")),
    (lambda: Push("x"), "Push(var='x')", ("var", "y")),
    (lambda: Pop("x"), "Pop(var='x')", ("var", "y")),
    (lambda: For("n", Push("x")), "For(leader='n', body=Push(var='x'))", ("body", Skip())),
    (lambda: Violation("n", ("body",)), "Violation(leader='n', path=('body',))", ("path", ())),
    (
        GenConfig,
        "GenConfig(seed=1, max_depth=6, max_vars=4, value_range=(-5, 5), max_stack_len=4, max_counter=2)",
        ("value_range", (0, 2)),
    ),
    (
        lambda: GenConfig(seed=3, value_range=(0, 2)),
        "GenConfig(seed=3, max_depth=6, max_vars=4, value_range=(0, 2), max_stack_len=4, max_counter=2)",
        ("seed", 4),
    ),
    (Pass, "Pass(cases_run=1, vacuous=False)", ("vacuous", True)),
    (lambda: Pass(cases_run=4, vacuous=True), "Pass(cases_run=4, vacuous=True)", ("cases_run", 5)),
    (lambda: Fail(None, None, "why"), "Fail(program=None, initial=None, details='why')", ("details", "no")),
    (
        lambda: Fail(Inc("x"), State({"x": Cell(1)}), "d"),
        "Fail(program=Inc(var='x'), initial=State({x: Cell(value=1, stack=(), counter=0)}), details='d')",
        ("program", Dec("x")),
    ),
    (
        lambda: FailureCorrespondence(True, False, "only-if"),
        "FailureCorrespondence(a_aborted=True, r_final_broken=False, direction_witness='only-if')",
        ("direction_witness", None),
    ),
    (
        lambda: FuzzWitness("strong", "INC x", "x = 1", "d"),
        "FuzzWitness(check='strong', program='INC x', state='x = 1', details='d')",
        ("state", "x = 2"),
    ),
]


@pytest.mark.parametrize(("make", "text", "change"), FROZEN, ids=[text for _, text, _ in FROZEN])
def test_frozen_records_behave_as_generated(make, text, change):
    value, twin = make(), make()
    values = tuple(getattr(value, field.name) for field in dataclasses.fields(value))
    assert repr(value) == text
    assert value == twin and not value != twin and value is not twin
    assert hash(value) == hash(twin)
    if type(value) is not For:  # a loop hashes its printed text, as a Seq does
        assert hash(value) == hash(values)
    assert pickle.loads(pickle.dumps(value)) == value and copy.deepcopy(value) == value
    assert copy.copy(value) == value and type(copy.deepcopy(value)) is type(value)
    assert dataclasses.replace(value) == value
    if change is not None:
        name, new = change
        changed = dataclasses.replace(value, **{name: new})
        assert getattr(changed, name) == new and changed != value and getattr(value, name) != new
    assert dataclasses.astuple(value) == dataclasses.astuple(twin)
    for field in dataclasses.fields(value):
        with pytest.raises(FrozenInstanceError, match="cannot assign to field"):
            setattr(value, field.name, getattr(value, field.name))
        with pytest.raises(FrozenInstanceError, match="cannot delete field"):
            delattr(value, field.name)
    with pytest.raises(FrozenInstanceError):
        value.other = 1
    assert value == twin


def test_equality_holds_only_within_one_class():
    assert Inc("x") != Dec("x") and Push("x") != Pop("x")
    assert Pass() != Fail(None, None, "") and Pass() != (1, False)
    assert Final(State()) != Aborted(State())
    assert Inc("x").__eq__(("x",)) is NotImplemented


@pytest.mark.parametrize("cls", [CheckCounts, FuzzReport])
def test_mutable_records_change_and_are_unhashable(cls):
    value = CheckCounts() if cls is CheckCounts else FuzzReport(1, 2)
    twin = copy.deepcopy(value)
    assert value == twin
    with pytest.raises(TypeError, match="unhashable"):
        hash(value)
    name = dataclasses.fields(value)[0].name
    setattr(value, name, 7)
    assert getattr(value, name) == 7 and value != twin
    value.extra = "x"  # not slotted, as the generated class was not
    del value.extra
    assert pickle.loads(pickle.dumps(value)) == value


def test_mutable_records_print_and_convert_as_generated():
    counts = CheckCounts(1, 2, 3)
    assert repr(counts) == "CheckCounts(passed=1, vacuous=2, failed=3)"
    assert dataclasses.asdict(counts) == {"passed": 1, "vacuous": 2, "failed": 3}
    assert CheckCounts(failed=3) == CheckCounts(0, 0, 3)
    report = FuzzReport(1, 2)
    empty = {"passed": 0, "vacuous": 0, "failed": 0}
    assert repr(report) == (
        "FuzzReport(seed=1, cases=2, strong=CheckCounts(passed=0, vacuous=0, failed=0), "
        "weak=CheckCounts(passed=0, vacuous=0, failed=0), agreement=CheckCounts(passed=0, vacuous=0, failed=0), "
        "if_direction_witnesses=0, only_if_witnesses=0, failures=[], only_if_samples=[], seeded_only_if_reported=False)"
    )
    assert dataclasses.asdict(report) == {
        "seed": 1,
        "cases": 2,
        "strong": empty,
        "weak": empty,
        "agreement": empty,
        "if_direction_witnesses": 0,
        "only_if_witnesses": 0,
        "failures": [],
        "only_if_samples": [],
        "seeded_only_if_reported": False,
    }


def test_default_lists_and_counts_are_not_shared():
    first, second = FuzzReport(1, 2), FuzzReport(1, 2)
    first.failures.append(FuzzWitness("strong", "INC x", "", ""))
    first.strong.failed += 1
    assert second.failures == [] and second.only_if_samples == [] and second.strong == CheckCounts()
    assert first.failures is not second.failures and first.only_if_samples is not second.only_if_samples
    assert len({id(first.strong), id(first.weak), id(first.agreement), id(second.strong)}) == 4
    copied = copy.deepcopy(first)
    assert copied == first and copied.failures is not first.failures and copied.strong is not first.strong


@pytest.mark.parametrize(
    "call",
    [
        lambda: Inc(),
        lambda: Inc("x", "y"),
        lambda: Inc(foo="x"),
        lambda: Inc("x", var="y"),
        lambda: Skip(1),
        lambda: For("n"),
        lambda: Fail(None, None),
        lambda: FuzzReport(1),
        lambda: FuzzReport(1, 2, seeds=3),
        lambda: GenConfig(1, 2, 3, (0, 1), 4, 5, 6),
        lambda: AbortRecord("POP x", "x", "empty-stack", Cell(0)),
        lambda: TraceStep(0, "INC x", "x"),
    ],
)
def test_missing_or_unknown_arguments_raise_type_error(call):
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (lambda: GenConfig(max_depth=0), "max_depth and max_vars must be positive"),
        (lambda: GenConfig(max_vars=0), "max_depth and max_vars must be positive"),
        (lambda: GenConfig(value_range=(3, 1)), r"empty value range: \(3, 1\)"),
        (lambda: GenConfig(max_stack_len=-1), "max_stack_len and max_counter must be non-negative"),
        (lambda: GenConfig(max_counter=-1), "max_stack_len and max_counter must be non-negative"),
        (lambda: Inc("1x"), "invalid variable name: '1x'"),
        (lambda: Pop(var="FOR"), "keyword 'FOR' cannot be a variable name"),
        (lambda: Push(3), "invalid variable name: 3"),
        (lambda: For("1", Skip()), "invalid variable name: '1'"),
        (lambda: For(leader="SKIP", body=Skip()), "keyword 'SKIP' cannot be a variable name"),
        (lambda: dataclasses.replace(For("n", Skip()), leader="2"), "invalid variable name: '2'"),
    ],
)
def test_checked_fields_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_fields_bind_by_position_by_name_and_by_default():
    assert GenConfig(3, max_counter=1) == GenConfig(seed=3, max_counter=1)
    assert GenConfig(3, max_counter=1).max_counter == 1 and GenConfig(3).max_depth == 6
    assert TraceStep(0, "INC x", "x", None).abort is None
    assert Fail(details="d", program=None, initial=None) == Fail(None, None, "d")
    assert For(body=Skip(), leader="n") == For("n", Skip())


def _raised(call):
    """The exception `call` raises."""
    with pytest.raises(Exception) as info:
        call()
    return info.value


def _round_trips(value):
    """`value` through pickle, `copy.copy` and `copy.deepcopy`."""
    return pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)


@pytest.mark.parametrize(
    ("call", "fields"),
    [
        (lambda: parse("INC"), ("line", "column", "message", "expected")),
        (lambda: compile_program(parse("FOR n { INC n; FOR m { DEC m } }")), ("term", "violations")),
        (lambda: eval_a(parse("INC x"), State({"x": Cell(0, (), 1)})), ("variable",)),
    ],
    ids=["ParseError", "IllFormedProgramError", "NonzeroCounterError"],
)
def test_raised_errors_pickle_and_copy(call, fields):
    error = _raised(call)
    for twin in _round_trips(error):
        assert type(twin) is type(error) and str(twin) == str(error)
        assert [getattr(twin, name) for name in fields] == [getattr(error, name) for name in fields]


def recursive_repr(term):
    """The repr that `_Record`'s method gives a term, each field's repr
    made by recursion."""
    if type(term) is Seq:
        return f"Seq(parts=({', '.join(map(recursive_repr, term.parts))}))"
    if type(term) is For:
        return f"For(leader={term.leader!r}, body={recursive_repr(term.body)})"
    return repr(term)


def test_term_reprs_are_unchanged():
    for program, _, _ in fuzz_corpus(GenConfig(seed=52), 500):
        assert repr(program) == recursive_repr(program)


def test_a_deep_nest_and_its_refusal_print():
    # the repr of a nest past the recursion limit, and so of the error that
    # refuses one, whose `args` hold the term
    nest = parse("FOR a { " * 3_000 + "INC x" + " }" * 3_000)
    text = "For(leader='a', body=" * 3_000 + "Inc(var='x')" + ")" * 3_000
    assert repr(nest) == text
    refusal = _raised(lambda: compile_program(parse("FOR n { " * 3_000 + "INC x" + " }" * 3_000)))
    assert repr(refusal) == "IllFormedProgramError(" + text.replace("'a'", "'n'") + ", ('n',))"


def test_a_deep_nest_pickles_and_copies():
    # `parse`, `==` and `hash` take it without recursing, and so must these
    nest = parse("FOR n { " * 3_000 + "INC x; PUSH y" + " }" * 3_000)
    for twin in _round_trips(nest):
        assert type(twin) is For and twin == nest and hash(twin) == hash(nest)
