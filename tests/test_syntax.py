import dataclasses
import time

import pytest
from hypothesis import given

from scorelang import (
    Dec,
    For,
    Inc,
    Pop,
    Push,
    Seq,
    Skip,
    Violation,
    check_well_formed,
    invert,
    is_identifier,
    parse,
    pretty,
    variables_of,
)
from scorelang.syntax import _atom, _loop
from term_strategies import raw_terms, wf_terms


class TestSeq:
    A, B, C = Inc("x"), Dec("y"), For("z", Pop("x"))

    def test_one_tuple_field_named_parts(self):
        term = Seq(self.A, self.B)
        assert tuple(f.name for f in dataclasses.fields(term)) == ("parts",)
        assert type(term.parts) is tuple and term.parts == (self.A, self.B)

    def test_nested_sequences_flatten(self):
        a, b, c = self.A, self.B, self.C
        shapes = [Seq(a, Seq(b, c)), Seq(Seq(a, b), c), Seq(a, b, c), Seq(Seq(a, b, c))]
        assert all(shape == Seq(a, b, c) and hash(shape) == hash(Seq(a, b, c)) for shape in shapes)
        assert Seq(Seq(a, b), Seq(c, a)).parts == (a, b, c, a)

    @pytest.mark.parametrize("parts", [(), (Inc("x"),)])
    def test_needs_two_parts(self, parts):
        with pytest.raises(ValueError):
            Seq(*parts)

    def test_repr(self):
        assert repr(Seq(self.A, self.B)) == "Seq(parts=(Inc(var='x'), Dec(var='y')))"

    def test_parts_by_name(self):
        # as the repr and `dataclasses.replace` pass them
        a, b, c = self.A, self.B, self.C
        term = Seq(a, b)
        assert Seq(parts=term.parts) == term and eval(repr(term)) == term
        assert dataclasses.replace(term) == term
        assert dataclasses.replace(term, parts=(c, Seq(b, a))).parts == (c, b, a)
        with pytest.raises(ValueError):
            Seq(parts=(a,))


class TestInvert:
    def test_push_becomes_pop(self):
        assert invert(Push("x")) == Pop("x")
        assert invert(Pop("x")) == Push("x")

    def test_inc_dec_swap(self):
        assert invert(Inc("x")) == Dec("x")
        assert invert(Dec("x")) == Inc("x")

    def test_seq_reverses_and_inverts(self):
        assert invert(Seq(Inc("x"), Pop("y"))) == Seq(Push("y"), Dec("x"))

    def test_skip_fixed_point(self):
        assert invert(Skip()) == Skip()

    def test_for_inverts_body_in_place(self):
        term = For("x", Seq(Inc("y"), Pop("z")))
        assert invert(term) == For("x", Seq(Push("z"), Dec("y")))

    def test_worked_loop_example(self):
        term = parse("INC x; FOR x {DEC y}")
        assert pretty(invert(term)) == "FOR x { INC y }; DEC x"

    @given(raw_terms())
    def test_self_dual(self, term):
        assert invert(invert(term)) == term

    @given(raw_terms())
    def test_preserves_variables(self, term):
        assert variables_of(invert(term)) == variables_of(term)

    @given(raw_terms())
    def test_preserves_well_formedness(self, term):
        if not check_well_formed(term):
            assert not check_well_formed(invert(term))

    def test_total_on_ill_formed(self):
        bad = For("x", Inc("x"))
        assert invert(bad) == For("x", Dec("x"))


class TestWellFormed:
    def test_leader_inc_in_body(self):
        assert check_well_formed(For("x", Inc("x"))) == [Violation("x", ("body",))]

    def test_distinct_names_ok(self):
        assert check_well_formed(For("x", Inc("y"))) == []

    def test_leader_push_violates_strict(self):
        assert check_well_formed(For("x", Push("x"))) == [Violation("x", ("body",))]

    def test_leader_push_ok_relaxed(self):
        assert check_well_formed(For("x", Push("x")), relaxed=True) == []

    def test_leader_dec_violates_relaxed_too(self):
        assert check_well_formed(For("x", Dec("x")), relaxed=True) == [Violation("x", ("body",))]

    def test_nested_loop_sees_outer_leader(self):
        term = For("x", For("y", Dec("x")))
        assert check_well_formed(term) == [Violation("x", ("body", "body"))]

    def test_nested_for_leader_occurrence(self):
        term = For("x", For("x", Inc("y")))
        assert check_well_formed(term) == [Violation("x", ("body",))]
        assert check_well_formed(term, relaxed=True) == []

    def test_paths_through_seq(self):
        term = For("x", Seq(Inc("y"), Pop("x")))
        assert check_well_formed(term) == [Violation("x", ("body", "second"))]

    def test_multiple_violations(self):
        term = For("x", Seq(Inc("x"), Dec("x")))
        assert check_well_formed(term) == [
            Violation("x", ("body", "first")),
            Violation("x", ("body", "second")),
        ]

    def test_paths_name_parts_as_right_nested_pairs(self):
        # part k of n: "second" k times, then "first" unless it is the last
        term = For("x", Seq(Seq(Inc("x"), Dec("y")), Pop("x"), Inc("x")))
        assert check_well_formed(term) == [
            Violation("x", ("body", "first")),
            Violation("x", ("body", "second", "second", "first")),
            Violation("x", ("body", "second", "second", "second")),
        ]

    @given(wf_terms())
    def test_generated_terms_are_clean(self, term):
        assert check_well_formed(term) == []


class TestVariablesOf:
    def test_skip_has_none(self):
        assert variables_of(Skip()) == frozenset()

    def test_collects_targets_and_leaders(self):
        term = Seq(Inc("x"), For("y", Pop("z")))
        assert variables_of(term) == {"x", "y", "z"}

    def test_deduplicates(self):
        assert variables_of(For("x", Seq(Inc("y"), Inc("y")))) == {"x", "y"}

    def test_many_leader_writes_take_linear_time(self):
        # each INC n is a violation of the proviso, whose path grows with
        # its index, so a walk that built them all took seconds here
        term = For("n", Seq(*[Inc("n")] * 20_000, Inc("x")))
        started = time.perf_counter()
        assert variables_of(term) == {"n", "x"}
        assert time.perf_counter() - started < 1.0


class TestPretty:
    def test_sequence(self):
        assert pretty(Seq(Inc("x"), Dec("y"))) == "INC x; DEC y"

    def test_loop(self):
        assert pretty(For("x", Pop("s"))) == "FOR x { POP s }"

    def test_flattens_nested_sequences(self):
        term = Seq(Seq(Inc("x"), Dec("y")), Push("z"))
        assert pretty(term) == "INC x; DEC y; PUSH z"


class TestIdentifiers:
    def test_keywords_rejected(self):
        with pytest.raises(ValueError):
            Inc("FOR")

    def test_bad_lexeme_rejected(self):
        with pytest.raises(ValueError):
            Pop("9lives")
        with pytest.raises(ValueError):
            For("", Skip())

    def test_is_identifier(self):
        assert is_identifier("x_1")
        assert is_identifier("_tmp")
        assert not is_identifier("SKIP")
        assert not is_identifier("a-b")
        assert not is_identifier("")
        assert not is_identifier(5)


class TestTrustedBuilders:
    """`_atom` and `_loop` build the terms the parser, `invert` and the
    fuzz generator make, past the constructors' checks.  Under Python 3.10 a
    slot that a subclass adds would shadow the one they set, and a parsed
    atom would have no ``var``."""

    @pytest.mark.parametrize("cls", [Inc, Dec, Push, Pop])
    def test_atom_is_the_checked_atom(self, cls):
        built, checked = _atom(cls, "x_1"), cls("x_1")
        assert type(built) is cls and built.var == "x_1"
        assert built == checked and hash(built) == hash(checked)
        assert repr(built) == repr(checked) and pretty(built) == pretty(checked)
        assert built != _atom(cls, "y") and not hasattr(built, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            built.var = "y"

    def test_loop_is_the_checked_loop(self):
        built, checked = _loop("n", _atom(Push, "x")), For("n", Push("x"))
        assert built == checked and hash(built) == hash(checked)
        assert (built.leader, built.body) == ("n", Push("x"))
        assert repr(built) == repr(checked) and pretty(built) == pretty(checked)

    def test_parsed_atoms_read_their_names(self):
        term = parse("INC x; DEC y; FOR n { PUSH z; POP z }")
        assert [part.var for part in term.parts[:2]] == ["x", "y"]
        assert variables_of(term) == {"x", "y", "n", "z"}
        assert invert(term) == Seq(For("n", Seq(Push("z"), Pop("z"))), Inc("y"), Dec("x"))
