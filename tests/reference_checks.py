"""The four reversibility checks written on whole States, as `run_fuzz`
ran them before its checks moved to slot lists: each run is a
`Program.run` that returns a new State, and the checks compare States.
Kept as an oracle: the slot-list checks must give the same verdicts, with
the same details text, on every case.
"""

from scorelang import Aborted, Fail, FailureCorrespondence, Pass, zero_counters
from scorelang.harness import _first_diff


def strong_reversibility(program, initial):
    for order, label in (("+-", "P;-P"), ("-+", "-P;P")):
        after = program.run(initial, "r", order).state
        if after != initial:
            return Fail(program.term, initial, f"{label} changed the state: {_first_diff(initial, after)}")
    return Pass()


def weak_reversibility_a(program, initial, outcome):
    if isinstance(outcome, Aborted):
        return Pass(vacuous=True)
    back = program.run(outcome.state, "a", "-")
    if isinstance(back, Aborted):
        return Fail(program.term, initial, f"inverse run aborted: {back.record.reason} on {back.record.variable}")
    if back.state != initial:
        return Fail(program.term, initial, f"inverse run missed the start: {_first_diff(initial, back.state)}")
    return Pass()


def agreement_a_r(program, initial, outcome, reversible):
    if isinstance(outcome, Aborted):
        return Pass(vacuous=True)
    if reversible != outcome.state:
        return Fail(program.term, initial, f"semantics disagree: {_first_diff(outcome.state, reversible)}")
    broken = [n for n in sorted(reversible.variables()) if reversible.get(n).broken]
    if broken:
        return Fail(program.term, initial, f"reversible run left broken variables: {broken}")
    return Pass()


def failure_correspondence(outcome, final):
    aborted = isinstance(outcome, Aborted)
    broken = any(final.get(n).broken for n in final.variables())
    if aborted and not broken:
        witness = "only-if"
    elif broken and not aborted:
        witness = "if"
    else:
        witness = None
    return FailureCorrespondence(aborted, broken, witness)


def check_case(program, full_state):
    """The counter-free state and the four results `run_fuzz` counts for
    one generated pair: strong reversibility on `full_state`, the other
    three on it with counters zeroed."""
    flat_state = zero_counters(full_state)
    outcome = program.run(flat_state, "a")
    reversible = program.run(flat_state, "r").state
    return (
        flat_state,
        strong_reversibility(program, full_state),
        weak_reversibility_a(program, flat_state, outcome),
        agreement_a_r(program, flat_state, outcome, reversible),
        failure_correspondence(outcome, reversible),
    )
