"""Inclusion checks against their set-level definitions, witnesses included.

Each check states that one event map lies inside (or equals) another at
every event, and reports a failure as the first failing event in mask
order with its smallest failing state. The references decide the same
properties state by state on `Event` sets, from the definitions alone.
"""

import itertools
import random

from beliefcheck.audit import ModelSource, _sampled_game, sample_monotone_operators
from beliefcheck.core import (
    AxiomReport,
    BeliefOperator,
    CheckReport,
    PossibilityCorrespondence,
    StateSpace,
    operator_leq,
    operators_equal,
)
from beliefcheck.games import (
    correct_belief_in_own_rationality,
    rationality_event,
    self_evident_rationality_chain,
    strategy_certainty,
)
from beliefcheck.informativeness import COMPATIBILITY, compatible_with_informativeness
from beliefcheck.qualitative import compose_operators, negative_access, positive_access


def first_failure(space, events, fails):
    """(event, state) for the first event, then its first state in order,
    where `fails(event, state)` holds; None when nothing fails."""
    for event in events:
        for state in space.states:
            if fails(event, state):
                return (event, state)
    return None


def check(name, witness, kind=CheckReport):
    return kind(name, witness is None, witness)


def reference_leq(left, right):
    space = left.space
    return first_failure(
        space, space.events(), lambda e, s: s in left(e) and s not in right(e)
    )


def reference_equal(left, right):
    space = left.space
    return first_failure(
        space, space.events(), lambda e, s: (s in left(e)) != (s in right(e))
    )


def reference_positive(observer, subject):
    # B_subject(E) inside B_observer(B_subject(E))
    space = subject.space
    return first_failure(
        space,
        space.events(),
        lambda e, s: s in subject(e) and s not in observer(subject(e)),
    )


def reference_negative(observer, subject):
    # not B_subject(E) inside B_observer(not B_subject(E))
    space = subject.space
    return first_failure(
        space,
        space.events(),
        lambda e, s: s not in subject(e) and s not in observer(~subject(e)),
    )


def reference_compatible(op):
    space = op.space
    events = list(space.events())

    def dominates(more, less):
        return all(more in op(f) for f in events if less in op(f))

    return first_failure(
        space,
        events,
        lambda e, s: s in op(e)
        and not any(t in e for t in space.states if dominates(t, s)),
    )


def assert_operator_checks(observer, subject):
    """Every operator-level inclusion check on one ordered pair; returns
    the verdicts so callers can see that both outcomes occurred."""
    leq = reference_leq(subject, observer)
    assert operator_leq(subject, observer) == check("pointwise-containment", leq)
    equal = reference_equal(observer, subject)
    assert operators_equal(observer, subject) == check("operators-equal", equal)
    name = "B_subject <= B_observer B_subject"
    positive = check(name, reference_positive(observer, subject))
    assert positive_access(observer, subject) == positive
    assert operator_leq(subject, compose_operators(observer, subject), name) == positive
    negative = check(
        "notB_subject <= B_observer notB_subject",
        reference_negative(observer, subject),
    )
    assert negative_access(observer, subject) == negative
    compatible = check(COMPATIBILITY, reference_compatible(subject), AxiomReport)
    assert compatible_with_informativeness(subject) == compatible
    return leq is None, equal is None, positive.holds, negative.holds, compatible.holds


def assert_both_outcomes(verdicts):
    for column in zip(*verdicts):
        assert any(column) and not all(column)


class TestOperatorWitnesses:
    def test_every_two_state_kripke_pair(self):
        space = StateSpace(["ω1", "ω2"])
        ops = [
            BeliefOperator.from_correspondence(PossibilityCorrespondence(space, p))
            for p in itertools.product(range(space.size), repeat=space.n)
        ]
        verdicts = [
            assert_operator_checks(obs, sub)
            for obs, sub in itertools.product(ops, repeat=2)
        ]
        assert len(verdicts) == 256
        assert_both_outcomes(verdicts)

    def test_seeded_three_state_monotone_pairs(self):
        ops = list(sample_monotone_operators(3, seed=20215, count=600))
        # each player against itself too: operators_equal rarely holds otherwise
        pairs = list(zip(ops[::2], ops[1::2])) + [(op, op) for op in ops[:50]]
        verdicts = [assert_operator_checks(obs, sub) for obs, sub in pairs]
        assert_both_outcomes(verdicts)


def assert_game_checks(gm):
    space = gm.space
    verdicts = []
    for player in gm.game.players:
        op = gm.belief.operator(player)
        expected = []
        for action in gm.game.actions_of(player):
            played = space.event(
                s for s in space.states if gm.strategy(player, s) == action
            )
            for name, target in (
                (f"B([σ_{player} = {action}]) = [σ_{player} = {action}]", played),
                (f"B(¬[σ_{player} = {action}]) = ¬[σ_{player} = {action}]", ~played),
            ):
                expected.append(
                    check(
                        name,
                        first_failure(
                            space,
                            [target],
                            lambda e, s: (s in op(e)) != (s in e),
                        ),
                    )
                )
        expected.append(
            check(
                "B(Ω) = Ω",
                first_failure(space, [space.full], lambda e, s: s not in op(e)),
            )
        )
        identities = strategy_certainty(gm, player).identities
        assert identities == tuple(expected)

        rat = rationality_event(gm, player)
        correct = first_failure(
            space, [rat], lambda e, s: s in op(e) and s not in e
        )
        assert correct_belief_in_own_rationality(gm, player) == check(
            f"B_{player}(RAT_{player}) <= RAT_{player}", correct
        )
        evident = first_failure(
            space, [rat], lambda e, s: s in e and s not in op(e)
        )
        chain = self_evident_rationality_chain(gm, player)
        assert chain.conclusion == (
            f"RAT_{player} <= B_{player}(RAT_{player})",
            evident is None,
        )
        assert chain.witness == evident
        verdicts.append(
            (all(r.holds for r in identities), correct is None, evident is None)
        )
    return verdicts


class TestGameWitnesses:
    def test_seeded_game_models(self):
        verdicts = []
        for n_states, n_actions, seed in ((3, 2, 31), (4, 3, 37)):
            src = ModelSource(
                mode="sampled-monotone", n_states=n_states, n_players=2,
                n_actions=n_actions, seed=seed, count=200,
            )
            rng = random.Random(src.seed)
            for _ in range(src.count):
                verdicts += assert_game_checks(_sampled_game(rng, src))
        assert_both_outcomes(verdicts)
