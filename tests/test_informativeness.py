"""Informativeness order, compatibility, and the certainty implication."""

import itertools

from beliefcheck.core import (
    Axiom,
    BeliefModel,
    BeliefOperator,
    ImplicationStatus,
    PossibilityCorrespondence,
    StateSpace,
)
from beliefcheck.informativeness import (
    InformativenessRelation,
    check_certainty_compatibility,
    compatible_with_informativeness,
    uncorroborated_bits,
    upward_set,
)
from beliefcheck.qualitative import type_mapping_of


def all_kripke_operators(space):
    for possible in itertools.product(range(space.size), repeat=space.n):
        yield BeliefOperator.from_correspondence(
            PossibilityCorrespondence(space, possible)
        )


class TestUpwardSets:
    def test_identity_upward_sets_are_singletons(self, space3, identity3):
        mapping = type_mapping_of(identity3)
        for state in space3.states:
            assert set(upward_set(mapping, state).states()) == {state}

    def test_blindspot_upward_sets(self, space3, blindspot):
        mapping = type_mapping_of(blindspot)
        assert set(upward_set(mapping, "ω1").states()) == {"ω1"}
        assert set(upward_set(mapping, "ω2").states()) == {"ω2"}
        # nothing but the whole space is believed at ω3, so every state
        # is at least as informative
        assert upward_set(mapping, "ω3") == space3.full

    def test_reflexive_membership_everywhere(self, space3, blindspot, identity3):
        for op in (blindspot, identity3):
            mapping = type_mapping_of(op)
            for state in space3.states:
                assert state in upward_set(mapping, state)

    def test_kripke_upward_sets_reverse_possibility_inclusion(self):
        space = StateSpace(["ω1", "ω2", "ω3"])
        for op in all_kripke_operators(space):
            mapping = type_mapping_of(op)
            possible = op.derive_correspondence()
            for state in space.states:
                expected = {
                    other
                    for other in space.states
                    if possible.at(other) <= possible.at(state)
                }
                assert set(upward_set(mapping, state).states()) == expected


class TestRelation:
    def test_blindspot_order(self, blindspot):
        rel = InformativenessRelation.of(blindspot)
        assert rel.at_least_as_informative("ω1", "ω3")
        assert rel.at_least_as_informative("ω2", "ω3")
        assert not rel.at_least_as_informative("ω3", "ω1")
        assert not rel.at_least_as_informative("ω1", "ω2")

    def test_preorder_on_varied_operators(self, space3, blindspot, identity3):
        closure = BeliefOperator.monotone_closure(
            space3, {space3.event(["ω1"]): space3.event(["ω2"])}
        )
        for op in (blindspot, identity3, closure):
            assert InformativenessRelation.of(op).check_preorder().holds


class TestCompatibility:
    def test_identity_compatible(self, identity3):
        assert compatible_with_informativeness(identity3).holds

    def test_blindspot_compatible(self, blindspot):
        assert compatible_with_informativeness(blindspot).holds

    def test_believe_everything_incompatible(self, space3):
        op = BeliefOperator.from_table(space3, [space3.size - 1] * space3.size)
        report = compatible_with_informativeness(op)
        assert not report.holds
        assert report.witness == (space3.empty, "ω1")

    def test_compatible_forces_empty_belief_in_nothing(self):
        space = StateSpace(["ω1", "ω2", "ω3"])
        seen_compatible = 0
        for op in all_kripke_operators(space):
            if compatible_with_informativeness(op).holds:
                seen_compatible += 1
                assert op.apply(space.empty).bits == 0
        assert seen_compatible > 0

    def test_compatible_conjunctive_operators_are_consistent(self):
        space = StateSpace(["ω1", "ω2", "ω3"])
        for op in all_kripke_operators(space):
            if (
                compatible_with_informativeness(op).holds
                and op.check_axiom(Axiom.FINITE_CONJUNCTION).holds
            ):
                assert op.check_axiom(Axiom.CONSISTENCY).holds

    def test_consistent_introspective_kripke_operators_compatible(self):
        space = StateSpace(["ω1", "ω2", "ω3"])
        for op in all_kripke_operators(space):
            if (
                op.check_axiom(Axiom.CONSISTENCY).holds
                and op.check_axiom(Axiom.POSITIVE_INTROSPECTION).holds
            ):
                assert compatible_with_informativeness(op).holds


class TestCertaintyImplication:
    def test_identity_confirmed(self, space3, identity3):
        model = BeliefModel(space3, {"1": identity3})
        report = check_certainty_compatibility(model, "1")
        assert report.status is ImplicationStatus.CONFIRMED
        assert all(held for _, held in report.premises)

    def test_blindspot_confirmed(self, blindspot_model):
        report = check_certainty_compatibility(blindspot_model, "1")
        assert report.status is ImplicationStatus.CONFIRMED

    def test_inconsistent_model_is_vacuous(self, space3):
        op = BeliefOperator.from_table(space3, [space3.size - 1] * space3.size)
        model = BeliefModel(space3, {"1": op})
        report = check_certainty_compatibility(model, "1")
        assert report.status is ImplicationStatus.VACUOUS
        assert dict(report.premises)["Consistency"] is False

    def test_never_violated_on_enumerated_models(self):
        for states in (["ω1"], ["ω1", "ω2"], ["ω1", "ω2", "ω3"]):
            space = StateSpace(states)
            for op in all_kripke_operators(space):
                model = BeliefModel(space, {"1": op})
                report = check_certainty_compatibility(model, "1")
                assert report.status is not ImplicationStatus.VIOLATED


def reference_compatibility(op):
    """The first uncorroborated belief, in event order then state order,
    decided on the type mapping's dominance order."""
    mapping = type_mapping_of(op)
    for event in op.space.events():
        for state in op.space.states:
            if op.believes(state, event) and not upward_set(mapping, state) & event:
                return event, state
    return None


class TestTableCompatibility:
    def test_verdict_and_witness_match_the_type_mapping(self, space3, monotone_operators2):
        # every two-state monotone operator and every three-state Kripke one
        verdicts = []
        for op in [*monotone_operators2, *all_kripke_operators(space3)]:
            witness = reference_compatibility(op)
            report = compatible_with_informativeness(op)
            assert (report.holds, report.witness) == (witness is None, witness)
            masks = list(uncorroborated_bits(op.table()))
            assert len(masks) == op.space.size
            assert any(masks) == (witness is not None)
            verdicts.append(report.holds)
        assert len(verdicts) == 36 + 512
        assert 0 < sum(verdicts) < len(verdicts)
