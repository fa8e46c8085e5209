"""Ordering states by how much is believed at them.

One state is at least as informative as another when its type believes
everything the other's does. Beliefs are compatible with that order when
every believed event can be corroborated by some state at least as
informative as the believer's own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .core import (
    Axiom,
    AxiomReport,
    BeliefModel,
    BeliefOperator,
    CheckReport,
    Event,
    ImplicationReport,
)
from .core import _first_failure
from .qualitative import _columns, _upward_masks
from .qualitative import (
    FamilyKind,
    QualitativeTypeMapping,
    certain_of_type_mapping,
    type_mapping_of,
)

COMPATIBILITY = "CompatibleWithInformativeness"


@dataclass(frozen=True)
class InformativenessRelation:
    """The pointwise dominance preorder between states' types."""

    mapping: QualitativeTypeMapping

    @classmethod
    def of(cls, op: BeliefOperator) -> "InformativenessRelation":
        return cls(type_mapping_of(op))

    def at_least_as_informative(self, more: str, less: str) -> bool:
        return self.mapping.type_at(more).dominates(self.mapping.type_at(less))

    def check_preorder(self) -> CheckReport:
        """Reflexivity and transitivity; pointwise dominance grants both."""
        states = self.mapping.space.states
        for a in states:
            if not self.at_least_as_informative(a, a):
                return CheckReport("informativeness-preorder", False, (a,))
        for a in states:
            for b in states:
                if not self.at_least_as_informative(a, b):
                    continue
                for c in states:
                    if self.at_least_as_informative(
                        b, c
                    ) and not self.at_least_as_informative(a, c):
                        return CheckReport(
                            "informativeness-preorder", False, (a, b, c)
                        )
        return CheckReport("informativeness-preorder", True)


def upward_set(mapping: QualitativeTypeMapping, state: str) -> Event:
    """States whose types believe at least what this state's type does."""
    upward = _upward_masks([t.believed for t in mapping.types])
    return Event(mapping.space, upward[mapping.space.index(state)])


def uncorroborated_bits(table: Sequence[int]) -> Iterator[int]:
    """Per event mask, in order, the states that believe the event while
    no state at least as informative as them lies in it; all zero exactly
    when the table is compatible with informativeness."""
    upward = _upward_masks(_columns(table, len(table).bit_length() - 1))
    for e, believers in enumerate(table):
        yield sum(
            1 << i for i, up in enumerate(upward) if believers >> i & 1 and not up & e
        )


def compatible_with_informativeness(op: BeliefOperator) -> AxiomReport:
    """Every belief is corroborated at some state at least as informative.

    Fails exactly on pairs (E, ω) with ω believing E while no state in
    the believer's upward set lies in E; the first such pair in event
    order, then state order, is the witness.
    """
    witness = _first_failure(op.space, uncorroborated_bits(op.table()))
    return AxiomReport(COMPATIBILITY, witness is None, witness)


def check_certainty_compatibility(model: BeliefModel, player: str) -> ImplicationReport:
    """Certainty of one's own types through up-sets forces compatibility.

    Premises: up-sets are events (automatic with a power-set algebra,
    recorded for completeness), Consistency, Finite Conjunction, and the
    player's certainty of their own type mapping w.r.t. the upward
    family. Conclusion: compatibility with informativeness.
    """
    op = model.operator(player)
    consistency = op.check_axiom(Axiom.CONSISTENCY)
    conjunction = op.check_axiom(Axiom.FINITE_CONJUNCTION)
    certainty = certain_of_type_mapping(model, player, player, FamilyKind.UPWARD)
    conclusion = compatible_with_informativeness(op)
    return ImplicationReport(
        name="own-type-certainty-implies-compatibility",
        premises=(
            ("upward sets are events", True),
            ("Consistency", consistency.holds),
            ("FiniteConjunction", conjunction.holds),
            ("certain of own types w.r.t. upward family", certainty.holds),
        ),
        conclusion=(COMPATIBILITY, conclusion.holds),
        witness=conclusion.witness,
    )
