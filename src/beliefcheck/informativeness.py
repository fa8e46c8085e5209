"""Ordering states by how much is believed at them.

One state is at least as informative as another when its type believes
everything the other's does. Beliefs are compatible with that order when
every believed event can be corroborated by some state at least as
informative as the believer's own.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Axiom,
    AxiomReport,
    BeliefModel,
    BeliefOperator,
    CheckReport,
    Event,
    ImplicationReport,
)
from .core import _lowest_state
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
    base = mapping.type_at(state)
    bits = 0
    for i, t in enumerate(mapping.types):
        if t.dominates(base):
            bits |= 1 << i
    return Event(mapping.space, bits)


def _upward_bits(mapping: QualitativeTypeMapping) -> list[int]:
    return [upward_set(mapping, s).bits for s in mapping.space.states]


def compatible_with_informativeness(op: BeliefOperator) -> AxiomReport:
    """Every belief is corroborated at some state at least as informative.

    Fails exactly on pairs (E, ω) with ω believing E while no state in
    the believer's upward set lies in E; the first such pair in event
    order, then state order, is the witness.
    """
    space = op.space
    mapping = type_mapping_of(op)
    upward = _upward_bits(mapping)
    table = op.table()
    for e in range(space.size):
        believers = table[e]
        bad = 0
        for i in range(space.n):
            if believers >> i & 1 and upward[i] & e == 0:
                bad |= 1 << i
        if bad:
            return AxiomReport(
                COMPATIBILITY, False, (Event(space, e), _lowest_state(space, bad))
            )
    return AxiomReport(COMPATIBILITY, True)


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
