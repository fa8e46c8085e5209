"""Qualitative types: per-state binary belief verdicts and their certainty.

A qualitative type answers, for every event, whether it is believed.
Mapping each state to its type turns a belief operator into a signal
whose values players can be certain of; which observation family they
read it through decides exactly which introspection axioms that
certainty amounts to.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

from .core import (
    TABLE_LIMIT,
    Axiom,
    AxiomReport,
    BeliefModel,
    BeliefOperator,
    CheckReport,
    Event,
    StateSpace,
    operators_equal,
)
from .core import _AXIOM_CHECKS, _coerce, _first_failure
from .signals import CertaintyReport, Signal, certain_of, commonly_certain_of


@dataclass(frozen=True)
class QualitativeType:
    """Binary verdict for every event: bit e of `believed` is the answer for
    the event whose mask is e. No axiom is baked in at construction."""

    space: StateSpace
    believed: int

    def __post_init__(self) -> None:
        if self.space.n > TABLE_LIMIT:
            raise ValueError(f"types need at most {TABLE_LIMIT} states")
        if not 0 <= self.believed < (1 << self.space.size):
            raise ValueError("believed mask out of range for this space")

    @classmethod
    def of(cls, space: StateSpace, events: Iterable[Event]) -> "QualitativeType":
        mask = 0
        for event in events:
            if event.space != space:
                raise ValueError("event from a different state space")
            mask |= 1 << event.bits
        return cls(space, mask)

    def believes_bits(self, bits: int) -> bool:
        return bool(self.believed >> bits & 1)

    def believes(self, event: Event) -> bool:
        if event.space != self.space:
            raise ValueError("event from a different state space")
        return self.believes_bits(event.bits)

    def believed_events(self) -> Iterator[Event]:
        for e in range(self.space.size):
            if self.believed >> e & 1:
                yield Event(self.space, e)

    def dominates(self, other: "QualitativeType") -> bool:
        """Pointwise at least: believes everything the other believes."""
        if other.space != self.space:
            raise ValueError("types on different state spaces")
        return other.believed & ~self.believed == 0

    def __repr__(self) -> str:
        shown = ", ".join(str(e) for e in self.believed_events())
        return f"QualitativeType([{shown}])"


@dataclass(frozen=True)
class QualitativeTypeMapping:
    """Total assignment of a qualitative type to every state."""

    space: StateSpace
    types: tuple[QualitativeType, ...]
    owner: str | None = None

    def __post_init__(self) -> None:
        if len(self.types) != self.space.n:
            raise ValueError("mapping must assign a type to every state")
        for t in self.types:
            if t.space != self.space:
                raise ValueError("type from a different state space")

    def type_at(self, state: str) -> QualitativeType:
        return self.types[self.space.index(state)]

    def realized(self) -> tuple[QualitativeType, ...]:
        """Distinct types in first-occurrence order."""
        out: list[QualitativeType] = []
        for t in self.types:
            if t not in out:
                out.append(t)
        return tuple(out)

    def preimage(self, types: "QualitativeType | Iterable[QualitativeType]") -> Event:
        if isinstance(types, QualitativeType):
            types = (types,)
        wanted = set(types)
        bits = 0
        for i, t in enumerate(self.types):
            if t in wanted:
                bits |= 1 << i
        return Event(self.space, bits)


def _columns(table: Sequence[int], n: int) -> list[int]:
    """Per state, the mask of the events believed there: bit e of the
    column of state i is bit i of table[e]."""
    masks = [0] * n
    for e, img in enumerate(table):
        while img:
            low = img & -img
            masks[low.bit_length() - 1] |= 1 << e
            img ^= low
    return masks


def _upward_masks(columns: Sequence[int]) -> list[int]:
    """Per state, the states at least as informative: those whose
    columns contain its own."""
    return [
        sum(1 << j for j, other in enumerate(columns) if not own & ~other) for own in columns
    ]


def type_mapping_of(op: BeliefOperator) -> QualitativeTypeMapping:
    """Each state's column of the operator: which events are believed there."""
    space = op.space
    types = tuple(QualitativeType(space, m) for m in _columns(op.table(), space.n))
    return QualitativeTypeMapping(space, types, op.owner)


def _induced_table(mapping: QualitativeTypeMapping) -> list[int]:
    # who believes each event; no monotonicity assumption
    table = [0] * mapping.space.size
    for i, t in enumerate(mapping.types):
        bit = 1 << i
        believed = t.believed
        while believed:
            low = believed & -believed
            table[low.bit_length() - 1] |= bit
            believed ^= low
    return table


def operator_of(mapping: QualitativeTypeMapping) -> BeliefOperator:
    """Inverse of type_mapping_of; rejects non-monotone induced maps."""
    return BeliefOperator.from_table(
        mapping.space, _induced_table(mapping), owner=mapping.owner
    )


def check_type_axiom(
    mapping: QualitativeTypeMapping, axiom: "Axiom | str"
) -> AxiomReport:
    """Decide an axiom stated directly on the types.

    Runs the operator-level check on the table the types induce, which
    may be non-monotone: arbitrary mappings are accepted, including
    those operator_of would reject. Verdicts and witnesses agree with
    BeliefOperator.check_axiom whenever both forms are defined.
    """
    return _AXIOM_CHECKS[Axiom.coerce(axiom)](mapping.space, _induced_table(mapping))


def check_type_axioms(mapping: QualitativeTypeMapping) -> tuple[AxiomReport, ...]:
    return tuple(check_type_axiom(mapping, axiom) for axiom in Axiom)


class FamilyKind(str, Enum):
    """Which subsets of the realized types a player can observe."""

    BETA = "beta"
    NEG_BETA = "negBeta"
    BETA_AND_NEG = "betaAndNeg"
    SIGMA_ATOMS = "sigmaAtoms"
    UPWARD = "upward"

    @classmethod
    def coerce(cls, value: "FamilyKind | str") -> "FamilyKind":
        return _coerce(cls, value, "family kind")


@dataclass(frozen=True)
class TypeObservationFamily:
    kind: FamilyKind
    members: tuple[frozenset, ...]


def observation_family(
    mapping: QualitativeTypeMapping, kind: "FamilyKind | str"
) -> TypeObservationFamily:
    """The observation family of the given kind, deduplicated, deterministic.

    beta has one member per event (the realized types believing it),
    negBeta their complements, betaAndNeg both. sigmaAtoms are the atoms
    of the partition the beta memberships induce on realized types;
    distinct types differ on some event, so the atoms are exactly the
    singletons, and certainty over the whole generated algebra is
    decided on them. upward has one member per state: the realized
    types believing at least what that state's type believes.
    """
    kind = FamilyKind.coerce(kind)
    realized = mapping.realized()
    size = mapping.space.size

    def beta_members() -> list[frozenset]:
        return [
            frozenset(t for t in realized if t.believes_bits(e)) for e in range(size)
        ]

    if kind is FamilyKind.BETA:
        members = beta_members()
    elif kind is FamilyKind.NEG_BETA:
        members = [frozenset(realized) - m for m in beta_members()]
    elif kind is FamilyKind.BETA_AND_NEG:
        beta = beta_members()
        members = beta + [frozenset(realized) - m for m in beta]
    elif kind is FamilyKind.SIGMA_ATOMS:
        members = [frozenset((t,)) for t in realized]
    else:
        # a realized type is in an upward set when its first state is
        first = [mapping.types.index(t) for t in realized]
        members = [
            frozenset(t for t, i in zip(realized, first) if up >> i & 1)
            for up in _upward_masks([t.believed for t in mapping.types])
        ]
    seen: list[frozenset] = []
    for m in members:
        if m not in seen:
            seen.append(m)
    return TypeObservationFamily(kind, tuple(seen))


def type_signal(
    mapping: QualitativeTypeMapping, kind: "FamilyKind | str"
) -> Signal:
    """The mapping as a signal: values are realized types, observed
    through the chosen family."""
    family = observation_family(mapping, kind)
    name = f"t_{mapping.owner}" if mapping.owner is not None else "t"
    return Signal(
        mapping.space,
        codomain=mapping.realized(),
        assignment=mapping.types,
        family=family.members,
        name=name,
    )


def certain_of_type_mapping(
    model: BeliefModel, observer: str, subject: str, kind: "FamilyKind | str"
) -> CertaintyReport:
    """Is the observer certain of the subject's type mapping, read
    through the chosen family?"""
    mapping = type_mapping_of(model.operator(subject))
    return certain_of(model, observer, type_signal(mapping, kind))


def commonly_certain_of_type_mapping(
    model: BeliefModel, subject: str, kind: "FamilyKind | str"
) -> CertaintyReport:
    mapping = type_mapping_of(model.operator(subject))
    return commonly_certain_of(model, type_signal(mapping, kind))


def compose_operators(outer: BeliefOperator, inner: BeliefOperator) -> BeliefOperator:
    """Pointwise composition outer(inner(E)); monotone, so always admissible."""
    if outer.space != inner.space:
        raise ValueError("operators on different state spaces")
    outer_table, inner_table = outer.table(), inner.table()
    table = tuple(outer_table[img] for img in inner_table)
    return BeliefOperator(outer.space, _table=table)


@dataclass(frozen=True)
class PairAccess:
    """How much one player's beliefs reveal about another's.

    positive: everything the subject believes, the observer believes
    they believe. negative: everything they fail to believe, the
    observer believes they fail to believe. certain_sigma: certainty of
    the subject's whole type mapping on atoms.
    """

    observer: str
    subject: str
    positive: CheckReport
    negative: CheckReport
    certain_sigma: CertaintyReport


@dataclass(frozen=True)
class MetaCertaintyReport:
    """Common certainty of the model's own belief structure, clause by clause."""

    commonly_certain: bool
    profile: tuple[CertaintyReport, ...]
    pairs: tuple[PairAccess, ...]
    equal_operators: tuple[CheckReport, ...]
    common_equals_mutual: CheckReport
    common_equals_player: tuple[CheckReport, ...]


def positive_access(
    observer_op: BeliefOperator,
    subject_op: BeliefOperator,
    name: str | None = None,
) -> CheckReport:
    """Whatever the subject believes, the observer believes they believe."""
    if name is None:
        name = "B_subject <= B_observer B_subject"
    if observer_op.space != subject_op.space:
        raise ValueError("operators on different state spaces")
    failures = positive_access_bits(observer_op.table(), subject_op.table())
    witness = _first_failure(observer_op.space, failures)
    return CheckReport(name, witness is None, witness)


def positive_access_bits(
    observer: Sequence[int], subject: Sequence[int]
) -> Iterator[int]:
    """Per event, on the two players' tables, the states where the
    subject believes it but the observer does not believe they do."""
    return (img & ~observer[img] for img in subject)


def negative_access(
    observer_op: BeliefOperator,
    subject_op: BeliefOperator,
    name: str | None = None,
) -> CheckReport:
    """Whatever the subject fails to believe, the observer believes they fail."""
    if name is None:
        name = "notB_subject <= B_observer notB_subject"
    if observer_op.space != subject_op.space:
        raise ValueError("operators on different state spaces")
    failures = negative_access_bits(observer_op.table(), subject_op.table())
    witness = _first_failure(observer_op.space, failures)
    return CheckReport(name, witness is None, witness)


def negative_access_bits(
    observer: Sequence[int], subject: Sequence[int]
) -> Iterator[int]:
    """Per event, on the two players' tables, the states where the
    subject fails to believe it but the observer does not believe they
    fail."""
    full = len(subject) - 1
    outside = (full & ~img for img in subject)
    return (out & ~observer[out] for out in outside)


def meta_certainty_report(model: BeliefModel) -> MetaCertaintyReport:
    """Evaluate common certainty of the type-mapping profile and every
    structural clause it is known to interact with."""
    players = model.players
    profile = tuple(
        commonly_certain_of_type_mapping(model, subject, FamilyKind.SIGMA_ATOMS)
        for subject in players
    )
    pairs = []
    for observer in players:
        for subject in players:
            obs_op = model.operator(observer)
            sub_op = model.operator(subject)
            positive = positive_access(
                obs_op, sub_op, f"B_{subject} <= B_{observer}B_{subject}"
            )
            negative = negative_access(
                obs_op, sub_op, f"notB_{subject} <= B_{observer}notB_{subject}"
            )
            pairs.append(
                PairAccess(
                    observer,
                    subject,
                    positive,
                    negative,
                    certain_of_type_mapping(
                        model, observer, subject, FamilyKind.SIGMA_ATOMS
                    ),
                )
            )
    equal = tuple(
        operators_equal(
            model.operator(i), model.operator(j), f"B_{i} = B_{j}"
        )
        for i, j in itertools.combinations(players, 2)
    )
    common = model.common_operator()
    mutual = model.mutual_operator()
    return MetaCertaintyReport(
        commonly_certain=all(r.holds for r in profile),
        profile=profile,
        pairs=tuple(pairs),
        equal_operators=equal,
        common_equals_mutual=operators_equal(common, mutual, "C = B_I"),
        common_equals_player=tuple(
            operators_equal(model.operator(p), common, f"B_{p} = C") for p in players
        ),
    )
