"""Signals on belief models and what players are certain of.

A signal assigns one codomain value to every state and carries an
observation family: the subsets of the codomain whose preimages a player
would have to believe. Certainty of a value at a state requires belief
in the preimage of every family member containing that value; certainty
of the signal requires that at every state. Both are decided on the
preimage masks a signal compiles once: a member fails exactly at the
states of pre & ~B(pre), where B is the belief (or common belief) map.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Sequence

from .core import BeliefModel, Event, StateSpace, common_belief_bits


@dataclass(frozen=True)
class Signal:
    """A measurable assignment of codomain values to states."""

    space: StateSpace
    codomain: tuple[Hashable, ...]
    assignment: tuple[Hashable, ...]
    family: tuple[frozenset, ...]
    name: str | None = None
    _masks: tuple[int, ...] | None = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        if not self.codomain:
            raise ValueError("signal codomain must be non-empty")
        if len(set(self.codomain)) != len(self.codomain):
            raise ValueError("signal codomain values must be distinct")
        if len(self.assignment) != self.space.n:
            raise ValueError("signal must assign a value to every state")
        values = set(self.codomain)
        for v in self.assignment:
            if v not in values:
                raise ValueError(f"assigned value outside the codomain: {v!r}")
        for member in self.family:
            if not member <= values:
                raise ValueError("observation family member outside the codomain")

    @classmethod
    def of(
        cls,
        space: StateSpace,
        assignment: "Sequence[Hashable] | dict[str, Hashable]",
        codomain: Sequence[Hashable] | None = None,
        family: Iterable[Iterable[Hashable]] | None = None,
        name: str | None = None,
    ) -> "Signal":
        """Build a signal; defaults to singleton observations over the codomain."""
        if isinstance(assignment, dict):
            assignment = tuple(assignment[s] for s in space.states)
        else:
            assignment = tuple(assignment)
        if codomain is None:
            seen = []
            for v in assignment:
                if v not in seen:
                    seen.append(v)
            codomain = tuple(seen)
        else:
            codomain = tuple(codomain)
        if family is None:
            members = singleton_family(codomain)
        else:
            members = tuple(frozenset(m) for m in family)
        return cls(space, codomain, assignment, members, name)

    def value_at(self, state: str) -> Hashable:
        return self.assignment[self.space.index(state)]

    def preimage(self, values: Iterable[Hashable]) -> Event:
        values = frozenset(values)
        bits = 0
        for i, v in enumerate(self.assignment):
            if v in values:
                bits |= 1 << i
        return Event(self.space, bits)

    def value_event(self, value: Hashable) -> Event:
        """The event that the signal takes exactly this value."""
        return self.preimage((value,))

    def observing(self, value: Hashable) -> tuple[frozenset, ...]:
        return tuple(m for m in self.family if value in m)

    def _preimage_masks(self) -> tuple[int, ...]:
        """Preimage mask of every family member, in family order, cached."""
        if self._masks is None:
            at = dict.fromkeys(self.codomain, 0)
            for i, v in enumerate(self.assignment):
                at[v] |= 1 << i
            # value masks are disjoint, so their sum is their union
            masks = tuple(sum(at[v] for v in member) for member in self.family)
            object.__setattr__(self, "_masks", masks)
        return self._masks


def singleton_family(codomain: Sequence[Hashable]) -> tuple[frozenset, ...]:
    return tuple(frozenset((v,)) for v in codomain)


def powerset_family(codomain: Sequence[Hashable]) -> tuple[frozenset, ...]:
    """Every subset of the codomain, the empty set first."""
    out = []
    for r in range(len(codomain) + 1):
        for combo in itertools.combinations(codomain, r):
            out.append(frozenset(combo))
    return tuple(out)


@dataclass(frozen=True)
class CertaintyReport:
    """Certainty verdict with the exact points of failure.

    Failures are (state, family member) pairs where the required
    preimage is not believed (or not commonly believed), listed in state
    order, then family order.
    """

    holds: bool
    failures: tuple[tuple[str, frozenset], ...]
    player: str | None = None
    signal: str | None = None


def certain_of_value_at(
    model: BeliefModel, player: str, signal: Signal, state: str
) -> bool:
    """Does the player believe every observation consistent with the value here?"""
    return _certain_at(model, signal, state, model.operator(player).apply_bits)


def certain_of(model: BeliefModel, player: str, signal: Signal) -> CertaintyReport:
    """Certainty at every state; equivalently every preimage is self-evident."""
    return _certainty(model, signal, model.operator(player).apply_bits, player)


def commonly_certain_of_value_at(
    model: BeliefModel, signal: Signal, state: str
) -> bool:
    return _certain_at(model, signal, state, _common_belief_map(model))


def commonly_certain_of(model: BeliefModel, signal: Signal) -> CertaintyReport:
    """Common certainty at every state; every preimage must be publicly evident."""
    return _certainty(model, signal, _common_belief_map(model), None)


def _common_belief_map(model: BeliefModel) -> Callable[[int], int]:
    # the loop of BeliefModel.common_belief on masks; above TABLE_LIMIT
    # the mutual images are computed on demand
    mutual = model._mutual_images()
    full = model.space.size - 1
    return lambda bits: common_belief_bits(mutual, bits, full)


def unbelieved_bits(signal: Signal, believe: Callable[[int], int]) -> list[int]:
    """Per family member, the states of its preimage outside the believed
    image of that preimage; all zero exactly when the signal is certain.

    `believe` maps an event mask to its believed image, for example a
    table's `__getitem__`. Every certainty verdict is decided here."""
    return [pre & ~believe(pre) for pre in signal._preimage_masks()]


def _unbelieved(
    model: BeliefModel, signal: Signal, believe: Callable[[int], int]
) -> list[int]:
    if signal.space != model.space:
        raise ValueError("signal on a different state space")
    return unbelieved_bits(signal, believe)


def _certain_at(model, signal, state, believe) -> bool:
    unbelieved = _unbelieved(model, signal, believe)
    bit = 1 << model.space.index(state)
    return not any(bad & bit for bad in unbelieved)


def _certainty(model, signal, believe, player) -> CertaintyReport:
    unbelieved = _unbelieved(model, signal, believe)
    failures = []
    if any(unbelieved):
        for i, state in enumerate(signal.space.states):
            for member, bad in zip(signal.family, unbelieved):
                if bad >> i & 1:
                    failures.append((state, member))
    return CertaintyReport(
        holds=not failures,
        failures=tuple(failures),
        player=player,
        signal=signal.name,
    )


def product_signal(signals: Sequence[Signal], name: str | None = None) -> Signal:
    """Profile of signals with one-coordinate cylinder observations.

    The family contains, for each component member F, the cylinder of
    profiles whose coordinate lies in F. Certainty of the product then
    coincides with certainty of every component; closing the family
    under intersections would additionally require Finite Conjunction.
    """
    if not signals:
        raise ValueError("need at least one signal")
    space = signals[0].space
    for s in signals:
        if s.space != space:
            raise ValueError("signals live on different state spaces")
    codomain = tuple(itertools.product(*(s.codomain for s in signals)))
    assignment = tuple(
        tuple(s.assignment[i] for s in signals) for i in range(space.n)
    )
    family = []
    for k, s in enumerate(signals):
        for member in s.family:
            family.append(frozenset(v for v in codomain if v[k] in member))
    return Signal(space, codomain, assignment, tuple(family), name)


def certain_of_profile(
    model: BeliefModel, player: str, signals: Sequence[Signal]
) -> CertaintyReport:
    """Certainty of the whole profile, evaluated on the product signal."""
    return certain_of(model, player, product_signal(signals, name="profile"))


def partition_measurability_check(
    model: BeliefModel, player: str, signal: Signal
) -> CertaintyReport:
    """On partitional beliefs: does every cell fix the signal's value?

    Requires the player's derived correspondence to be a partition.
    Coincides with certainty under the singleton observation family.
    """
    possible = model.operator(player).derive_correspondence()
    if not possible.is_partition():
        raise ValueError(
            f"derived correspondence of player {player} is not partitional"
        )
    failures = []
    for state in signal.space.states:
        value = signal.value_at(state)
        if not possible.at(state) <= signal.value_event(value):
            failures.append((state, frozenset((value,))))
    return CertaintyReport(
        holds=not failures,
        failures=tuple(failures),
        player=player,
        signal=signal.name,
    )


def indicator_signal(event: Event, name: str | None = None) -> Signal:
    """0/1 signal flagging membership, observed through {0} and {1}."""
    assignment = tuple(
        1 if s in event else 0 for s in event.space.states
    )
    return Signal(
        event.space,
        codomain=(0, 1),
        assignment=assignment,
        family=(frozenset((0,)), frozenset((1,))),
        name=name,
    )


def belief_agreement_indicator(
    model: BeliefModel, player: str, event: Event, target: Event
) -> Signal:
    """Indicator of the states where the player's belief in event matches target.

    The underlying event is the biconditional (B_j(E) iff F), so being
    certain of this signal's value 1 at a state is being certain there
    that the player's belief in E is exactly F.
    """
    believed = model.operator(player).apply(event)
    agree = (~believed | target) & (~target | believed)
    return indicator_signal(agree, name=f"B_{player}{event} is {target}")
