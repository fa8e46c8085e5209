"""Finite belief models over explicit state spaces.

States are indexed; events are bitmasks over the state index. A belief
operator is a monotone map from events to events, stored either as an
explicit table over all 2**n events or as a possibility correspondence
(one possible-set per state) that induces the operator pointwise. Tables
are practical up to TABLE_LIMIT states, correspondence-backed operators
up to SPACE_LIMIT.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from operator import and_
from typing import Callable, Iterable, Iterator, Mapping, Sequence

TABLE_LIMIT = 16
SPACE_LIMIT = 24


def _coerce(cls: type[Enum], value: object, what: str):
    """The member of `cls` that is `value`, or has it as value or name."""
    if isinstance(value, cls):
        return value
    for member in cls:
        if value == member.value or value == member.name:
            return member
    raise ValueError(f"unknown {what}: {value!r}")


class Axiom(str, Enum):
    """The nine checkable belief axioms, in report order."""

    MONOTONICITY = "Monotonicity"
    NECESSITATION = "Necessitation"
    COUNTABLE_CONJUNCTION = "CountableConjunction"
    FINITE_CONJUNCTION = "FiniteConjunction"
    KRIPKE = "Kripke"
    CONSISTENCY = "Consistency"
    TRUTH = "TruthAxiom"
    POSITIVE_INTROSPECTION = "PositiveIntrospection"
    NEGATIVE_INTROSPECTION = "NegativeIntrospection"

    @classmethod
    def coerce(cls, value: "Axiom | str") -> "Axiom":
        return _coerce(cls, value, "axiom")


class FrameProperty(str, Enum):
    SERIAL = "serial"
    REFLEXIVE = "reflexive"
    TRANSITIVE = "transitive"
    EUCLIDEAN = "euclidean"

    @classmethod
    def coerce(cls, value: "FrameProperty | str") -> "FrameProperty":
        return _coerce(cls, value, "frame property")


class ImplicationStatus(str, Enum):
    VACUOUS = "vacuous"
    CONFIRMED = "confirmed"
    VIOLATED = "violated"


@dataclass(frozen=True)
class ImplicationReport:
    """Premises, conclusion, and the resulting status of one implication."""

    name: str
    premises: tuple[tuple[str, bool], ...]
    conclusion: tuple[str, bool]
    witness: tuple | None = None

    @property
    def status(self) -> ImplicationStatus:
        if not all(held for _, held in self.premises):
            return ImplicationStatus.VACUOUS
        if self.conclusion[1]:
            return ImplicationStatus.CONFIRMED
        return ImplicationStatus.VIOLATED


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of one axiom check.

    The witness is None when the axiom holds. Otherwise it is a tuple of
    one or two events followed by a state name, deterministic across
    runs: the smallest falsifying event (pairs enumerated
    lexicographically) in mask enumeration order, then the smallest
    failing state.
    """

    axiom: Axiom | str
    holds: bool
    witness: tuple | None = None


@dataclass(frozen=True)
class CheckReport:
    """Generic named truth value with an optional witness tuple."""

    check: str
    holds: bool
    witness: tuple | None = None


@dataclass(frozen=True)
class StateSpace:
    """Ordered, distinct state names; the order fixes event bit layout."""

    states: tuple[str, ...]
    _index: dict = field(init=False, repr=False, compare=False, default=None)

    def __init__(self, states: Iterable[str]):
        object.__setattr__(self, "states", tuple(states))
        if not self.states:
            raise ValueError("state space must contain at least one state")
        if len(self.states) > SPACE_LIMIT:
            raise ValueError(f"at most {SPACE_LIMIT} states are supported")
        index = {}
        for i, name in enumerate(self.states):
            if name in index:
                raise ValueError(f"duplicate state: {name}")
            index[name] = i
        object.__setattr__(self, "_index", index)

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def size(self) -> int:
        """Number of events, 2**n."""
        return 1 << len(self.states)

    def index(self, state: str) -> int:
        try:
            return self._index[state]
        except KeyError:
            raise KeyError(f"unknown state: {state}") from None

    def event(self, states: Iterable[str] = ()) -> "Event":
        bits = 0
        for name in states:
            bits |= 1 << self.index(name)
        return Event(self, bits)

    def event_from_bits(self, bits: int) -> "Event":
        if not 0 <= bits < self.size:
            raise ValueError(f"event mask out of range: {bits}")
        return Event(self, bits)

    @property
    def full(self) -> "Event":
        return Event(self, self.size - 1)

    @property
    def empty(self) -> "Event":
        return Event(self, 0)

    def events(self) -> Iterator["Event"]:
        """All events in mask enumeration order (empty set first)."""
        if self.n > TABLE_LIMIT:
            raise ValueError("state space too large to enumerate events")
        for bits in range(self.size):
            yield Event(self, bits)

    def states_of(self, bits: int) -> tuple[str, ...]:
        return tuple(s for i, s in enumerate(self.states) if bits >> i & 1)

    def format_bits(self, bits: int) -> str:
        return "{" + ", ".join(self.states_of(bits)) + "}"


@dataclass(frozen=True)
class Event:
    """Subset of a state space, backed by a bitmask."""

    space: StateSpace
    bits: int

    def _check(self, other: "Event") -> None:
        if self.space != other.space:
            raise ValueError("events belong to different state spaces")

    def __and__(self, other: "Event") -> "Event":
        self._check(other)
        return Event(self.space, self.bits & other.bits)

    def __or__(self, other: "Event") -> "Event":
        self._check(other)
        return Event(self.space, self.bits | other.bits)

    def __sub__(self, other: "Event") -> "Event":
        self._check(other)
        return Event(self.space, self.bits & ~other.bits)

    def __invert__(self) -> "Event":
        return Event(self.space, (self.space.size - 1) & ~self.bits)

    def __le__(self, other: "Event") -> bool:
        self._check(other)
        return self.bits & ~other.bits == 0

    def __lt__(self, other: "Event") -> bool:
        return self <= other and self.bits != other.bits

    def __contains__(self, state: str) -> bool:
        return self.bits >> self.space.index(state) & 1 == 1

    def __iter__(self) -> Iterator[str]:
        return iter(self.states())

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def states(self) -> tuple[str, ...]:
        return self.space.states_of(self.bits)

    def __str__(self) -> str:
        return self.space.format_bits(self.bits)

    def __repr__(self) -> str:
        return f"Event({self})"


@dataclass(frozen=True)
class PossibilityCorrespondence:
    """One possible-set per state; induces a belief operator pointwise."""

    space: StateSpace
    possible: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.possible) != self.space.n:
            raise ValueError("need exactly one possible-set per state")
        for bits in self.possible:
            if not 0 <= bits < self.space.size:
                raise ValueError(f"possible-set mask out of range: {bits}")

    @classmethod
    def from_map(
        cls, space: StateSpace, mapping: Mapping[str, Iterable[str]]
    ) -> "PossibilityCorrespondence":
        missing = [s for s in space.states if s not in mapping]
        if missing:
            raise ValueError(f"no possible-set for state {missing[0]}")
        extra = [s for s in mapping if s not in space.states]
        if extra:
            raise ValueError(f"unknown state: {extra[0]}")
        return cls(space, tuple(space.event(mapping[s]).bits for s in space.states))

    def at(self, state: str) -> Event:
        return Event(self.space, self.possible[self.space.index(state)])

    def is_serial(self) -> bool:
        return all(bits != 0 for bits in self.possible)

    def is_reflexive(self) -> bool:
        return all(bits >> i & 1 for i, bits in enumerate(self.possible))

    def is_transitive(self) -> bool:
        # reachable states must not see outside the current possible-set
        for bits in self.possible:
            for j in _bit_indices(bits):
                if self.possible[j] & ~bits:
                    return False
        return True

    def is_euclidean(self) -> bool:
        # every reachable state must see everything currently possible
        for bits in self.possible:
            for j in _bit_indices(bits):
                if bits & ~self.possible[j]:
                    return False
        return True

    def is_partition(self) -> bool:
        return self.is_reflexive() and self.is_transitive() and self.is_euclidean()


def correspondence_property(
    possible: PossibilityCorrespondence, prop: FrameProperty | str
) -> bool:
    prop = FrameProperty.coerce(prop)
    if prop is FrameProperty.SERIAL:
        return possible.is_serial()
    if prop is FrameProperty.REFLEXIVE:
        return possible.is_reflexive()
    if prop is FrameProperty.TRANSITIVE:
        return possible.is_transitive()
    return possible.is_euclidean()


def _bit_indices(bits: int) -> Iterator[int]:
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def kripke_table(possible: Sequence[int], n: int) -> tuple[int, ...]:
    """Evaluate B(E) = {w : b(w) subseteq E} for every event mask."""
    out = []
    for e in range(1 << n):
        img = 0
        for i in range(n):
            if possible[i] & ~e == 0:
                img |= 1 << i
        out.append(img)
    return tuple(out)


def derive_possible(table: Sequence[int], n: int) -> tuple[int, ...]:
    """Intersect the believed events at each state.

    A state believing nothing gets the full space: the empty intersection
    over no events is the whole space.
    """
    full = (1 << n) - 1
    acc = [full] * n
    for e, img in enumerate(table):
        for i in _bit_indices(img):
            acc[i] &= e
    return tuple(acc)


def monotone_closure_table(core: Mapping[int, int], n: int) -> tuple[int, ...]:
    """Pointwise-smallest monotone total map above a partial core.

    closure(F) is the union of core(E) over core-domain events E inside
    F; the empty union is the empty set. Monotone by construction, and
    it need not agree with the core where monotonicity forces more.
    """
    size = 1 << n
    out = [0] * size
    for f in range(size):
        img = core.get(f, 0)
        bits = f
        while bits:
            low = bits & -bits
            img |= out[f ^ low]
            bits ^= low
        out[f] = img
    return tuple(out)


def _monotone_violation(table: Sequence[int], n: int) -> tuple[int, int] | None:
    """Smallest lexicographic pair (E, F), E subseteq F, with B(E) not in B(F)."""
    size = 1 << n
    for e in range(size):
        for f in range(size):
            if e & ~f == 0 and table[e] & ~table[f]:
                return e, f
    return None


def _is_monotone(table: Sequence[int], n: int) -> bool:
    # adding one state never shrinks the image; that bounds all pairs
    size = 1 << n
    for e in range(size):
        img = table[e]
        for i in range(n):
            if not e >> i & 1 and img & ~table[e | (1 << i)]:
                return False
    return True


@dataclass(frozen=True, eq=False)
class BeliefOperator:
    """Monotone event-to-event map for one player.

    Backed by an explicit table, a possibility correspondence, or both.
    Monotonicity is a construction invariant; every other axiom is a
    checkable property. Operators compare extensionally.
    """

    space: StateSpace
    owner: str | None = None
    _table: tuple[int, ...] | None = None
    _possible: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self._table is None and self._possible is None:
            raise ValueError("operator needs a table or a correspondence")
        if self._table is None and self.space.n <= TABLE_LIMIT:
            object.__setattr__(self, "_table", kripke_table(self._possible, self.space.n))

    @classmethod
    def from_correspondence(
        cls, possible: PossibilityCorrespondence, owner: str | None = None
    ) -> "BeliefOperator":
        """Operator induced pointwise: believe E wherever the possible-set fits in E."""
        return cls(possible.space, owner, _possible=tuple(possible.possible))

    @classmethod
    def from_table(
        cls,
        space: StateSpace,
        images: "Mapping[Event, Event] | Sequence[int]",
        owner: str | None = None,
    ) -> "BeliefOperator":
        """Operator from explicit images for all 2**n events; must be monotone."""
        if space.n > TABLE_LIMIT:
            raise ValueError("state space too large for explicit event tables")
        if isinstance(images, Mapping):
            table = [None] * space.size
            for ev, img in images.items():
                if ev.space != space or img.space != space:
                    raise ValueError("table entry from a different state space")
                if table[ev.bits] is not None:
                    raise ValueError(f"duplicate table entry for {ev}")
                table[ev.bits] = img.bits
            for bits, img in enumerate(table):
                if img is None:
                    raise ValueError(
                        f"incomplete table: no image for {space.format_bits(bits)}"
                    )
        else:
            table = []
            for img in images:
                if isinstance(img, Event):
                    if img.space != space:
                        raise ValueError("table entry from a different state space")
                    img = img.bits
                elif not 0 <= img < space.size:
                    raise ValueError(f"image out of range: {img}")
                table.append(img)
            if len(table) != space.size:
                raise ValueError("table must cover every event")
        bad = None if _is_monotone(table, space.n) else _monotone_violation(table, space.n)
        if bad is not None:
            e, f = bad
            raise ValueError(
                "not monotone: "
                f"{space.format_bits(e)} is contained in {space.format_bits(f)} "
                f"but B{space.format_bits(e)} = {space.format_bits(table[e])} "
                f"is not contained in B{space.format_bits(f)} = {space.format_bits(table[f])}"
            )
        return cls(space, owner, _table=tuple(table))

    @classmethod
    def monotone_closure(
        cls,
        space: StateSpace,
        core: "Mapping[Event, Event] | Mapping[int, int]",
        owner: str | None = None,
    ) -> "BeliefOperator":
        """Smallest monotone total operator above a partial event-to-event core."""
        if space.n > TABLE_LIMIT:
            raise ValueError("state space too large for explicit event tables")
        raw: dict[int, int] = {}
        for ev, img in core.items():
            if isinstance(ev, Event):
                ev, img = ev.bits, img.bits
            if not 0 <= ev < space.size or not 0 <= img < space.size:
                raise ValueError("core entry out of range")
            if ev in raw:
                raise ValueError(f"duplicate core entry for {space.format_bits(ev)}")
            raw[ev] = img
        return cls(space, owner, _table=monotone_closure_table(raw, space.n))

    def table(self) -> tuple[int, ...]:
        if self._table is None:
            raise ValueError("state space too large for explicit event tables")
        return self._table

    def apply_bits(self, bits: int) -> int:
        if self._table is not None:
            return self._table[bits]
        img = 0
        for i in range(self.space.n):
            if self._possible[i] & ~bits == 0:
                img |= 1 << i
        return img

    def apply(self, event: Event) -> Event:
        if event.space != self.space:
            raise ValueError("event from a different state space")
        return Event(self.space, self.apply_bits(event.bits))

    def __call__(self, event: Event) -> Event:
        return self.apply(event)

    def believes(self, state: str, event: Event) -> bool:
        if event.space != self.space:
            raise ValueError("event from a different state space")
        return self.apply_bits(event.bits) >> self.space.index(state) & 1 == 1

    def derive_correspondence(self) -> PossibilityCorrespondence:
        """Possible-sets as intersections of believed events per state."""
        if self._possible is not None:
            return PossibilityCorrespondence(self.space, self._possible)
        return PossibilityCorrespondence(
            self.space, derive_possible(self._table, self.space.n)
        )

    def has_correspondence(self) -> bool:
        return self._possible is not None

    def check_axiom(self, axiom: Axiom | str) -> AxiomReport:
        """Decide one axiom on the full event table, with a deterministic witness."""
        return _AXIOM_CHECKS[Axiom.coerce(axiom)](self.space, self.table())

    def check_axioms(self) -> tuple[AxiomReport, ...]:
        return tuple(self.check_axiom(a) for a in Axiom)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BeliefOperator):
            return NotImplemented
        if self.space != other.space:
            return False
        if self._possible is not None and other._possible is not None:
            # distinct correspondences induce distinct operators, so this
            # is extensional equality in disguise
            return self._possible == other._possible
        return self.table() == other.table()

    def __hash__(self) -> int:
        if self._table is not None or self.space.n <= TABLE_LIMIT:
            return hash((self.space, self.table()))
        return hash((self.space, self._possible))

    def __repr__(self) -> str:
        tag = f" owner={self.owner}" if self.owner is not None else ""
        return f"BeliefOperator(n={self.space.n}{tag})"


def _lowest_state(space: StateSpace, bits: int) -> str:
    return space.states[(bits & -bits).bit_length() - 1]


def _witness(space: StateSpace, e: int, bad: int) -> tuple[Event, str] | None:
    """(event e, lowest state of bad) for a failure mask bad at event
    mask e; None when bad is empty, so nothing failed there."""
    return (Event(space, e), _lowest_state(space, bad)) if bad else None


def _first_failure(space: StateSpace, masks: Iterable[int]) -> tuple[Event, str] | None:
    """Witness of the first nonzero failure mask; masks[e] holds the
    states failing at event mask e, in event order."""
    for e, bad in enumerate(masks):
        if bad:
            return _witness(space, e, bad)
    return None


def _check_monotonicity(space: StateSpace, table: Sequence[int]) -> AxiomReport:
    n = space.n
    if _is_monotone(table, n):
        return AxiomReport(Axiom.MONOTONICITY, True)
    e, f = _monotone_violation(table, n)
    bad = table[e] & ~table[f]
    witness = (Event(space, e), Event(space, f), _lowest_state(space, bad))
    return AxiomReport(Axiom.MONOTONICITY, False, witness)


def _check_necessitation(space: StateSpace, table: Sequence[int]) -> AxiomReport:
    full = space.size - 1
    witness = _witness(space, full, full & ~table[full])
    return AxiomReport(Axiom.NECESSITATION, witness is None, witness)


def _conjunction_witness(space: StateSpace, table: Sequence[int]) -> tuple | None:
    """Smallest pair (E, F) with B(E) & B(F) not in B(E & F), or None.

    Finite and Countable Conjunction are one property on a finite
    algebra: any family collapses to iterated binary meets, so a failure
    always has a two-event witness. On a monotone table the per-state
    test decides it exactly: a state that believes anything must believe
    the meet of everything it believes, which lies inside every meet of
    believed events. Only a non-monotone table (a raw type mapping) needs
    the pair scan to decide; otherwise the scan only finds the witness.
    """
    n, size = space.n, space.size
    if _is_monotone(table, n):
        # monotone: the states that believe anything are those that believe Ω
        possible = derive_possible(table, n)
        if all(table[possible[i]] >> i & 1 for i in _bit_indices(table[size - 1])):
            return None
    for e in range(size):
        for f in range(size):
            bad = table[e] & table[f] & ~table[e & f]
            if bad:
                return (Event(space, e), Event(space, f), _lowest_state(space, bad))
    return None


def _check_finite_conjunction(space: StateSpace, table: Sequence[int]) -> AxiomReport:
    witness = _conjunction_witness(space, table)
    return AxiomReport(Axiom.FINITE_CONJUNCTION, witness is None, witness)


def _check_countable_conjunction(space: StateSpace, table: Sequence[int]) -> AxiomReport:
    witness = _conjunction_witness(space, table)
    return AxiomReport(Axiom.COUNTABLE_CONJUNCTION, witness is None, witness)


def _check_kripke(space: StateSpace, table: Sequence[int]) -> AxiomReport:
    recon = kripke_table(derive_possible(table, space.n), space.n)
    witness = _first_failure(space, (a ^ b for a, b in zip(recon, table)))
    return AxiomReport(Axiom.KRIPKE, witness is None, witness)


def _check_consistency(space: StateSpace, table: Sequence[int]) -> AxiomReport:
    full = space.size - 1
    clashes = (img & table[full & ~e] for e, img in enumerate(table))
    witness = _first_failure(space, clashes)
    return AxiomReport(Axiom.CONSISTENCY, witness is None, witness)


def _check_truth(space: StateSpace, table: Sequence[int]) -> AxiomReport:
    witness = _first_failure(space, (img & ~e for e, img in enumerate(table)))
    return AxiomReport(Axiom.TRUTH, witness is None, witness)


def _check_positive_introspection(space: StateSpace, table: Sequence[int]) -> AxiomReport:
    witness = _first_failure(space, (img & ~table[img] for img in table))
    return AxiomReport(Axiom.POSITIVE_INTROSPECTION, witness is None, witness)


def _check_negative_introspection(space: StateSpace, table: Sequence[int]) -> AxiomReport:
    full = space.size - 1
    outside = (full & ~img for img in table)
    witness = _first_failure(space, (out & ~table[out] for out in outside))
    return AxiomReport(Axiom.NEGATIVE_INTROSPECTION, witness is None, witness)


# Each check decides its axiom on any table, monotone or not, so
# operators and raw type mappings share them.
_AXIOM_CHECKS: dict[Axiom, Callable[[StateSpace, Sequence[int]], AxiomReport]] = {
    Axiom.MONOTONICITY: _check_monotonicity,
    Axiom.NECESSITATION: _check_necessitation,
    Axiom.COUNTABLE_CONJUNCTION: _check_countable_conjunction,
    Axiom.FINITE_CONJUNCTION: _check_finite_conjunction,
    Axiom.KRIPKE: _check_kripke,
    Axiom.CONSISTENCY: _check_consistency,
    Axiom.TRUTH: _check_truth,
    Axiom.POSITIVE_INTROSPECTION: _check_positive_introspection,
    Axiom.NEGATIVE_INTROSPECTION: _check_negative_introspection,
}


def common_belief_bits(mutual: Sequence[int], event_bits: int, full: int) -> int:
    """Greatest fixed point of H(X) = B_I(E) & B_I(X), from the full space.

    H is monotone in X because B_I is, so iterating from the top of the
    finite lattice descends to the greatest fixed point (Knaster-Tarski;
    each strict step drops a state, so it stabilizes within n+1 rounds).
    That fixed point is the common-belief event: the limit L satisfies
    L = B_I(E) & B_I(L), hence L is evident to everybody (L sub B_I(L))
    and L sub B_I(E); conversely the union U of all publicly evident
    subsets of B_I(E) is itself publicly evident by monotonicity, so
    U sub H(U), and every such post-fixed point sits inside the limit.
    """
    base = mutual[event_bits]
    x = full
    while True:
        nxt = base & mutual[x]
        if nxt == x:
            return x
        x = nxt


def common_table(mutual: Sequence[int]) -> tuple[int, ...]:
    """Common-belief image of every event, from the mutual-belief table."""
    full = len(mutual) - 1
    return tuple(common_belief_bits(mutual, e, full) for e in range(len(mutual)))


def intersect_tables(tables: Iterable[Sequence[int]]) -> tuple[int, ...]:
    """Pointwise intersection of event tables: the mutual-belief table."""
    tables = iter(tables)
    out = tuple(next(tables))
    for table in tables:
        out = tuple(map(and_, out, table))
    return out


def iterated_mutual_bits(mutual: Sequence[int], event_bits: int, depth: int) -> int:
    """Intersection of the first `depth` iterates of mutual belief; it
    stops changing at the first iterate that is its own image."""
    cur = acc = mutual[event_bits]
    for _ in range(depth - 1):
        if mutual[cur] == cur:
            break
        cur = mutual[cur]
        acc &= cur
    return acc


@dataclass(frozen=True, eq=False)
class BeliefModel:
    """A state space with one belief operator per player."""

    space: StateSpace
    players: tuple[str, ...]
    _operators: tuple[BeliefOperator, ...]
    _mutual: tuple[int, ...] | None = field(
        init=False, repr=False, compare=False, default=None
    )

    def __init__(self, space: StateSpace, operators: Mapping[str, BeliefOperator]):
        if not operators:
            raise ValueError("model needs at least one player")
        for player, op in operators.items():
            if op.space != space:
                raise ValueError(f"operator for {player} is on a different state space")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "players", tuple(operators))
        object.__setattr__(self, "_operators", tuple(operators.values()))
        object.__setattr__(self, "_mutual", None)

    def operator(self, player: str) -> BeliefOperator:
        try:
            return self._operators[self.players.index(player)]
        except ValueError:
            raise KeyError(f"unknown player: {player}") from None

    @property
    def operators(self) -> dict[str, BeliefOperator]:
        return dict(zip(self.players, self._operators))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BeliefModel):
            return NotImplemented
        return (
            self.space == other.space
            and self.players == other.players
            and self._operators == other._operators
        )

    def mutual_table(self) -> tuple[int, ...]:
        """Pointwise intersection of all players' tables, cached."""
        if self._mutual is None:
            mutual = intersect_tables(op.table() for op in self._operators)
            object.__setattr__(self, "_mutual", mutual)
        return self._mutual

    def _mutual_images(self) -> Sequence[int]:
        """Mutual-belief image of every event mask, indexable by the mask."""
        if self.space.n <= TABLE_LIMIT:
            return self.mutual_table()
        return _MutualView(self._operators, self.space.size - 1)

    def mutual_belief(self, event: Event) -> Event:
        """Everybody believes the event: intersection over the players."""
        if event.space != self.space:
            raise ValueError("event from a different state space")
        return Event(self.space, self._mutual_images()[event.bits])

    def mutual_operator(self) -> BeliefOperator:
        """Mutual belief packaged as an operator."""
        # an intersection of monotone tables is monotone: no re-validation
        return BeliefOperator(self.space, _table=self.mutual_table())

    def common_operator(self) -> BeliefOperator:
        """Common belief packaged as an operator (monotone, so admissible)."""
        return BeliefOperator(self.space, _table=common_table(self.mutual_table()))

    def common_belief(self, event: Event) -> Event:
        """Union of the publicly evident events inside mutual belief of event."""
        if event.space != self.space:
            raise ValueError("event from a different state space")
        bits = common_belief_bits(
            self._mutual_images(), event.bits, self.space.size - 1
        )
        return Event(self.space, bits)

    def common_belief_iterated(self, event: Event, depth: int) -> Event:
        """Intersection of the first `depth` mutual-belief iterates.

        Always contains the common-belief event; equals it at
        stabilization when every player satisfies Conjunction, and can
        stay strictly larger otherwise.
        """
        if event.space != self.space:
            raise ValueError("event from a different state space")
        if depth < 1:
            raise ValueError("depth must be at least 1")
        bits = iterated_mutual_bits(self._mutual_images(), event.bits, depth)
        return Event(self.space, bits)


class _MutualView:
    """Mutual-belief images computed on demand from each operator's
    apply_bits, for spaces too large for a 2**n-entry table."""

    __slots__ = ("_operators", "_full")

    def __init__(self, operators: Sequence[BeliefOperator], full: int):
        self._operators = operators
        self._full = full

    def __getitem__(self, bits: int) -> int:
        out = self._full
        for op in self._operators:
            out &= op.apply_bits(bits)
        return out


def operator_leq(
    left: BeliefOperator,
    right: BeliefOperator,
    name: str = "pointwise-containment",
) -> CheckReport:
    """Is left(E) contained in right(E) for every event?"""
    if left.space != right.space:
        raise ValueError("operators on different state spaces")
    pairs = zip(left.table(), right.table())
    witness = _first_failure(left.space, (a & ~b for a, b in pairs))
    return CheckReport(name, witness is None, witness)


def operators_equal(
    left: BeliefOperator, right: BeliefOperator, name: str = "operators-equal"
) -> CheckReport:
    """Extensional equality with the first differing event and state as witness."""
    if left.space != right.space:
        raise ValueError("operators on different state spaces")
    pairs = zip(left.table(), right.table())
    witness = _first_failure(left.space, (a ^ b for a, b in pairs))
    return CheckReport(name, witness is None, witness)
