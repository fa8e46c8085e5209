"""Model generation and machine audit of every certainty claim in scope.

The harness materializes belief models from a declarative source
(exhaustive Kripke enumeration, seeded monotone sampling, exhaustive
small games, or files), evaluates one registered claim per run, and
tallies verdicts per implication direction. Audits are pure and
deterministic: the same claim and source always give the same result,
including the serialized violation and counterexample listings, and
the instance stream is index-addressable so runs parallelize into
ordered chunks with a deterministic merge.
"""

from __future__ import annotations

import itertools
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator

from .core import (
    Axiom,
    BeliefModel,
    BeliefOperator,
    FrameProperty,
    ImplicationStatus,
    PossibilityCorrespondence,
    StateSpace,
    correspondence_property,
    iterated_mutual_bits,
    operators_equal,
)
from .dsl import parse_model_spec, serialize_model
from .games import Game, GameModel, correct_belief_chain, epistemic_iesda_verdict
from .games import introspective_correct_belief_chain, self_evident_rationality_chain
from .games import maximal_trace, rationality_event, survival_event
from .informativeness import check_certainty_compatibility
from .qualitative import (
    FamilyKind,
    negative_access,
    positive_access,
    type_mapping_of,
    type_signal,
)
from .signals import Signal, certain_of, commonly_certain_of

EXHAUSTIVE_STATE_LIMIT = 3
MODES = ("exhaustive-kripke", "sampled-monotone", "exhaustive-games", "from-files")
VIOLATION_CAP = 5

# ordinal content of a 2x2 game, per player: the sign of the own-action
# comparison against each opposing action
_SIGNS = (-1, 0, 1)
_STATUS_INDEX = {"vacuous": 0, "confirmed": 1, "violated": 2}


@lru_cache(maxsize=None)
def standard_space(n: int) -> StateSpace:
    return StateSpace(tuple(f"ω{k + 1}" for k in range(n)))


@dataclass(frozen=True)
class ModelSource:
    """Where audit instances come from; fully determines the stream."""

    mode: str
    n_states: int = 2
    n_players: int = 2
    n_actions: int = 2
    seed: int = 0
    count: int = 0
    files: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown source mode: {self.mode!r}")
        if self.mode == "from-files":
            if not self.files:
                raise ValueError("from-files source needs at least one file")
            return
        if self.n_states < 1:
            raise ValueError("need at least one state")
        if self.n_players < 1 or self.n_actions < 1:
            raise ValueError("need at least one player and one action")
        if self.mode == "exhaustive-kripke":
            if self.n_states > EXHAUSTIVE_STATE_LIMIT:
                raise ValueError(
                    f"exhaustive enumeration is capped at {EXHAUSTIVE_STATE_LIMIT} states"
                )
            if self.n_players > 2:
                raise ValueError("exhaustive enumeration is capped at 2 players")
        elif self.mode == "exhaustive-games":
            # 9 ordinal patterns per player already gives 331,776 instances
            # at 2 states; anything larger is sampling territory
            if self.n_states > 2 or self.n_players > 2 or self.n_actions > 2:
                raise ValueError(
                    "exhaustive game sweeps are capped at 2 states, 2 players, 2 actions"
                )
        elif self.count < 1:
            raise ValueError("sampled source needs a positive count")


def enumerate_correspondences(
    n: int, constraints: Iterable["FrameProperty | str"] = ()
) -> Iterator[PossibilityCorrespondence]:
    """All (2^n)^n possibility correspondences on n states, optionally
    filtered by frame properties, in a fixed lexicographic order."""
    if n < 1:
        raise ValueError("need at least one state")
    if n > EXHAUSTIVE_STATE_LIMIT:
        raise ValueError(
            f"exhaustive enumeration is capped at {EXHAUSTIVE_STATE_LIMIT} states"
        )
    wanted = tuple(FrameProperty.coerce(c) for c in constraints)
    space = standard_space(n)
    for possible in itertools.product(range(space.size), repeat=n):
        corr = PossibilityCorrespondence(space, possible)
        if all(correspondence_property(corr, prop) for prop in wanted):
            yield corr


def _correspondence_at(space: StateSpace, index: int) -> PossibilityCorrespondence:
    # mixed-radix decode matching enumerate_correspondences order:
    # the first state's possible-set varies slowest
    digits = []
    for _ in range(space.n):
        index, digit = divmod(index, space.size)
        digits.append(digit)
    return PossibilityCorrespondence(space, tuple(reversed(digits)))


@lru_cache(maxsize=8192)
def _kripke_op_at(n: int, index: int, owner: str) -> BeliefOperator:
    space = standard_space(n)
    return BeliefOperator.from_correspondence(
        _correspondence_at(space, index), owner=owner
    )


def _draw_operator(
    rng: random.Random, space: StateSpace, owner: str | None = None
) -> BeliefOperator:
    if rng.random() < 0.5:
        possible = tuple(rng.randrange(space.size) for _ in range(space.n))
        return BeliefOperator.from_correspondence(
            PossibilityCorrespondence(space, possible), owner=owner
        )
    core: dict[int, int] = {}
    for _ in range(rng.randint(1, max(2, space.n))):
        core[rng.randrange(space.size)] = rng.randrange(space.size)
    return BeliefOperator.monotone_closure(space, core, owner=owner)


def sample_monotone_operators(
    n: int, seed: int, count: int
) -> Iterator[BeliefOperator]:
    """Seeded stream of monotone operators: with probability one half a
    Kripke-derived operator, otherwise the monotone closure of a random
    partial core (which reaches outside the Kripke regime)."""
    if not 1 <= count:
        raise ValueError("count must be positive")
    space = standard_space(n)
    rng = random.Random(seed)
    for _ in range(count):
        yield _draw_operator(rng, space)


# ---------------------------------------------------------------------------
# exhaustive 2x2 games: ordinal sign patterns


@lru_cache(maxsize=128)
def _pattern_game(pattern_index: int) -> Game:
    """Canonical 2-player 2-action game realizing one of the 81 ordinal
    patterns. Only same-opponent-action comparisons matter for
    dominance and rationality, so two signs per player are complete."""
    first, second = divmod(pattern_index, 9)
    actions = {"p1": ("a", "b"), "p2": ("a", "b")}
    ranks: dict[str, dict[tuple, int]] = {}
    for player, pat in (("p1", first), ("p2", second)):
        s0, s1 = divmod(pat, 3)
        own_axis = 0 if player == "p1" else 1
        table = {}
        for profile in itertools.product(*(actions[p] for p in actions)):
            opp = profile[1 - own_axis]
            sign = _SIGNS[s0] if opp == "a" else _SIGNS[s1]
            table[profile] = 1 if profile[own_axis] == "a" else 1 + sign
        ranks[player] = table
    return Game.of(actions, ranks)


@lru_cache(maxsize=64)
def _strategy_row(actions: tuple[str, ...], n_states: int, index: int) -> tuple[str, ...]:
    row = []
    for _ in range(n_states):
        index, digit = divmod(index, len(actions))
        row.append(actions[digit])
    return tuple(reversed(row))


# Reusing the model keeps its mutual-belief table warm; the pair index
# is the slowest decode digit, so consecutive instances share it.
@lru_cache(maxsize=64)
def _pair_model(n: int, corr_i: int, corr_j: int) -> BeliefModel:
    return BeliefModel(
        standard_space(n),
        {
            "p1": _kripke_op_at(n, corr_i, "p1"),
            "p2": _kripke_op_at(n, corr_j, "p2"),
        },
    )


def _exhaustive_game_at(source: ModelSource, index: int) -> GameModel:
    n = source.n_states
    space = standard_space(n)
    corr_count = space.size**n
    strat_count = source.n_actions**n
    index, game_idx = divmod(index, 81)
    index, strat_idx = divmod(index, strat_count * strat_count)
    pair_idx, corr_j = divmod(index, corr_count)
    corr_i = pair_idx
    game = _pattern_game(game_idx)
    belief = _pair_model(n, corr_i, corr_j)
    s1, s2 = divmod(strat_idx, strat_count)
    a1, a2 = game.actions
    return GameModel(
        belief, game, (_strategy_row(a1, n, s1), _strategy_row(a2, n, s2))
    )


def _sampled_game(rng: random.Random, source: ModelSource) -> GameModel:
    space = standard_space(source.n_states)
    players = tuple(f"p{k + 1}" for k in range(source.n_players))
    ops = {p: _draw_operator(rng, space, owner=p) for p in players}
    letters = "abcdefghij"[: source.n_actions]
    actions = {p: tuple(letters) for p in players}
    profiles = list(itertools.product(*(actions[p] for p in players)))
    ranks = {
        p: {pr: rng.randrange(len(profiles) + 1) for pr in profiles}
        for p in players
    }
    strategies = {
        p: tuple(letters[rng.randrange(len(letters))] for _ in range(space.n))
        for p in players
    }
    return GameModel.of(BeliefModel(space, ops), Game.of(actions, ranks), strategies)


# ---------------------------------------------------------------------------
# instance streams


def _instance_count(arena: str, source: ModelSource) -> int:
    if source.mode == "from-files":
        return len(source.files)
    if source.mode == "sampled-monotone":
        return source.count
    n = source.n_states
    corr_count = standard_space(n).size**n
    if source.mode == "exhaustive-kripke":
        if arena == "game":
            raise ValueError("game claims need an exhaustive-games or sampled source")
        return corr_count if arena == "operator" else corr_count**2
    if arena != "game":
        raise ValueError("exhaustive-games sources only serve game claims")
    strat_count = source.n_actions**n
    return 81 * corr_count**2 * strat_count**2


def _instances(arena: str, source: ModelSource, lo: int, hi: int) -> Iterator:
    if source.mode == "from-files":
        for path in source.files[lo:hi]:
            with open(path, encoding="utf-8") as fh:
                doc = parse_model_spec(fh.read())
            if arena == "game":
                if doc.game is None:
                    raise ValueError(f"{path} declares no game block")
                yield doc.game_model()
            else:
                yield doc.belief_model()
        return
    n = source.n_states
    space = standard_space(n)
    if source.mode == "exhaustive-kripke":
        corr_count = space.size**n
        for index in range(lo, hi):
            if arena == "operator":
                yield BeliefModel(space, {"i": _kripke_op_at(n, index, "i")})
            else:
                a, b = divmod(index, corr_count)
                yield BeliefModel(
                    space,
                    {"i": _kripke_op_at(n, a, "i"), "j": _kripke_op_at(n, b, "j")},
                )
        return
    if source.mode == "exhaustive-games":
        for index in range(lo, hi):
            yield _exhaustive_game_at(source, index)
        return
    rng = random.Random(source.seed)
    for index in range(hi):
        if arena == "operator":
            instance = BeliefModel(space, {"i": _draw_operator(rng, space, "i")})
        elif arena == "pair":
            instance = BeliefModel(
                space,
                {
                    "i": _draw_operator(rng, space, "i"),
                    "j": _draw_operator(rng, space, "j"),
                },
            )
        else:
            instance = _sampled_game(rng, source)
        if index >= lo:
            yield instance


# ---------------------------------------------------------------------------
# tallies and results


@dataclass(frozen=True)
class DirectionTally:
    """Counts for one implication direction of a claim."""

    direction: str
    vacuous: int
    confirmed: int
    violated: int


class _Acc:
    """Mergeable mutable accumulator for one chunk of an audit run."""

    __slots__ = (
        "cap",
        "order",
        "tallies",
        "instances",
        "violations",
        "violations_total",
        "counterexamples",
        "counterexamples_total",
    )

    def __init__(self, directions: tuple[str, ...], cap: int):
        self.cap = cap
        self.order = directions
        self.tallies = {d: [0, 0, 0] for d in directions}
        self.instances = 0
        self.violations: list[str] = []
        self.violations_total = 0
        self.counterexamples: list[str] = []
        self.counterexamples_total = 0

    def add_instance(self) -> None:
        self.instances += 1

    def record(self, direction: str, status, text=None) -> None:
        if isinstance(status, ImplicationStatus):
            status = status.value
        self.tallies[direction][_STATUS_INDEX[status]] += 1
        if status == "violated":
            self.violations_total += 1
            if len(self.violations) < self.cap and text is not None:
                self.violations.append(text() if callable(text) else text)

    def implication(self, direction: str, premise: bool, conclusion: bool, text=None):
        if not premise:
            self.record(direction, "vacuous")
        elif conclusion:
            self.record(direction, "confirmed")
        else:
            self.record(direction, "violated", text)

    def biconditional(self, left: bool, right: bool, text=None, gate: bool = True):
        self.implication("forward", gate and left, right, text)
        self.implication("backward", gate and right, left, text)

    def witness(self, text) -> None:
        self.counterexamples_total += 1
        if len(self.counterexamples) < self.cap:
            self.counterexamples.append(text() if callable(text) else text)

    def merge(self, other: "_Acc") -> None:
        for d in self.order:
            for k in range(3):
                self.tallies[d][k] += other.tallies[d][k]
        self.instances += other.instances
        self.violations = (self.violations + other.violations)[: self.cap]
        self.violations_total += other.violations_total
        self.counterexamples = (self.counterexamples + other.counterexamples)[
            : self.cap
        ]
        self.counterexamples_total += other.counterexamples_total

    def payload(self) -> tuple:
        return (
            self.instances,
            tuple((d, tuple(self.tallies[d])) for d in self.order),
            tuple(self.violations),
            self.violations_total,
            tuple(self.counterexamples),
            self.counterexamples_total,
        )

    @classmethod
    def from_payload(cls, directions: tuple[str, ...], cap: int, payload: tuple):
        acc = cls(directions, cap)
        (
            acc.instances,
            tallies,
            violations,
            acc.violations_total,
            counterexamples,
            acc.counterexamples_total,
        ) = payload
        for d, counts in tallies:
            acc.tallies[d] = list(counts)
        acc.violations = list(violations)
        acc.counterexamples = list(counterexamples)
        return acc


@dataclass(frozen=True)
class AuditResult:
    """Outcome of one claim over one model source."""

    claim: str
    aliases: tuple[str, ...]
    kind: str
    summary: str
    source: ModelSource
    instances: int
    directions: tuple[DirectionTally, ...]
    violations: tuple[str, ...]
    violations_total: int
    counterexamples: tuple[str, ...]
    counterexamples_total: int

    @property
    def violated_total(self) -> int:
        return sum(d.violated for d in self.directions)

    @property
    def confirmed_total(self) -> int:
        return sum(d.confirmed for d in self.directions)

    @property
    def vacuous_total(self) -> int:
        return sum(d.vacuous for d in self.directions)

    @property
    def passed(self) -> bool:
        if self.kind == "existence":
            return self.counterexamples_total >= 1
        if self.kind == "observational":
            return True
        return self.violated_total == 0

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "aliases": list(self.aliases),
            "kind": self.kind,
            "summary": self.summary,
            "mode": self.source.mode,
            "n_states": self.source.n_states,
            "n_players": self.source.n_players,
            "n_actions": self.source.n_actions,
            "seed": self.source.seed,
            "count": self.source.count,
            "files": list(self.source.files),
            "instances": self.instances,
            "passed": self.passed,
            "directions": [
                {
                    "direction": d.direction,
                    "vacuous": d.vacuous,
                    "confirmed": d.confirmed,
                    "violated": d.violated,
                }
                for d in self.directions
            ],
            "violations_total": self.violations_total,
            "violations": list(self.violations),
            "counterexamples_total": self.counterexamples_total,
            "counterexamples": list(self.counterexamples),
        }


# ---------------------------------------------------------------------------
# claim checks


@lru_cache(maxsize=65536)
def _holds(op: BeliefOperator, axiom: Axiom) -> bool:
    return op.check_axiom(axiom).holds


@lru_cache(maxsize=8192)
def _type_signal_of(op: BeliefOperator, kind: FamilyKind) -> Signal:
    # pair sweeps revisit the same few hundred operators thousands of
    # times; building each type signal once changes the runtime class
    return type_signal(type_mapping_of(op), kind)


def _certain_of_type(
    model: BeliefModel, observer: str, subject: str, kind: FamilyKind
) -> bool:
    return certain_of(
        model, observer, _type_signal_of(model.operator(subject), kind)
    ).holds


def _model_text(model: BeliefModel) -> Callable[[], str]:
    return lambda: serialize_model(model)


def _game_text(gm: GameModel) -> Callable[[], str]:
    return lambda: serialize_model(game_model=gm)


def _signal_text(model: BeliefModel, sig: Signal) -> Callable[[], str]:
    return lambda: serialize_model(model, signals=(sig,))


def _single(model: BeliefModel) -> tuple[str, BeliefOperator]:
    p = model.players[0]
    return p, model.operator(p)


def _pair(model: BeliefModel) -> tuple[str, str, BeliefOperator, BeliefOperator]:
    if len(model.players) < 2:
        raise ValueError("pair claims need a model with at least two players")
    i, j = model.players[0], model.players[1]
    return i, j, model.operator(i), model.operator(j)


def _check_own_beta_iff_pi(model: BeliefModel, acc: _Acc) -> None:
    p, op = _single(model)
    acc.add_instance()
    acc.biconditional(
        _certain_of_type(model, p, p, FamilyKind.BETA),
        _holds(op, Axiom.POSITIVE_INTROSPECTION),
        _model_text(model),
    )


def _check_own_negbeta_iff_ni(model: BeliefModel, acc: _Acc) -> None:
    p, op = _single(model)
    acc.add_instance()
    acc.biconditional(
        _certain_of_type(model, p, p, FamilyKind.NEG_BETA),
        _holds(op, Axiom.NEGATIVE_INTROSPECTION),
        _model_text(model),
    )


def _check_own_sigma_implies_introspection(model: BeliefModel, acc: _Acc) -> None:
    p, op = _single(model)
    acc.add_instance()
    acc.implication(
        "implication",
        _certain_of_type(model, p, p, FamilyKind.SIGMA_ATOMS),
        _holds(op, Axiom.POSITIVE_INTROSPECTION)
        and _holds(op, Axiom.NEGATIVE_INTROSPECTION),
        _model_text(model),
    )


def _check_truthful_sigma_iff_ni(model: BeliefModel, acc: _Acc) -> None:
    p, op = _single(model)
    acc.add_instance()
    acc.biconditional(
        _certain_of_type(model, p, p, FamilyKind.SIGMA_ATOMS),
        _holds(op, Axiom.NEGATIVE_INTROSPECTION),
        _model_text(model),
        gate=_holds(op, Axiom.TRUTH),
    )


def _check_conjunctive_sigma_iff_introspection(model: BeliefModel, acc: _Acc) -> None:
    p, op = _single(model)
    acc.add_instance()
    acc.biconditional(
        _certain_of_type(model, p, p, FamilyKind.SIGMA_ATOMS),
        _holds(op, Axiom.POSITIVE_INTROSPECTION)
        and _holds(op, Axiom.NEGATIVE_INTROSPECTION),
        _model_text(model),
        gate=_holds(op, Axiom.CONSISTENCY)
        and _holds(op, Axiom.COUNTABLE_CONJUNCTION),
    )


def _check_cross_beta_iff_positive(model: BeliefModel, acc: _Acc) -> None:
    i, j, op_i, op_j = _pair(model)
    acc.add_instance()
    acc.biconditional(
        _certain_of_type(model, i, j, FamilyKind.BETA),
        positive_access(op_i, op_j).holds,
        _model_text(model),
    )


def _check_cross_negbeta_iff_negative(model: BeliefModel, acc: _Acc) -> None:
    i, j, op_i, op_j = _pair(model)
    acc.add_instance()
    acc.biconditional(
        _certain_of_type(model, i, j, FamilyKind.NEG_BETA),
        negative_access(op_i, op_j).holds,
        _model_text(model),
    )


def _check_cross_sigma_implies_access(model: BeliefModel, acc: _Acc) -> None:
    i, j, op_i, op_j = _pair(model)
    acc.add_instance()
    acc.implication(
        "implication",
        _certain_of_type(model, i, j, FamilyKind.SIGMA_ATOMS),
        positive_access(op_i, op_j).holds and negative_access(op_i, op_j).holds,
        _model_text(model),
    )


def _check_truthful_cross_sigma_iff_access(model: BeliefModel, acc: _Acc) -> None:
    i, j, op_i, op_j = _pair(model)
    acc.add_instance()
    acc.biconditional(
        _certain_of_type(model, i, j, FamilyKind.SIGMA_ATOMS),
        positive_access(op_i, op_j).holds and negative_access(op_i, op_j).holds,
        _model_text(model),
        gate=_holds(op_i, Axiom.TRUTH),
    )


def _check_conjunctive_cross_sigma_iff_access(model: BeliefModel, acc: _Acc) -> None:
    i, j, op_i, op_j = _pair(model)
    acc.add_instance()
    acc.biconditional(
        _certain_of_type(model, i, j, FamilyKind.SIGMA_ATOMS),
        positive_access(op_i, op_j).holds and negative_access(op_i, op_j).holds,
        _model_text(model),
        gate=_holds(op_i, Axiom.CONSISTENCY)
        and _holds(op_i, Axiom.COUNTABLE_CONJUNCTION),
    )


def _commonly_certain_of_profile(model: BeliefModel) -> bool:
    return all(
        commonly_certain_of(
            model, _type_signal_of(model.operator(s), FamilyKind.SIGMA_ATOMS)
        ).holds
        for s in model.players
    )


def _check_thm1_truthful(model: BeliefModel, acc: _Acc) -> None:
    acc.add_instance()
    gate = all(_holds(op, Axiom.TRUTH) for op in model.operators.values())
    if not gate:
        acc.record("forward", "vacuous")
        acc.record("backward", "vacuous")
        acc.record("in-particular", "vacuous")
        return
    left = _commonly_certain_of_profile(model)
    ops = list(model.operators.values())
    right = all(
        operators_equal(a, b).holds for a, b in itertools.combinations(ops, 2)
    ) and all(_holds(op, Axiom.NEGATIVE_INTROSPECTION) for op in ops)
    text = _model_text(model)
    acc.biconditional(left, right, text)
    if not left:
        acc.record("in-particular", "vacuous")
    else:
        common = model.common_operator()
        acc.implication(
            "in-particular",
            True,
            all(operators_equal(op, common).holds for op in ops),
            text,
        )


def _common_access(model: BeliefModel) -> bool:
    common = model.common_operator()
    return all(
        positive_access(common, op).holds and negative_access(common, op).holds
        for op in model.operators.values()
    )


def _check_thm1_conjunctive(model: BeliefModel, acc: _Acc) -> None:
    acc.add_instance()
    gate = all(
        _holds(op, Axiom.CONSISTENCY) and _holds(op, Axiom.COUNTABLE_CONJUNCTION)
        for op in model.operators.values()
    )
    if not gate:
        acc.record("forward", "vacuous")
        acc.record("backward", "vacuous")
        acc.record("in-particular", "vacuous")
        return
    left = _commonly_certain_of_profile(model)
    right = _common_access(model)
    text = _model_text(model)
    acc.biconditional(left, right, text)
    if not left:
        acc.record("in-particular", "vacuous")
    else:
        acc.implication(
            "in-particular",
            True,
            operators_equal(model.common_operator(), model.mutual_operator()).holds,
            text,
        )


def _check_thm1_converse_fails(model: BeliefModel, acc: _Acc) -> None:
    acc.add_instance()
    gate = all(
        _holds(op, Axiom.CONSISTENCY) and _holds(op, Axiom.COUNTABLE_CONJUNCTION)
        for op in model.operators.values()
    )
    if not gate:
        acc.record("witness", "vacuous")
        return
    fixed = operators_equal(model.common_operator(), model.mutual_operator()).holds
    if fixed and not _commonly_certain_of_profile(model):
        acc.record("witness", "confirmed")
        acc.witness(_model_text(model))
    else:
        acc.record("witness", "vacuous")


def _check_common_vs_iteration(model: BeliefModel, acc: _Acc) -> None:
    acc.add_instance()
    conjunctive = all(
        _holds(op, Axiom.COUNTABLE_CONJUNCTION) for op in model.operators.values()
    )
    common = model.common_operator().table()
    mutual = model.mutual_table()
    contained = True
    equal = True
    for e in range(model.space.size):
        # the accumulator is nonincreasing and the iterate sequence cycles
        # within 2^n steps, so twice around absorbs the whole cycle
        stab = iterated_mutual_bits(mutual, e, 2 * model.space.size + 1)
        if common[e] & ~stab:
            contained = False
        if common[e] != stab:
            equal = False
    text = _model_text(model)
    acc.implication("contained-in-iteration", True, contained, text)
    acc.implication("equals-at-stabilization", conjunctive, equal, text)


def _check_iteration_gap_exists(model: BeliefModel, acc: _Acc) -> None:
    acc.add_instance()
    common = model.common_operator().table()
    mutual = model.mutual_table()
    for e in range(model.space.size):
        stab = iterated_mutual_bits(mutual, e, 2 * model.space.size + 1)
        if common[e] != stab and common[e] & ~stab == 0:
            acc.record("witness", "confirmed")
            acc.witness(_model_text(model))
            return
    acc.record("witness", "vacuous")


@lru_cache(maxsize=32)
def _transfer_signals(space: StateSpace) -> tuple[Signal, ...]:
    """Deterministic signal battery: every two-valued assignment plus
    two three-valued ones, each observed through singletons and their
    complements (so the complement-cover condition holds)."""
    signals = []
    family2 = ("a", "b")
    for values in itertools.product("ab", repeat=space.n):
        signals.append(
            Signal.of(
                space,
                values,
                codomain=family2,
                family=({"a"}, {"b"}),
                name="x" + "".join(values),
            )
        )
    for stride in (1, 2):
        values = tuple("abc"[(stride * k) % 3] for k in range(space.n))
        signals.append(
            Signal.of(
                space,
                values,
                codomain=("a", "b", "c"),
                family=(
                    {"a"},
                    {"b"},
                    {"c"},
                    {"b", "c"},
                    {"a", "c"},
                    {"a", "b"},
                ),
                name="y" + "".join(values),
            )
        )
    return tuple(signals)


@lru_cache(maxsize=32)
def _uncovered_signals(space: StateSpace) -> tuple[Signal, ...]:
    """Families whose complements are not unions of members; the
    transfer conclusion may fail on these, which is recorded to show
    the side condition earns its keep."""
    signals = []
    for values in itertools.product("ab", repeat=space.n):
        signals.append(
            Signal.of(
                space,
                values,
                codomain=("a", "b"),
                family=({"a"},),
                name="x" + "".join(values),
            )
        )
    return tuple(signals)


def _transfer_loop(
    model: BeliefModel, acc: _Acc, direction: str, signals: tuple[Signal, ...]
) -> None:
    # conclusion certainty is only computed on live premises; vacuous
    # instances must cost nothing at pair-sweep scale
    i, j, op_i, op_j = _pair(model)
    live = (
        _holds(op_i, Axiom.CONSISTENCY)
        and _holds(op_j, Axiom.CONSISTENCY)
        and _certain_of_type(model, j, i, FamilyKind.SIGMA_ATOMS)
    )
    for sig in signals:
        acc.add_instance()
        if not live or not certain_of(model, i, sig).holds:
            acc.record(direction, "vacuous")
            continue
        acc.implication(
            direction,
            True,
            certain_of(model, j, sig).holds,
            _signal_text(model, sig),
        )


def _check_certainty_transfer(model: BeliefModel, acc: _Acc) -> None:
    _transfer_loop(model, acc, "implication", _transfer_signals(model.space))


def _check_shared_certainty(model: BeliefModel, acc: _Acc) -> None:
    i, j, op_i, op_j = _pair(model)
    gate = (
        _holds(op_i, Axiom.CONSISTENCY)
        and _holds(op_j, Axiom.CONSISTENCY)
        and _commonly_certain_of_profile(model)
    )
    for sig in _transfer_signals(model.space):
        acc.add_instance()
        if not gate:
            acc.record("implication", "vacuous")
            continue
        acc.implication(
            "implication",
            True,
            certain_of(model, i, sig).holds == certain_of(model, j, sig).holds,
            _signal_text(model, sig),
        )


def _check_transfer_without_cover(model: BeliefModel, acc: _Acc) -> None:
    _transfer_loop(model, acc, "observation", _uncovered_signals(model.space))


def _check_compatibility_chain(model: BeliefModel, acc: _Acc) -> None:
    p, _ = _single(model)
    acc.add_instance()
    report = check_certainty_compatibility(model, p)
    acc.record("implication", report.status, _model_text(model))


def _check_thm2(gm: GameModel, acc: _Acc) -> None:
    acc.add_instance()
    for p in gm.game.players:
        acc.record("implication", correct_belief_chain(gm, p).status, _game_text(gm))


def _check_thm2_introspective(gm: GameModel, acc: _Acc) -> None:
    acc.add_instance()
    for p in gm.game.players:
        acc.record(
            "implication",
            introspective_correct_belief_chain(gm, p).status,
            _game_text(gm),
        )


def _check_thm2_self_evident(gm: GameModel, acc: _Acc) -> None:
    acc.add_instance()
    for p in gm.game.players:
        acc.record(
            "implication",
            self_evident_rationality_chain(gm, p).status,
            _game_text(gm),
        )


def _check_epistemic_iesda(gm: GameModel, acc: _Acc) -> None:
    # Status-equivalent to epistemic_iesda_verdict per state, with the
    # state-independent premises hoisted out of the loop.
    acc.add_instance()
    players = gm.game.players
    correct_all = True
    common_bits = (1 << len(gm.space.states)) - 1
    for p in players:
        rat = rationality_event(gm, p)
        if gm.belief.operator(p).apply_bits(rat.bits) & ~rat.bits:
            correct_all = False
        common_bits &= gm.belief.common_belief(rat).bits
    survived = survival_event(gm, maximal_trace(gm.game)).bits
    text = _game_text(gm)
    for k in range(gm.space.n):
        premise = correct_all and bool(common_bits >> k & 1)
        acc.implication("implication", premise, bool(survived >> k & 1), text)


def _check_truth_implies_consistency(model: BeliefModel, acc: _Acc) -> None:
    _, op = _single(model)
    acc.add_instance()
    acc.implication(
        "implication",
        _holds(op, Axiom.TRUTH),
        _holds(op, Axiom.CONSISTENCY),
        _model_text(model),
    )


def _check_truth_ni_imply_pi(model: BeliefModel, acc: _Acc) -> None:
    _, op = _single(model)
    acc.add_instance()
    acc.implication(
        "implication",
        _holds(op, Axiom.TRUTH) and _holds(op, Axiom.NEGATIVE_INTROSPECTION),
        _holds(op, Axiom.POSITIVE_INTROSPECTION),
        _model_text(model),
    )


def _check_truth_ni_imply_conjunction(model: BeliefModel, acc: _Acc) -> None:
    _, op = _single(model)
    acc.add_instance()
    acc.implication(
        "implication",
        _holds(op, Axiom.TRUTH) and _holds(op, Axiom.NEGATIVE_INTROSPECTION),
        _holds(op, Axiom.FINITE_CONJUNCTION)
        and _holds(op, Axiom.COUNTABLE_CONJUNCTION),
        _model_text(model),
    )


def _check_kripke_implies_logical(model: BeliefModel, acc: _Acc) -> None:
    _, op = _single(model)
    acc.add_instance()
    acc.implication(
        "implication",
        _holds(op, Axiom.KRIPKE),
        _holds(op, Axiom.NECESSITATION)
        and _holds(op, Axiom.FINITE_CONJUNCTION)
        and _holds(op, Axiom.COUNTABLE_CONJUNCTION),
        _model_text(model),
    )


def _frame_check(axiom: Axiom, prop: FrameProperty):
    def check(model: BeliefModel, acc: _Acc) -> None:
        _, op = _single(model)
        acc.add_instance()
        if not op.has_correspondence():
            # table-built operators carry no frame to compare against
            acc.record("forward", "vacuous")
            acc.record("backward", "vacuous")
            return
        acc.biconditional(
            _holds(op, axiom),
            correspondence_property(op.derive_correspondence(), prop),
            _model_text(model),
        )

    return check


def _check_beta_not_negbeta_exists(model: BeliefModel, acc: _Acc) -> None:
    p, op = _single(model)
    acc.add_instance()
    if (
        _holds(op, Axiom.POSITIVE_INTROSPECTION)
        and not _holds(op, Axiom.NEGATIVE_INTROSPECTION)
        and _certain_of_type(model, p, p, FamilyKind.BETA)
        and not _certain_of_type(model, p, p, FamilyKind.NEG_BETA)
    ):
        acc.record("witness", "confirmed")
        acc.witness(_model_text(model))
    else:
        acc.record("witness", "vacuous")


# ---------------------------------------------------------------------------
# claim registry


@dataclass(frozen=True)
class ClaimSpec:
    """One auditable statement: how to instantiate it and what counts
    as confirmation."""

    canonical: str
    aliases: tuple[str, ...]
    arena: str
    kind: str
    summary: str
    directions: tuple[str, ...]
    check: Callable
    modes: tuple[str, ...] = (
        "exhaustive-kripke",
        "sampled-monotone",
        "from-files",
    )


_IFF = ("forward", "backward")
_GAME_MODES = ("exhaustive-games", "sampled-monotone", "from-files")

_CLAIMS = (
    ClaimSpec(
        "own-beta-certainty-iff-positive-introspection",
        ("prop1-1a",),
        "operator",
        "theorem",
        "certainty of the own type mapping through believed-event sets "
        "is equivalent to Positive Introspection",
        _IFF,
        _check_own_beta_iff_pi,
    ),
    ClaimSpec(
        "own-negbeta-certainty-iff-negative-introspection",
        ("prop1-1b",),
        "operator",
        "theorem",
        "certainty through complements of believed-event sets is "
        "equivalent to Negative Introspection",
        _IFF,
        _check_own_negbeta_iff_ni,
    ),
    ClaimSpec(
        "own-type-certainty-implies-introspection",
        ("prop1-1c",),
        "operator",
        "theorem",
        "certainty of the own type mapping on atoms implies both "
        "introspection properties",
        ("implication",),
        _check_own_sigma_implies_introspection,
    ),
    ClaimSpec(
        "truthful-own-type-certainty-iff-negative-introspection",
        ("prop1-2a",),
        "operator",
        "theorem",
        "under the Truth Axiom, certainty of the own type mapping on "
        "atoms is equivalent to Negative Introspection",
        _IFF,
        _check_truthful_sigma_iff_ni,
    ),
    ClaimSpec(
        "consistent-conjunctive-own-type-certainty-iff-introspection",
        ("prop1-2b",),
        "operator",
        "theorem",
        "under Consistency and Countable Conjunction, certainty of the "
        "own type mapping on atoms is equivalent to both introspections",
        _IFF,
        _check_conjunctive_sigma_iff_introspection,
    ),
    ClaimSpec(
        "cross-beta-certainty-iff-positive-access",
        ("remark1-1a",),
        "pair",
        "theorem",
        "certainty of another player's believed-event sets is "
        "equivalent to believing everything they believe",
        _IFF,
        _check_cross_beta_iff_positive,
    ),
    ClaimSpec(
        "cross-negbeta-certainty-iff-negative-access",
        ("remark1-1b",),
        "pair",
        "theorem",
        "certainty of another player's unbelieved-event sets is "
        "equivalent to believing everything they fail to believe",
        _IFF,
        _check_cross_negbeta_iff_negative,
    ),
    ClaimSpec(
        "cross-type-certainty-implies-access",
        ("remark1-1c",),
        "pair",
        "theorem",
        "certainty of another player's type mapping on atoms implies "
        "both access properties",
        ("implication",),
        _check_cross_sigma_implies_access,
    ),
    ClaimSpec(
        "truthful-cross-type-certainty-iff-access",
        ("remark1-2a",),
        "pair",
        "theorem",
        "under the observer's Truth Axiom, certainty of another "
        "player's type mapping is equivalent to both access properties",
        _IFF,
        _check_truthful_cross_sigma_iff_access,
    ),
    ClaimSpec(
        "consistent-conjunctive-cross-type-certainty-iff-access",
        ("remark1-2b",),
        "pair",
        "theorem",
        "under the observer's Consistency and Countable Conjunction, "
        "certainty of another player's type mapping is equivalent to "
        "both access properties",
        _IFF,
        _check_conjunctive_cross_sigma_iff_access,
    ),
    ClaimSpec(
        "truthful-common-type-certainty-iff-shared-introspective-beliefs",
        ("thm1-1",),
        "pair",
        "theorem",
        "under everyone's Truth Axiom, common certainty of the type "
        "profile is equivalent to identical, negatively introspective "
        "operators; each then equals the common operator",
        ("forward", "backward", "in-particular"),
        _check_thm1_truthful,
    ),
    ClaimSpec(
        "conjunctive-common-type-certainty-iff-common-access",
        ("thm1-2",),
        "pair",
        "theorem",
        "under everyone's Consistency and Countable Conjunction, common "
        "certainty of the type profile is equivalent to common-belief "
        "access to every operator; common then equals mutual belief",
        ("forward", "backward", "in-particular"),
        _check_thm1_conjunctive,
    ),
    ClaimSpec(
        "common-access-without-common-type-certainty-exists",
        ("thm1-2-converse-fails",),
        "pair",
        "existence",
        "common belief can equal mutual belief without the players "
        "being commonly certain of the type profile",
        ("witness",),
        _check_thm1_converse_fails,
    ),
    ClaimSpec(
        "certainty-transfers-through-type-certainty",
        ("prop4-1a",),
        "pair",
        "theorem",
        "with consistent players and complement-covered observations, "
        "certainty of a signal passes to whoever is certain of the "
        "certain player's type mapping",
        ("implication",),
        _check_certainty_transfer,
    ),
    ClaimSpec(
        "common-type-certainty-shares-signal-certainty",
        ("prop4-1b",),
        "pair",
        "theorem",
        "with consistent players commonly certain of the type profile, "
        "signal certainty is shared: one player is certain exactly when "
        "the other is",
        ("implication",),
        _check_shared_certainty,
    ),
    ClaimSpec(
        "complement-cover-condition-is-needed",
        ("prop4-side-condition",),
        "pair",
        "observational",
        "without the complement-cover condition on observations the "
        "transfer conclusion can fail; failures are recorded, not "
        "asserted",
        ("observation",),
        _check_transfer_without_cover,
    ),
    ClaimSpec(
        "own-upward-certainty-implies-compatibility",
        ("prop5",),
        "operator",
        "theorem",
        "a consistent, conjunctive player certain of the upward sets of "
        "own types is compatible with informativeness",
        ("implication",),
        _check_compatibility_chain,
    ),
    ClaimSpec(
        "certain-compatible-conjunctive-players-believe-own-rationality",
        ("thm2",),
        "game",
        "theorem",
        "strategy and type certainty with compatibility and Finite "
        "Conjunction make every player correctly believe own "
        "rationality",
        ("implication",),
        _check_thm2,
        _GAME_MODES,
    ),
    ClaimSpec(
        "consistent-introspective-kripke-players-believe-own-rationality",
        ("thm2-kripke-pi",),
        "game",
        "theorem",
        "consistent, positively introspective Kripke players who are "
        "certain of their strategies correctly believe own rationality",
        ("implication",),
        _check_thm2_introspective,
        _GAME_MODES,
    ),
    ClaimSpec(
        "negatively-introspective-kripke-rationality-is-self-evident",
        ("thm2-kripke-ni",),
        "game",
        "theorem",
        "for negatively introspective Kripke players certain of their "
        "strategies, own rationality is self-evident: the event implies "
        "belief in it",
        ("implication",),
        _check_thm2_self_evident,
        _GAME_MODES,
    ),
    ClaimSpec(
        "common-rationality-belief-implies-iesda-survival",
        ("epistemic-iesda",),
        "game",
        "theorem",
        "common belief in everyone's rationality with correct "
        "own-rationality beliefs keeps the played profile among the "
        "iterated-dominance survivors",
        ("implication",),
        _check_epistemic_iesda,
        _GAME_MODES,
    ),
    ClaimSpec(
        "truth-implies-consistency",
        (),
        "operator",
        "theorem",
        "the Truth Axiom implies Consistency",
        ("implication",),
        _check_truth_implies_consistency,
    ),
    ClaimSpec(
        "truth-and-negative-introspection-imply-positive",
        ("truth-and-ni-imply-pi",),
        "operator",
        "theorem",
        "the Truth Axiom with Negative Introspection implies Positive "
        "Introspection",
        ("implication",),
        _check_truth_ni_imply_pi,
    ),
    ClaimSpec(
        "truth-and-negative-introspection-imply-conjunction",
        ("truth-and-ni-imply-fc",),
        "operator",
        "theorem",
        "the Truth Axiom with Negative Introspection implies both "
        "conjunction axioms",
        ("implication",),
        _check_truth_ni_imply_conjunction,
    ),
    ClaimSpec(
        "kripke-implies-logical-omniscience",
        ("kripke-implies-logical",),
        "operator",
        "theorem",
        "the Kripke property implies Necessitation and both conjunction "
        "axioms",
        ("implication",),
        _check_kripke_implies_logical,
    ),
    ClaimSpec(
        "consistency-iff-serial",
        ("frame-serial",),
        "operator",
        "theorem",
        "on correspondence-built operators Consistency is equivalent to "
        "a serial frame",
        _IFF,
        _frame_check(Axiom.CONSISTENCY, FrameProperty.SERIAL),
        ("exhaustive-kripke", "from-files"),
    ),
    ClaimSpec(
        "truth-iff-reflexive",
        ("frame-reflexive",),
        "operator",
        "theorem",
        "on correspondence-built operators the Truth Axiom is "
        "equivalent to a reflexive frame",
        _IFF,
        _frame_check(Axiom.TRUTH, FrameProperty.REFLEXIVE),
        ("exhaustive-kripke", "from-files"),
    ),
    ClaimSpec(
        "positive-introspection-iff-transitive",
        ("frame-transitive",),
        "operator",
        "theorem",
        "on correspondence-built operators Positive Introspection is "
        "equivalent to a transitive frame",
        _IFF,
        _frame_check(Axiom.POSITIVE_INTROSPECTION, FrameProperty.TRANSITIVE),
        ("exhaustive-kripke", "from-files"),
    ),
    ClaimSpec(
        "negative-introspection-iff-euclidean",
        ("frame-euclidean",),
        "operator",
        "theorem",
        "on correspondence-built operators Negative Introspection is "
        "equivalent to a euclidean frame",
        _IFF,
        _frame_check(Axiom.NEGATIVE_INTROSPECTION, FrameProperty.EUCLIDEAN),
        ("exhaustive-kripke", "from-files"),
    ),
    ClaimSpec(
        "common-belief-matches-iteration",
        ("common-belief-vs-iteration",),
        "pair",
        "theorem",
        "the common-belief fixed point always sits inside the iterated "
        "mutual-belief intersection and equals it for conjunctive "
        "players",
        ("contained-in-iteration", "equals-at-stabilization"),
        _check_common_vs_iteration,
    ),
    ClaimSpec(
        "strictly-finer-common-belief-exists",
        ("strict-iteration-gap",),
        "pair",
        "existence",
        "without conjunction the common-belief fixed point can be "
        "strictly below the iterated intersection",
        ("witness",),
        _check_iteration_gap_exists,
    ),
    ClaimSpec(
        "beta-certainty-without-negbeta-certainty-exists",
        ("beta-not-negbeta-exists",),
        "operator",
        "existence",
        "a positively but not negatively introspective player can be "
        "certain through believed-event sets yet not their complements",
        ("witness",),
        _check_beta_not_negbeta_exists,
    ),
)

REGISTRY: dict[str, ClaimSpec] = {}
for _spec in _CLAIMS:
    REGISTRY[_spec.canonical] = _spec
    for _alias in _spec.aliases:
        if _alias in REGISTRY:
            raise AssertionError(f"duplicate claim alias: {_alias}")
        REGISTRY[_alias] = _spec


def claim_ids() -> tuple[str, ...]:
    return tuple(spec.canonical for spec in _CLAIMS)


def resolve_claim(claim: str) -> ClaimSpec:
    try:
        return REGISTRY[claim]
    except KeyError:
        raise ValueError(f"unknown claim id: {claim!r}") from None


# ---------------------------------------------------------------------------
# the audit driver


def _run_range(claim_id: str, source: ModelSource, lo: int, hi: int, cap: int) -> _Acc:
    spec = resolve_claim(claim_id)
    acc = _Acc(spec.directions, cap)
    for instance in _instances(spec.arena, source, lo, hi):
        spec.check(instance, acc)
    return acc


def _run_range_payload(
    claim_id: str, source: ModelSource, lo: int, hi: int, cap: int
) -> tuple:
    return _run_range(claim_id, source, lo, hi, cap).payload()


def _worker_count(jobs: int, total: int) -> int:
    """Processes for an audit asked to use `jobs`: never more than the
    instances to share out or the CPUs to run them on."""
    if jobs < 1:
        raise ValueError("jobs must be positive")
    return min(jobs, total, os.cpu_count() or 1)


def audit(
    claim: str, source: ModelSource, jobs: int = 1, cap: int = VIOLATION_CAP
) -> AuditResult:
    """Evaluate one claim over every instance the source yields.

    Deterministic for a fixed source, regardless of jobs: chunks are
    merged in index order and the capped listings keep the first
    occurrences of the whole stream.
    """
    spec = resolve_claim(claim)
    if source.mode not in spec.modes:
        raise ValueError(
            f"claim {spec.canonical} accepts source modes {spec.modes}, "
            f"not {source.mode!r}"
        )
    if cap < 0:
        raise ValueError("cap must not be negative")
    total = _instance_count(spec.arena, source)
    workers = _worker_count(jobs, total)
    if workers <= 1 or source.mode == "from-files":
        acc = _run_range(spec.canonical, source, 0, total, cap)
    else:
        step = -(-total // workers)
        bounds = [(lo, min(lo + step, total)) for lo in range(0, total, step)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_run_range_payload, spec.canonical, source, lo, hi, cap)
                for lo, hi in bounds
            ]
            payloads = [f.result() for f in futures]
        acc = _Acc.from_payload(spec.directions, cap, payloads[0])
        for payload in payloads[1:]:
            acc.merge(_Acc.from_payload(spec.directions, cap, payload))
    return AuditResult(
        claim=spec.canonical,
        aliases=spec.aliases,
        kind=spec.kind,
        summary=spec.summary,
        source=source,
        instances=acc.instances,
        directions=tuple(
            DirectionTally(d, *acc.tallies[d]) for d in spec.directions
        ),
        violations=tuple(acc.violations),
        violations_total=acc.violations_total,
        counterexamples=tuple(acc.counterexamples),
        counterexamples_total=acc.counterexamples_total,
    )
