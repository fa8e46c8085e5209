"""Model generation and machine audit of every certainty claim in scope.

The harness materializes belief models from a declarative source
(exhaustive Kripke enumeration, seeded monotone sampling, exhaustive
small games, or files), evaluates one registered claim per run, and
tallies verdicts per implication direction. Audits are pure and
deterministic: the same claim and source always give the same result,
including the serialized violation and counterexample listings, and
the instance stream is index-addressable so runs parallelize into
ordered chunks with a deterministic merge. The exhaustive game stream
is index-addressable in blocks too: each run of 81 consecutive
instances shares one belief model and one strategy profile, and a
claim may decide a whole block at once from each player's own game
pattern.
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
from .games import Game, GameModel, correct_belief_chain
from .games import introspective_correct_belief_chain, self_evident_rationality_chain
from .games import maximal_trace, rationality_event, survival_bits
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
# A sampled game instance builds every action profile, n_actions **
# n_players of them; past this many one instance costs seconds and
# hundreds of megabytes.
_GAME_PROFILE_LIMIT = 4096
_ACTION_NAMES = "abcdefghij"  # of a sampled game; their count caps its actions
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
            # the sweep enumerates 2x2 games only; 9 ordinal patterns per
            # player already gives 331,776 instances at 2 states, and
            # anything larger is sampling territory
            if self.n_states > 2 or self.n_players != 2 or self.n_actions != 2:
                raise ValueError(
                    "exhaustive game sweeps take 1 or 2 states, 2 players, 2 actions"
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
    for index in range(space.size**n):
        corr = _correspondence_at(space, index)
        if all(correspondence_property(corr, prop) for prop in wanted):
            yield corr


def _correspondence_at(space: StateSpace, index: int) -> PossibilityCorrespondence:
    # mixed-radix decode: the first state's possible-set varies slowest
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


def _game_blocks(
    source: ModelSource, lo: int, hi: int
) -> Iterator[tuple[BeliefModel, tuple[tuple[str, ...], ...], range]]:
    """Decode the exhaustive game index in blocks of 81 instances that
    share one belief model and one strategy profile: yield the belief,
    the strategy rows and the game pattern indices clipped to [lo, hi).
    Patterns vary fastest, then strategy pairs, then operator pairs."""
    n = source.n_states
    corr_count = standard_space(n).size ** n
    strat_count = source.n_actions**n
    actions = _pattern_game(0).actions
    for block in range(lo // 81, -(-hi // 81)):
        base = 81 * block
        pair_idx, strat_idx = divmod(block, strat_count * strat_count)
        corr_i, corr_j = divmod(pair_idx, corr_count)
        s1, s2 = divmod(strat_idx, strat_count)
        rows = (
            _strategy_row(actions[0], n, s1),
            _strategy_row(actions[1], n, s2),
        )
        games = range(max(lo, base) - base, min(hi, base + 81) - base)
        yield _pair_model(n, corr_i, corr_j), rows, games


def _sampled_game(rng: random.Random, source: ModelSource) -> GameModel:
    space = standard_space(source.n_states)
    players = tuple(f"p{k + 1}" for k in range(source.n_players))
    ops = {p: _draw_operator(rng, space, owner=p) for p in players}
    letters = _ACTION_NAMES[: source.n_actions]
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
        # past 13 players any two-action game is over the limit, so the
        # exponent is clamped there and the check allocates nothing
        exponent = min(source.n_players, _GAME_PROFILE_LIMIT.bit_length())
        if arena == "game" and source.n_actions**exponent > _GAME_PROFILE_LIMIT:
            raise ValueError(
                f"sampled games are capped at {_GAME_PROFILE_LIMIT} action "
                "profiles (actions ** players)"
            )
        if arena == "game" and source.n_actions > len(_ACTION_NAMES):
            raise ValueError(
                f"sampled games are capped at {len(_ACTION_NAMES)} actions per player"
            )
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
        # audits run the block checks; this stream is their tested reference
        for belief, rows, games in _game_blocks(source, lo, hi):
            for g in games:
                yield GameModel(belief, _pattern_game(g), rows)
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

    def vacuous(self) -> None:
        """Record every direction of this instance as vacuous."""
        for d in self.order:
            self.record(d, "vacuous")

    def exists(self, found: bool, text) -> None:
        """Record the witness direction, listing the witness when found."""
        self.record("witness", "confirmed" if found else "vacuous")
        if found:
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


def _game_text(belief: BeliefModel, game: Game, rows) -> Callable[[], str]:
    # the game model is built only when a listing is rendered
    return lambda: serialize_model(game_model=GameModel(belief, game, rows))


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


def _all_hold(op: BeliefOperator, axioms: tuple[Axiom, ...]) -> bool:
    return all(_holds(op, axiom) for axiom in axioms)


def _commonly_certain_of_profile(model: BeliefModel) -> bool:
    return all(
        commonly_certain_of(
            model, _type_signal_of(model.operator(s), FamilyKind.SIGMA_ATOMS)
        ).holds
        for s in model.players
    )


def _equals_common(model: BeliefModel) -> bool:
    common = model.common_operator()
    return all(operators_equal(op, common).holds for op in model.operators.values())


def _check_thm1_truthful(model: BeliefModel, acc: _Acc) -> None:
    acc.add_instance()
    if not all(_holds(op, Axiom.TRUTH) for op in model.operators.values()):
        acc.vacuous()
        return
    left = _commonly_certain_of_profile(model)
    ops = list(model.operators.values())
    right = all(
        operators_equal(a, b).holds for a, b in itertools.combinations(ops, 2)
    ) and all(_holds(op, Axiom.NEGATIVE_INTROSPECTION) for op in ops)
    text = _model_text(model)
    acc.biconditional(left, right, text)
    acc.implication("in-particular", left, left and _equals_common(model), text)


def _common_access(model: BeliefModel) -> bool:
    common = model.common_operator()
    return all(
        positive_access(common, op).holds and negative_access(common, op).holds
        for op in model.operators.values()
    )


def _conjunctive_profile(model: BeliefModel) -> bool:
    return all(
        _holds(op, Axiom.CONSISTENCY) and _holds(op, Axiom.COUNTABLE_CONJUNCTION)
        for op in model.operators.values()
    )


def _check_thm1_conjunctive(model: BeliefModel, acc: _Acc) -> None:
    acc.add_instance()
    if not _conjunctive_profile(model):
        acc.vacuous()
        return
    left = _commonly_certain_of_profile(model)
    right = _common_access(model)
    text = _model_text(model)
    acc.biconditional(left, right, text)
    acc.implication(
        "in-particular",
        left,
        left and operators_equal(model.common_operator(), model.mutual_operator()).holds,
        text,
    )


def _check_thm1_converse_fails(model: BeliefModel, acc: _Acc) -> None:
    acc.add_instance()
    acc.exists(
        _conjunctive_profile(model)
        and operators_equal(model.common_operator(), model.mutual_operator()).holds
        and not _commonly_certain_of_profile(model),
        _model_text(model),
    )


def _common_and_iterated(model: BeliefModel) -> list[tuple[int, int]]:
    """Per event, the common-belief bits and the intersection of the
    iterated mutual beliefs. The accumulator is nonincreasing and the
    iterate sequence cycles within 2^n steps, so twice around absorbs
    the whole cycle."""
    common = model.common_operator().table()
    mutual = model.mutual_table()
    depth = 2 * model.space.size + 1
    return [(c, iterated_mutual_bits(mutual, e, depth)) for e, c in enumerate(common)]


def _check_common_vs_iteration(model: BeliefModel, acc: _Acc) -> None:
    acc.add_instance()
    conjunctive = all(
        _holds(op, Axiom.COUNTABLE_CONJUNCTION) for op in model.operators.values()
    )
    pairs = _common_and_iterated(model)
    contained = all(not common & ~stab for common, stab in pairs)
    equal = all(common == stab for common, stab in pairs)
    text = _model_text(model)
    acc.implication("contained-in-iteration", True, contained, text)
    acc.implication("equals-at-stabilization", conjunctive, equal, text)


def _check_iteration_gap_exists(model: BeliefModel, acc: _Acc) -> None:
    acc.add_instance()
    acc.exists(
        any(
            common != stab and not common & ~stab
            for common, stab in _common_and_iterated(model)
        ),
        _model_text(model),
    )


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


# Claim shapes. Each factory builds the checks of one family of claims
# that differ only in their parameters. Callees in other layers (the
# access checks and the chains) are named, and looked up in this
# module's namespace when the check runs, so a rebinding of the module
# attribute (a tracer, a test's monkeypatch) reaches every built check.


def _frame_check(axiom: Axiom, prop: FrameProperty):
    def check(model: BeliefModel, acc: _Acc) -> None:
        _, op = _single(model)
        acc.add_instance()
        if not op.has_correspondence():
            # table-built operators carry no frame to compare against
            acc.vacuous()
            return
        acc.biconditional(
            _holds(op, axiom),
            correspondence_property(op.derive_correspondence(), prop),
            _model_text(model),
        )

    return check


def _own_type_check(
    kind: FamilyKind,
    conclusion: tuple[Axiom, ...],
    gate: tuple[Axiom, ...] = (),
    iff: bool = True,
):
    """Certainty of the player's own type mapping through `kind` against
    the `conclusion` axioms, on operators satisfying the `gate` axioms."""

    def check(model: BeliefModel, acc: _Acc) -> None:
        p, op = _single(model)
        acc.add_instance()
        left = _certain_of_type(model, p, p, kind)
        right = _all_hold(op, conclusion)
        text = _model_text(model)
        if iff:
            acc.biconditional(left, right, text, _all_hold(op, gate))
        else:
            acc.implication("implication", left and _all_hold(op, gate), right, text)

    return check


def _cross_type_check(
    kind: FamilyKind,
    access: tuple[str, ...],
    gate: tuple[Axiom, ...] = (),
    iff: bool = True,
):
    """The first player's certainty of the second player's type mapping
    through `kind` against the named access checks, on observers
    satisfying the `gate` axioms."""

    def check(model: BeliefModel, acc: _Acc) -> None:
        i, j, op_i, op_j = _pair(model)
        acc.add_instance()
        left = _certain_of_type(model, i, j, kind)
        right = all(globals()[name](op_i, op_j).holds for name in access)
        text = _model_text(model)
        if iff:
            acc.biconditional(left, right, text, _all_hold(op_i, gate))
        else:
            acc.implication("implication", left and _all_hold(op_i, gate), right, text)

    return check


def _axiom_implication_check(premise: tuple[Axiom, ...], conclusion: tuple[Axiom, ...]):
    def check(model: BeliefModel, acc: _Acc) -> None:
        _, op = _single(model)
        acc.add_instance()
        acc.implication(
            "implication",
            _all_hold(op, premise),
            _all_hold(op, conclusion),
            _model_text(model),
        )

    return check


# Game claims. Each is a per-player fact, which reads only that
# player's operator, the strategy rows and the player's own ranks, and a
# tally, which records one instance from every player's fact.


def _chain_fact(chain: str) -> Callable:
    """A player's verdict from the named chain in `games`."""
    return lambda gm, p: globals()[chain](gm, p).status


def _chain_tally(belief: BeliefModel, game: Game, rows, facts, acc: _Acc) -> None:
    acc.add_instance()
    text = _game_text(belief, game, rows)
    for status in facts:
        acc.record("implication", status, text)


def _rationality_fact(gm: GameModel, p: str) -> tuple[bool, int]:
    """Whether p correctly believes own rationality, and the states where
    that rationality is commonly believed."""
    rat = rationality_event(gm, p)
    correct = not gm.belief.operator(p).apply_bits(rat.bits) & ~rat.bits
    return correct, gm.belief.common_belief(rat).bits


def _survival_tally(belief: BeliefModel, game: Game, rows, facts, acc: _Acc) -> None:
    # status-equivalent to epistemic_iesda_verdict at every state
    acc.add_instance()
    premise = belief.space.size - 1
    for correct, common in facts:
        premise &= common if correct else 0
    # without a live premise every state is vacuous, whatever survives
    survived = premise and survival_bits(game, rows, maximal_trace(game))
    text = _game_text(belief, game, rows)
    for k in range(belief.space.n):
        acc.implication(
            "implication", bool(premise >> k & 1), bool(survived >> k & 1), text
        )


def _game_claim(fact: Callable, tally: Callable) -> dict[str, Callable]:
    """The per-instance check and the block check of one game claim, as
    ClaimSpec keyword arguments.

    In pattern game g the first player's ranks depend only on g // 9 and
    the second's only on g % 9, and a block fixes the belief model and
    the strategies. So the block check decides each player's fact once
    per own pattern k, on the diagonal game 10 * k, whose two players
    both have pattern k."""

    def check(gm: GameModel, acc: _Acc) -> None:
        facts = [fact(gm, p) for p in gm.game.players]
        tally(gm.belief, gm.game, gm.strategies, facts, acc)

    def block(belief: BeliefModel, rows, games: range, acc: _Acc) -> None:
        models = [GameModel(belief, _pattern_game(10 * k), rows) for k in range(9)]
        first, second = ([fact(gm, p) for gm in models] for p in models[0].game.players)
        for g in games:
            tally(belief, _pattern_game(g), rows, (first[g // 9], second[g % 9]), acc)

    return {"check": check, "block": block}


def _check_beta_not_negbeta_exists(model: BeliefModel, acc: _Acc) -> None:
    p, op = _single(model)
    acc.add_instance()
    acc.exists(
        _holds(op, Axiom.POSITIVE_INTROSPECTION)
        and not _holds(op, Axiom.NEGATIVE_INTROSPECTION)
        and _certain_of_type(model, p, p, FamilyKind.BETA)
        and not _certain_of_type(model, p, p, FamilyKind.NEG_BETA),
        _model_text(model),
    )


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
    # check(belief, rows, games, acc) of one block of an exhaustive game
    # sweep, making the calls on acc that `check` makes per instance
    block: Callable | None = None


_IFF = ("forward", "backward")
_INTROSPECTION = (Axiom.POSITIVE_INTROSPECTION, Axiom.NEGATIVE_INTROSPECTION)
_CONJUNCTIVE = (Axiom.CONSISTENCY, Axiom.COUNTABLE_CONJUNCTION)
_TRUTH_NI = (Axiom.TRUTH, Axiom.NEGATIVE_INTROSPECTION)
_ACCESS = ("positive_access", "negative_access")
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
        _own_type_check(FamilyKind.BETA, (Axiom.POSITIVE_INTROSPECTION,)),
    ),
    ClaimSpec(
        "own-negbeta-certainty-iff-negative-introspection",
        ("prop1-1b",),
        "operator",
        "theorem",
        "certainty through complements of believed-event sets is "
        "equivalent to Negative Introspection",
        _IFF,
        _own_type_check(FamilyKind.NEG_BETA, (Axiom.NEGATIVE_INTROSPECTION,)),
    ),
    ClaimSpec(
        "own-type-certainty-implies-introspection",
        ("prop1-1c",),
        "operator",
        "theorem",
        "certainty of the own type mapping on atoms implies both "
        "introspection properties",
        ("implication",),
        _own_type_check(FamilyKind.SIGMA_ATOMS, _INTROSPECTION, iff=False),
    ),
    ClaimSpec(
        "truthful-own-type-certainty-iff-negative-introspection",
        ("prop1-2a",),
        "operator",
        "theorem",
        "under the Truth Axiom, certainty of the own type mapping on "
        "atoms is equivalent to Negative Introspection",
        _IFF,
        _own_type_check(
            FamilyKind.SIGMA_ATOMS, (Axiom.NEGATIVE_INTROSPECTION,), gate=(Axiom.TRUTH,)
        ),
    ),
    ClaimSpec(
        "consistent-conjunctive-own-type-certainty-iff-introspection",
        ("prop1-2b",),
        "operator",
        "theorem",
        "under Consistency and Countable Conjunction, certainty of the "
        "own type mapping on atoms is equivalent to both introspections",
        _IFF,
        _own_type_check(FamilyKind.SIGMA_ATOMS, _INTROSPECTION, gate=_CONJUNCTIVE),
    ),
    ClaimSpec(
        "cross-beta-certainty-iff-positive-access",
        ("remark1-1a",),
        "pair",
        "theorem",
        "certainty of another player's believed-event sets is "
        "equivalent to believing everything they believe",
        _IFF,
        _cross_type_check(FamilyKind.BETA, ("positive_access",)),
    ),
    ClaimSpec(
        "cross-negbeta-certainty-iff-negative-access",
        ("remark1-1b",),
        "pair",
        "theorem",
        "certainty of another player's unbelieved-event sets is "
        "equivalent to believing everything they fail to believe",
        _IFF,
        _cross_type_check(FamilyKind.NEG_BETA, ("negative_access",)),
    ),
    ClaimSpec(
        "cross-type-certainty-implies-access",
        ("remark1-1c",),
        "pair",
        "theorem",
        "certainty of another player's type mapping on atoms implies "
        "both access properties",
        ("implication",),
        _cross_type_check(FamilyKind.SIGMA_ATOMS, _ACCESS, iff=False),
    ),
    ClaimSpec(
        "truthful-cross-type-certainty-iff-access",
        ("remark1-2a",),
        "pair",
        "theorem",
        "under the observer's Truth Axiom, certainty of another "
        "player's type mapping is equivalent to both access properties",
        _IFF,
        _cross_type_check(FamilyKind.SIGMA_ATOMS, _ACCESS, gate=(Axiom.TRUTH,)),
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
        _cross_type_check(FamilyKind.SIGMA_ATOMS, _ACCESS, gate=_CONJUNCTIVE),
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
        modes=_GAME_MODES,
        **_game_claim(_chain_fact("correct_belief_chain"), _chain_tally),
    ),
    ClaimSpec(
        "consistent-introspective-kripke-players-believe-own-rationality",
        ("thm2-kripke-pi",),
        "game",
        "theorem",
        "consistent, positively introspective Kripke players who are "
        "certain of their strategies correctly believe own rationality",
        ("implication",),
        modes=_GAME_MODES,
        **_game_claim(_chain_fact("introspective_correct_belief_chain"), _chain_tally),
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
        modes=_GAME_MODES,
        **_game_claim(_chain_fact("self_evident_rationality_chain"), _chain_tally),
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
        modes=_GAME_MODES,
        **_game_claim(_rationality_fact, _survival_tally),
    ),
    ClaimSpec(
        "truth-implies-consistency",
        (),
        "operator",
        "theorem",
        "the Truth Axiom implies Consistency",
        ("implication",),
        _axiom_implication_check((Axiom.TRUTH,), (Axiom.CONSISTENCY,)),
    ),
    ClaimSpec(
        "truth-and-negative-introspection-imply-positive",
        ("truth-and-ni-imply-pi",),
        "operator",
        "theorem",
        "the Truth Axiom with Negative Introspection implies Positive "
        "Introspection",
        ("implication",),
        _axiom_implication_check(_TRUTH_NI, (Axiom.POSITIVE_INTROSPECTION,)),
    ),
    ClaimSpec(
        "truth-and-negative-introspection-imply-conjunction",
        ("truth-and-ni-imply-fc",),
        "operator",
        "theorem",
        "the Truth Axiom with Negative Introspection implies both "
        "conjunction axioms",
        ("implication",),
        _axiom_implication_check(
            _TRUTH_NI, (Axiom.FINITE_CONJUNCTION, Axiom.COUNTABLE_CONJUNCTION)
        ),
    ),
    ClaimSpec(
        "kripke-implies-logical-omniscience",
        ("kripke-implies-logical",),
        "operator",
        "theorem",
        "the Kripke property implies Necessitation and both conjunction "
        "axioms",
        ("implication",),
        _axiom_implication_check(
            (Axiom.KRIPKE,),
            (Axiom.NECESSITATION, Axiom.FINITE_CONJUNCTION, Axiom.COUNTABLE_CONJUNCTION),
        ),
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
    if source.mode == "exhaustive-games":
        for belief, rows, games in _game_blocks(source, lo, hi):
            spec.block(belief, rows, games, acc)
    else:
        for instance in _instances(spec.arena, source, lo, hi):
            spec.check(instance, acc)
    return acc


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
                pool.submit(_run_range, spec.canonical, source, lo, hi, cap)
                for lo, hi in bounds
            ]
            acc, *rest = [f.result() for f in futures]
        for other in rest:
            acc.merge(other)
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
