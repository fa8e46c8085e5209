"""Model generation and machine audit of every certainty claim in scope.

The harness materializes belief models from a declarative source
(exhaustive Kripke enumeration, seeded monotone sampling, exhaustive
small games, or files), evaluates one registered claim per run, and
tallies verdicts per implication direction. Audits are pure and
deterministic: the same claim and source always give the same result,
including the serialized violation and counterexample listings, and
the instance stream is index-addressable so runs parallelize into
ordered chunks with a deterministic merge. The exhaustive streams and
the sampled operator and pair streams on up to three states are swept
without building each instance. An operator or pair claim reads each
player's operator through one per-operator fact, so the exhaustive
Kripke streams decide the fact of each of the (2^n)^n operators once
and tally every instance from its facts, and the sampled streams
decide it once per distinct drawn table. In the exhaustive game stream each
run of 81 consecutive instances shares one belief model and one
strategy profile, and a claim decides a whole block at once from each
player's own game pattern. Generated pair instances have exactly two
players, so pair claims refuse a generated source with any other
player count.
"""

from __future__ import annotations

import itertools
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterable, Iterator

from .core import (
    Axiom,
    BeliefModel,
    BeliefOperator,
    FrameProperty,
    ImplicationStatus,
    PossibilityCorrespondence,
    StateSpace,
    common_table,
    correspondence_property,
    intersect_tables,
    iterated_mutual_bits,
    kripke_table,
    monotone_closure_table,
)
from .dsl import parse_model_spec, serialize_model
from .games import Game, GameModel, correct_belief_chain
from .games import introspective_correct_belief_chain, self_evident_rationality_chain
from .games import maximal_trace, rationality_event, survival_bits
from .informativeness import compatible_with_informativeness
from .qualitative import (
    FamilyKind,
    negative_access_bits,
    positive_access_bits,
    type_mapping_of,
    type_signal,
)
from .signals import Signal, unbelieved_bits
from . import signals

# read by the benchmark's tracer test, which checks that tracing restores it
certain_of = signals.certain_of
EXHAUSTIVE_STATE_LIMIT = 3
# A sampled game instance builds every action profile, n_actions **
# n_players of them; past this many one instance costs seconds and
# hundreds of megabytes.
_GAME_PROFILE_LIMIT = 4096
_ACTION_NAMES = "abcdefghij"  # of a sampled game; their count caps its actions
MODES = ("exhaustive-kripke", "sampled-monotone", "exhaustive-games", "from-files")
# per arena, the source modes a claim's sweep decides, on at most
# EXHAUSTIVE_STATE_LIMIT states; any other source runs the per-instance
# check. A sampled sweep interns its drawn tables, which repeat on three
# states (8,000 monotone tables), but past that nearly every draw is new
_SWEPT_MODES = {
    "operator": ("exhaustive-kripke", "sampled-monotone"),
    "pair": ("exhaustive-kripke", "sampled-monotone"),
    "game": ("exhaustive-games",),
}
# the players of a generated operator or pair instance, one operator each
_PLAYERS = {"operator": ("i",), "pair": ("i", "j")}
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


def _kripke_model(n: int, players: tuple[str, ...], index: int) -> BeliefModel:
    """Instance `index` of the exhaustive Kripke stream of one or two
    players; pair a * (2^n)^n + b has operators a and b."""
    space = standard_space(n)
    digits = divmod(index, space.size**n) if len(players) == 2 else (index,)
    return BeliefModel(space, {p: _kripke_op_at(n, k, p) for p, k in zip(players, digits)})


def _draw_spec(rng: random.Random, space: StateSpace) -> tuple[int, ...] | dict[int, int]:
    """One operator draw of the sampled stream, the only procedure that
    draws one: with probability one half a Kripke possible-set tuple,
    otherwise the partial core of a monotone closure."""
    if rng.random() < 0.5:
        return tuple(rng.randrange(space.size) for _ in range(space.n))
    core: dict[int, int] = {}
    for _ in range(rng.randint(1, max(2, space.n))):
        core[rng.randrange(space.size)] = rng.randrange(space.size)
    return core


def _operator_of(
    space: StateSpace, spec: tuple[int, ...] | dict[int, int], owner: str | None = None
) -> BeliefOperator:
    """The drawn operator: correspondence-backed for a possible-set tuple,
    so a listing shows a `kripke` block, table-built for a core."""
    if isinstance(spec, tuple):
        return BeliefOperator.from_correspondence(
            PossibilityCorrespondence(space, spec), owner=owner
        )
    return BeliefOperator.monotone_closure(space, spec, owner=owner)


def _draw_operator(
    rng: random.Random, space: StateSpace, owner: str | None = None
) -> BeliefOperator:
    return _operator_of(space, _draw_spec(rng, space), owner)


def _drawn_model(
    space: StateSpace, players: tuple[str, ...], specs: Iterable
) -> BeliefModel:
    return BeliefModel(
        space, {p: _operator_of(space, spec, p) for p, spec in zip(players, specs)}
    )


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
    if arena == "pair" and source.n_players != 2:
        # generated pair instances always have two players, i and j
        raise ValueError("pair claims take exactly 2 players")
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
        # audits run the sweeps; this stream is their tested reference
        for index in range(lo, hi):
            yield _kripke_model(n, _PLAYERS[arena], index)
        return
    if source.mode == "exhaustive-games":
        # audits run the sweeps; this stream is their tested reference
        for belief, rows, games in _game_blocks(source, lo, hi):
            for g in games:
                yield GameModel(belief, _pattern_game(g), rows)
        return
    # audits on up to three states run the sweeps; this stream is their
    # tested reference. A draw before lo only advances the stream.
    rng = random.Random(source.seed)
    players = _PLAYERS.get(arena)
    for index in range(hi):
        if players is None:
            game = _sampled_game(rng, source)
            if index >= lo:
                yield game
            continue
        specs = [_draw_spec(rng, space) for _ in players]
        if index >= lo:
            yield _drawn_model(space, players, specs)


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

    def add_instance(self, count: int = 1) -> None:
        self.instances += count

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

    def vacuous(self, count: int = 1) -> None:
        """Record every direction of `count` instances as vacuous."""
        for d in self.order:
            self.tallies[d][0] += count

    def count(self, direction: str, vacuous: int, confirmed: int) -> None:
        """Record violation-free outcomes of one direction by count."""
        tally = self.tallies[direction]
        tally[0] += vacuous
        tally[1] += confirmed

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


def _game_text(belief: BeliefModel, game: Game, rows) -> Callable[[], str]:
    # the game model is built only when a listing is rendered
    return lambda: serialize_model(game_model=GameModel(belief, game, rows))


def _all_hold(op: BeliefOperator, axioms: tuple[Axiom, ...]) -> bool:
    return all(_holds(op, axiom) for axiom in axioms)


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


# Claim shapes. Each factory builds the checks of one family of claims
# that differ only in their parameters. Callees in other layers (the
# access checks and the chains) are named, and looked up in this
# module's namespace when the check runs, so a rebinding of the module
# attribute (a tracer, a test's monkeypatch) reaches every built check.


# Operator and pair claims. Each is a per-operator fact, which reads
# only that player's operator (its table, the axiom bits the claim is
# gated on, its type signals, its certainty of a signal battery), and a
# tally, tally(space, model, facts, acc, memo), which records the
# instance, or one instance per battery signal, from the players'
# facts; an operator claim's tally reads the first player's only.
# `model` builds the instance and is called only to render a listing,
# and `memo` holds what depends only on the mutual-belief table. A fact
# is a function of the operator's table alone, so a sweep decides it
# once per distinct table; a tally decides the rest (mutual and common
# belief, access, certainty) on integer tables. A frame fact reads the
# correspondence too, so frame claims take no sampled source.


def _instance_text(
    model: Callable[[], BeliefModel], signals: tuple[Signal, ...] = ()
) -> Callable[[], str]:
    # the model is built only when a listing is rendered
    return lambda: serialize_model(model(), signals=signals)


def _observer_subject(facts):
    """The facts of the first player, the observer, and the second."""
    if len(facts) < 2:
        raise ValueError("pair claims need a model with at least two players")
    return facts[0], facts[1]


def _certain_on(table: tuple[int, ...], signals: Iterable[Signal]) -> bool:
    """Is the player or group with this belief table certain of every signal?"""
    believe = table.__getitem__
    return not any(any(unbelieved_bits(sig, believe)) for sig in signals)


def _mutual_and_common(tables, memo: dict) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The mutual-belief table and its common-belief table, which `memo`
    holds per distinct mutual table."""
    mutual = intersect_tables(tables)
    if mutual not in memo:
        memo[mutual] = common_table(mutual)
    return mutual, memo[mutual]


def _table_claim(
    players: tuple[str, ...], fact: Callable, tally: Callable
) -> dict[str, Callable]:
    """The per-instance check and the sweep of one operator or pair
    claim, as ClaimSpec keyword arguments; a generated instance holds
    one operator per player.

    The exhaustive Kripke stream on n states holds each of the (2^n)^n
    operators, or each pair of them, the second varying fastest. Its
    sweep decides each operator's fact once, on the correspondence-built
    operator, and tallies an instance from its facts without building
    its belief model. The sampled stream replays the draws as specs and
    turns each into its table without building an operator, the Kripke
    ones through a dict keyed by the possible-set tuple. Its sweep
    interns the facts by table in a pool, so a fact is decided once per
    distinct table; a draw before lo only advances the stream. Every
    tally takes a memo of what depends only on the mutual table. A sweep
    keeps one for the whole call (at most 512 mutual tables for
    three-state Kripke pairs, 8,000 for sampled ones) and drops it and
    the pool at the end, so that a rebound callee is seen by the next
    call."""

    def check(model: BeliefModel, acc: _Acc) -> None:
        facts = [fact(op) for op in model.operators.values()]
        tally(model.space, lambda: model, facts, acc, {})

    def sweep(source: ModelSource, lo: int, hi: int, acc: _Acc) -> None:
        n = source.n_states
        space = standard_space(n)
        memo = {}
        if source.mode == "exhaustive-kripke":
            if len(players) == 1:
                for index in range(lo, hi):
                    model = partial(_kripke_model, n, players, index)
                    tally(space, model, (fact(_kripke_op_at(n, index, "i")),), acc, memo)
                return
            corr_count = space.size**n
            facts = [fact(_kripke_op_at(n, k, "i")) for k in range(corr_count)]
            for index in range(lo, hi):
                a, b = divmod(index, corr_count)
                model = partial(_kripke_model, n, players, index)
                tally(space, model, (facts[a], facts[b]), acc, memo)
            return
        pool, kripke = {}, {}

        def fact_of(spec):
            if isinstance(spec, tuple):
                if spec not in kripke:
                    kripke[spec] = kripke_table(spec, n)
                table = kripke[spec]
            else:
                table = monotone_closure_table(spec, n)
            if table not in pool:
                pool[table] = fact(BeliefOperator(space, _table=table))
            return pool[table]

        rng = random.Random(source.seed)
        for index in range(hi):
            specs = [_draw_spec(rng, space) for _ in players]
            if index < lo:
                continue
            model = partial(_drawn_model, space, players, specs)
            tally(space, model, [fact_of(spec) for spec in specs], acc, memo)

    return {"check": check, "sweep": sweep}


_operator_claim = partial(_table_claim, _PLAYERS["operator"])
_pair_claim = partial(_table_claim, _PLAYERS["pair"])


def _frame_claim(axiom: Axiom, prop: FrameProperty) -> dict[str, Callable]:
    """The axiom against the frame property of the operator's
    correspondence, on operators that have one: a table-built operator
    carries no frame to compare against."""

    def fact(op: BeliefOperator):
        if not op.has_correspondence():
            return False, False, False
        frame = correspondence_property(op.derive_correspondence(), prop)
        return True, _holds(op, axiom), frame

    return _operator_claim(fact, _iff_tally)


def _own_type_claim(
    kind: FamilyKind,
    conclusion: tuple[Axiom, ...],
    gate: tuple[Axiom, ...] = (),
    iff: bool = True,
) -> dict[str, Callable]:
    """Certainty of the player's own type mapping through `kind` against
    the `conclusion` axioms, on operators satisfying the `gate` axioms."""

    def fact(op: BeliefOperator):
        certain = _certain_on(op.table(), (_type_signal_of(op, kind),))
        return _all_hold(op, gate), certain, _all_hold(op, conclusion)

    return _operator_claim(fact, _iff_tally if iff else _implication_tally)


def _axiom_implication_claim(
    premise: tuple[Axiom, ...], conclusion: tuple[Axiom, ...]
) -> dict[str, Callable]:
    fact = lambda op: (True, _all_hold(op, premise), _all_hold(op, conclusion))
    return _operator_claim(fact, _implication_tally)


def _compatibility_fact(op: BeliefOperator):
    """Consistency and Finite Conjunction, certainty of the own type
    mapping through upward sets, and compatibility with informativeness."""
    gate = _all_hold(op, (Axiom.CONSISTENCY, Axiom.FINITE_CONJUNCTION))
    certain = _certain_on(op.table(), (_type_signal_of(op, FamilyKind.UPWARD),))
    return gate, certain, compatible_with_informativeness(op).holds


def _beta_not_negbeta_fact(op: BeliefOperator) -> bool:
    table = op.table()
    return (
        _holds(op, Axiom.POSITIVE_INTROSPECTION)
        and not _holds(op, Axiom.NEGATIVE_INTROSPECTION)
        and _certain_on(table, (_type_signal_of(op, FamilyKind.BETA),))
        and not _certain_on(table, (_type_signal_of(op, FamilyKind.NEG_BETA),))
    )


def _iff_tally(space, model, facts, acc: _Acc, memo: dict) -> None:
    """Left iff right past the gate: the first player's (gate, left, right) fact."""
    gate, left, right = facts[0]
    acc.add_instance()
    acc.biconditional(left, right, _instance_text(model), gate)


def _implication_tally(space, model, facts, acc: _Acc, memo: dict) -> None:
    """Gate and left imply right: the first player's (gate, left, right) fact."""
    gate, left, right = facts[0]
    acc.add_instance()
    acc.implication("implication", gate and left, right, _instance_text(model))


def _witness_tally(space, model, facts, acc: _Acc, memo: dict) -> None:
    acc.add_instance()
    acc.exists(facts[0], _instance_text(model))


def _cross_type_claim(
    kind: FamilyKind,
    access: tuple[str, ...],
    gate: tuple[Axiom, ...] = (),
    iff: bool = True,
) -> dict[str, Callable]:
    """The first player's certainty of the second player's type mapping
    through `kind` against the named access tests on their tables, on
    observers satisfying the `gate` axioms."""

    def fact(op: BeliefOperator):
        return op.table(), _type_signal_of(op, kind), _all_hold(op, gate)

    def tally(space, model, facts, acc: _Acc, memo: dict) -> None:
        (observer, _, gated), (subject, sig, _) = _observer_subject(facts)
        acc.add_instance()
        left = _certain_on(observer, (sig,))
        right = not any(any(globals()[name](observer, subject)) for name in access)
        text = _instance_text(model)
        if iff:
            acc.biconditional(left, right, text, gated)
        else:
            acc.implication("implication", left and gated, right, text)

    return _pair_claim(fact, tally)


def _truthful_fact(op: BeliefOperator):
    # None: without the Truth Axiom every instance with this player is vacuous
    if not _holds(op, Axiom.TRUTH):
        return None
    return (
        op.table(),
        _type_signal_of(op, FamilyKind.SIGMA_ATOMS),
        _holds(op, Axiom.NEGATIVE_INTROSPECTION),
    )


def _truthful_tally(space, model, facts, acc: _Acc, memo: dict) -> None:
    acc.add_instance()
    if None in facts:
        acc.vacuous()
        return
    tables = [table for table, _, _ in facts]
    _, common = _mutual_and_common(tables, memo)
    left = _certain_on(common, [sig for _, sig, _ in facts])
    # operators are equal exactly when their tables are
    right = all(a == b for a, b in itertools.combinations(tables, 2)) and all(
        introspective for _, _, introspective in facts
    )
    text = _instance_text(model)
    acc.biconditional(left, right, text)
    acc.implication("in-particular", left, left and all(t == common for t in tables), text)


def _conjunctive_fact(op: BeliefOperator):
    # None: an inconsistent or non-conjunctive player makes every
    # instance with it vacuous
    if not (_holds(op, Axiom.CONSISTENCY) and _holds(op, Axiom.COUNTABLE_CONJUNCTION)):
        return None
    return op.table(), _type_signal_of(op, FamilyKind.SIGMA_ATOMS)


def _common_access_tally(space, model, facts, acc: _Acc, memo: dict) -> None:
    acc.add_instance()
    if None in facts:
        acc.vacuous()
        return
    tables = [table for table, _ in facts]
    mutual, common = _mutual_and_common(tables, memo)
    left = _certain_on(common, [sig for _, sig in facts])
    right = all(
        not any(positive_access_bits(common, t)) and not any(negative_access_bits(common, t))
        for t in tables
    )
    text = _instance_text(model)
    acc.biconditional(left, right, text)
    acc.implication("in-particular", left, left and common == mutual, text)


def _converse_tally(space, model, facts, acc: _Acc, memo: dict) -> None:
    acc.add_instance()
    found = None not in facts
    if found:
        mutual, common = _mutual_and_common([table for table, _ in facts], memo)
        found = common == mutual and not _certain_on(common, [sig for _, sig in facts])
    acc.exists(found, _instance_text(model))


def _common_and_iterated(tables, memo: dict) -> list[tuple[int, int]]:
    """Per event, the common-belief bits and the intersection of the
    iterated mutual beliefs. The accumulator is nonincreasing and the
    iterate sequence cycles within 2^n steps, so twice around absorbs
    the whole cycle. Both depend only on the mutual table, so `memo`
    holds the pairs too, keyed apart from the common tables."""
    mutual, common = _mutual_and_common(tables, memo)
    key = ("iterated", mutual)
    if key not in memo:
        depth = 2 * len(mutual) + 1
        memo[key] = [
            (c, iterated_mutual_bits(mutual, e, depth)) for e, c in enumerate(common)
        ]
    return memo[key]


def _iteration_fact(op: BeliefOperator):
    return op.table(), _holds(op, Axiom.COUNTABLE_CONJUNCTION)


def _iteration_tally(space, model, facts, acc: _Acc, memo: dict) -> None:
    acc.add_instance()
    pairs = _common_and_iterated([table for table, _ in facts], memo)
    contained = all(not common & ~stab for common, stab in pairs)
    equal = all(common == stab for common, stab in pairs)
    text = _instance_text(model)
    acc.implication("contained-in-iteration", True, contained, text)
    acc.implication(
        "equals-at-stabilization", all(conj for _, conj in facts), equal, text
    )


def _iteration_gap_tally(space, model, tables, acc: _Acc, memo: dict) -> None:
    acc.add_instance()
    acc.exists(
        any(
            common != stab and not common & ~stab
            for common, stab in _common_and_iterated(tables, memo)
        ),
        _instance_text(model),
    )


def _battery_fact(battery: Callable) -> Callable:
    """Consistency, the table, the type signal on atoms and, per signal
    of the battery, whether the player is consistent and certain of it
    (an inconsistent player makes every instance with it vacuous)."""

    def fact(op: BeliefOperator):
        consistent = _holds(op, Axiom.CONSISTENCY)
        table = op.table()
        certain = tuple(
            consistent and _certain_on(table, (sig,)) for sig in battery(op.space)
        )
        return consistent, table, _type_signal_of(op, FamilyKind.SIGMA_ATOMS), certain

    return fact


def _transfer_claim(direction: str, battery: Callable) -> dict[str, Callable]:
    """Certainty of each battery signal passes from the first player to
    the second, when both are consistent and the second is certain of
    the first's type mapping on atoms."""

    def tally(space, model, facts, acc: _Acc, memo: dict) -> None:
        (ok_i, _, sigma_i, certain_i), (ok_j, table_j, _, certain_j) = (
            _observer_subject(facts)
        )
        # an instance is live only where the first player is certain, so
        # a pair with no such signal is vacuous throughout, and is
        # recorded at once
        if not (ok_i and ok_j and any(certain_i) and _certain_on(table_j, (sigma_i,))):
            acc.add_instance(len(certain_i))
            acc.vacuous(len(certain_i))
            return
        signals = battery(space)
        for sig, live, transferred in zip(signals, certain_i, certain_j):
            acc.add_instance()
            if live:
                acc.implication(direction, True, transferred, _instance_text(model, (sig,)))
            else:
                acc.record(direction, "vacuous")

    return _pair_claim(_battery_fact(battery), tally)


def _shared_tally(space, model, facts, acc: _Acc, memo: dict) -> None:
    """Consistent players commonly certain of the type profile are
    certain of the same transfer-battery signals."""
    (ok_i, _, _, certain_i), (ok_j, _, _, certain_j) = _observer_subject(facts)
    live = ok_i and ok_j
    if live:
        _, common = _mutual_and_common([table for _, table, _, _ in facts], memo)
        live = _certain_on(common, [sigma for _, _, sigma, _ in facts])
    if not live:
        acc.add_instance(len(certain_i))
        acc.vacuous(len(certain_i))
        return
    for sig, left, right in zip(_transfer_signals(space), certain_i, certain_j):
        acc.add_instance()
        acc.implication("implication", True, left == right, _instance_text(model, (sig,)))


# Game claims. Each is a per-player fact, which reads only that
# player's operator, the strategy rows and the player's own ranks, and a
# tally, tally(belief, game, rows, facts, acc, memo), which records one
# instance from every player's fact; `memo` holds what depends only on
# the belief model. A tally records an instance without a violation by
# count, and builds its listing and walks its states only when
# something is violated.


def _chain_fact(chain: str) -> Callable:
    """A player's verdict from the named chain in `games`."""
    return lambda gm, p: globals()[chain](gm, p).status


def _chain_tally(
    belief: BeliefModel, game: Game, rows, facts, acc: _Acc, memo: dict
) -> None:
    acc.add_instance()
    if ImplicationStatus.VIOLATED not in facts:
        confirmed = facts.count(ImplicationStatus.CONFIRMED)
        acc.count("implication", len(facts) - confirmed, confirmed)
        return
    text = _game_text(belief, game, rows)
    for status in facts:
        acc.record("implication", status, text)


def _rationality_fact(gm: GameModel, p: str) -> tuple[bool, int]:
    """Whether p correctly believes own rationality, and the states where
    p is rational."""
    rat = rationality_event(gm, p).bits
    return not gm.belief.operator(p).apply_bits(rat) & ~rat, rat


def _survival_tally(
    belief: BeliefModel, game: Game, rows, facts, acc: _Acc, memo: dict
) -> None:
    # status-equivalent to epistemic_iesda_verdict at every state
    acc.add_instance()
    space = belief.space
    premise = space.size - 1
    for correct, rat in facts:
        if correct and rat not in memo:
            memo[rat] = belief.common_belief(space.event_from_bits(rat)).bits
        premise &= memo[rat] if correct else 0
    # without a live premise every state is vacuous, whatever survives
    survived = premise and survival_bits(game, rows, maximal_trace(game))
    if not premise & ~survived:
        live = premise.bit_count()
        acc.count("implication", space.n - live, live)
        return
    text = _game_text(belief, game, rows)
    for k in range(space.n):
        acc.implication(
            "implication", bool(premise >> k & 1), bool(survived >> k & 1), text
        )


def _game_claim(fact: Callable, tally: Callable) -> dict[str, Callable]:
    """The per-instance check and the sweep of one game claim, as
    ClaimSpec keyword arguments.

    In pattern game g the first player's ranks depend only on g // 9 and
    the second's only on g % 9, and a block fixes the belief model and
    the strategies. A fact reads only the player's own operator, so the
    sweep decides the nine facts of a player, own operator table and
    strategy rows once, one per own pattern k on the diagonal game
    10 * k, whose two players both have pattern k: 2 * 16 * 16 * 9 =
    4,608 facts on two states. The fact memo lives for one sweep call,
    so a rebound callee is seen by the next call; the tally's memo lives
    for one block, whose 81 instances share the belief model."""

    def check(gm: GameModel, acc: _Acc) -> None:
        facts = [fact(gm, p) for p in gm.game.players]
        tally(gm.belief, gm.game, gm.strategies, facts, acc, {})

    def sweep(source: ModelSource, lo: int, hi: int, acc: _Acc) -> None:
        players = _pattern_game(0).players
        memo = {}

        def own_facts(belief: BeliefModel, rows, idx: int) -> list:
            p = players[idx]
            key = (idx, belief.operator(p).table(), rows)
            if key not in memo:
                memo[key] = [
                    fact(GameModel(belief, _pattern_game(10 * k), rows), p) for k in range(9)
                ]
            return memo[key]

        for belief, rows, games in _game_blocks(source, lo, hi):
            first, second = own_facts(belief, rows, 0), own_facts(belief, rows, 1)
            block = {}
            for g in games:
                facts = (first[g // 9], second[g % 9])
                tally(belief, _pattern_game(g), rows, facts, acc, block)

    return {"check": check, "sweep": sweep}


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
    # sweep(source, lo, hi, acc) of instances [lo, hi) of a generated
    # source (_SWEPT_MODES), making the calls on acc that `check` makes
    # per instance
    sweep: Callable
    modes: tuple[str, ...] = (
        "exhaustive-kripke",
        "sampled-monotone",
        "from-files",
    )


_IFF = ("forward", "backward")
_INTROSPECTION = (Axiom.POSITIVE_INTROSPECTION, Axiom.NEGATIVE_INTROSPECTION)
_CONJUNCTIVE = (Axiom.CONSISTENCY, Axiom.COUNTABLE_CONJUNCTION)
_TRUTH_NI = (Axiom.TRUTH, Axiom.NEGATIVE_INTROSPECTION)
_ACCESS = ("positive_access_bits", "negative_access_bits")
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
        **_own_type_claim(FamilyKind.BETA, (Axiom.POSITIVE_INTROSPECTION,)),
    ),
    ClaimSpec(
        "own-negbeta-certainty-iff-negative-introspection",
        ("prop1-1b",),
        "operator",
        "theorem",
        "certainty through complements of believed-event sets is "
        "equivalent to Negative Introspection",
        _IFF,
        **_own_type_claim(FamilyKind.NEG_BETA, (Axiom.NEGATIVE_INTROSPECTION,)),
    ),
    ClaimSpec(
        "own-type-certainty-implies-introspection",
        ("prop1-1c",),
        "operator",
        "theorem",
        "certainty of the own type mapping on atoms implies both "
        "introspection properties",
        ("implication",),
        **_own_type_claim(FamilyKind.SIGMA_ATOMS, _INTROSPECTION, iff=False),
    ),
    ClaimSpec(
        "truthful-own-type-certainty-iff-negative-introspection",
        ("prop1-2a",),
        "operator",
        "theorem",
        "under the Truth Axiom, certainty of the own type mapping on "
        "atoms is equivalent to Negative Introspection",
        _IFF,
        **_own_type_claim(
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
        **_own_type_claim(FamilyKind.SIGMA_ATOMS, _INTROSPECTION, gate=_CONJUNCTIVE),
    ),
    ClaimSpec(
        "cross-beta-certainty-iff-positive-access",
        ("remark1-1a",),
        "pair",
        "theorem",
        "certainty of another player's believed-event sets is "
        "equivalent to believing everything they believe",
        _IFF,
        **_cross_type_claim(FamilyKind.BETA, ("positive_access_bits",)),
    ),
    ClaimSpec(
        "cross-negbeta-certainty-iff-negative-access",
        ("remark1-1b",),
        "pair",
        "theorem",
        "certainty of another player's unbelieved-event sets is "
        "equivalent to believing everything they fail to believe",
        _IFF,
        **_cross_type_claim(FamilyKind.NEG_BETA, ("negative_access_bits",)),
    ),
    ClaimSpec(
        "cross-type-certainty-implies-access",
        ("remark1-1c",),
        "pair",
        "theorem",
        "certainty of another player's type mapping on atoms implies "
        "both access properties",
        ("implication",),
        **_cross_type_claim(FamilyKind.SIGMA_ATOMS, _ACCESS, iff=False),
    ),
    ClaimSpec(
        "truthful-cross-type-certainty-iff-access",
        ("remark1-2a",),
        "pair",
        "theorem",
        "under the observer's Truth Axiom, certainty of another "
        "player's type mapping is equivalent to both access properties",
        _IFF,
        **_cross_type_claim(FamilyKind.SIGMA_ATOMS, _ACCESS, gate=(Axiom.TRUTH,)),
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
        **_cross_type_claim(FamilyKind.SIGMA_ATOMS, _ACCESS, gate=_CONJUNCTIVE),
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
        **_pair_claim(_truthful_fact, _truthful_tally),
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
        **_pair_claim(_conjunctive_fact, _common_access_tally),
    ),
    ClaimSpec(
        "common-access-without-common-type-certainty-exists",
        ("thm1-2-converse-fails",),
        "pair",
        "existence",
        "common belief can equal mutual belief without the players "
        "being commonly certain of the type profile",
        ("witness",),
        **_pair_claim(_conjunctive_fact, _converse_tally),
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
        **_transfer_claim("implication", _transfer_signals),
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
        **_pair_claim(_battery_fact(_transfer_signals), _shared_tally),
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
        **_transfer_claim("observation", _uncovered_signals),
    ),
    ClaimSpec(
        "own-upward-certainty-implies-compatibility",
        ("prop5",),
        "operator",
        "theorem",
        "a consistent, conjunctive player certain of the upward sets of "
        "own types is compatible with informativeness",
        ("implication",),
        **_operator_claim(_compatibility_fact, _implication_tally),
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
        **_axiom_implication_claim((Axiom.TRUTH,), (Axiom.CONSISTENCY,)),
    ),
    ClaimSpec(
        "truth-and-negative-introspection-imply-positive",
        ("truth-and-ni-imply-pi",),
        "operator",
        "theorem",
        "the Truth Axiom with Negative Introspection implies Positive "
        "Introspection",
        ("implication",),
        **_axiom_implication_claim(_TRUTH_NI, (Axiom.POSITIVE_INTROSPECTION,)),
    ),
    ClaimSpec(
        "truth-and-negative-introspection-imply-conjunction",
        ("truth-and-ni-imply-fc",),
        "operator",
        "theorem",
        "the Truth Axiom with Negative Introspection implies both "
        "conjunction axioms",
        ("implication",),
        **_axiom_implication_claim(
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
        **_axiom_implication_claim(
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
        modes=("exhaustive-kripke", "from-files"),
        **_frame_claim(Axiom.CONSISTENCY, FrameProperty.SERIAL),
    ),
    ClaimSpec(
        "truth-iff-reflexive",
        ("frame-reflexive",),
        "operator",
        "theorem",
        "on correspondence-built operators the Truth Axiom is "
        "equivalent to a reflexive frame",
        _IFF,
        modes=("exhaustive-kripke", "from-files"),
        **_frame_claim(Axiom.TRUTH, FrameProperty.REFLEXIVE),
    ),
    ClaimSpec(
        "positive-introspection-iff-transitive",
        ("frame-transitive",),
        "operator",
        "theorem",
        "on correspondence-built operators Positive Introspection is "
        "equivalent to a transitive frame",
        _IFF,
        modes=("exhaustive-kripke", "from-files"),
        **_frame_claim(Axiom.POSITIVE_INTROSPECTION, FrameProperty.TRANSITIVE),
    ),
    ClaimSpec(
        "negative-introspection-iff-euclidean",
        ("frame-euclidean",),
        "operator",
        "theorem",
        "on correspondence-built operators Negative Introspection is "
        "equivalent to a euclidean frame",
        _IFF,
        modes=("exhaustive-kripke", "from-files"),
        **_frame_claim(Axiom.NEGATIVE_INTROSPECTION, FrameProperty.EUCLIDEAN),
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
        **_pair_claim(_iteration_fact, _iteration_tally),
    ),
    ClaimSpec(
        "strictly-finer-common-belief-exists",
        ("strict-iteration-gap",),
        "pair",
        "existence",
        "without conjunction the common-belief fixed point can be "
        "strictly below the iterated intersection",
        ("witness",),
        **_pair_claim(lambda op: op.table(), _iteration_gap_tally),
    ),
    ClaimSpec(
        "beta-certainty-without-negbeta-certainty-exists",
        ("beta-not-negbeta-exists",),
        "operator",
        "existence",
        "a positively but not negatively introspective player can be "
        "certain through believed-event sets yet not their complements",
        ("witness",),
        **_operator_claim(_beta_not_negbeta_fact, _witness_tally),
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
    if source.mode in _SWEPT_MODES[spec.arena] and source.n_states <= EXHAUSTIVE_STATE_LIMIT:
        spec.sweep(source, lo, hi, acc)
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
