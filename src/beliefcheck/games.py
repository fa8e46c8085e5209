"""Strategic games on belief models: rationality, certainty, elimination.

Preferences are total preorders encoded as integer ranks per action
profile. Rationality at a state means never believing an event of the
form "some other action would do strictly better against what the
opponents are playing".
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from .core import (
    Axiom,
    BeliefModel,
    CheckReport,
    Event,
    ImplicationReport,
    ImplicationStatus,
    StateSpace,
)
from .core import _AXIOM_CHECKS, _witness
from .informativeness import COMPATIBILITY, uncorroborated_bits
from .signals import CertaintyReport, Signal, certain_of

RELATIONS = (">=", ">", "~")
_COMPARE = {">=": operator.ge, ">": operator.gt, "~": operator.eq}


def profile_strides(sizes: Sequence[int]) -> tuple[int, ...]:
    """Per player, the weight of its action index in the profile index:
    the product of the action counts of the players after it."""
    strides = []
    total = 1
    for size in reversed(sizes):
        strides.append(total)
        total *= size
    return tuple(reversed(strides))


@dataclass(frozen=True)
class Game:
    """Finite strategic game; ranks[i] follows profile enumeration order."""

    players: tuple[str, ...]
    actions: tuple[tuple[str, ...], ...]
    ranks: tuple[tuple[int, ...], ...]
    # Mixed-radix profile encoding: the profile index is the sum of each
    # player's action index times that player's stride.
    _strides: tuple[int, ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self) -> None:
        if not self.players:
            raise ValueError("game needs at least one player")
        if len(set(self.players)) != len(self.players):
            raise ValueError("duplicate player ids")
        if len(self.actions) != len(self.players) or len(self.ranks) != len(
            self.players
        ):
            raise ValueError("actions and ranks must cover every player")
        for acts in self.actions:
            if not acts:
                raise ValueError("every player needs at least one action")
            if len(set(acts)) != len(acts):
                raise ValueError("duplicate actions for a player")
        strides = profile_strides(tuple(map(len, self.actions)))
        total = strides[0] * len(self.actions[0])
        for row in self.ranks:
            if len(row) != total:
                raise ValueError("ranks must cover every action profile")
        object.__setattr__(self, "_strides", strides)

    @classmethod
    def of(
        cls,
        actions: Mapping[str, Sequence[str]],
        ranks: Mapping[str, Mapping[tuple, int]],
    ) -> "Game":
        """Build from per-player action lists and profile→rank tables."""
        players = tuple(actions)
        action_rows = tuple(tuple(actions[p]) for p in players)
        profiles = list(itertools.product(*action_rows))
        rows = []
        for p in players:
            table = ranks.get(p)
            if table is None:
                raise ValueError(f"no ranks for player {p}")
            missing = [pr for pr in profiles if pr not in table]
            if missing:
                raise ValueError(f"rank missing for profile {missing[0]}")
            if len(table) != len(profiles):
                raise ValueError(f"rank given for unknown profile (player {p})")
            rows.append(tuple(int(table[pr]) for pr in profiles))
        return cls(players, action_rows, tuple(rows))

    def player_index(self, player: str) -> int:
        try:
            return self.players.index(player)
        except ValueError:
            raise KeyError(f"unknown player: {player}") from None

    def actions_of(self, player: str) -> tuple[str, ...]:
        return self.actions[self.player_index(player)]

    def profiles(self) -> Iterator[tuple[str, ...]]:
        return itertools.product(*self.actions)

    def profile_index(self, profile: Sequence[str]) -> int:
        if len(profile) != len(self.players):
            raise ValueError("profile length mismatch")
        index = 0
        for acts, action in zip(self.actions, profile):
            try:
                index = index * len(acts) + acts.index(action)
            except ValueError:
                raise KeyError(f"unknown action: {action}") from None
        return index

    def rank(self, player: str, profile: Sequence[str]) -> int:
        return self.ranks[self.player_index(player)][self.profile_index(profile)]

    def prefers(
        self, player: str, left: Sequence[str], right: Sequence[str], relation: str = ">="
    ) -> bool:
        if relation not in RELATIONS:
            raise ValueError(f"relation must be one of {RELATIONS}")
        return _COMPARE[relation](self.rank(player, left), self.rank(player, right))


@dataclass(frozen=True)
class GameModel:
    """A belief model whose states play a strategy profile of a game."""

    belief: BeliefModel
    game: Game
    strategies: tuple[tuple[str, ...], ...]
    # Per player, the index of the action played at each state.
    _codes: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self) -> None:
        if set(self.belief.players) != set(self.game.players):
            raise ValueError("belief model and game disagree on the players")
        n = self.belief.space.n
        if len(self.strategies) != len(self.game.players):
            raise ValueError("strategies must cover every player")
        codes = []
        for acts, row in zip(self.game.actions, self.strategies):
            if len(row) != n:
                raise ValueError("strategy must pick an action at every state")
            try:
                codes.append(tuple(map(acts.index, row)))
            except ValueError:
                unknown = next(a for a in row if a not in acts)
                raise ValueError(f"unknown action in strategy: {unknown}") from None
        object.__setattr__(self, "_codes", tuple(codes))

    @classmethod
    def of(
        cls,
        belief: BeliefModel,
        game: Game,
        strategies: Mapping[str, "Sequence[str] | Mapping[str, str]"],
    ) -> "GameModel":
        space = belief.space
        rows = []
        for p in game.players:
            row = strategies.get(p)
            if row is None:
                raise ValueError(f"no strategy for player {p}")
            if isinstance(row, Mapping):
                row = tuple(row[s] for s in space.states)
            else:
                row = tuple(row)
            rows.append(row)
        return cls(belief, game, tuple(rows))

    @property
    def space(self):
        return self.belief.space

    def strategy(self, player: str, state: str) -> str:
        row = self.strategies[self.game.player_index(player)]
        return row[self.space.index(state)]

    def strategy_event(self, player: str, action: str) -> Event:
        """The event that the player plays this action."""
        if action not in self.game.actions_of(player):
            raise KeyError(f"unknown action: {action}")
        row = self.strategies[self.game.player_index(player)]
        bits = 0
        for i, played in enumerate(row):
            if played == action:
                bits |= 1 << i
        return Event(self.space, bits)

    def profile_at(self, state: str) -> tuple[str, ...]:
        i = self.space.index(state)
        return tuple(row[i] for row in self.strategies)


class PlayerTables(NamedTuple):
    """One player's side of a game model as integers: all that the
    rationality and chain procedures read. `table` is the player's belief
    table, None past TABLE_LIMIT states, and `believe` maps an event mask
    to its believed image. `bases` holds, per state, the index of the
    played profile minus the player's own action, so that adding
    alt * stride gives the profile where the player plays alt; `played`
    holds the player's action index at every state."""

    space: StateSpace
    table: tuple[int, ...] | None
    believe: Callable[[int], int]
    rank: tuple[int, ...]
    stride: int
    n_actions: int
    bases: list[int]
    played: tuple[int, ...]


def opponent_bases(strides: Sequence[int], codes, idx: int) -> list[int]:
    """Per state, the profile index played there minus player idx's own
    action; codes[j] is player j's action index at every state."""
    bases = [0] * len(codes[idx])
    for j, (stride, row) in enumerate(zip(strides, codes)):
        if j != idx:
            bases = [b + c * stride for b, c in zip(bases, row)]
    return bases


def player_tables(gm: GameModel, player: str) -> PlayerTables:
    """The player's side of the game model, as integers."""
    game = gm.game
    idx = game.player_index(player)
    op = gm.belief.operator(player)
    table = op._table
    return PlayerTables(
        gm.space,
        table,
        op.apply_bits if table is None else table.__getitem__,
        game.ranks[idx],
        game._strides[idx],
        len(game.actions[idx]),
        opponent_bases(game._strides, gm._codes, idx),
        gm._codes[idx],
    )


def _preference_bits(rank, bases, alt: int, ref: int, compare) -> int:
    """States where compare(rank of alt, rank of ref) holds; alt and ref
    are action indices already scaled by the player's stride."""
    bits = 0
    for i, base in enumerate(bases):
        if compare(rank[base + alt], rank[base + ref]):
            bits |= 1 << i
    return bits


def preference_event(
    gm: GameModel, player: str, alt: str, ref: str, relation: str = ">="
) -> Event:
    """States where playing alt against the opponents' current profile
    stands in the given relation to playing ref."""
    game = gm.game
    idx = game.player_index(player)
    acts = game.actions[idx]
    for action in (alt, ref):
        if action not in acts:
            raise KeyError(f"unknown action: {action}")
    if relation not in RELATIONS:
        raise ValueError(f"relation must be one of {RELATIONS}")
    stride = game._strides[idx]
    bits = _preference_bits(
        game.ranks[idx],
        opponent_bases(game._strides, gm._codes, idx),
        acts.index(alt) * stride,
        acts.index(ref) * stride,
        _COMPARE[relation],
    )
    return Event(gm.space, bits)


def _action_masks(played: Sequence[int]) -> dict[int, int]:
    """Per action index played somewhere, the states playing it."""
    masks: dict[int, int] = {}
    for i, code in enumerate(played):
        masks[code] = masks.get(code, 0) | 1 << i
    return masks


def rationality_bits(view: PlayerTables) -> int:
    """States where no action is believed to do strictly better than the
    one played there, decided per played action over all alternatives."""
    rank, stride, bases, believe = view.rank, view.stride, view.bases, view.believe
    alts = range(0, view.n_actions * stride, stride)
    bits = 0
    for ref, states in _action_masks(view.played).items():
        own = ref * stride
        for alt in alts:
            states &= ~believe(_preference_bits(rank, bases, alt, own, operator.gt))
            if not states:
                break
        bits |= states
    return bits


def rationality_event(gm: GameModel, player: str) -> Event:
    """No alternative is believed to do strictly better than the action
    played; with total ranks, the restated form: never believed worse."""
    return Event(gm.space, rationality_bits(player_tables(gm, player)))


def strategy_signal(gm: GameModel, player: str) -> Signal:
    """The player's own strategy, observed action by action."""
    idx = gm.game.player_index(player)
    return Signal.of(
        gm.space,
        gm.strategies[idx],
        codomain=gm.game.actions[idx],
        name=f"σ_{player}",
    )


@dataclass(frozen=True)
class StrategyCertaintyReport:
    """Certainty of one's own strategy plus what it is known to entail.

    The identities hold whenever certainty and Consistency do: belief
    then fixes every strategy event, their complements, and the whole
    space.
    """

    player: str
    certainty: CertaintyReport
    consistent: bool
    identities: tuple[CheckReport, ...]


def strategy_certainty(gm: GameModel, player: str) -> StrategyCertaintyReport:
    op = gm.belief.operator(player)
    report = certain_of(gm.belief, player, strategy_signal(gm, player))
    consistent = op.check_axiom(Axiom.CONSISTENCY).holds
    space = gm.space
    full = space.size - 1
    identities = []
    for action in gm.game.actions_of(player):
        ev = gm.strategy_event(player, action).bits
        for name, target in (
            (f"B([σ_{player} = {action}]) = [σ_{player} = {action}]", ev),
            (f"B(¬[σ_{player} = {action}]) = ¬[σ_{player} = {action}]", full & ~ev),
        ):
            diff = op.apply_bits(target) ^ target
            identities.append(CheckReport(name, not diff, _witness(space, target, diff)))
    witness = _witness(space, full, full & ~op.apply_bits(full))
    identities.append(CheckReport("B(Ω) = Ω", witness is None, witness))
    return StrategyCertaintyReport(
        player=player,
        certainty=report,
        consistent=consistent,
        identities=tuple(identities),
    )


@dataclass(frozen=True)
class EliminationTrace:
    """What was removed when, and what survived."""

    mode: str
    seed: int | None
    rounds: tuple[tuple[tuple[str, str], ...], ...]
    survivors: tuple[tuple[str, ...], ...]


def _dominated_now(game: Game, current: list[list[int]]) -> list[tuple[int, int]]:
    """Action indices strictly dominated by a surviving pure action,
    player order then action order."""
    out = []
    for i, acts in enumerate(current):
        bases = [0]
        for j, (stride, alive) in enumerate(zip(game._strides, current)):
            if j != i:
                bases = [base + a * stride for base in bases for a in alive]
        rank, stride = game.ranks[i], game._strides[i]
        for action in acts:
            own = action * stride
            if any(
                all(rank[base + alt * stride] > rank[base + own] for base in bases)
                for alt in acts
                if alt != action
            ):
                out.append((i, action))
    return out


def iesda(game: Game, mode: str = "maximal", seed: int | None = None) -> EliminationTrace:
    """Iterated elimination of strictly dominated actions.

    maximal removes every currently dominated action each round; seeded
    removes one uniformly chosen dominated action per round. Survivors
    do not depend on the order for strict pure dominance.
    """
    if mode not in ("maximal", "seeded"):
        raise ValueError("mode must be 'maximal' or 'seeded'")
    rng = random.Random(0 if seed is None else seed) if mode == "seeded" else None
    current = [list(range(len(acts))) for acts in game.actions]
    rounds = []
    while True:
        dominated = _dominated_now(game, current)
        if not dominated:
            break
        if mode == "seeded":
            dominated = [dominated[rng.randrange(len(dominated))]]
        rounds.append(
            tuple((game.players[i], game.actions[i][a]) for i, a in dominated)
        )
        for i, action in dominated:
            current[i].remove(action)
        assert all(current), "strict dominance can never empty an action set"
    return EliminationTrace(
        mode=mode,
        seed=seed if mode == "seeded" else None,
        rounds=tuple(rounds),
        survivors=tuple(
            tuple(acts[a] for a in alive) for acts, alive in zip(game.actions, current)
        ),
    )


# The maximal trace is a pure function of the game and sweeps revisit
# the same handful of games many times; order-independence of survivors
# makes this safe to share.
@lru_cache(maxsize=512)
def maximal_trace(game: Game) -> EliminationTrace:
    return iesda(game, mode="maximal")


def survives(trace: EliminationTrace, profile: Sequence[str]) -> bool:
    return all(
        action in alive for action, alive in zip(profile, trace.survivors)
    )


def survival_bits(game: Game, codes, trace: EliminationTrace) -> int:
    """States whose played profile survives: per player, the states
    playing an action that the trace keeps. codes[i] is player i's
    action index at every state."""
    bits = (1 << len(codes[0])) - 1
    for acts, alive, row in zip(game.actions, trace.survivors, codes):
        if len(alive) < len(acts):
            for i, code in enumerate(row):
                if acts[code] not in alive:
                    bits &= ~(1 << i)
    return bits


def survival_event(gm: GameModel, trace: EliminationTrace) -> Event:
    """The event of survival_bits on a game model."""
    return Event(gm.space, survival_bits(gm.game, gm._codes, trace))


# The chains of the game result. Each is declared once, as labelled
# premise predicates on a player's tables and a conclusion: the states
# where it fails, given the player's rationality bits. The report
# functions evaluate every premise; decide_chain stops at the first that
# fails, since a status reads no more.


def _certain_of_strategy(view: PlayerTables) -> bool:
    """Every own strategy event is believed wherever it holds."""
    believe = view.believe
    return not any(mask & ~believe(mask) for mask in _action_masks(view.played).values())


def _compatible(view: PlayerTables) -> bool:
    return not any(uncorroborated_bits(view.table))


def _axiom(axiom: Axiom) -> tuple[str, Callable[[PlayerTables], bool]]:
    return axiom.value, lambda view: _AXIOM_CHECKS[axiom](view.space, view.table).holds


def _believed_irrational(view: PlayerTables, rat: int) -> int:
    """States believing own rationality outside it."""
    return view.believe(rat) & ~rat


def _unbelieved_rational(view: PlayerTables, rat: int) -> int:
    """Rational states not believing own rationality."""
    return rat & ~view.believe(rat)


class Chain(NamedTuple):
    """Premises that force a conclusion about one's own rationality; the
    conclusion's check name takes the player as {p}."""

    name: str
    premises: tuple[tuple[str, Callable[[PlayerTables], bool]], ...]
    conclusion: str
    failures: Callable[[PlayerTables, int], int]


_CERTAIN = ("certain of own strategy", _certain_of_strategy)
_CORRECT = "B_{p}(RAT_{p}) <= RAT_{p}"
CORRECT_BELIEF = Chain(
    "certain-strategy-compatible-conjunctive-implies-correct-rationality-belief",
    (_CERTAIN, (COMPATIBILITY, _compatible), _axiom(Axiom.FINITE_CONJUNCTION)),
    _CORRECT,
    _believed_irrational,
)
INTROSPECTIVE_CORRECT_BELIEF = Chain(
    "consistent-introspective-kripke-implies-correct-rationality-belief",
    (
        _axiom(Axiom.CONSISTENCY),
        _axiom(Axiom.POSITIVE_INTROSPECTION),
        _axiom(Axiom.KRIPKE),
        _CERTAIN,
    ),
    _CORRECT,
    _believed_irrational,
)
SELF_EVIDENT_RATIONALITY = Chain(
    "negative-introspection-kripke-implies-self-evident-rationality",
    (_axiom(Axiom.NEGATIVE_INTROSPECTION), _axiom(Axiom.KRIPKE), _CERTAIN),
    "RAT_{p} <= B_{p}(RAT_{p})",
    _unbelieved_rational,
)


def _premises(chain: Chain, view: PlayerTables):
    # every chain reads an axiom or the columns of the full table
    if view.table is None:
        raise ValueError("state space too large for explicit event tables")
    return ((label, holds(view)) for label, holds in chain.premises)


def decide_chain(chain: Chain, view: PlayerTables) -> ImplicationStatus:
    """The status of the chain for the player with these tables."""
    if not all(held for _, held in _premises(chain, view)):
        return ImplicationStatus.VACUOUS
    if chain.failures(view, rationality_bits(view)):
        return ImplicationStatus.VIOLATED
    return ImplicationStatus.CONFIRMED


def _conclusion(chain: Chain, view: PlayerTables, player: str) -> CheckReport:
    rat = rationality_bits(view)
    bad = chain.failures(view, rat)
    name = chain.conclusion.format(p=player)
    return CheckReport(name, not bad, _witness(view.space, rat, bad))


def _chain_report(chain: Chain, gm: GameModel, player: str) -> ImplicationReport:
    view = player_tables(gm, player)
    premises = tuple(_premises(chain, view))
    conclusion = _conclusion(chain, view, player)
    return ImplicationReport(
        name=chain.name,
        premises=premises,
        conclusion=(conclusion.check, conclusion.holds),
        witness=conclusion.witness,
    )


def correct_belief_in_own_rationality(gm: GameModel, player: str) -> CheckReport:
    """Containment of believed-rational inside actually-rational."""
    return _conclusion(CORRECT_BELIEF, player_tables(gm, player), player)


def correct_belief_chain(gm: GameModel, player: str) -> ImplicationReport:
    """Strategy certainty, compatibility, and conjunction force the
    player to correctly believe her own rationality."""
    return _chain_report(CORRECT_BELIEF, gm, player)


def introspective_correct_belief_chain(gm: GameModel, player: str) -> ImplicationReport:
    """Sufficient-condition variant through Consistency, Positive
    Introspection, and the Kripke property."""
    return _chain_report(INTROSPECTIVE_CORRECT_BELIEF, gm, player)


def self_evident_rationality_chain(gm: GameModel, player: str) -> ImplicationReport:
    """Negative Introspection and the Kripke property make one's own
    rationality self-evident."""
    return _chain_report(SELF_EVIDENT_RATIONALITY, gm, player)


@dataclass(frozen=True)
class EpistemicIesdaVerdict:
    """Common belief in rationality plus correct own-rationality beliefs
    against actual survival of the played profile."""

    state: str
    common_rationality: tuple[tuple[str, bool], ...]
    correct_belief: tuple[CheckReport, ...]
    profile: tuple[tuple[str, str], ...]
    survives: bool
    trace: EliminationTrace
    implication: ImplicationReport

    @property
    def status(self) -> ImplicationStatus:
        return self.implication.status


def epistemic_iesda_verdict(gm: GameModel, state: str) -> EpistemicIesdaVerdict:
    """Does common belief in rationality (with correct own-rationality
    beliefs) put the played profile among the IESDA survivors?"""
    gm.space.index(state)
    players = gm.game.players
    common = tuple(
        (p, state in gm.belief.common_belief(rationality_event(gm, p)))
        for p in players
    )
    correct = tuple(correct_belief_in_own_rationality(gm, p) for p in players)
    trace = maximal_trace(gm.game)
    profile = gm.profile_at(state)
    survived = survives(trace, profile)
    implication = ImplicationReport(
        name="common-rationality-implies-iesda-survival",
        premises=(
            ("rationality of every player commonly believed", all(b for _, b in common)),
            (
                "every player correctly believes own rationality",
                all(r.holds for r in correct),
            ),
        ),
        conclusion=("played profile survives IESDA", survived),
        witness=None if survived else (state, profile),
    )
    return EpistemicIesdaVerdict(
        state=state,
        common_rationality=common,
        correct_belief=correct,
        profile=tuple(zip(players, profile)),
        survives=survived,
        trace=trace,
        implication=implication,
    )
