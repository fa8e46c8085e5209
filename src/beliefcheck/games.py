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
from typing import Iterator, Mapping, Sequence

from .core import (
    Axiom,
    BeliefModel,
    CheckReport,
    Event,
    ImplicationReport,
    ImplicationStatus,
)
from .core import _lowest_state
from .informativeness import COMPATIBILITY, compatible_with_informativeness
from .signals import CertaintyReport, Signal, certain_of

RELATIONS = (">=", ">", "~")
_COMPARE = {">=": operator.ge, ">": operator.gt, "~": operator.eq}


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
        strides = []
        total = 1
        for acts in reversed(self.actions):
            strides.append(total)
            total *= len(acts)
        for row in self.ranks:
            if len(row) != total:
                raise ValueError("ranks must cover every action profile")
        object.__setattr__(self, "_strides", tuple(reversed(strides)))

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
        a, b = self.rank(player, left), self.rank(player, right)
        if relation == ">=":
            return a >= b
        if relation == ">":
            return a > b
        return a == b


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


def _opponent_bases(gm: GameModel, idx: int) -> list[int]:
    """Per state, the index of the played profile minus the player's own
    action: adding alt·stride gives the profile where the player plays alt."""
    bases = [0] * gm.space.n
    for j, (stride, row) in enumerate(zip(gm.game._strides, gm._codes)):
        if j != idx:
            bases = [b + c * stride for b, c in zip(bases, row)]
    return bases


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
        _opponent_bases(gm, idx),
        acts.index(alt) * stride,
        acts.index(ref) * stride,
        _COMPARE[relation],
    )
    return Event(gm.space, bits)


def _rational_bits(gm: GameModel, player: str) -> int:
    """States where no action is believed to do strictly better than the
    one played there, decided per played action over all alternatives."""
    game = gm.game
    idx = game.player_index(player)
    op = gm.belief.operator(player)
    rank, stride = game.ranks[idx], game._strides[idx]
    bases = _opponent_bases(gm, idx)
    played = gm._codes[idx]
    alts = range(0, len(game.actions[idx]) * stride, stride)
    bits = 0
    for ref in set(played):
        states = 0
        for i, code in enumerate(played):
            if code == ref:
                states |= 1 << i
        own = ref * stride
        for alt in alts:
            states &= ~op.apply_bits(
                _preference_bits(rank, bases, alt, own, operator.gt)
            )
            if not states:
                break
        bits |= states
    return bits


def rationality_event(gm: GameModel, player: str) -> Event:
    """No alternative is believed to do strictly better than the action played."""
    return Event(gm.space, _rational_bits(gm, player))


def rationality_event_possibility(gm: GameModel, player: str) -> Event:
    """Restated form: the player always considers it possible that the
    action played is at least as good as any alternative.

    Ranks are totally ordered, so "ref is not at least as good as alt" is
    "alt is strictly better than ref", and the believed-worse events here
    are the believed-better events of rationality_event.
    """
    return Event(gm.space, _rational_bits(gm, player))


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
            image = op.apply_bits(target)
            if image == target:
                identities.append(CheckReport(name, True))
            else:
                diff = image ^ target
                identities.append(
                    CheckReport(
                        name,
                        False,
                        (Event(space, target), _lowest_state(space, diff)),
                    )
                )
    image = op.apply_bits(full)
    identities.append(
        CheckReport(
            "B(Ω) = Ω",
            image == full,
            None if image == full else (space.full, _lowest_state(space, full & ~image)),
        )
    )
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


def _dominated_now(game: Game, current: list[list[str]]) -> list[tuple[int, str]]:
    """Actions strictly dominated by a surviving pure action, player
    order then action order."""
    out = []
    for i, acts in enumerate(current):
        others = [c for j, c in enumerate(current) if j != i]
        opponent_profiles = list(itertools.product(*others))
        for action in acts:
            for dominator in acts:
                if dominator == action:
                    continue
                if all(
                    game.prefers(
                        game.players[i],
                        _insert(op_profile, i, dominator),
                        _insert(op_profile, i, action),
                        ">",
                    )
                    for op_profile in opponent_profiles
                ):
                    out.append((i, action))
                    break
    return out


def _insert(profile: tuple[str, ...], index: int, action: str) -> tuple[str, ...]:
    return profile[:index] + (action,) + profile[index:]


def iesda(game: Game, mode: str = "maximal", seed: int | None = None) -> EliminationTrace:
    """Iterated elimination of strictly dominated actions.

    maximal removes every currently dominated action each round; seeded
    removes one uniformly chosen dominated action per round. Survivors
    do not depend on the order for strict pure dominance.
    """
    if mode not in ("maximal", "seeded"):
        raise ValueError("mode must be 'maximal' or 'seeded'")
    rng = random.Random(0 if seed is None else seed) if mode == "seeded" else None
    current = [list(acts) for acts in game.actions]
    rounds = []
    while True:
        dominated = _dominated_now(game, current)
        if not dominated:
            break
        if mode == "seeded":
            dominated = [dominated[rng.randrange(len(dominated))]]
        rounds.append(
            tuple((game.players[i], action) for i, action in dominated)
        )
        for i, action in dominated:
            current[i].remove(action)
        assert all(current), "strict dominance can never empty an action set"
    return EliminationTrace(
        mode=mode,
        seed=seed if mode == "seeded" else None,
        rounds=tuple(rounds),
        survivors=tuple(tuple(acts) for acts in current),
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


def survival_event(gm: GameModel, trace: EliminationTrace) -> Event:
    """States whose played profile survives: per player, the states
    playing an action that the trace keeps."""
    bits = gm.space.size - 1
    for acts, alive, row in zip(gm.game.actions, trace.survivors, gm._codes):
        if len(alive) < len(acts):
            live = {acts.index(a) for a in alive}
            for i, code in enumerate(row):
                if code not in live:
                    bits &= ~(1 << i)
    return Event(gm.space, bits)


def correct_belief_in_own_rationality(gm: GameModel, player: str) -> CheckReport:
    """Containment of believed-rational inside actually-rational."""
    rat = rationality_event(gm, player)
    believed = gm.belief.operator(player).apply(rat)
    extra = believed.bits & ~rat.bits
    name = f"B_{player}(RAT_{player}) <= RAT_{player}"
    if extra:
        return CheckReport(name, False, (rat, _lowest_state(gm.space, extra)))
    return CheckReport(name, True)


def correct_belief_chain(gm: GameModel, player: str) -> ImplicationReport:
    """Strategy certainty, compatibility, and conjunction force the
    player to correctly believe her own rationality."""
    op = gm.belief.operator(player)
    certainty = certain_of(gm.belief, player, strategy_signal(gm, player))
    compat = compatible_with_informativeness(op)
    conjunction = op.check_axiom(Axiom.FINITE_CONJUNCTION)
    containment = correct_belief_in_own_rationality(gm, player)
    return ImplicationReport(
        name="certain-strategy-compatible-conjunctive-implies-correct-rationality-belief",
        premises=(
            ("certain of own strategy", certainty.holds),
            (COMPATIBILITY, compat.holds),
            ("FiniteConjunction", conjunction.holds),
        ),
        conclusion=(containment.check, containment.holds),
        witness=containment.witness,
    )


def introspective_correct_belief_chain(gm: GameModel, player: str) -> ImplicationReport:
    """Sufficient-condition variant through Consistency, Positive
    Introspection, and the Kripke property."""
    op = gm.belief.operator(player)
    certainty = certain_of(gm.belief, player, strategy_signal(gm, player))
    containment = correct_belief_in_own_rationality(gm, player)
    return ImplicationReport(
        name="consistent-introspective-kripke-implies-correct-rationality-belief",
        premises=(
            ("Consistency", op.check_axiom(Axiom.CONSISTENCY).holds),
            (
                "PositiveIntrospection",
                op.check_axiom(Axiom.POSITIVE_INTROSPECTION).holds,
            ),
            ("Kripke", op.check_axiom(Axiom.KRIPKE).holds),
            ("certain of own strategy", certainty.holds),
        ),
        conclusion=(containment.check, containment.holds),
        witness=containment.witness,
    )


def self_evident_rationality_chain(gm: GameModel, player: str) -> ImplicationReport:
    """Negative Introspection and the Kripke property make one's own
    rationality self-evident."""
    op = gm.belief.operator(player)
    certainty = certain_of(gm.belief, player, strategy_signal(gm, player))
    rat = rationality_event(gm, player)
    believed = op.apply(rat)
    missing = rat.bits & ~believed.bits
    name = f"RAT_{player} <= B_{player}(RAT_{player})"
    return ImplicationReport(
        name="negative-introspection-kripke-implies-self-evident-rationality",
        premises=(
            (
                "NegativeIntrospection",
                op.check_axiom(Axiom.NEGATIVE_INTROSPECTION).holds,
            ),
            ("Kripke", op.check_axiom(Axiom.KRIPKE).holds),
            ("certain of own strategy", certainty.holds),
        ),
        conclusion=(name, missing == 0),
        witness=None if missing == 0 else (rat, _lowest_state(gm.space, missing)),
    )


@dataclass(frozen=True)
class EpistemicIesdaVerdict:
    """Common belief in rationality plus correct own-rationality beliefs
    against actual survival of the played profile."""

    state: str
    common_rationality: tuple[tuple[str, bool], ...]
    correct_belief: tuple[CheckReport, ...]
    premise_chains: tuple[ImplicationReport, ...]
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
    chains = tuple(correct_belief_chain(gm, p) for p in players)
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
        premise_chains=chains,
        profile=tuple(zip(players, profile)),
        survives=survived,
        trace=trace,
        implication=implication,
    )
