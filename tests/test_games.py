"""Games on belief models: preferences, rationality, IESDA, epistemics."""

import functools
import itertools
import random

import pytest

from beliefcheck.audit import ModelSource, _pair_model, _pattern_game, _sampled_game
from beliefcheck.core import (
    Axiom,
    BeliefModel,
    BeliefOperator,
    Event,
    ImplicationStatus,
    PossibilityCorrespondence,
    StateSpace,
)
from beliefcheck.games import (
    CORRECT_BELIEF,
    INTROSPECTIVE_CORRECT_BELIEF,
    SELF_EVIDENT_RATIONALITY,
    EliminationTrace,
    Game,
    GameModel,
    correct_belief_chain,
    correct_belief_in_own_rationality,
    decide_chain,
    epistemic_iesda_verdict,
    iesda,
    introspective_correct_belief_chain,
    player_tables,
    preference_event,
    rationality_bits,
    rationality_event,
    self_evident_rationality_chain,
    strategy_certainty,
    strategy_signal,
    survival_event,
    survives,
)
from beliefcheck.informativeness import compatible_with_informativeness
from beliefcheck.signals import certain_of


def all_kripke_operators(space):
    for possible in itertools.product(range(space.size), repeat=space.n):
        yield BeliefOperator.from_correspondence(
            PossibilityCorrespondence(space, possible)
        )


def identity_op(space):
    return BeliefOperator.from_correspondence(
        PossibilityCorrespondence(space, tuple(1 << i for i in range(space.n)))
    )


def two_player_model(space, game, op_r, op_c, sigma_r, sigma_c):
    return GameModel.of(
        BeliefModel(space, {"r": op_r, "c": op_c}),
        game,
        {"r": sigma_r, "c": sigma_c},
    )


def random_game(rng, sizes=(3, 3)):
    actions = {
        "r": [f"r{k}" for k in range(sizes[0])],
        "c": [f"c{k}" for k in range(sizes[1])],
    }
    profiles = list(itertools.product(actions["r"], actions["c"]))
    return Game.of(
        actions,
        {p: {pr: rng.randrange(5) for pr in profiles} for p in ("r", "c")},
    )


class TestGameBasics:
    def test_profile_enumeration_matches_indexing(self, pd_game):
        for k, profile in enumerate(pd_game.profiles()):
            assert pd_game.profile_index(profile) == k

    def test_ranks_and_relations(self, pd_game):
        assert pd_game.rank("r", ("D", "C")) == 4
        assert pd_game.rank("c", ("D", "C")) == 1
        assert pd_game.prefers("r", ("D", "C"), ("C", "C"), ">")
        assert pd_game.prefers("r", ("C", "C"), ("C", "C"), "~")
        assert not pd_game.prefers("c", ("D", "C"), ("C", "C"), ">=")
        with pytest.raises(ValueError):
            pd_game.prefers("r", ("D", "C"), ("C", "C"), "!!")
        with pytest.raises(KeyError):
            pd_game.rank("r", ("D", "X"))

    def test_validation(self):
        with pytest.raises(ValueError, match="rank missing"):
            Game.of({"r": ["a", "b"]}, {"r": {("a",): 1}})
        with pytest.raises(ValueError):
            Game.of({"r": []}, {"r": {}})
        with pytest.raises(ValueError):
            Game.of({"r": ["a", "a"]}, {"r": {("a",): 0}})

    def test_model_validation(self, space3, pd_game, identity3):
        belief = BeliefModel(space3, {"r": identity3, "c": identity3})
        with pytest.raises(ValueError, match="unknown action"):
            GameModel.of(belief, pd_game, {"r": "CDX", "c": "DDD"})
        with pytest.raises(ValueError, match="disagree on the players"):
            GameModel.of(
                BeliefModel(space3, {"x": identity3, "c": identity3}),
                pd_game,
                {"r": "CCC", "c": "DDD"},
            )
        gm = GameModel.of(belief, pd_game, {"r": "CDC", "c": "DDD"})
        assert gm.strategy("r", "ω2") == "D"
        assert set(gm.strategy_event("r", "C").states()) == {"ω1", "ω3"}
        assert gm.profile_at("ω1") == ("C", "D")


class TestPreferenceEvents:
    def test_reflexive_profiles(self, space3, pd_game, identity3):
        gm = two_player_model(
            space3, pd_game, identity3, identity3, "CDC", "DCD"
        )
        assert preference_event(gm, "r", "C", "C", "~") == space3.full
        assert preference_event(gm, "r", "C", "C", ">") == space3.empty

    def test_defection_dominates_everywhere(self, space3, pd_game, identity3):
        for sigma_c in ("CCC", "DCD"):
            gm = two_player_model(
                space3, pd_game, identity3, identity3, "CDC", sigma_c
            )
            assert preference_event(gm, "r", "D", "C", ">") == space3.full

    def test_strict_is_complement_of_reverse_weak(self, space3, identity3):
        rng = random.Random(7)
        for _ in range(3):
            game = random_game(rng)
            sigma_r = [rng.choice(game.actions_of("r")) for _ in space3.states]
            sigma_c = [rng.choice(game.actions_of("c")) for _ in space3.states]
            gm = two_player_model(
                space3, game, identity3, identity3, sigma_r, sigma_c
            )
            for alt, ref in itertools.product(game.actions_of("r"), repeat=2):
                strict = preference_event(gm, "r", alt, ref, ">")
                weak = preference_event(gm, "r", ref, alt, ">=")
                assert strict == ~weak


class TestRationality:
    def test_playing_the_dominant_action_is_rational(
        self, space3, pd_game, blindspot
    ):
        gm = two_player_model(space3, pd_game, blindspot, blindspot, "DDD", "CDC")
        assert rationality_event(gm, "r") == space3.full

    def test_dominated_action_with_full_awareness_is_irrational(
        self, space3, pd_game, identity3
    ):
        gm = two_player_model(space3, pd_game, identity3, identity3, "CCC", "DDD")
        assert rationality_event(gm, "r") == space3.empty

    def test_formulations_agree(self, space3, space2, pd_game, blindspot, identity3):
        closure = BeliefOperator.monotone_closure(
            space3,
            {
                space3.event(["ω1"]): space3.event(["ω1", "ω2"]),
                space3.event(["ω2"]): space3.full,
            },
        )
        for op in (blindspot, identity3, closure):
            for sigma_r in ("CDC", "DDD", "CCD"):
                gm = two_player_model(
                    space3, pd_game, op, identity3, sigma_r, "DCD"
                )
                got = rationality_event(gm, "r").bits
                assert got == brute_rationality_possibility(gm, "r")
        ident2 = identity_op(space2)
        for op in all_kripke_operators(space2):
            gm = two_player_model(space2, pd_game, op, ident2, "CD", "DC")
            for player in ("r", "c"):
                got = rationality_event(gm, player).bits
                assert got == brute_rationality_possibility(gm, player)


class TestStrategyCertainty:
    def test_blindspot_not_certain_of_varying_strategy(
        self, space3, pd_game, blindspot
    ):
        gm = two_player_model(space3, pd_game, blindspot, blindspot, "CDC", "DDD")
        report = strategy_certainty(gm, "r")
        assert not report.certainty.holds
        assert report.certainty.failures == (("ω3", frozenset({"C"})),)

    def test_constant_strategy_certain(self, space3, pd_game, blindspot):
        gm = two_player_model(space3, pd_game, blindspot, blindspot, "DDD", "CDC")
        report = strategy_certainty(gm, "r")
        assert report.certainty.holds
        assert report.consistent
        assert all(check.holds for check in report.identities)

    def test_signal_uses_full_action_set(self, space3, pd_game, identity3):
        gm = two_player_model(space3, pd_game, identity3, identity3, "DDD", "CDC")
        assert strategy_signal(gm, "r").codomain == ("C", "D")

    def test_certainty_with_consistency_fixes_strategy_events(
        self, space2, pd_game
    ):
        ident2 = identity_op(space2)
        for op in all_kripke_operators(space2):
            for sigma_r in ("CC", "CD", "DC", "DD"):
                gm = two_player_model(space2, pd_game, op, ident2, sigma_r, "DD")
                report = strategy_certainty(gm, "r")
                if report.consistent and report.certainty.holds:
                    assert all(c.holds for c in report.identities)


class TestIesda:
    def test_prisoners_dilemma(self, pd_game):
        trace = iesda(pd_game)
        assert trace.survivors == (("D",), ("D",))
        assert trace.rounds == ((("r", "C"), ("c", "C")),)
        assert survives(trace, ("D", "D"))
        assert not survives(trace, ("C", "D"))

    def test_no_dominance_leaves_everything(self):
        game = Game.of(
            {"r": ["H", "T"], "c": ["H", "T"]},
            {
                "r": {("H", "H"): 1, ("T", "T"): 1, ("H", "T"): 0, ("T", "H"): 0},
                "c": {("H", "H"): 0, ("T", "T"): 0, ("H", "T"): 1, ("T", "H"): 1},
            },
        )
        trace = iesda(game)
        assert trace.rounds == ()
        assert trace.survivors == (("H", "T"), ("H", "T"))

    def test_chain_elimination_modes(self):
        game = Game.of(
            {"solo": ["a1", "a2", "a3"]},
            {"solo": {("a1",): 0, ("a2",): 1, ("a3",): 2}},
        )
        maximal = iesda(game)
        assert maximal.rounds == ((("solo", "a1"), ("solo", "a2")),)
        assert maximal.survivors == (("a3",),)
        seeded = iesda(game, mode="seeded", seed=5)
        assert len(seeded.rounds) == 2
        assert all(len(batch) == 1 for batch in seeded.rounds)
        assert seeded.survivors == (("a3",),)
        assert seeded.seed == 5

    def test_order_independence_on_random_games(self):
        rng = random.Random(11)
        for _ in range(30):
            game = random_game(rng)
            reference = iesda(game).survivors
            for seed in range(10):
                assert iesda(game, mode="seeded", seed=seed).survivors == reference

    def test_mode_validation(self, pd_game):
        with pytest.raises(ValueError):
            iesda(pd_game, mode="arbitrary")


class TestCorrectBelief:
    def test_identity_beliefs_are_correct(self, space3, pd_game, identity3):
        gm = two_player_model(space3, pd_game, identity3, identity3, "CDC", "DDD")
        for player in ("r", "c"):
            assert correct_belief_in_own_rationality(gm, player).holds

    def test_conjunction_failure_breaks_correctness(self, space3, pd_game, identity3):
        # Frozen counterexample: the player is certain of her strategy
        # and compatible with informativeness, yet without Finite
        # Conjunction she believes herself rational where she is not.
        op = BeliefOperator.monotone_closure(
            space3,
            {
                space3.event(["ω1"]): space3.event(["ω1", "ω2"]),
                space3.event(["ω2"]): space3.full,
            },
        )
        gm = two_player_model(space3, pd_game, op, identity3, "CDD", "DDD")
        report = strategy_certainty(gm, "r")
        assert report.certainty.holds
        assert not op.check_axiom(Axiom.FINITE_CONJUNCTION).holds

        rat = rationality_event(gm, "r")
        assert set(rat.states()) == {"ω2", "ω3"}
        containment = correct_belief_in_own_rationality(gm, "r")
        assert not containment.holds
        assert containment.witness == (rat, "ω1")

        chain = correct_belief_chain(gm, "r")
        assert chain.status is ImplicationStatus.VACUOUS
        assert dict(chain.premises)["FiniteConjunction"] is False

    def test_chains_never_violated_on_small_sweep(self, space2, pd_game):
        ident2 = identity_op(space2)
        ops = list(all_kripke_operators(space2))
        for e1, img1, full_img in itertools.product(range(1, 3), range(4), range(4)):
            try:
                ops.append(
                    BeliefOperator.monotone_closure(
                        space2,
                        {
                            space2.event_from_bits(e1): space2.event_from_bits(img1),
                            space2.full: space2.event_from_bits(full_img),
                        },
                    )
                )
            except ValueError:
                continue
        for op in ops:
            for sigma_r in ("CC", "CD", "DC", "DD"):
                gm = two_player_model(space2, pd_game, op, ident2, sigma_r, "DD")
                assert correct_belief_chain(gm, "r").status is not (
                    ImplicationStatus.VIOLATED
                )
                assert introspective_correct_belief_chain(gm, "r").status is not (
                    ImplicationStatus.VIOLATED
                )
                assert self_evident_rationality_chain(gm, "r").status is not (
                    ImplicationStatus.VIOLATED
                )


class TestEpistemicVerdict:
    def test_common_rationality_confirms_survival(self, space3, pd_game, identity3):
        gm = two_player_model(space3, pd_game, identity3, identity3, "DDD", "DDD")
        verdict = epistemic_iesda_verdict(gm, "ω1")
        assert all(b for _, b in verdict.common_rationality)
        assert all(r.holds for r in verdict.correct_belief)
        assert verdict.survives
        assert verdict.status is ImplicationStatus.CONFIRMED
        assert verdict.profile == (("r", "D"), ("c", "D"))

    def test_irrational_profile_is_vacuous_not_violated(
        self, space3, pd_game, identity3
    ):
        gm = two_player_model(space3, pd_game, identity3, identity3, "CCC", "DDD")
        verdict = epistemic_iesda_verdict(gm, "ω2")
        assert not verdict.survives
        assert verdict.status is ImplicationStatus.VACUOUS

    def test_unknown_state_rejected(self, space3, pd_game, identity3):
        gm = two_player_model(space3, pd_game, identity3, identity3, "DDD", "DDD")
        with pytest.raises(KeyError):
            epistemic_iesda_verdict(gm, "ω9")

    def test_exhaustive_small_models_never_violate(self, space2, pd_game):
        ops = list(all_kripke_operators(space2))
        sigmas = ["CC", "CD", "DC", "DD"]
        for op_r, op_c in itertools.product(ops, repeat=2):
            belief = BeliefModel(space2, {"r": op_r, "c": op_c})
            for sigma_r, sigma_c in itertools.product(sigmas, repeat=2):
                gm = GameModel.of(
                    belief, pd_game, {"r": sigma_r, "c": sigma_c}
                )
                rat_r = rationality_event(gm, "r")
                rat_c = rationality_event(gm, "c")
                common_joint = belief.common_belief(rat_r & rat_c)
                assert common_joint <= belief.common_belief(rat_r)
                assert common_joint <= belief.common_belief(rat_c)
                for state in space2.states:
                    verdict = epistemic_iesda_verdict(gm, state)
                    assert verdict.status is not ImplicationStatus.VIOLATED


# ---------------------------------------------------------------------------
# the integer kernel against definitions written from Game.prefers


def brute_preference(gm, player, alt, ref, relation):
    idx = gm.game.players.index(player)
    bits = 0
    for i in range(gm.space.n):
        profile = [row[i] for row in gm.strategies]
        left, right = list(profile), list(profile)
        left[idx], right[idx] = alt, ref
        if gm.game.prefers(player, left, right, relation):
            bits |= 1 << i
    return bits


def brute_rationality(gm, player):
    """No alternative believed strictly better than the action played."""
    op = gm.belief.operator(player)
    acts = gm.game.actions_of(player)
    row = gm.strategies[gm.game.players.index(player)]
    bits = 0
    for i, ref in enumerate(row):
        if not any(
            op.apply_bits(brute_preference(gm, player, alt, ref, ">")) >> i & 1
            for alt in acts
        ):
            bits |= 1 << i
    return bits


def brute_rationality_possibility(gm, player):
    """Never believing the played action worse than some alternative."""
    op = gm.belief.operator(player)
    full = gm.space.size - 1
    acts = gm.game.actions_of(player)
    row = gm.strategies[gm.game.players.index(player)]
    bits = 0
    for i, ref in enumerate(row):
        if not any(
            op.apply_bits(full & ~brute_preference(gm, player, ref, alt, ">=")) >> i & 1
            for alt in acts
        ):
            bits |= 1 << i
    return bits


@functools.lru_cache(maxsize=None)
def brute_iesda(game, mode, seed):
    """IESDA written from Game.prefers over whole action profiles."""
    rng = random.Random(0 if seed is None else seed)
    current = [list(acts) for acts in game.actions]
    rounds = []
    while True:
        dominated = []
        for i, player in enumerate(game.players):
            profiles = list(itertools.product(*current))

            def dominates(alt, ref):
                return all(
                    game.prefers(
                        player,
                        profile[:i] + (alt,) + profile[i + 1 :],
                        profile[:i] + (ref,) + profile[i + 1 :],
                        ">",
                    )
                    for profile in profiles
                )

            for action in current[i]:
                if any(dominates(alt, action) for alt in current[i] if alt != action):
                    dominated.append((player, action))
        if not dominated:
            break
        if mode == "seeded":
            dominated = [dominated[rng.randrange(len(dominated))]]
        rounds.append(tuple(dominated))
        for player, action in dominated:
            current[game.players.index(player)].remove(action)
    return EliminationTrace(
        mode=mode,
        seed=seed if mode == "seeded" else None,
        rounds=tuple(rounds),
        survivors=tuple(map(tuple, current)),
    )


def assert_kernel_matches(gm):
    for player in gm.game.players:
        acts = gm.game.actions_of(player)
        for alt, ref in itertools.product(acts, repeat=2):
            for relation in (">", ">=", "~"):
                got = preference_event(gm, player, alt, ref, relation).bits
                assert got == brute_preference(gm, player, alt, ref, relation)
        assert rationality_event(gm, player).bits == brute_rationality(gm, player)
        assert rationality_event(gm, player).bits == brute_rationality_possibility(
            gm, player
        )
    for mode, seed in (("maximal", None), ("seeded", None), ("seeded", 0), ("seeded", 5)):
        assert iesda(gm.game, mode, seed) == brute_iesda(gm.game, mode, seed)
    trace = iesda(gm.game)
    survived = survival_event(gm, trace).bits
    for i, state in enumerate(gm.space.states):
        assert bool(survived >> i & 1) == survives(trace, gm.profile_at(state))


class TestIntegerKernel:
    # a fixed slice of the 256 two-state Kripke pairs, mixing players
    PAIRS = tuple((i, (5 * i + 3) % 16) for i in range(0, 16, 2))

    def test_every_pattern_game_and_strategy_profile(self):
        rows = list(itertools.product("ab", repeat=2))
        for pattern in range(81):
            game = _pattern_game(pattern)
            for i, j in self.PAIRS:
                belief = _pair_model(2, i, j)
                for s1, s2 in itertools.product(rows, repeat=2):
                    assert_kernel_matches(GameModel(belief, game, (s1, s2)))

    def test_seeded_four_state_three_action_games(self):
        src = ModelSource(
            mode="sampled-monotone", n_states=4, n_players=2, n_actions=3,
            seed=11, count=150,
        )
        rng = random.Random(src.seed)
        for _ in range(src.count):
            assert_kernel_matches(_sampled_game(rng, src))

    def test_three_player_games(self):
        src = ModelSource(
            mode="sampled-monotone", n_states=3, n_players=3, n_actions=2,
            seed=5, count=150,
        )
        rng = random.Random(src.seed)
        for _ in range(src.count):
            assert_kernel_matches(_sampled_game(rng, src))

    def test_unequal_action_counts(self, space3, identity3):
        rng = random.Random(2)
        game = random_game(rng, sizes=(2, 4))
        belief = BeliefModel(space3, {"r": identity3, "c": identity3})
        for sigma_r in itertools.product(game.actions[0], repeat=3):
            sigma_c = tuple(rng.choice(game.actions[1]) for _ in range(3))
            assert_kernel_matches(
                two_player_model(space3, game, identity3, identity3, sigma_r, sigma_c)
            )

    def test_single_action_player_with_nonempty_belief_in_nothing(self, space3):
        # only the player's own action is an alternative, so B(∅) decides
        blind = BeliefOperator.from_correspondence(
            PossibilityCorrespondence(space3, (0, 0b010, 0b110))
        )
        game = random_game(random.Random(4), sizes=(1, 3))
        for sigma_c in itertools.product(game.actions[1], repeat=3):
            gm = two_player_model(space3, game, blind, blind, ("r0",) * 3, sigma_c)
            assert_kernel_matches(gm)
            assert not rationality_event(gm, "r").bits & 1

    def test_kernel_validates_like_the_reference(self, space3, pd_game, identity3):
        gm = two_player_model(space3, pd_game, identity3, identity3, "CDC", "DCD")
        with pytest.raises(KeyError, match="unknown action"):
            preference_event(gm, "r", "X", "C")
        with pytest.raises(KeyError, match="unknown player"):
            preference_event(gm, "z", "C", "C")
        with pytest.raises(ValueError, match="relation"):
            preference_event(gm, "r", "C", "D", "!!")
        with pytest.raises(KeyError, match="unknown player"):
            rationality_event(gm, "z")


def reference_chains(gm, player):
    """Per chain, the premise verdicts and the conclusion with its witness,
    from the object API: certainty of the strategy signal, the axiom and
    compatibility reports, and containment of events around the
    brute-force rationality event."""
    op = gm.belief.operator(player)
    certain = certain_of(gm.belief, player, strategy_signal(gm, player)).holds
    compatible = compatible_with_informativeness(op).holds
    holds = {axiom: op.check_axiom(axiom).holds for axiom in Axiom}
    rat = Event(gm.space, brute_rationality(gm, player))
    believed = op.apply(rat)

    def conclusion(bad):
        return not bad, (rat, bad.states()[0]) if bad else None

    return {
        CORRECT_BELIEF: (
            (certain, compatible, holds[Axiom.FINITE_CONJUNCTION]),
            conclusion(believed - rat),
        ),
        INTROSPECTIVE_CORRECT_BELIEF: (
            (
                holds[Axiom.CONSISTENCY],
                holds[Axiom.POSITIVE_INTROSPECTION],
                holds[Axiom.KRIPKE],
                certain,
            ),
            conclusion(believed - rat),
        ),
        SELF_EVIDENT_RATIONALITY: (
            (holds[Axiom.NEGATIVE_INTROSPECTION], holds[Axiom.KRIPKE], certain),
            conclusion(rat - believed),
        ),
    }


CHAIN_REPORTS = {
    CORRECT_BELIEF: correct_belief_chain,
    INTROSPECTIVE_CORRECT_BELIEF: introspective_correct_belief_chain,
    SELF_EVIDENT_RATIONALITY: self_evident_rationality_chain,
}


def assert_chains_match(gm):
    """The table procedures against the object API, for every player:
    rationality bits, each chain's report and each chain's status."""
    statuses = []
    for player in gm.game.players:
        view = player_tables(gm, player)
        assert rationality_bits(view) == brute_rationality(gm, player)
        for chain, (premises, (holds, witness)) in reference_chains(gm, player).items():
            report = CHAIN_REPORTS[chain](gm, player)
            assert tuple(held for _, held in report.premises) == premises
            assert (report.conclusion[1], report.witness) == (holds, witness)
            assert decide_chain(chain, view) is report.status
            statuses.append(report.status)
    return statuses


class TestTableChains:
    def test_every_two_state_monotone_operator(self, monotone_operators2):
        # each operator plays first against three others, in four pattern
        # games, with every strategy row for each player
        ops = monotone_operators2
        rows = ["aa", "ab", "ba", "bb"]
        statuses = []
        for op, other, g in itertools.product(ops, (ops[0], ops[17], ops[-1]), (0, 31, 40, 76)):
            belief = BeliefModel(op.space, {"p1": op, "p2": other})
            for k, row in enumerate(rows):
                strategies = (tuple(row), tuple(rows[k - 1]))
                statuses += assert_chains_match(GameModel(belief, _pattern_game(g), strategies))
        assert set(statuses) == {ImplicationStatus.VACUOUS, ImplicationStatus.CONFIRMED}

    @pytest.mark.parametrize(
        "source",
        [
            ModelSource(
                mode="sampled-monotone", n_states=4, n_players=2, n_actions=3,
                seed=11, count=150,
            ),
            ModelSource(
                mode="sampled-monotone", n_states=3, n_players=3, n_actions=2,
                seed=5, count=150,
            ),
        ],
    )
    def test_sampled_games(self, source):
        rng = random.Random(source.seed)
        statuses = []
        for _ in range(source.count):
            statuses += assert_chains_match(_sampled_game(rng, source))
        assert ImplicationStatus.CONFIRMED in statuses
