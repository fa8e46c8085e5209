"""Audit harness: instance streams, claim registry, and sweep results."""

import ast
import hashlib
import importlib
import itertools
import json
import os
from pathlib import Path

import pytest

from beliefcheck.audit import (
    EXHAUSTIVE_STATE_LIMIT,
    ModelSource,
    audit,
    claim_ids,
    enumerate_correspondences,
    resolve_claim,
    sample_monotone_operators,
    standard_space,
    _CLAIMS,
    _draw_operator,
    _draw_spec,
    _game_blocks,
    _instance_count,
    _instances,
    _operator_of,
    _pair_model,
    _pattern_game,
    _rationality_fact,
    _run_range,
    _sampled_game,
    _worker_count,
    _transfer_signals,
    _uncovered_signals,
    _Acc,
    _STATUS_INDEX,
    _GAME_PROFILE_LIMIT,
)
from beliefcheck.core import (
    TABLE_LIMIT,
    Axiom,
    BeliefModel,
    BeliefOperator,
    FrameProperty,
    ImplicationStatus,
    PossibilityCorrespondence,
    correspondence_property,
    intersect_tables,
    iterated_mutual_bits,
    kripke_table,
    monotone_closure_table,
)
from beliefcheck.cli import run_cli
from beliefcheck.dsl import parse_model_spec, serialize_model
from beliefcheck.games import (
    EliminationTrace,
    Game,
    GameModel,
    decide_chain,
    epistemic_iesda_verdict,
    player_tables,
    rationality_bits,
    survival_bits,
)
import random


class TestModelSource:
    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown source mode"):
            ModelSource(mode="exhaustive")

    def test_from_files_needs_files(self):
        with pytest.raises(ValueError, match="at least one file"):
            ModelSource(mode="from-files")

    def test_state_count_floor(self):
        with pytest.raises(ValueError, match="at least one state"):
            ModelSource(mode="exhaustive-kripke", n_states=0)

    def test_exhaustive_state_cap(self):
        with pytest.raises(ValueError, match="capped at 3 states"):
            ModelSource(mode="exhaustive-kripke", n_states=EXHAUSTIVE_STATE_LIMIT + 1)

    def test_exhaustive_player_cap(self):
        with pytest.raises(ValueError, match="2 players"):
            ModelSource(mode="exhaustive-kripke", n_players=3)

    def test_game_sweep_caps(self):
        with pytest.raises(ValueError, match="2 states, 2 players, 2 actions"):
            ModelSource(mode="exhaustive-games", n_actions=3)

    @pytest.mark.parametrize(
        "size",
        [
            {"n_players": 1},
            {"n_players": 3},
            {"n_actions": 1},
            {"n_states": 1, "n_actions": 1},
            {"n_states": 3},
        ],
    )
    def test_game_sweep_is_two_by_two(self, size):
        # the sweep enumerates 2x2 games whatever the source says, so any
        # other player or action count would be reported but not run
        with pytest.raises(ValueError, match="2 states, 2 players, 2 actions"):
            ModelSource(mode="exhaustive-games", **size)

    def test_game_sweep_on_one_state(self):
        src = ModelSource(mode="exhaustive-games", n_states=1)
        assert _instance_count("game", src) == 81 * 2**2 * 2**2

    @pytest.mark.parametrize(
        "players,actions",
        [(13, 2), (5, 6), (2, 65), (10**6, 10), (10**9, 2)],
    )
    def test_sampled_game_profile_limit(self, players, actions):
        # rejected before any draw, so even an extreme size costs nothing
        src = ModelSource(
            mode="sampled-monotone", n_players=players, n_actions=actions, count=1
        )
        limit = f"capped at {_GAME_PROFILE_LIMIT} action profiles"
        with pytest.raises(ValueError, match=limit):
            audit("thm2", src)
        # operator claims never build a game
        assert _instance_count("operator", src) == 1

    @pytest.mark.parametrize(
        "players,actions", [(12, 2), (6, 4), (4, 8), (3, 10), (10**9, 1)]
    )
    def test_sampled_game_profile_limit_is_inclusive(self, players, actions):
        src = ModelSource(
            mode="sampled-monotone", n_players=players, n_actions=actions, count=3
        )
        assert _instance_count("game", src) == 3

    @pytest.mark.parametrize("players,actions", [(1, 11), (2, 12), (3, 16), (2, 64)])
    def test_sampled_game_action_limit(self, players, actions):
        # sampled games name their actions a-j; more would be reported
        # but not drawn
        src = ModelSource(
            mode="sampled-monotone", n_players=players, n_actions=actions, count=1
        )
        with pytest.raises(ValueError, match="capped at 10 actions per player"):
            audit("thm2", src)
        assert _instance_count("operator", src) == 1

    def test_sampled_needs_count(self):
        with pytest.raises(ValueError, match="positive count"):
            ModelSource(mode="sampled-monotone", count=0)

    @pytest.mark.parametrize(
        "mode,players,count",
        [
            ("exhaustive-kripke", 1, 0),
            ("sampled-monotone", 1, 10**12),
            ("sampled-monotone", 5, 10**12),
        ],
    )
    def test_pair_claims_take_two_players(self, monkeypatch, mode, players, count):
        # generated pairs always have players i and j, so any other count
        # would be reported but not audited; it is refused before a draw
        def no_draw(*args):
            raise AssertionError("drew an operator")

        monkeypatch.setattr("beliefcheck.audit._draw_spec", no_draw)
        monkeypatch.setattr("beliefcheck.audit._draw_operator", no_draw)
        src = ModelSource(mode=mode, n_states=1, n_players=players, count=count)
        for claim in ("thm1-2", "prop4-1a", "remark1-1a"):
            with pytest.raises(ValueError, match="pair claims take exactly 2 players"):
                audit(claim, src)
        assert _instance_count("operator", src) == (count or 2)


class TestEnumeration:
    @pytest.mark.parametrize("n,total", [(1, 2), (2, 16), (3, 512)])
    def test_counts(self, n, total):
        assert sum(1 for _ in enumerate_correspondences(n)) == total

    def test_reflexive_filter(self):
        got = list(enumerate_correspondences(2, ("reflexive",)))
        assert len(got) == 4
        assert all(
            correspondence_property(c, FrameProperty.REFLEXIVE) for c in got
        )

    def test_cap(self):
        with pytest.raises(ValueError, match="capped"):
            next(enumerate_correspondences(4))

    def test_distinct_and_total(self):
        seen = {c.possible for c in enumerate_correspondences(2)}
        assert seen == set(itertools.product(range(4), repeat=2))


class TestSampler:
    def test_seed_determinism(self):
        a = [op.table() for op in sample_monotone_operators(3, 9, 40)]
        b = [op.table() for op in sample_monotone_operators(3, 9, 40)]
        assert a == b

    def test_prefix_stability(self):
        short = [op.table() for op in sample_monotone_operators(3, 9, 20)]
        long = [op.table() for op in sample_monotone_operators(3, 9, 40)]
        assert long[:20] == short

    def test_seeds_differ(self):
        a = [op.table() for op in sample_monotone_operators(2, 0, 30)]
        b = [op.table() for op in sample_monotone_operators(2, 1, 30)]
        assert a != b

    def test_all_monotone_some_beyond_kripke(self):
        ops = list(sample_monotone_operators(2, 5, 200))
        assert all(op.check_axiom(Axiom.MONOTONICITY).holds for op in ops)
        kripke = [op.check_axiom(Axiom.KRIPKE).holds for op in ops]
        assert any(kripke) and not all(kripke)

    def test_count_floor(self):
        with pytest.raises(ValueError, match="positive"):
            next(sample_monotone_operators(2, 0, 0))

    # SHA-256 of the (correspondence-backed, table) rows of 500 operator
    # draws from seed 13, and of the generator state after them, as the
    # stream was drawn before a draw was a spec
    OLD_STREAM = {
        2: (
            "575d53cc08a0a9c5648b912d9ff94dacaa1112bce627cb4da0b90f118e6a6efd",
            "54b2e2442ccb5eabdd35e4b14be12b4703edf7084d6c6acf4fb41cf74b9e2c8b",
        ),
        3: (
            "8b353741b7ef2193ce7f6b8aa8ac50db245fbb74dd4cad4fe8fe92f646470c8d",
            "dc8a863b9c4ea04dd9c7dcdc895bf56fe7629d5beb3341d28d5b087fe64e4643",
        ),
    }

    @pytest.mark.parametrize("n", [2, 3])
    def test_spec_draws_replay_the_operator_stream(self, n):
        space = standard_space(n)
        by_spec, by_operator = random.Random(13), random.Random(13)
        specs = [_draw_spec(by_spec, space) for _ in range(500)]
        ops = [_draw_operator(by_operator, space) for _ in range(500)]
        assert by_spec.getstate() == by_operator.getstate()
        rows = [(op.has_correspondence(), op.table()) for op in ops]
        built = [_operator_of(space, spec) for spec in specs]
        assert [(op.has_correspondence(), op.table()) for op in built] == rows
        # the sampled pair sweep's tables, built without an operator
        tables = [
            kripke_table(spec, n) if isinstance(spec, tuple) else monotone_closure_table(spec, n)
            for spec in specs
        ]
        assert tables == [table for _, table in rows]
        digest = lambda value: hashlib.sha256(repr(value).encode()).hexdigest()
        assert (digest(rows), digest(by_spec.getstate())) == self.OLD_STREAM[n]


class TestRegistry:
    def test_ids_unique(self):
        ids = claim_ids()
        assert len(ids) == len(set(ids)) == len(_CLAIMS)

    def test_aliases_resolve_to_same_spec(self):
        for spec in _CLAIMS:
            for alias in spec.aliases:
                assert resolve_claim(alias) is spec
            assert resolve_claim(spec.canonical) is spec

    def test_aliases_disjoint_from_canonicals(self):
        canonicals = set(claim_ids())
        aliases = [a for spec in _CLAIMS for a in spec.aliases]
        assert len(aliases) == len(set(aliases))
        assert not canonicals & set(aliases)

    def test_unknown_claim(self):
        with pytest.raises(ValueError, match="unknown claim id"):
            resolve_claim("prop99")

    def test_frame_claims_need_correspondences(self):
        for alias in ("frame-serial", "frame-reflexive", "frame-transitive",
                      "frame-euclidean"):
            assert "sampled-monotone" not in resolve_claim(alias).modes

    def test_exhaustive_game_claims_have_block_checks(self):
        # without one, a sweep would build all 331,776 game models one
        # by one
        games = [s for s in _CLAIMS if "exhaustive-games" in s.modes]
        assert len(games) == 4
        assert all(s.sweep is not None for s in games)

    def test_exhaustive_pair_claims_are_swept_from_operator_facts(self):
        # without a sweep built from per-operator facts, a three-state
        # pair sweep would build all 262,144 belief models one by one;
        # operator claims share the same fact-and-tally shape
        tables = [s for s in _CLAIMS if s.arena in ("operator", "pair")]
        assert len(tables) == 28
        assert sum(s.arena == "pair" for s in tables) == 13
        for spec in tables:
            assert "exhaustive-kripke" in spec.modes
            assert spec.check.__qualname__ == "_table_claim.<locals>.check"
            assert spec.sweep.__qualname__ == "_table_claim.<locals>.sweep"

    def test_game_claims_skip_operator_sweeps(self):
        for alias in ("thm2", "epistemic-iesda"):
            assert "exhaustive-kripke" not in resolve_claim(alias).modes

    def test_every_declared_direction_is_recorded(self, monkeypatch):
        # each claim factory declares the directions its tally records; one it
        # declares but never names to _Acc.record or _Acc.count would be
        # reported as all zeros, or as vacuous throughout when the tally
        # fills it only through _Acc.vacuous
        named = set()
        for method in ("record", "count"):
            real = getattr(_Acc, method)
            monkeypatch.setattr(
                _Acc,
                method,
                lambda self, direction, *args, real=real: named.add(direction)
                or real(self, direction, *args),
            )
        for spec in _CLAIMS:
            named.clear()
            mode = "exhaustive-games" if spec.arena == "game" else "exhaustive-kripke"
            result = audit(spec.canonical, ModelSource(mode=mode, n_states=1))
            assert tuple(d.direction for d in result.directions) == spec.directions
            assert set(spec.directions) <= named, spec.canonical
            for d in result.directions:
                total = d.vacuous + d.confirmed + d.violated
                assert total > 0, (spec.canonical, d.direction)


EXHAUSTIVE_THEOREMS = tuple(
    spec.canonical
    for spec in _CLAIMS
    if spec.kind == "theorem" and "exhaustive-kripke" in spec.modes
)


class TestExhaustiveTheorems:
    @pytest.mark.parametrize("claim", EXHAUSTIVE_THEOREMS)
    def test_no_violations_on_two_states(self, claim):
        result = audit(claim, ModelSource(mode="exhaustive-kripke", n_states=2))
        assert result.passed
        assert result.violated_total == 0
        assert result.violations_total == 0

    @pytest.mark.parametrize("claim", EXHAUSTIVE_THEOREMS)
    def test_no_violations_on_one_state(self, claim):
        result = audit(claim, ModelSource(mode="exhaustive-kripke", n_states=1))
        assert result.passed

    def test_pair_sweep_instance_counts(self):
        result = audit("remark1-1a", ModelSource(mode="exhaustive-kripke", n_states=2))
        assert result.instances == 256
        result = audit("prop1-1a", ModelSource(mode="exhaustive-kripke", n_states=2))
        assert result.instances == 16

    def test_biconditionals_confirm_both_ways(self):
        # reflexivity is frame-equivalent to Truth; both directions must
        # actually fire on the full two-state sweep
        result = audit("frame-reflexive", ModelSource(mode="exhaustive-kripke", n_states=2))
        by_name = {d.direction: d for d in result.directions}
        assert by_name["forward"].confirmed == 4
        assert by_name["backward"].confirmed == 4
        assert by_name["forward"].vacuous == 12


class TestGameSweeps:
    def test_instance_count(self):
        src = ModelSource(mode="exhaustive-games")
        assert _instance_count("game", src) == 331_776

    @pytest.mark.parametrize("claim", ["thm2", "epistemic-iesda"])
    def test_slice_has_no_violations(self, claim):
        src = ModelSource(mode="exhaustive-games")
        acc = _run_range(resolve_claim(claim).canonical, src, 0, 4000, cap=5)
        for counts in acc.tallies.values():
            assert counts[_STATUS_INDEX["violated"]] == 0

    def test_sampled_games_confirm_somewhere(self):
        src = ModelSource(
            mode="sampled-monotone", n_states=3, n_players=2, n_actions=2,
            seed=3, count=400,
        )
        result = audit("epistemic-iesda", src)
        assert result.passed
        assert result.confirmed_total > 0

    def test_inline_epistemic_matches_public_verdict(self):
        src = ModelSource(
            mode="sampled-monotone", n_states=3, n_players=3, n_actions=2,
            seed=11, count=120,
        )
        rng = random.Random(src.seed)
        for _ in range(src.count):
            gm = _sampled_game(rng, src)
            acc = _Acc(("implication",), cap=0)
            resolve_claim("epistemic-iesda").check(gm, acc)
            expect = [0, 0, 0]
            for state in gm.space.states:
                status = epistemic_iesda_verdict(gm, state).status
                expect[_STATUS_INDEX[status.value]] += 1
            assert acc.tallies["implication"] == expect


GAME_CLAIMS = ("thm2", "thm2-kripke-pi", "thm2-kripke-ni", "epistemic-iesda")
# Slices of the exhaustive game stream. Blocks of 81 instances share a
# belief model and a strategy pair; the strategy pair turns over every
# block, the second operator every 16 blocks (1,296 instances) and the
# first operator every 256 blocks (20,736 instances). Each slice ends
# inside a block and the first starts inside one; the second and fifth
# cross a first-operator boundary, the third and sixth a
# second-operator boundary. Every slice but the first has live chain
# premises, and the last four have live epistemic-iesda premises. In
# the third, one player's rationality is commonly believed but not
# correctly believed.
GAME_SLICES = (
    (40, 300),
    (20_700, 20_800),
    (108_800, 108_900),
    (165_000, 166_111),
    (311_000, 311_100),
    (330_400, 330_560),
    (331_700, 331_776),
)


def _accumulated(acc):
    return {
        "instances": acc.instances,
        "tallies": acc.tallies,
        "violations": acc.violations,
        "violations_total": acc.violations_total,
        "counterexamples": acc.counterexamples,
        "counterexamples_total": acc.counterexamples_total,
    }


def _per_instance(claim, source, lo, hi, cap):
    """The reference: the claim's per-instance check on every instance."""
    spec = resolve_claim(claim)
    acc = _Acc(spec.directions, cap)
    for gm in _instances("game", source, lo, hi):
        spec.check(gm, acc)
    return _accumulated(acc)


def _blocked(claim, source, lo, hi, cap):
    return _accumulated(_run_range(resolve_claim(claim).canonical, source, lo, hi, cap))


def _own_weight(view):
    """A number read only from the player's belief table, ranks and
    played actions: the facts a block check may share across a block."""
    weight = sum((k + 1) * bits for k, bits in enumerate(view.table))
    weight = 31 * weight + sum((k + 1) * r for k, r in enumerate(view.rank))
    return 31 * weight + sum((k + 1) * a for k, a in enumerate(view.played))


def _forced_chain(chain, view):
    return tuple(ImplicationStatus)[_own_weight(view) % 3]


def _forced_trace(game):
    # a function of the game alone that often eliminates a played action
    weight = sum((k + 1) * r for row in game.ranks for k, r in enumerate(row))
    survivors = tuple(
        (acts[(weight >> i) % len(acts)],) for i, acts in enumerate(game.actions)
    )
    return EliminationTrace("maximal", None, (), survivors)


class TestGameBlocks:
    SRC = ModelSource(mode="exhaustive-games")

    def test_own_ranks_depend_on_own_pattern_only(self):
        for g in range(81):
            ranks = _pattern_game(g).ranks
            assert ranks[0] == _pattern_game(9 * (g // 9)).ranks[0]
            assert ranks[1] == _pattern_game(g % 9).ranks[1]
        assert len({_pattern_game(9 * k).ranks[0] for k in range(9)}) == 9
        assert len({_pattern_game(k).ranks[1] for k in range(9)}) == 9

    @pytest.mark.parametrize("lo,hi", GAME_SLICES)
    def test_blocks_cover_the_slice_in_order(self, lo, hi):
        instances = list(_instances("game", self.SRC, lo, hi))
        assert len(instances) == hi - lo
        blocks = list(_game_blocks(self.SRC, lo, hi))
        indices = [
            81 * b + g for b, (_, _, games) in enumerate(blocks, lo // 81) for g in games
        ]
        assert indices == list(range(lo, hi))
        flat = [(belief, rows, g) for belief, rows, games in blocks for g in games]
        for gm, (belief, rows, g) in zip(instances, flat):
            assert gm.belief is belief
            assert gm.strategies == rows
            assert gm.game == _pattern_game(g)

    @pytest.mark.parametrize("claim", GAME_CLAIMS)
    @pytest.mark.parametrize("lo,hi", GAME_SLICES)
    def test_block_check_matches_per_instance(self, claim, lo, hi):
        assert _blocked(claim, self.SRC, lo, hi, 5) == _per_instance(
            claim, self.SRC, lo, hi, 5
        )

    @pytest.mark.parametrize("cap", [0, 3, 40])
    @pytest.mark.parametrize("lo,hi", GAME_SLICES)
    def test_forced_chain_violations_list_alike(self, monkeypatch, lo, hi, cap):
        monkeypatch.setattr("beliefcheck.audit.decide_chain", _forced_chain)
        blocked = _blocked("thm2", self.SRC, lo, hi, cap)
        assert blocked == _per_instance("thm2", self.SRC, lo, hi, cap)
        assert blocked["violations_total"] > 0
        assert len(blocked["violations"]) == min(cap, blocked["violations_total"])

    @pytest.mark.parametrize("cap", [0, 3, 40])
    @pytest.mark.parametrize("lo,hi", GAME_SLICES[3:])
    def test_forced_survival_violations_list_alike(self, monkeypatch, lo, hi, cap):
        monkeypatch.setattr("beliefcheck.audit.maximal_trace", _forced_trace)
        blocked = _blocked("epistemic-iesda", self.SRC, lo, hi, cap)
        assert blocked == _per_instance("epistemic-iesda", self.SRC, lo, hi, cap)
        assert blocked["violations_total"] > 0
        assert len(blocked["violations"]) == min(cap, blocked["violations_total"])

    def test_forced_witness_is_the_failing_instance(self, monkeypatch):
        monkeypatch.setattr("beliefcheck.audit.decide_chain", _forced_chain)
        lo, hi = GAME_SLICES[1]
        listed = _blocked("thm2", self.SRC, lo, hi, 1)["violations"]
        for gm in _instances("game", self.SRC, lo, hi):
            if any(
                _forced_chain(None, player_tables(gm, p)) == "violated" for p in gm.game.players
            ):
                assert listed == [serialize_model(game_model=gm)]
                break
        else:
            pytest.fail("no forced violation in the slice")

    @pytest.mark.parametrize("claim", GAME_CLAIMS)
    def test_parallel_sweep_matches_inline(self, claim):
        one = json.dumps(audit(claim, self.SRC, jobs=1).to_dict())
        two = json.dumps(audit(claim, self.SRC, jobs=2).to_dict())
        assert one == two

    def test_rationality_fact_reads_only_own_operator(self):
        # each player's fact is the same whatever the other's operator,
        # over every pair of two-state Kripke operators
        for a, b in itertools.product(range(16), repeat=2):
            for rows in ((("a", "b"), ("b", "a")), (("a", "a"), ("a", "b"))):
                for g in range(0, 81, 16):
                    game = _pattern_game(g)
                    gm = GameModel(_pair_model(2, a, b), game, rows)
                    own_first = GameModel(_pair_model(2, a, 0), game, rows)
                    own_second = GameModel(_pair_model(2, 0, b), game, rows)
                    for p, own in (("p1", own_first), ("p2", own_second)):
                        assert _rationality_fact(player_tables(gm, p)) == _rationality_fact(
                            player_tables(own, p)
                        )

    @pytest.mark.parametrize(
        "claim,callee", [("thm2", decide_chain), ("epistemic-iesda", rationality_bits)]
    )
    def test_each_distinct_fact_is_decided_once(self, monkeypatch, claim, callee):
        # 2 players, 16 own operators, 16 strategy pairs, 9 own patterns
        calls = []

        def counting(*args):
            calls.append(args)
            return callee(*args)

        monkeypatch.setattr(f"beliefcheck.audit.{callee.__name__}", counting)
        assert audit(claim, self.SRC, jobs=1).instances == 331_776
        assert len(calls) == 2 * 16 * 16 * 9 == 4608

    def test_violation_free_blocks_record_nothing_one_by_one(self, monkeypatch):
        # blocks 2037 to 2050 have live premises for every game claim and
        # no violation, so each instance is recorded by count
        calls = []
        record = _Acc.record
        monkeypatch.setattr(
            _Acc, "record", lambda self, *args: calls.append(args) or record(self, *args)
        )
        for claim in GAME_CLAIMS:
            acc = _run_range(resolve_claim(claim).canonical, self.SRC, 81 * 2037, 81 * 2051, 5)
            assert acc.instances == 81 * 14
            assert acc.tallies["implication"][_STATUS_INDEX["confirmed"]] > 0
            assert acc.violations_total == 0
        assert calls == []

    def test_common_belief_is_decided_once_per_block_and_event(self, monkeypatch):
        # blocks 2037 to 2050 have live premises; a block's 81 instances
        # share one belief model, which has 4 events on two states
        calls = []
        common_belief = BeliefModel.common_belief
        monkeypatch.setattr(
            BeliefModel,
            "common_belief",
            lambda self, event: calls.append(event.bits) or common_belief(self, event),
        )
        canonical = resolve_claim("epistemic-iesda").canonical
        acc = _run_range(canonical, self.SRC, 81 * 2037, 81 * 2051, 5)
        assert acc.tallies["implication"][_STATUS_INDEX["confirmed"]] > 0
        assert 0 < len(calls) <= 14 * 4

    def test_blocks_tally_one_instance_per_outcome_key(self, monkeypatch):
        # blocks 2037 to 2050 are live and violation-free for every game
        # claim; each block adds one tallied instance per key, `times`
        # times, so the added counts cover every instance once
        merged = []
        merge = _Acc.merge
        monkeypatch.setattr(
            _Acc,
            "merge",
            lambda self, other, times=1: merged.append(times) or merge(self, other, times),
        )
        lo, hi = 81 * 2037, 81 * 2051
        for claim in GAME_CLAIMS:
            merged.clear()
            acc = _run_range(resolve_claim(claim).canonical, self.SRC, lo, hi, 5)
            assert acc.violations_total == 0 and sum(merged) == acc.instances == hi - lo
            if claim != "epistemic-iesda":
                # a chain tally reads both players' statuses, one pair per block
                assert len(merged) == 14
        # the survival tally reads the premise and, where it is live, which
        # states' played profiles survive: one key per distinct pair
        keys = {}
        for index, gm in enumerate(_instances("game", self.SRC, lo, hi), lo):
            premise = survived = 0
            for k, state in enumerate(gm.space.states):
                verdict = epistemic_iesda_verdict(gm, state)
                premise |= all(holds for _, holds in verdict.implication.premises) << k
                survived |= verdict.survives << k
            keys.setdefault(index // 81, set()).add((premise, premise and survived))
        assert len(merged) == sum(map(len, keys.values())) < 81 * 14 // 20

    def test_survival_bits_are_decided_once_per_game_and_codes(self, monkeypatch):
        # only where a premise is live, at most once per pattern game and
        # strategy codes in one sweep call, and afresh in the next call
        calls = []

        def counting(game, codes, trace):
            calls.append((game, codes))
            return survival_bits(game, codes, trace)

        monkeypatch.setattr("beliefcheck.audit.survival_bits", counting)
        for _ in range(2):
            calls.clear()
            assert audit("epistemic-iesda", self.SRC).instances == 331_776
            assert 0 < len(calls) == len(set(calls)) <= 81 * 16

    @pytest.mark.parametrize("forced", [False, True])
    @pytest.mark.parametrize("cap", [0, 3])
    @pytest.mark.parametrize("claim", GAME_CLAIMS)
    def test_chunks_split_inside_a_block_merge_to_the_whole(
        self, monkeypatch, claim, cap, forced
    ):
        # a worker chunk may start and end inside a block of 81; block
        # 2040 is cut after its first, 40th and 80th instance
        if forced:
            monkeypatch.setattr("beliefcheck.audit.decide_chain", _forced_chain)
            monkeypatch.setattr("beliefcheck.audit.maximal_trace", _forced_trace)
        canonical = resolve_claim(claim).canonical
        lo, hi = GAME_SLICES[3]
        cuts = (lo, 81 * 2040 + 1, 81 * 2040 + 40, 81 * 2040 + 80, hi)
        parts = [_run_range(canonical, self.SRC, a, b, cap) for a, b in zip(cuts, cuts[1:])]
        merged = parts[0]
        for part in parts[1:]:
            merged.merge(part)
        whole = _accumulated(_run_range(canonical, self.SRC, lo, hi, cap))
        assert _accumulated(merged) == whole == _per_instance(claim, self.SRC, lo, hi, cap)
        assert all(part.violations_total for part in parts) == forced


PAIR_CLAIMS = tuple(
    spec.canonical
    for spec in _CLAIMS
    if spec.arena == "pair" and "exhaustive-kripke" in spec.modes
)
# Slices of the three-state pair stream, pair (a, b) at index 512 * a + b.
# The second and fifth cross from one first operator to the next, the
# third crosses the middle of the stream, and the fourth covers the whole
# rows of two first operators and parts of the rows on either side, as a
# worker chunk does; the first and last hold the first and last operator
# pairs.
PAIR_SLICES = (
    (0, 40),
    (500, 530),
    (131_060, 131_100),
    (199_900, 201_400),
    (262_100, 262_144),
)


def _reference(claim, source, lo, hi, cap):
    """The per-instance check on every model of the claim's stream."""
    spec = resolve_claim(claim)
    acc = _Acc(spec.directions, cap)
    for model in _instances(spec.arena, source, lo, hi):
        spec.check(model, acc)
    return _accumulated(acc)


@pytest.fixture
def forced_pair_facts(monkeypatch):
    """Flip, as a function of their inputs alone, about one in five axiom
    verdicts, one in four certainty verdicts, one in six iterated mutual
    beliefs and one in seven verdicts on whether a table holds an event
    self-evident, so that every operator and pair claim fails or finds
    witnesses. The access tests and the self-evident events that pair
    sweeps class observers by flip alike. Tuples of ints hash the same in
    every process."""
    import beliefcheck.audit as audit_module

    holds = audit_module._holds
    unbelieved = audit_module.unbelieved_bits
    iterated = audit_module.iterated_mutual_bits
    self_evident = audit_module._self_evident_bits
    positive = audit_module.positive_access_bits
    negative = audit_module.negative_access_bits

    def flipped(table, event):
        return hash((table, event)) % 7 == 0

    def forced_holds(op, axiom):
        return holds(op, axiom) != (hash((op.table(), tuple(Axiom).index(axiom))) % 5 == 0)

    def forced_unbelieved(signal, believe):
        bits = unbelieved(signal, believe)
        if hash((believe.__self__, signal._preimage_masks())) % 4 == 0:
            return [0] * len(bits) if any(bits) else [1]
        return bits

    def forced_iterated(mutual, event_bits, depth):
        bits = iterated(mutual, event_bits, depth)
        return bits ^ 1 if hash((mutual, event_bits)) % 6 == 0 else bits

    def forced_self_evident(table):
        flips = sum(1 << e for e in range(len(table)) if flipped(table, e))
        return self_evident(table) ^ flips

    def forced_positive(observer, subject):
        # per event, the subject's image is what the observer must hold
        # self-evident
        bits = positive(observer, subject)
        return (int(not b) if flipped(observer, e) else b for e, b in zip(subject, bits))

    def forced_negative(observer, subject):
        full = len(subject) - 1
        bits = negative(observer, subject)
        return (
            int(not b) if flipped(observer, full & ~e) else b for e, b in zip(subject, bits)
        )

    monkeypatch.setattr(audit_module, "_holds", forced_holds)
    monkeypatch.setattr(audit_module, "unbelieved_bits", forced_unbelieved)
    monkeypatch.setattr(audit_module, "iterated_mutual_bits", forced_iterated)
    monkeypatch.setattr(audit_module, "_self_evident_bits", forced_self_evident)
    monkeypatch.setattr(audit_module, "positive_access_bits", forced_positive)
    monkeypatch.setattr(audit_module, "negative_access_bits", forced_negative)


# pair claims whose verdict reads only an observer class and a subject class
SEPARATING_CLAIMS = (
    "remark1-1a",
    "remark1-1b",
    "remark1-1c",
    "remark1-2a",
    "remark1-2b",
    "prop4-1a",
    "prop4-side-condition",
)
COMMON_TABLE_CLAIMS = (
    "thm1-1",
    "thm1-2",
    "thm1-2-converse-fails",
    "prop4-1b",
    "common-belief-vs-iteration",
    "strict-iteration-gap",
)


def _drawn_tables(source):
    """The operator tables of each instance of a generated pair source."""
    return [
        tuple(op.table() for op in model.operators.values())
        for model in _instances("pair", source, 0, _instance_count("pair", source))
    ]


def _assert_common_table_once(monkeypatch, claim, source):
    # afresh in every sweep call, so a second call decides them again.
    # A vacuous pair reads no common table, so only the two iteration
    # claims reach every mutual table
    import beliefcheck.audit as audit_module

    distinct = {intersect_tables(pair) for pair in _drawn_tables(source)}
    calls = []
    common_table = audit_module.common_table
    monkeypatch.setattr(
        audit_module,
        "common_table",
        lambda mutual: calls.append(mutual) or common_table(mutual),
    )
    for _ in range(2):
        calls.clear()
        assert audit(claim, source).instances >= _instance_count("pair", source)
        assert calls and len(calls) == len(set(calls)) and set(calls) <= distinct
        if "iteration" in claim:
            assert set(calls) == distinct


class TestPairSweeps:
    SRC = ModelSource(mode="exhaustive-kripke", n_states=3)

    @pytest.mark.parametrize("claim", PAIR_CLAIMS)
    @pytest.mark.parametrize("lo,hi", PAIR_SLICES)
    def test_sweep_matches_per_instance(self, claim, lo, hi):
        assert _blocked(claim, self.SRC, lo, hi, 5) == _reference(
            claim, self.SRC, lo, hi, 5
        )

    @pytest.mark.parametrize("cap", [0, 3, 40])
    @pytest.mark.parametrize("claim", PAIR_CLAIMS)
    def test_forced_failures_list_alike(self, forced_pair_facts, claim, cap):
        for lo, hi in PAIR_SLICES:
            swept = _blocked(claim, self.SRC, lo, hi, cap)
            assert swept == _reference(claim, self.SRC, lo, hi, cap), (lo, hi)
        found = swept["violations_total"] + swept["counterexamples_total"]
        assert found > 0
        listed = swept["violations"] + swept["counterexamples"]
        assert len(listed) == min(cap, found)

    @pytest.mark.parametrize("claim,battery", [("thm1-2", None), ("prop4-1a", _transfer_signals)])
    def test_forced_witness_is_the_failing_instance(self, forced_pair_facts, claim, battery):
        lo, hi = PAIR_SLICES[-1]
        listed = _blocked(claim, self.SRC, lo, hi, 1)["violations"]
        spec = resolve_claim(claim)
        for model in _instances("pair", self.SRC, lo, hi):
            acc = _Acc(spec.directions, cap=0)
            spec.check(model, acc)
            if acc.violations_total:
                break
        else:
            pytest.fail("no forced violation in the slice")
        if battery is None:
            assert listed == [serialize_model(model)]
        else:
            texts = [serialize_model(model, signals=(sig,)) for sig in battery(model.space)]
            assert listed[0] in texts
        assert parse_model_spec(listed[0]).belief_model() == model

    def test_vacuous_pairs_record_nothing_one_by_one(self, monkeypatch):
        # the first operator believes every event everywhere, so it is
        # inconsistent and each of its 512 pairs is vacuous for all ten
        # transfer signals
        calls = []
        record = _Acc.record
        monkeypatch.setattr(
            _Acc, "record", lambda self, *args: calls.append(args) or record(self, *args)
        )
        acc = _run_range("prop4-1a", self.SRC, 0, 512, 5)
        assert acc.instances == acc.tallies["implication"][0] == 5120
        assert calls == []

    @pytest.mark.parametrize("claim", ["prop4-1a", "thm1-2-converse-fails"])
    def test_parallel_sweep_matches_inline(self, claim):
        one = json.dumps(audit(claim, self.SRC, jobs=1).to_dict())
        two = json.dumps(audit(claim, self.SRC, jobs=2).to_dict())
        assert one == two

    @pytest.mark.parametrize("claim", SEPARATING_CLAIMS)
    def test_forced_classes_hold_across_observers(self, forced_pair_facts, claim):
        # observers share a class only where every verdict the tally reads
        # of them agrees; ten whole rows put many observers in one class
        lo, hi = 512 * 300, 512 * 310
        assert _blocked(claim, self.SRC, lo, hi, 5) == _reference(claim, self.SRC, lo, hi, 5)

    @pytest.mark.parametrize("cap", [0, 3, 40])
    @pytest.mark.parametrize("claim", ["remark1-1a", "prop4-1a", "thm1-2"])
    def test_chunks_split_mid_row_merge_to_the_whole(self, forced_pair_facts, claim, cap):
        # a worker chunk may start and end inside an observer's row of 512
        canonical = resolve_claim(claim).canonical
        lo, hi = PAIR_SLICES[3]
        whole = _run_range(canonical, self.SRC, lo, hi, cap)
        cuts = (lo, 200_000, 200_600, 201_300, hi)
        parts = [_run_range(canonical, self.SRC, a, b, cap) for a, b in zip(cuts, cuts[1:])]
        merged = parts[0]
        for part in parts[1:]:
            merged.merge(part)
        assert _accumulated(merged) == _accumulated(whole)
        assert whole.violations_total + whole.counterexamples_total > 0

    def test_union_keys_are_decided_once(self, monkeypatch):
        # thm1-2 reads a player's fact through the key (a | b, own
        # operator): 27 pairs of a possible-set and a subset of it per
        # state, 19 of them with a consistent subset, so 3^9 keys and 19^3
        # conjunctive ones on three states
        import beliefcheck.audit as audit_module

        decided = []

        class Counting(audit_module._Lazy):
            def __missing__(self, key):
                decided.append(key)
                return super().__missing__(key)

        monkeypatch.setattr(audit_module, "_Lazy", Counting)
        assert audit("thm1-2", self.SRC).instances == 262_144
        conjunctive = {
            k for k, corr in enumerate(enumerate_correspondences(3))
            if BeliefOperator.from_correspondence(corr).check_axiom(Axiom.CONSISTENCY).holds
        }
        assert len(decided) == len(set(decided)) == 3**9
        assert sum(key % 512 in conjunctive for key in decided) == 19**3 == 6_859

    @pytest.mark.parametrize("claim", COMMON_TABLE_CLAIMS)
    def test_common_table_is_decided_once_per_mutual_table(self, monkeypatch, claim):
        _assert_common_table_once(monkeypatch, claim, ModelSource(mode="exhaustive-kripke"))


SAMPLED_PAIR_CLAIMS = tuple(
    spec.canonical
    for spec in _CLAIMS
    if spec.arena == "pair" and "sampled-monotone" in spec.modes
)
# Sampled pair sources with slices of their streams. Every slice but the
# first starts past the stream's start, as a worker chunk does, so the
# sweep replays the draws before it.
SAMPLED_PAIR_SLICES = (
    (ModelSource(mode="sampled-monotone", n_states=2, seed=3, count=400), 0, 90),
    (ModelSource(mode="sampled-monotone", n_states=2, seed=3, count=400), 137, 400),
    (ModelSource(mode="sampled-monotone", n_states=3, seed=0, count=3000), 1, 120),
    (ModelSource(mode="sampled-monotone", n_states=3, seed=0, count=3000), 2_850, 3_000),
)


class TestSampledPairSweeps:
    SRC = ModelSource(mode="sampled-monotone", n_states=3, seed=0, count=3000)

    def test_every_pair_claim_is_swept(self):
        assert len(SAMPLED_PAIR_CLAIMS) == 13
        assert set(SAMPLED_PAIR_CLAIMS) == set(PAIR_CLAIMS)

    @pytest.mark.parametrize("claim", SAMPLED_PAIR_CLAIMS)
    @pytest.mark.parametrize("source,lo,hi", SAMPLED_PAIR_SLICES)
    def test_sweep_matches_per_instance(self, claim, source, lo, hi):
        assert _blocked(claim, source, lo, hi, 5) == _reference(claim, source, lo, hi, 5)

    @pytest.mark.parametrize("cap", [0, 3, 40])
    @pytest.mark.parametrize("claim", SAMPLED_PAIR_CLAIMS)
    def test_forced_failures_list_alike(self, forced_pair_facts, claim, cap):
        listed = []
        found = 0
        for source, lo, hi in SAMPLED_PAIR_SLICES:
            swept = _blocked(claim, source, lo, hi, cap)
            assert swept == _reference(claim, source, lo, hi, cap), (source, lo, hi)
            found_here = swept["violations_total"] + swept["counterexamples_total"]
            listed_here = swept["violations"] + swept["counterexamples"]
            assert len(listed_here) == min(cap, found_here)
            found += found_here
            listed += listed_here
        assert found > 0
        if cap == 40:
            # drawn operators list as drawn: kripke blocks and table blocks
            text = "".join(listed)
            assert "kripke {" in text and "table {" in text

    def test_each_drawn_table_is_decided_once(self, monkeypatch):
        # the iteration fact reads one axiom, so _holds is called once
        # per fact; the pool lives for one call
        import beliefcheck.audit as audit_module

        drawn = {table for pair in _drawn_tables(self.SRC) for table in pair}
        calls = []
        holds = audit_module._holds
        monkeypatch.setattr(
            audit_module,
            "_holds",
            lambda op, axiom: calls.append(op.table()) or holds(op, axiom),
        )
        for _ in range(2):
            calls.clear()
            assert audit("common-belief-vs-iteration", self.SRC).instances == 3000
            assert sorted(calls) == sorted(drawn)
        assert len(drawn) < 2 * 3000

    @pytest.mark.parametrize("claim", COMMON_TABLE_CLAIMS)
    def test_common_table_is_decided_once_per_mutual_table(self, monkeypatch, claim):
        _assert_common_table_once(monkeypatch, claim, self.SRC)

    def test_larger_spaces_run_the_per_instance_check(self, monkeypatch):
        # past three states draws rarely repeat, so no table pool is kept
        src = ModelSource(mode="sampled-monotone", n_states=4, seed=0, count=60)
        reference = _reference("thm1-2", src, 0, 60, 5)

        def no_table(*args):
            raise AssertionError("swept")

        monkeypatch.setattr("beliefcheck.audit.kripke_table", no_table)
        monkeypatch.setattr("beliefcheck.audit.monotone_closure_table", no_table)
        assert _blocked("thm1-2", src, 0, 60, 5) == reference

    def test_draws_before_the_slice_only_advance_the_stream(self, monkeypatch):
        import beliefcheck.audit as audit_module

        lo, hi = 2_900, 3_000
        rng = random.Random(self.SRC.seed)
        specs = [_draw_spec(rng, standard_space(3)) for _ in range(2 * hi)][2 * lo :]
        built = []
        for name in ("kripke_table", "monotone_closure_table", "_operator_of"):
            real = getattr(audit_module, name)
            monkeypatch.setattr(
                audit_module,
                name,
                lambda *args, real=real, name=name: built.append((name, args)) or real(*args),
            )
        # thm1-2 has no violation here, so no listing builds a drawn
        # operator: the slice's specs become tables and nothing more
        acc = _run_range(resolve_claim("thm1-2").canonical, self.SRC, lo, hi, 5)
        assert acc.instances == hi - lo and acc.violations_total == 0
        kripke = [args[0] for name, args in built if name == "kripke_table"]
        closures = [args[0] for name, args in built if name == "monotone_closure_table"]
        assert kripke == list(dict.fromkeys(s for s in specs if isinstance(s, tuple)))
        assert closures == [s for s in specs if isinstance(s, dict)]
        assert not any(name == "_operator_of" for name, _ in built)

    @pytest.mark.parametrize(
        "claim,source",
        [
            (
                "strict-iteration-gap",
                ModelSource(mode="sampled-monotone", n_states=3, seed=0, count=20_000),
            ),
            ("prop4-1a", ModelSource(mode="sampled-monotone", n_states=3, seed=1, count=3000)),
        ],
    )
    def test_parallel_sweep_matches_inline(self, claim, source):
        one = audit(claim, source, jobs=1)
        two = audit(claim, source, jobs=2)
        assert json.dumps(one.to_dict()) == json.dumps(two.to_dict())
        if claim == "strict-iteration-gap":
            assert one.counterexamples_total == 25


def _sampled_games(n, players, actions, seed, count):
    return ModelSource(
        mode="sampled-monotone", n_states=n, n_players=players, n_actions=actions,
        seed=seed, count=count,
    )


# The benchmark's sampled game source, and slices of sampled game
# streams with 1 to 5 states, 1 to 3 players and 1 to 3 actions. Every
# slice starts past the stream's start, as a worker chunk does, so the
# sweep replays the draws before it.
BENCHMARK_GAMES = _sampled_games(4, 2, 3, seed=7, count=5000)
SAMPLED_GAME_SLICES = (
    (_sampled_games(1, 1, 3, seed=2, count=300), 17, 300),
    (_sampled_games(2, 3, 2, seed=5, count=300), 40, 300),
    (_sampled_games(2, 2, 1, seed=4, count=200), 3, 200),
    (_sampled_games(3, 2, 3, seed=1, count=300), 1, 250),
    (_sampled_games(3, 3, 3, seed=6, count=120), 60, 120),
    (BENCHMARK_GAMES, 4_700, 5_000),
    (_sampled_games(5, 2, 2, seed=3, count=100), 10, 100),
)
# SHA-256 of the sorted JSON report of each game claim on the benchmark's
# sampled game source, recorded with the per-instance checks before the
# sampled game stream was swept.
SAMPLED_GAME_DIGESTS = {
    "thm2": "ec22eaf94ff31e26fb46ad11efd9495b74d580a78e3e7acf6f5eb7ac3e87d698",
    "thm2-kripke-pi": "d7efaa6f6494769eb119331adec2398ed7aa8aa276dad273b7cce2dbb6d56a1e",
    "thm2-kripke-ni": "bd87f9eedd33c116b225b04b76025cd4f44cfdf23afc76dcc939050d0c117398",
    "epistemic-iesda": "767c61fe529d16403bf41ad37a35a85ba6ab3486452960b7f187cfba58aa6b56",
}


def _count_constructions(monkeypatch, classes) -> dict:
    """Count the instances built of each class from here on."""
    built = {cls.__name__: 0 for cls in classes}
    for cls in classes:
        post_init = cls.__post_init__

        def counting(self, post_init=post_init, name=cls.__name__):
            built[name] += 1
            post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    return built


class TestSampledGameSweeps:
    @pytest.mark.parametrize("claim", GAME_CLAIMS)
    @pytest.mark.parametrize("source,lo,hi", SAMPLED_GAME_SLICES)
    def test_sweep_matches_per_instance(self, claim, source, lo, hi):
        assert _blocked(claim, source, lo, hi, 5) == _reference(claim, source, lo, hi, 5)

    @pytest.mark.parametrize("cap", [0, 3, 40])
    @pytest.mark.parametrize("claim", GAME_CLAIMS)
    def test_forced_failures_list_alike(self, monkeypatch, claim, cap):
        monkeypatch.setattr("beliefcheck.audit.decide_chain", _forced_chain)
        monkeypatch.setattr("beliefcheck.audit.maximal_trace", _forced_trace)
        listed = []
        found = 0
        for source, lo, hi in SAMPLED_GAME_SLICES:
            swept = _blocked(claim, source, lo, hi, cap)
            assert swept == _reference(claim, source, lo, hi, cap), (source, lo, hi)
            assert len(swept["violations"]) == min(cap, swept["violations_total"])
            found += swept["violations_total"]
            listed += swept["violations"]
        assert found > 0
        if cap == 40:
            # drawn operators list as drawn: kripke blocks and table blocks
            text = "".join(listed)
            assert "kripke {" in text and "table {" in text

    @pytest.mark.parametrize("claim", ["thm2", "epistemic-iesda"])
    def test_parallel_sweep_matches_inline(self, claim):
        one = json.dumps(audit(claim, BENCHMARK_GAMES, jobs=1).to_dict())
        two = json.dumps(audit(claim, BENCHMARK_GAMES, jobs=2).to_dict())
        assert one == two

    @pytest.mark.parametrize("claim", GAME_CLAIMS)
    def test_report_is_unchanged(self, claim):
        result = audit(claim, BENCHMARK_GAMES)
        text = json.dumps(result.to_dict(), sort_keys=True, ensure_ascii=False)
        assert hashlib.sha256(text.encode()).hexdigest() == SAMPLED_GAME_DIGESTS[claim]

    @pytest.mark.parametrize("claim", GAME_CLAIMS)
    def test_violation_free_sweep_builds_no_model(self, monkeypatch, claim):
        # only the elimination trace of an instance with a live premise
        # needs a Game
        built = _count_constructions(monkeypatch, (BeliefOperator, Game, GameModel))
        acc = _run_range(resolve_claim(claim).canonical, BENCHMARK_GAMES, 4_000, 5_000, 5)
        assert acc.instances == 1_000 and acc.violations_total == 0
        live = acc.tallies["implication"][_STATUS_INDEX["confirmed"]]
        assert live > 0
        assert built["BeliefOperator"] == built["GameModel"] == 0
        if claim == "epistemic-iesda":
            assert 0 < built["Game"] <= live
        else:
            assert built["Game"] == 0

    def test_draws_before_the_slice_only_advance_the_stream(self, monkeypatch):
        import beliefcheck.audit as audit_module

        built = _count_constructions(monkeypatch, (BeliefOperator, Game, GameModel))
        assert len(list(_instances("game", BENCHMARK_GAMES, 4_990, 5_000))) == 10
        assert built == {"BeliefOperator": 20, "Game": 10, "GameModel": 10}
        tables = []
        for name in ("kripke_table", "monotone_closure_table"):
            real = getattr(audit_module, name)
            monkeypatch.setattr(
                audit_module, name, lambda *args, real=real: tables.append(args) or real(*args)
            )
        _run_range(resolve_claim("thm2").canonical, BENCHMARK_GAMES, 4_990, 5_000, 5)
        assert len(tables) == 20

    def test_larger_spaces_run_the_per_instance_check(self, monkeypatch):
        # past TABLE_LIMIT states a drawn operator has no table: the
        # monotone closures cannot be built and the chains cannot be
        # decided, while epistemic-iesda decides Kripke draws. Each
        # outcome is the one recorded before the sampled game stream was
        # swept
        def no_table(*args):
            raise AssertionError("swept")

        monkeypatch.setattr("beliefcheck.audit.kripke_table", no_table)
        monkeypatch.setattr("beliefcheck.audit.monotone_closure_table", no_table)
        large = "state space too large for explicit event tables"
        # (vacuous, confirmed, violated) of epistemic-iesda, or the error
        outcomes = {0: large, 1: (17, 0, 0), 2: large, 9: (0, 17, 0)}
        for seed, expect in outcomes.items():
            src = _sampled_games(TABLE_LIMIT + 1, 1, 2, seed=seed, count=1)
            for claim in GAME_CLAIMS:
                if claim != "epistemic-iesda" or expect == large:
                    with pytest.raises(ValueError, match=f"^{large}$"):
                        audit(claim, src)
                else:
                    (tally,) = audit(claim, src).directions
                    assert (tally.vacuous, tally.confirmed, tally.violated) == expect


OPERATOR_CLAIMS = tuple(spec.canonical for spec in _CLAIMS if spec.arena == "operator")
# Generated operator sources with slices of their streams. Every slice but
# the third starts past the stream's start, as a worker chunk does.
OPERATOR_SLICES = (
    (ModelSource(mode="exhaustive-kripke", n_states=3), 1, 120),
    (ModelSource(mode="exhaustive-kripke", n_states=3), 300, 512),
    (ModelSource(mode="sampled-monotone", n_states=2, seed=3, count=400), 0, 90),
    (ModelSource(mode="sampled-monotone", n_states=2, seed=3, count=400), 137, 400),
    (ModelSource(mode="sampled-monotone", n_states=3, seed=0, count=3000), 1, 300),
    (ModelSource(mode="sampled-monotone", n_states=3, seed=0, count=3000), 2_700, 3_000),
)


def _operator_slices(claim):
    # frame claims take no sampled source
    modes = resolve_claim(claim).modes
    return [(source, lo, hi) for source, lo, hi in OPERATOR_SLICES if source.mode in modes]


class TestOperatorSweeps:
    @pytest.mark.parametrize("claim", OPERATOR_CLAIMS)
    def test_sweep_matches_per_instance(self, claim):
        for source, lo, hi in _operator_slices(claim):
            swept = _blocked(claim, source, lo, hi, 5)
            assert swept == _reference(claim, source, lo, hi, 5), (source, lo, hi)

    @pytest.mark.parametrize("cap", [0, 3, 40])
    @pytest.mark.parametrize("claim", OPERATOR_CLAIMS)
    def test_forced_failures_list_alike(self, forced_pair_facts, claim, cap):
        listed = []
        found = 0
        for source, lo, hi in _operator_slices(claim):
            swept = _blocked(claim, source, lo, hi, cap)
            assert swept == _reference(claim, source, lo, hi, cap), (source, lo, hi)
            found_here = swept["violations_total"] + swept["counterexamples_total"]
            listed_here = swept["violations"] + swept["counterexamples"]
            assert len(listed_here) == min(cap, found_here)
            found += found_here
            listed += listed_here
        assert found > 0
        if cap == 40 and "sampled-monotone" in resolve_claim(claim).modes:
            # drawn operators list as drawn: kripke blocks and table blocks
            text = "".join(listed)
            assert "kripke {" in text and "table {" in text

    @pytest.mark.parametrize(
        "source",
        [
            ModelSource(mode="exhaustive-kripke", n_states=3),
            ModelSource(mode="sampled-monotone", n_states=3, seed=0, count=3000),
        ],
    )
    def test_each_table_is_decided_once(self, monkeypatch, source):
        # the claim's fact reads two axioms; the pool lives for one call
        import beliefcheck.audit as audit_module

        total = _instance_count("operator", source)
        drawn = {
            model.operators["i"].table() for model in _instances("operator", source, 0, total)
        }
        calls = []
        holds = audit_module._holds
        monkeypatch.setattr(
            audit_module,
            "_holds",
            lambda op, axiom: calls.append((op.table(), axiom)) or holds(op, axiom),
        )
        for _ in range(2):
            calls.clear()
            assert audit("truth-implies-consistency", source).instances == total
            assert len(calls) == len(set(calls))
            assert set(calls) == {(t, a) for t in drawn for a in (Axiom.TRUTH, Axiom.CONSISTENCY)}
        # every Kripke operator once; sampled draws repeat
        assert len(drawn) == 512 if source.mode == "exhaustive-kripke" else len(drawn) < total

    def test_parallel_sweep_matches_inline(self):
        source = ModelSource(mode="sampled-monotone", n_states=3, seed=1, count=3000)
        one = audit("beta-not-negbeta-exists", source, jobs=1)
        two = audit("beta-not-negbeta-exists", source, jobs=2)
        assert json.dumps(one.to_dict()) == json.dumps(two.to_dict())
        assert one.counterexamples_total > 0


class TestOffKripkeCounterexample:
    """A three-state monotone pair on which remark1-2a, as encoded, fails.
    The observer satisfies Truth but not Finite Conjunction: at ω1 it
    believes {ω1, ω2} and {ω1, ω3} but not {ω1}, a preimage of the
    subject's type mapping there. Both access properties hold."""

    @pytest.fixture
    def pair_file(self, tmp_path):
        space = standard_space(3)
        observer = BeliefOperator.from_table(space, (0, 0, 2, 3, 4, 5, 6, 7), owner="i")
        subject = BeliefOperator.from_table(space, (0, 0, 0, 4, 0, 0, 0, 5), owner="j")
        assert observer.check_axiom(Axiom.TRUTH).holds
        assert not observer.check_axiom(Axiom.FINITE_CONJUNCTION).holds
        path = tmp_path / "remark1-2a.bm"
        model = BeliefModel(space, {"i": observer, "j": subject})
        path.write_text(serialize_model(model), encoding="utf-8")
        return str(path)

    def test_backward_direction_is_violated(self, pair_file):
        result = audit("remark1-2a", ModelSource(mode="from-files", files=(pair_file,)))
        tallies = {d.direction: (d.vacuous, d.confirmed, d.violated) for d in result.directions}
        assert tallies == {"forward": (1, 0, 0), "backward": (0, 0, 1)}
        assert not result.passed

    def test_cli_exits_one(self, pair_file, capsys):
        code = run_cli(["audit", "--claim", "remark1-2a", "--mode", "files", "--file", pair_file])
        assert code == 1
        assert "backward: confirmed 0, vacuous 0, violated 1" in capsys.readouterr().out

    def test_conjunctive_variant_passes(self, pair_file):
        assert audit("remark1-2b", ModelSource(mode="from-files", files=(pair_file,))).passed


class TestExistenceClaims:
    def test_converse_failure_witnesses(self):
        result = audit(
            "thm1-2-converse-fails", ModelSource(mode="exhaustive-kripke", n_states=2)
        )
        assert result.passed
        assert result.counterexamples_total == 56
        assert len(result.counterexamples) == 5

    def test_beta_without_negbeta(self):
        result = audit(
            "beta-not-negbeta-exists", ModelSource(mode="exhaustive-kripke", n_states=2)
        )
        assert result.passed
        assert result.counterexamples_total == 6

    def test_no_iteration_gap_on_two_states(self):
        # the gap genuinely needs three states: every two-state pair agrees
        result = audit(
            "strict-iteration-gap", ModelSource(mode="exhaustive-kripke", n_states=2)
        )
        assert result.counterexamples_total == 0
        assert not result.passed

    def test_iteration_gap_found_by_sampling_three_states(self):
        src = ModelSource(mode="sampled-monotone", n_states=3, seed=0, count=20_000)
        result = audit("strict-iteration-gap", src)
        assert result.passed
        assert result.counterexamples_total == 25

    def test_cyclic_core_is_a_gap_witness(self):
        # beliefs cycle {ω1,ω2} -> {ω1,ω3} -> {ω1,ω2}; the greatest fixed
        # point collapses to {} while the iteration stabilizes at {ω1}
        space = standard_space(3)
        core = {0b110: 0b011, 0b011: 0b101, 0b101: 0b011}
        model = BeliefModel(
            space,
            {
                "i": BeliefOperator.monotone_closure(space, core, owner="i"),
                "j": BeliefOperator.monotone_closure(space, core, owner="j"),
            },
        )
        common = model.common_operator().table()
        mutual = model.mutual_table()
        gaps = [
            e
            for e in range(space.size)
            if common[e] != iterated_mutual_bits(mutual, e, 2 * space.size + 1)
        ]
        assert gaps == [0b011, 0b101, 0b110]
        acc = _Acc(("witness",), cap=5)
        resolve_claim("strict-iteration-gap").check(model, acc)
        assert acc.counterexamples_total == 1
        reparsed = parse_model_spec(acc.counterexamples[0])
        assert reparsed.belief_model().operator("i").table() == model.operator("i").table()


def _covers_complements(signal) -> bool:
    values = set(signal.codomain)
    for value in values:
        target = values - {value}
        union = set()
        for member in signal.family:
            if set(member) <= target:
                union |= set(member)
        if union != target:
            return False
    return True


class TestSignalBatteries:
    def test_transfer_battery_satisfies_cover_condition(self):
        for n in (1, 2, 3):
            space = standard_space(n)
            battery = _transfer_signals(space)
            assert len(battery) == 2**n + 2
            assert all(_covers_complements(sig) for sig in battery)

    def test_uncovered_battery_violates_cover_condition(self):
        for n in (2, 3):
            battery = _uncovered_signals(standard_space(n))
            assert len(battery) == 2**n
            assert not any(_covers_complements(sig) for sig in battery)

    def test_side_condition_claim_records_but_passes(self):
        result = audit(
            "prop4-side-condition", ModelSource(mode="exhaustive-kripke", n_states=2)
        )
        assert result.kind == "observational"
        assert result.passed
        assert result.violations_total == 12
        for text in result.violations:
            parse_model_spec(text)

    def test_covered_transfer_has_no_violations(self):
        result = audit("prop4-1a", ModelSource(mode="exhaustive-kripke", n_states=2))
        assert result.passed
        assert result.confirmed_total == 70
        result = audit("prop4-1b", ModelSource(mode="exhaustive-kripke", n_states=2))
        assert result.passed
        assert result.confirmed_total == 60


class TestFromFiles:
    @pytest.fixture
    def model_file(self, tmp_path):
        space = standard_space(2)
        model = BeliefModel(
            space,
            {
                "i": BeliefOperator.monotone_closure(space, {0b11: 0b01}, owner="i"),
                "j": BeliefOperator.from_correspondence(
                    PossibilityCorrespondence(space, (0b01, 0b10)), owner="j"
                ),
            },
        )
        path = tmp_path / "pair.bel"
        path.write_text(serialize_model(model), encoding="utf-8")
        return str(path)

    def test_operator_and_pair_claims_run(self, model_file):
        src = ModelSource(mode="from-files", files=(model_file,))
        result = audit("truth-implies-consistency", src)
        assert result.instances == 1
        result = audit("remark1-1a", src)
        assert result.instances == 1

    def test_operator_claims_read_the_first_player(self, model_file, tmp_path):
        # a two-player file gives each operator claim the report of its
        # first player alone; the second player alone differs on some
        model = parse_model_spec(Path(model_file).read_text(encoding="utf-8")).belief_model()

        def alone(player):
            path = tmp_path / f"{player}.bel"
            ops = {player: model.operator(player)}
            path.write_text(serialize_model(BeliefModel(model.space, ops)), encoding="utf-8")
            return ModelSource(mode="from-files", files=(str(path),))

        both = ModelSource(mode="from-files", files=(model_file,))
        differ = 0
        for claim in OPERATOR_CLAIMS:
            first = audit(claim, alone("i"))
            assert audit(claim, both).directions == first.directions
            differ += audit(claim, alone("j")).directions != first.directions
        assert differ

    @pytest.mark.parametrize(
        "name, reason",
        [("latin1.bm", "'utf-8' codec can't decode byte 0xff"), ("missing.bm", "No such file")],
    )
    def test_unreadable_file_is_named(self, model_file, tmp_path, name, reason):
        (tmp_path / "latin1.bm").write_bytes(b"\xffmodel")
        path = str(tmp_path / name)
        src = ModelSource(mode="from-files", files=(model_file, path))
        with pytest.raises(ValueError) as info:
            audit("remark1-1a", src)
        assert str(info.value).startswith(f"cannot read {path}: {reason}")

    def test_game_claim_needs_game_block(self, model_file):
        src = ModelSource(mode="from-files", files=(model_file,))
        with pytest.raises(ValueError, match="declares no game block"):
            audit("thm2", src)

    def test_game_file_round_trips_through_audit(self, tmp_path):
        src = ModelSource(
            mode="sampled-monotone", n_states=2, n_players=2, n_actions=2,
            seed=2, count=1,
        )
        gm = _sampled_game(random.Random(src.seed), src)
        path = tmp_path / "game.bel"
        path.write_text(serialize_model(game_model=gm), encoding="utf-8")
        direct = audit("epistemic-iesda", src).to_dict()
        via_file = audit(
            "epistemic-iesda", ModelSource(mode="from-files", files=(str(path),))
        ).to_dict()
        assert direct["directions"] == via_file["directions"]


class TestModeRestrictions:
    def test_frame_claim_rejects_sampling(self):
        src = ModelSource(mode="sampled-monotone", n_states=2, count=10)
        with pytest.raises(ValueError, match="accepts source modes"):
            audit("frame-serial", src)

    def test_game_claim_rejects_operator_sweep(self):
        with pytest.raises(ValueError, match="accepts source modes"):
            audit("thm2", ModelSource(mode="exhaustive-kripke", n_states=2))

    def test_operator_claim_rejects_game_sweep(self):
        with pytest.raises(ValueError, match="accepts source modes"):
            audit("prop1-1a", ModelSource(mode="exhaustive-games"))

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs must be positive"):
            audit(
                "prop1-1a",
                ModelSource(mode="exhaustive-kripke", n_states=2),
                jobs=0,
            )

    def test_cap_must_not_be_negative(self):
        with pytest.raises(ValueError, match="cap must not be negative"):
            audit(
                "prop1-1a",
                ModelSource(mode="exhaustive-kripke", n_states=2),
                cap=-1,
            )


class TestWorkerCount:
    # the clamp is tested on its own: no pool is started here
    def test_clamped_to_cpus_and_instances(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert _worker_count(1, 100) == 1
        assert _worker_count(3, 100) == 3
        assert _worker_count(10_000, 100) == 4
        assert _worker_count(10_000, 2) == 2
        assert _worker_count(2, 0) == 0

    def test_unknown_cpu_count_means_one(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _worker_count(8, 100) == 1

    def test_jobs_below_one_rejected(self):
        for jobs in (0, -1):
            with pytest.raises(ValueError, match="jobs must be positive"):
                _worker_count(jobs, 100)


class TestDeterminism:
    def test_parallel_merge_matches_inline(self):
        src = ModelSource(mode="exhaustive-kripke", n_states=2)
        one = json.dumps(audit("remark1-1a", src, jobs=1).to_dict())
        two = json.dumps(audit("remark1-1a", src, jobs=2).to_dict())
        assert one == two

    def test_parallel_capped_listings_keep_stream_order(self):
        src = ModelSource(mode="exhaustive-kripke", n_states=2)
        one = audit("thm1-2-converse-fails", src, jobs=1)
        three = audit("thm1-2-converse-fails", src, jobs=3)
        assert one.counterexamples == three.counterexamples
        assert one.counterexamples_total == three.counterexamples_total == 56

    def test_sampled_reruns_are_identical(self):
        src = ModelSource(mode="sampled-monotone", n_states=3, seed=4, count=300)
        a = json.dumps(audit("prop1-2b", src).to_dict())
        b = json.dumps(audit("prop1-2b", src).to_dict())
        assert a == b

    def test_cap_truncates_but_counts_everything(self):
        src = ModelSource(mode="exhaustive-kripke", n_states=2)
        wide = audit("thm1-2-converse-fails", src, cap=10)
        narrow = audit("thm1-2-converse-fails", src, cap=3)
        assert narrow.counterexamples == wide.counterexamples[:3]
        assert narrow.counterexamples_total == wide.counterexamples_total == 56


class TestResultShape:
    def test_to_dict_field_order(self):
        result = audit("prop1-1a", ModelSource(mode="exhaustive-kripke", n_states=1))
        assert list(result.to_dict()) == [
            "claim", "aliases", "kind", "summary", "mode", "n_states",
            "n_players", "n_actions", "seed", "count", "files", "instances",
            "passed", "directions", "violations_total", "violations",
            "counterexamples_total", "counterexamples",
        ]

    def test_violation_texts_parse(self):
        result = audit(
            "prop4-side-condition",
            ModelSource(mode="exhaustive-kripke", n_states=2),
        )
        doc = parse_model_spec(result.violations[0])
        assert len(doc.signals) == 1


# SHA-256 of every claim's sorted JSON report on three fixed sources:
# any change to a verdict, a tally or a listed witness moves a digest.
DIGEST_SOURCES = {
    "exhaustive": ModelSource(mode="exhaustive-kripke", n_states=2),
    "sampled": ModelSource(mode="sampled-monotone", n_states=3, seed=3, count=300),
    "games": ModelSource(
        mode="sampled-monotone", n_states=3, n_actions=2, seed=5, count=150
    ),
}
REPORT_DIGESTS = {
    ("own-beta-certainty-iff-positive-introspection", "exhaustive"): "0465a7c949e2e72c6b85b2a7e5b5397242c533c9e710d483c275ebe8502f5114",
    ("own-beta-certainty-iff-positive-introspection", "sampled"): "71d5b5fd0d8a9650384d7e9e240142e351a965bde5d61104f163996e1102c4d1",
    ("own-negbeta-certainty-iff-negative-introspection", "exhaustive"): "73b1500a48c87ee3c6e91323cbac52c2177eca87f3404ab7e7b8dfdb03320086",
    ("own-negbeta-certainty-iff-negative-introspection", "sampled"): "2fa5966a54de78a1e3d85686b1f3a97e6983239a8dd6652ba72e31df034b8342",
    ("own-type-certainty-implies-introspection", "exhaustive"): "afd3f7066a83ee2abf2f36cd217e41d3998526f4362f402fcc063d304ceeb867",
    ("own-type-certainty-implies-introspection", "sampled"): "8c34d4fa6212447cecbe731906bb9e05ade607dda21f75b16adacc98ebfa0168",
    ("truthful-own-type-certainty-iff-negative-introspection", "exhaustive"): "c4b3ffb80c8c3f5c221d38533749d7552dc28a219c34a86e5a33eb9fa5060812",
    ("truthful-own-type-certainty-iff-negative-introspection", "sampled"): "34d9c4fe465267d21b9ca3e0043756dbd8ac6e0967c1d5b4cd4ad8d733fbf78c",
    ("consistent-conjunctive-own-type-certainty-iff-introspection", "exhaustive"): "7a3bc134f621c2ae0a2ccae303fd2c153adb20d323f9b99c838cfb0d8c828118",
    ("consistent-conjunctive-own-type-certainty-iff-introspection", "sampled"): "ae761049148e1b55062ffef37826ada564315879ef7589ba0d7794e44bf50153",
    ("cross-beta-certainty-iff-positive-access", "exhaustive"): "b1dc0a0df427d5a1ff0e2c0415b4b54baed0fb3c0607da7728a5a1fd6bc1ee30",
    ("cross-beta-certainty-iff-positive-access", "sampled"): "6e13f845f17684ac6028182bd3797f0b86833a2b2130af7de93c6583f426684b",
    ("cross-negbeta-certainty-iff-negative-access", "exhaustive"): "a29b9064f1107a471267992f2e4af53cd49ed03ecfcffe41d88cb2bb1c49346a",
    ("cross-negbeta-certainty-iff-negative-access", "sampled"): "d1a8cc3aed25f0df65fc7b9d9ed147b231c3383fd24dfd408d188a50542df525",
    ("cross-type-certainty-implies-access", "exhaustive"): "cec066f0ed802832fd86aa542c6d1e27e6c0eb5392c6d09366dccaa3c6d0c9f4",
    ("cross-type-certainty-implies-access", "sampled"): "b8b0fb5f50cb9c699425bddd8984d047176aeaa42ed025c3e6d348052a043784",
    ("truthful-cross-type-certainty-iff-access", "exhaustive"): "463873d25bcaf5cf62da3fc2a809bf34e69ff6486ae3fa3015a677574caa3435",
    ("truthful-cross-type-certainty-iff-access", "sampled"): "a6684f064a727eced724aabf098e16b2f54c5c043dbed6fd8a35fbc5f31e5b63",
    ("consistent-conjunctive-cross-type-certainty-iff-access", "exhaustive"): "0f98c5fdae90b87639adcac89309cae72b16ff200ad722ae55a790bc717279cf",
    ("consistent-conjunctive-cross-type-certainty-iff-access", "sampled"): "a5683d890cb2ba6d676ea3a25e306fa7e3eeb137bc4bc90d7761e3c9ce3bbbeb",
    ("truthful-common-type-certainty-iff-shared-introspective-beliefs", "exhaustive"): "c1464a2a33618d5462dc56475cf06c9dd98bad8482d2ce5cf50e5eab84b0abf2",
    ("truthful-common-type-certainty-iff-shared-introspective-beliefs", "sampled"): "91c23908ae315fd57b16bec6524e266c72e21a87b92c31d73e76d980a47a512c",
    ("conjunctive-common-type-certainty-iff-common-access", "exhaustive"): "435a92da0cef7bc83287b5c37ddbb5fb82d60a0cebea8e6795cf2fa7715f0a4a",
    ("conjunctive-common-type-certainty-iff-common-access", "sampled"): "79f164aee5a93c8c12416ce9b2bf6dcba3a72680d8bd5f323215b071a5293982",
    ("common-access-without-common-type-certainty-exists", "exhaustive"): "1aa369f2eec19a270aa2146c04651bcfcd63a990f34e82e1fffc741edb4967c9",
    ("common-access-without-common-type-certainty-exists", "sampled"): "9f70453418b9dc9c71ad0a0123480f0ee327482e90a4ddbd203ac4552aa5350c",
    ("certainty-transfers-through-type-certainty", "exhaustive"): "27734923eb2ae4989e38a01a11e0b15fdd3da9915a50fde64b73981d665bd367",
    ("certainty-transfers-through-type-certainty", "sampled"): "2aa5acb165443895a64d0da4ca2cbe492ca53ed76243b1f23c9bed027a41c7f9",
    ("common-type-certainty-shares-signal-certainty", "exhaustive"): "4f9bcc7cffff136515a321de3a92c433d4e44cc9e0edf055311091fe3ba50b5e",
    ("common-type-certainty-shares-signal-certainty", "sampled"): "fc50f63ff77e1482c01022b925faecc0ffdf397993e931325049db548ff82995",
    ("complement-cover-condition-is-needed", "exhaustive"): "967c07bb9370351ef0fca3b796f96a8f5a562a2f750e4e788947c91a226458ba",
    ("complement-cover-condition-is-needed", "sampled"): "dcb762a5266dc093976021622d8f02241c3c8189bc7df38258a01fcbb403f5b3",
    ("own-upward-certainty-implies-compatibility", "exhaustive"): "d4ccd52797bad5e3ce5e6a69c852d8b05c3cb089aba01488fa2dc2251391d13c",
    ("own-upward-certainty-implies-compatibility", "sampled"): "5b0f2d4492b689bda8755129535eea1905de5c38552817ad23bbb588b12abc5c",
    ("certain-compatible-conjunctive-players-believe-own-rationality", "games"): "cb292d90a624dcbe638adc70abea78f846b04a932b26b6dab7acedfa1e0a22e4",
    ("consistent-introspective-kripke-players-believe-own-rationality", "games"): "d02f93b7a836456fb195cef1aa94efd88ab9dbf29fe61a8f0e5374c2cab23a77",
    ("negatively-introspective-kripke-rationality-is-self-evident", "games"): "bad3d4c43bcaa5a06a44bd152090021c369e809da8aad3b8654f7090ce37e60f",
    ("common-rationality-belief-implies-iesda-survival", "games"): "b9374b709c0d930aff4a7b9aea690a476e2e32bcd717f3909aa29b1dbf296641",
    ("truth-implies-consistency", "exhaustive"): "3238ac539ff73b91be4aec79b3058798c34ff84468348fed694c7e9eca633da2",
    ("truth-implies-consistency", "sampled"): "6e497bdef7b6e2b5e786168bc02fc42c221dd16e7e92a7808931513035a6f858",
    ("truth-and-negative-introspection-imply-positive", "exhaustive"): "481244f7ea913b3075adedb9562eff3a0c2294658012254f96ae127ca412ecb3",
    ("truth-and-negative-introspection-imply-positive", "sampled"): "cfb69bd07bb4ae8ef2cefd69f3e748d2258fba18cc6c8b5c6a3bd9a8ea97c6a2",
    ("truth-and-negative-introspection-imply-conjunction", "exhaustive"): "7b26984be29919ae4ccd309f4c31242a6c5476801e361e2500a0b30ec84b9b18",
    ("truth-and-negative-introspection-imply-conjunction", "sampled"): "651ad44aaa390a6e460f792d9e8fedb2eae39e0c46e5466924b3e0e24abbf05d",
    ("kripke-implies-logical-omniscience", "exhaustive"): "ff79d710f959d32903cfaaf7981da98aabcaf07d65b56c3ee3e1377db51be032",
    ("kripke-implies-logical-omniscience", "sampled"): "5f49cbb08215ba917078ece942fef77ab32feed0cbe17b59a84c79158c42c5ba",
    ("consistency-iff-serial", "exhaustive"): "61ef8488cb52e175ca305b49c5c3e1d4c215b76051630a1b04c2409ea525c51e",
    ("truth-iff-reflexive", "exhaustive"): "ce488c41fa6835456b9edac710e3878d876f39084325906bae3d977839fcc5d1",
    ("positive-introspection-iff-transitive", "exhaustive"): "0ffa87427d2e9fbf6d99662e722925c29caa117ee8d2a674f85892801939a936",
    ("negative-introspection-iff-euclidean", "exhaustive"): "c1b979851c81cc057760f45687fc2f8b3cdf7042e1a4f115308cd1f33ca32e7b",
    ("common-belief-matches-iteration", "exhaustive"): "80ce349e7c0c0d6b57d4e791e5ddaba6a8a758bda58e64cae3629a2dc9c546ae",
    ("common-belief-matches-iteration", "sampled"): "0b7663da62a346a8b4dda0c48df570b144a25cd3ca7917c16e529f3fdf6da607",
    ("strictly-finer-common-belief-exists", "exhaustive"): "454e899261a590902015987f101cfe75f7316e8ead362fb4617aa420f79093ee",
    ("strictly-finer-common-belief-exists", "sampled"): "38c24939f9fdc6606f31819bf078a085571438bd29ae082e69284f61f627b1a4",
    ("beta-certainty-without-negbeta-certainty-exists", "exhaustive"): "b8e5b5ef5eadea27d8e3acf46566ff1ae80ebfd17d48790c924c1904f4f3739d",
    ("beta-certainty-without-negbeta-certainty-exists", "sampled"): "d885b022cc99bbdd9ab79247fe37323bb7ed05ca9e6fc55d4f6a1c4c8ba0209e",
}


def _digest_sources(spec):
    if spec.arena == "game":
        return ("games",)
    if "sampled-monotone" in spec.modes:
        return ("exhaustive", "sampled")
    return ("exhaustive",)


class TestReportDigests:
    def test_every_claim_and_source_is_pinned(self):
        wanted = {(s.canonical, label) for s in _CLAIMS for label in _digest_sources(s)}
        assert set(REPORT_DIGESTS) == wanted
        assert len(wanted) == 56

    @pytest.mark.parametrize("claim,label", sorted(REPORT_DIGESTS))
    def test_report_is_unchanged(self, claim, label):
        result = audit(claim, DIGEST_SOURCES[label])
        text = json.dumps(result.to_dict(), sort_keys=True, ensure_ascii=False)
        assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGESTS[claim, label]


# SHA-256 of the sorted JSON report of each game claim on the full
# exhaustive 2x2 game sweep, recorded with the per-instance checks
# before the sweep was decided in blocks.
EXHAUSTIVE_GAME_DIGESTS = {
    "certain-compatible-conjunctive-players-believe-own-rationality": "99984c84f3ee93cf9a2d85444bc9847549c02bbceda68f89d6a82c182e3fa2a3",
    "consistent-introspective-kripke-players-believe-own-rationality": "a25da9fd2e0735a195f049c1f5069f023294110c5e9b43dc22663002dded81e1",
    "negatively-introspective-kripke-rationality-is-self-evident": "9aca5f501774bd3f463384740b41cf29dc1c34d67faad2718a3bb87c599708ab",
    "common-rationality-belief-implies-iesda-survival": "c7ce6b8eeda72f71eb01abe86f717bc55a50d1bb13e7961bf3494a3a3697eaea",
}


class TestExhaustiveGameDigests:
    def test_every_game_claim_is_pinned(self):
        games = {s.canonical for s in _CLAIMS if "exhaustive-games" in s.modes}
        assert set(EXHAUSTIVE_GAME_DIGESTS) == games

    @pytest.mark.parametrize("claim", sorted(EXHAUSTIVE_GAME_DIGESTS))
    def test_report_is_unchanged(self, claim):
        result = audit(claim, ModelSource(mode="exhaustive-games"))
        text = json.dumps(result.to_dict(), sort_keys=True, ensure_ascii=False)
        assert hashlib.sha256(text.encode()).hexdigest() == EXHAUSTIVE_GAME_DIGESTS[claim]


# SHA-256 of the sorted JSON report of each pair claim on every
# three-state Kripke pair, recorded with the per-instance checks before
# the sweep was decided from per-operator facts. The thm1-2 and prop4-1a
# digests are the benchmark's references for the pairs-exhaustive sweep.
EXHAUSTIVE_KRIPKE_DIGESTS = {
    "cross-beta-certainty-iff-positive-access": "1528e5cb5c18eb8ee42ad4ecd0b2f54f7716d61b61cf3085ad8d36c5303ee673",
    "cross-negbeta-certainty-iff-negative-access": "b5f39488e0fe5a39a5740325236e85aa57975305ff7269e48707b45ad533180f",
    "cross-type-certainty-implies-access": "472c21c4a06b98caf0e325dd8fdbb362420b938dbc00f253ac03257ccf67ff91",
    "truthful-cross-type-certainty-iff-access": "32b1d9b13ed40a37122d05d38ded1cd050c1061fe9fc0c8aa3517d2a252e5311",
    "consistent-conjunctive-cross-type-certainty-iff-access": "639e3ac64bb54ba04ec0917fd419060ad46fe027d62ecbfc1d50fd498fe3f8db",
    "truthful-common-type-certainty-iff-shared-introspective-beliefs": "2168a06846d9076dff467aece0bd06e6a2a9ee2c245eacd9f6e09795b2328d7e",
    "conjunctive-common-type-certainty-iff-common-access": "91f98fc91364801215ff8c2d491677b0fa8e6854d4e0ab5d175973728b5fa2f6",
    "common-access-without-common-type-certainty-exists": "5bed4b964a2dcc92091e94369054908328cbcac3ce9b8d8c056e35e9f33ba9cc",
    "certainty-transfers-through-type-certainty": "95a21a619de313b3349b776237c85daba2ac3cd96b4618875b6be6347427a399",
    "common-type-certainty-shares-signal-certainty": "090dca6886a06a7984b6416b7a397516157324dcbe184c64b71531dc0499471d",
    "complement-cover-condition-is-needed": "b26960543cc8ca8ccf154874549ab0dc5850d25f6b7d02d90c8fcc7690763220",
    "common-belief-matches-iteration": "301f28a5156abae065ca326890c15eddd0b6248f889a534c6e4a683f48758635",
    "strictly-finer-common-belief-exists": "57fdf6d0fe9906ac0f1e8f6f0ba3825389f79e72125fc921ef2a095eadf1f01b",
}


class TestExhaustiveKripkeDigests:
    def test_every_pair_claim_is_pinned(self):
        assert set(EXHAUSTIVE_KRIPKE_DIGESTS) == set(PAIR_CLAIMS)
        references = json.loads(
            (Path(__file__).parent.parent / "perfbench" / "references.json").read_text()
        )["pairs-exhaustive"]
        for alias, digest in references.items():
            assert EXHAUSTIVE_KRIPKE_DIGESTS[resolve_claim(alias).canonical] == digest

    @pytest.mark.parametrize("claim", sorted(EXHAUSTIVE_KRIPKE_DIGESTS))
    def test_report_is_unchanged(self, claim):
        result = audit(claim, ModelSource(mode="exhaustive-kripke", n_states=3))
        text = json.dumps(result.to_dict(), sort_keys=True, ensure_ascii=False)
        assert hashlib.sha256(text.encode()).hexdigest() == EXHAUSTIVE_KRIPKE_DIGESTS[claim]


class TestBenchmarkCaches:
    def test_every_cache_the_benchmark_reads_exists(self):
        # perfbench/child.py reports cache_info() of each (name, module,
        # attribute) in CACHES after every pass, so a missing one would
        # fail every benchmark run
        child = Path(__file__).parent.parent / "perfbench" / "child.py"
        tree = ast.parse(child.read_text(encoding="utf-8"))
        caches = next(
            ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "CACHES" for t in node.targets)
        )
        assert len(caches) == 5
        for _, module, attribute in caches:
            cached = getattr(importlib.import_module(f"beliefcheck.{module}"), attribute)
            assert cached.cache_info().currsize >= 0, (module, attribute)


class TestCalleesResolvedAtCallTime:
    def test_patched_chain_sees_every_player(self, monkeypatch):
        calls = []

        def counting(chain, view):
            calls.append(view)
            return decide_chain(chain, view)

        monkeypatch.setattr("beliefcheck.audit.decide_chain", counting)
        src = ModelSource(mode="sampled-monotone", n_states=2, n_actions=2, seed=1, count=12)
        result = audit("thm2", src)
        assert result.instances == 12
        assert len(calls) == 2 * 12
