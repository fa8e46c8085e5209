"""Audit harness: instance streams, claim registry, and sweep results."""

import itertools
import json
import os

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
    _check_epistemic_iesda,
    _check_iteration_gap_exists,
    _instance_count,
    _run_range,
    _sampled_game,
    _worker_count,
    _transfer_signals,
    _uncovered_signals,
    _Acc,
    _STATUS_INDEX,
)
from beliefcheck.core import (
    Axiom,
    BeliefModel,
    BeliefOperator,
    FrameProperty,
    PossibilityCorrespondence,
    correspondence_property,
    iterated_mutual_bits,
)
from beliefcheck.dsl import parse_model_spec, serialize_model
from beliefcheck.games import epistemic_iesda_verdict
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

    def test_sampled_needs_count(self):
        with pytest.raises(ValueError, match="positive count"):
            ModelSource(mode="sampled-monotone", count=0)


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

    def test_game_claims_skip_operator_sweeps(self):
        for alias in ("thm2", "epistemic-iesda"):
            assert "exhaustive-kripke" not in resolve_claim(alias).modes


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
            _check_epistemic_iesda(gm, acc)
            expect = [0, 0, 0]
            for state in gm.space.states:
                status = epistemic_iesda_verdict(gm, state).status
                expect[_STATUS_INDEX[status.value]] += 1
            assert acc.tallies["implication"] == expect


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
        _check_iteration_gap_exists(model, acc)
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
