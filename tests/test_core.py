"""Core model checks, oracle side first.

The set-based oracle below evaluates possibility correspondences with
frozensets, independently of the bitmask path in beliefcheck.core, and
the derived expectations are frozen in the tests that follow.
"""

from __future__ import annotations

import itertools
import random

import pytest

from beliefcheck.core import (
    Axiom,
    AxiomReport,
    BeliefModel,
    BeliefOperator,
    Event,
    FrameProperty,
    PossibilityCorrespondence,
    TABLE_LIMIT,
    StateSpace,
    correspondence_property,
    operator_leq,
    operators_equal,
)
from beliefcheck.qualitative import FamilyKind, compose_operators
from beliefcheck.signals import Signal, certain_of, commonly_certain_of
from conftest import blindspot_operator, identity_operator


def kripke_oracle(states, possible, event):
    """B(E) = {w : b(w) subseteq E}, straight from the definition."""
    return frozenset(w for w in states if possible[w] <= frozenset(event))


def as_sets(op: BeliefOperator) -> dict[frozenset, frozenset]:
    return {
        frozenset(e.states()): frozenset(op.apply(e).states())
        for e in op.space.events()
    }


STATES = ("ω1", "ω2", "ω3")
OMEGA = frozenset(STATES)


def blindspot_as_sets() -> dict[frozenset, frozenset]:
    out = {}
    for r in range(4):
        for combo in itertools.combinations(STATES, r):
            e = frozenset(combo)
            out[e] = e if e == OMEGA else e - {"ω3"}
    return out


class TestKripkeOracle:
    def test_blindspot_operator_comes_from_full_possible_set_at_blind_state(self):
        # the correspondence that reproduces the blindspot operator has
        # b(ω3) = Ω, not {ω1, ω2}: a state believing only the whole
        # space must consider everything possible
        possible = {"ω1": frozenset(["ω1"]), "ω2": frozenset(["ω2"]), "ω3": OMEGA}
        expected = blindspot_as_sets()
        for event, image in expected.items():
            assert kripke_oracle(STATES, possible, event) == image

    def test_smaller_possible_set_at_blind_state_gives_a_different_operator(self):
        possible = {
            "ω1": frozenset(["ω1"]),
            "ω2": frozenset(["ω2"]),
            "ω3": frozenset(["ω1", "ω2"]),
        }
        e = frozenset(["ω1", "ω2"])
        # ω3's possible-set fits inside {ω1, ω2}, so it believes it
        assert kripke_oracle(STATES, possible, e) == OMEGA
        assert blindspot_as_sets()[e] == e

    def test_from_correspondence_matches_oracle_on_all_events(self, space3):
        possible = PossibilityCorrespondence.from_map(
            space3, {"ω1": ["ω1"], "ω2": ["ω2"], "ω3": list(STATES)}
        )
        op = BeliefOperator.from_correspondence(possible)
        oracle_possible = {"ω1": frozenset(["ω1"]), "ω2": frozenset(["ω2"]), "ω3": OMEGA}
        for event, image in as_sets(op).items():
            assert image == kripke_oracle(STATES, oracle_possible, event)
        assert as_sets(op) == blindspot_as_sets()

    def test_blindspot_table_and_kripke_route_agree(self, blindspot):
        assert as_sets(blindspot) == blindspot_as_sets()


class TestCorrespondenceRoundTrips:
    def test_derive_recovers_blindspot_possible_sets(self, blindspot):
        derived = blindspot.derive_correspondence()
        assert derived.at("ω1") == blindspot.space.event(["ω1"])
        assert derived.at("ω2") == blindspot.space.event(["ω2"])
        assert derived.at("ω3") == blindspot.space.full

    def test_derive_after_from_is_identity_on_all_two_state_correspondences(self):
        space = StateSpace(["a", "b"])
        for masks in itertools.product(range(4), repeat=2):
            possible = PossibilityCorrespondence(space, masks)
            op = BeliefOperator.from_correspondence(possible)
            assert op.derive_correspondence() == possible

    def test_from_after_derive_is_identity_exactly_on_kripke_operators(self, blindspot):
        rebuilt = BeliefOperator.from_correspondence(blindspot.derive_correspondence())
        assert rebuilt == blindspot
        assert blindspot.check_axiom(Axiom.KRIPKE).holds

    def test_from_after_derive_moves_non_kripke_operators(self):
        space = StateSpace(["ω1", "ω2"])
        # believe nothing except: at Ω, ω1 believes it
        op = BeliefOperator.monotone_closure(
            space, {space.full: space.event(["ω1"])}
        )
        assert not op.check_axiom(Axiom.KRIPKE).holds
        rebuilt = BeliefOperator.from_correspondence(op.derive_correspondence())
        assert rebuilt != op
        assert rebuilt.apply(space.full) == space.full


class TestEvents:
    def test_algebra(self, space3):
        e = space3.event(["ω1", "ω2"])
        f = space3.event(["ω2", "ω3"])
        assert (e & f).states() == ("ω2",)
        assert (e | f) == space3.full
        assert (~e).states() == ("ω3",)
        assert (e - f).states() == ("ω1",)
        assert e & f <= e
        assert not e <= f
        assert "ω1" in e and "ω1" not in f
        assert len(e) == 2 and list(f) == ["ω2", "ω3"]
        assert str(space3.empty) == "{}"
        assert str(e) == "{ω1, ω2}"

    def test_mask_enumeration_order_starts_empty_ends_full(self, space3):
        events = list(space3.events())
        assert events[0] == space3.empty
        assert events[-1] == space3.full
        assert len(events) == 8
        assert events[3] == space3.event(["ω1", "ω2"])

    def test_cross_space_operations_are_rejected(self, space3):
        other = StateSpace(["x", "y"])
        with pytest.raises(ValueError):
            space3.full & other.full

    def test_spaces_validate_names(self):
        with pytest.raises(ValueError):
            StateSpace([])
        with pytest.raises(ValueError):
            StateSpace(["a", "a"])


class TestMonotoneClosure:
    def test_empty_core_believes_nothing(self, space3):
        op = BeliefOperator.monotone_closure(space3, {})
        assert all(not op.apply(e) for e in space3.events())

    def test_core_at_empty_event_forces_constant_belief(self, space3):
        op = BeliefOperator.monotone_closure(
            space3, {space3.empty: space3.event(["ω1"])}
        )
        for e in space3.events():
            assert op.apply(e) == space3.event(["ω1"])

    def test_closure_is_union_over_core_entries_below(self, space3):
        core = {
            space3.event(["ω1"]): space3.event(["ω2"]),
            space3.event(["ω3"]): space3.event(["ω3"]),
        }
        op = BeliefOperator.monotone_closure(space3, core)
        assert op.apply(space3.event(["ω1"])) == space3.event(["ω2"])
        assert op.apply(space3.event(["ω1", "ω3"])) == space3.event(["ω2", "ω3"])
        assert op.apply(space3.event(["ω2"])) == space3.empty

    def test_closure_may_exceed_the_core_where_monotonicity_forces_more(self, space3):
        core = {
            space3.empty: space3.event(["ω1"]),
            space3.full: space3.empty,
        }
        op = BeliefOperator.monotone_closure(space3, core)
        # the empty-event entry propagates upward and overrides the
        # smaller image requested at the top
        assert op.apply(space3.full) == space3.event(["ω1"])

    def test_non_kripke_two_state_sample(self):
        space = StateSpace(["ω1", "ω2"])
        op = BeliefOperator.monotone_closure(space, {space.full: space.event(["ω1"])})
        assert op.apply(space.empty) == space.empty
        assert op.apply(space.event(["ω1"])) == space.empty
        assert op.apply(space.event(["ω2"])) == space.empty
        assert op.apply(space.full) == space.event(["ω1"])
        assert op.check_axiom(Axiom.MONOTONICITY).holds
        assert not op.check_axiom(Axiom.KRIPKE).holds


BLINDSPOT_VERDICTS = {
    Axiom.MONOTONICITY: True,
    Axiom.NECESSITATION: True,
    Axiom.COUNTABLE_CONJUNCTION: True,
    Axiom.FINITE_CONJUNCTION: True,
    Axiom.KRIPKE: True,
    Axiom.CONSISTENCY: True,
    Axiom.TRUTH: True,
    Axiom.POSITIVE_INTROSPECTION: True,
    Axiom.NEGATIVE_INTROSPECTION: False,
}


class TestAxiomChecks:
    def test_blindspot_verdicts(self, blindspot):
        for axiom, expected in BLINDSPOT_VERDICTS.items():
            assert blindspot.check_axiom(axiom).holds is expected, axiom

    def test_blindspot_negative_introspection_witness(self, blindspot, space3):
        report = blindspot.check_axiom(Axiom.NEGATIVE_INTROSPECTION)
        event, state = report.witness
        assert event == space3.event(["ω1"])
        assert state == "ω3"
        # the witness re-checks: nobody in {ω2, ω3} minus B({ω2, ω3})
        not_believed = ~blindspot.apply(event)
        assert not_believed == space3.event(["ω2", "ω3"])
        assert blindspot.apply(not_believed) == space3.event(["ω2"])
        assert state in not_believed - blindspot.apply(not_believed)

    def test_identity_operator_satisfies_all_nine(self, identity3):
        for report in identity3.check_axioms():
            assert report.holds, report.axiom

    def test_constant_full_operator(self, space3):
        op = BeliefOperator.from_table(
            space3, {e: space3.full for e in space3.events()}
        )
        expected_false = {Axiom.CONSISTENCY, Axiom.TRUTH}
        for report in op.check_axioms():
            assert report.holds is (report.axiom not in expected_false), report.axiom
        report = op.check_axiom(Axiom.CONSISTENCY)
        assert report.witness == (space3.empty, "ω1")

    def test_conjunction_witness_is_smallest_pair_then_state(self):
        space = StateSpace(["ω1", "ω2", "ω3"])
        # believes {ω1,ω2} and {ω1,ω3} everywhere relevant but not {ω1}
        core = {
            space.event(["ω1", "ω2"]): space.full,
            space.event(["ω1", "ω3"]): space.full,
        }
        op = BeliefOperator.monotone_closure(space, core)
        report = op.check_axiom(Axiom.FINITE_CONJUNCTION)
        assert not report.holds
        e, f, state = report.witness
        assert e == space.event(["ω1", "ω2"])
        assert f == space.event(["ω1", "ω3"])
        assert state == "ω1"
        cc = op.check_axiom(Axiom.COUNTABLE_CONJUNCTION)
        assert not cc.holds
        assert cc.witness == report.witness

    def test_countable_and_finite_conjunction_agree_on_enumerated_kripke(self):
        space = StateSpace(["a", "b"])
        for masks in itertools.product(range(4), repeat=2):
            op = BeliefOperator.from_correspondence(
                PossibilityCorrespondence(space, masks)
            )
            assert (
                op.check_axiom(Axiom.FINITE_CONJUNCTION).holds
                == op.check_axiom(Axiom.COUNTABLE_CONJUNCTION).holds
            )

    def test_countable_and_finite_conjunction_agree_on_closures(self, space3):
        events = list(space3.events())
        for n_core in range(3):
            for entries in itertools.combinations(
                itertools.product(events, events), n_core
            ):
                domains = [e for e, _ in entries]
                if len(set(domains)) != len(domains):
                    continue
                op = BeliefOperator.monotone_closure(space3, dict(entries))
                assert (
                    op.check_axiom(Axiom.FINITE_CONJUNCTION).holds
                    == op.check_axiom(Axiom.COUNTABLE_CONJUNCTION).holds
                )

    def test_coerce_accepts_value_and_name(self):
        assert Axiom.coerce("TruthAxiom") is Axiom.TRUTH
        assert Axiom.coerce("TRUTH") is Axiom.TRUTH
        with pytest.raises(ValueError):
            Axiom.coerce("Belief")


@pytest.mark.parametrize(
    "enum, what",
    [(Axiom, "axiom"), (FrameProperty, "frame property"), (FamilyKind, "family kind")],
)
def test_coerce_string_enums(enum, what):
    member = list(enum)[-1]
    assert enum.coerce(member) is member
    assert enum.coerce(member.value) is member
    assert enum.coerce(member.name) is member
    with pytest.raises(ValueError, match=f"^unknown {what}: 'nope'$"):
        enum.coerce("nope")
    with pytest.raises(ValueError, match=rf"^unknown {what}: \[\]$"):
        enum.coerce([])


class TestFrameProperties:
    def test_blindspot_frame(self, blindspot):
        possible = blindspot.derive_correspondence()
        assert correspondence_property(possible, FrameProperty.SERIAL)
        assert correspondence_property(possible, FrameProperty.REFLEXIVE)
        assert correspondence_property(possible, FrameProperty.TRANSITIVE)
        assert not correspondence_property(possible, FrameProperty.EUCLIDEAN)

    def test_identity_partition_has_all_four(self, identity3):
        possible = identity3.derive_correspondence()
        for prop in FrameProperty:
            assert correspondence_property(possible, prop)
        assert possible.is_partition()

    def test_empty_possible_set_is_not_serial(self, space3):
        possible = PossibilityCorrespondence(space3, (0, 1, 2))
        assert not possible.is_serial()
        assert not possible.is_partition()


class TestOperatorConstruction:
    def test_incomplete_table_is_rejected(self, space3):
        images = {e: e for e in space3.events() if e != space3.full}
        with pytest.raises(ValueError, match="incomplete"):
            BeliefOperator.from_table(space3, images)

    def test_non_monotone_table_is_rejected_with_the_violating_pair(self, space3):
        images = {e: space3.empty for e in space3.events()}
        images[space3.event(["ω1"])] = space3.event(["ω1"])
        with pytest.raises(ValueError, match="not monotone"):
            BeliefOperator.from_table(space3, images)

    def test_operators_compare_extensionally(self, space3, blindspot):
        rebuilt = BeliefOperator.from_table(
            space3, {e: blindspot.apply(e) for e in space3.events()}, owner="someone"
        )
        assert rebuilt == blindspot
        assert hash(rebuilt) == hash(blindspot)

    def test_apply_rejects_foreign_events(self, blindspot):
        other = StateSpace(["x"])
        with pytest.raises(ValueError):
            blindspot.apply(other.full)

    def test_believes_rejects_foreign_events(self, blindspot):
        # ω1 is also the first state here, so reading the foreign mask
        # on the operator's own space would answer instead of failing
        other = StateSpace(["ω1", "ω2"])
        with pytest.raises(ValueError, match="different state space"):
            blindspot.believes("ω1", other.event(["ω1"]))


class TestMutualAndCommonBelief:
    def test_blindspot_common_belief_equals_single_operator(
        self, blindspot_model, blindspot
    ):
        # with identical players, mutual belief is the shared operator,
        # which here is positively introspective, so its images are
        # already publicly evident
        for event in blindspot_model.space.events():
            assert blindspot_model.common_belief(event) == blindspot.apply(event)

    def test_derived_operators_pass_table_validation(self, space2):
        # mutual, common and composed operators are built without
        # from_table's checks, so over every pair of monotone two-state
        # operators they must pass those checks unchanged
        monotone = []
        for table in itertools.product(range(space2.size), repeat=space2.size):
            try:
                monotone.append(BeliefOperator.from_table(space2, table))
            except ValueError:
                continue
        assert len(monotone) ** 2 == 1296
        for op1, op2 in itertools.product(monotone, repeat=2):
            model = BeliefModel(space2, {"1": op1, "2": op2})
            for derived in (
                model.mutual_operator(),
                model.common_operator(),
                compose_operators(op1, op2),
            ):
                assert derived.check_axiom(Axiom.MONOTONICITY).holds
                rebuilt = BeliefOperator.from_table(space2, derived.table())
                assert derived == rebuilt
                assert hash(derived) == hash(rebuilt)

    def test_mutual_belief_intersects_players(self, space3):
        op1 = identity_operator(space3, "1")
        op2 = blindspot_operator(space3, "2")
        model = BeliefModel(space3, {"1": op1, "2": op2})
        e = space3.event(["ω1", "ω3"])
        assert model.mutual_belief(e) == op1.apply(e) & op2.apply(e)

    def test_common_belief_is_publicly_evident_and_inside_mutual(self, space3):
        op1 = identity_operator(space3, "1")
        op2 = blindspot_operator(space3, "2")
        model = BeliefModel(space3, {"1": op1, "2": op2})
        for event in space3.events():
            c = model.common_belief(event)
            assert c <= model.mutual_belief(event)
            assert c <= model.mutual_belief(c)

    def test_iterated_contains_common_belief_everywhere(self, space3):
        op1 = identity_operator(space3, "1")
        op2 = blindspot_operator(space3, "2")
        model = BeliefModel(space3, {"1": op1, "2": op2})
        for event in space3.events():
            c = model.common_belief(event)
            for depth in (1, 2, 3, 4):
                assert c <= model.common_belief_iterated(event, depth)

    def test_iterated_at_stabilization_matches_common_on_kripke_pairs(self):
        space = StateSpace(["a", "b"])
        corrs = [
            PossibilityCorrespondence(space, masks)
            for masks in itertools.product(range(4), repeat=2)
        ]
        for c1, c2 in itertools.product(corrs, repeat=2):
            model = BeliefModel(
                space,
                {
                    "1": BeliefOperator.from_correspondence(c1, "1"),
                    "2": BeliefOperator.from_correspondence(c2, "2"),
                },
            )
            for event in space.events():
                prev = model.common_belief_iterated(event, 1)
                depth = 2
                while True:
                    cur = model.common_belief_iterated(event, depth)
                    if cur == prev:
                        break
                    prev, depth = cur, depth + 1
                assert cur == model.common_belief(event)

    def test_non_conjunctive_model_with_strictly_smaller_common_belief(self):
        # alternating operator: believing {ω1,ω3} points at {ω2,ω3} and
        # vice versa, and their intersection {ω3} is believed nowhere
        space = StateSpace(["ω1", "ω2", "ω3"])
        a = space.event(["ω1", "ω3"])
        b = space.event(["ω2", "ω3"])
        op = BeliefOperator.monotone_closure(
            space, {a: b, b: a, space.full: space.full}
        )
        assert not op.check_axiom(Axiom.FINITE_CONJUNCTION).holds
        model = BeliefModel(space, {"1": op})
        stabilized = model.common_belief_iterated(a, 2)
        assert model.common_belief_iterated(a, 3) == stabilized
        assert stabilized == space.event(["ω3"])
        assert model.common_belief(a) == space.empty
        assert model.common_belief(a) < stabilized

    def test_depth_must_be_positive(self, blindspot_model):
        with pytest.raises(ValueError):
            blindspot_model.common_belief_iterated(blindspot_model.space.full, 0)


def reachable_in_one_or_more_steps(possible_sets, start):
    """States reachable from `start` along the union of the players'
    accessibility relations, in at least one step."""
    seen = set()
    frontier = [start]
    while frontier:
        state = frontier.pop()
        for possible in possible_sets:
            for nxt in possible[state]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return seen


class TestCorrespondenceOnlyModels:
    """Above TABLE_LIMIT no event table exists; common belief and its
    iterates are computed from the possible-sets alone."""

    @pytest.fixture
    def kripke18(self):
        space = StateSpace([f"s{k}" for k in range(18)])
        assert space.n > TABLE_LIMIT
        rng = random.Random(18)
        clusters = [list(range(0, 6)), list(range(6, 12)), list(range(12, 18))]
        possible_sets = []
        for _ in range(2):
            possible = []
            for k in range(space.n):
                cluster = clusters[k // 6]
                possible.append(set(rng.sample(cluster, rng.randint(1, 2))))
            possible_sets.append(possible)
        # one edge from the last cluster into the first
        possible_sets[1][17] = {0}
        ops = {
            player: BeliefOperator.from_correspondence(
                PossibilityCorrespondence(
                    space, tuple(sum(1 << j for j in p) for p in possible)
                ),
                player,
            )
            for player, possible in zip(("1", "2"), possible_sets)
        }
        return BeliefModel(space, ops), possible_sets

    def events(self, space):
        def of(indices):
            return space.event(space.states[k] for k in indices)

        c0, c1, c2 = (range(0, 6), range(6, 12), range(12, 18))
        out = [space.empty, space.full]
        out += [of(c0), of(c1), of(c2), of([*c0, *c2]), of([*c1, *c2])]
        out += [of(k for k in range(18) if k != j) for j in (0, 7, 17)]
        rng = random.Random(181)
        out += [space.event_from_bits(rng.randrange(space.size)) for _ in range(30)]
        return out

    def test_operators_keep_no_table(self, kripke18):
        model, _ = kripke18
        for op in model.operators.values():
            with pytest.raises(ValueError, match="too large"):
                op.table()

    def test_common_belief_matches_reachability(self, kripke18):
        model, possible_sets = kripke18
        space = model.space
        nonempty = 0
        for event in self.events(space):
            expected = space.event(
                space.states[k]
                for k in range(space.n)
                if all(
                    event.bits >> j & 1
                    for j in reachable_in_one_or_more_steps(possible_sets, k)
                )
            )
            assert model.common_belief(event) == expected, event
            nonempty += bool(expected)
        assert nonempty >= 4

    def test_certainty_matches_object_level_reference(self, kripke18):
        model, _ = kripke18
        space = model.space
        rng = random.Random(1818)
        signals = [
            # constant on each cluster, then seeded values over a codomain
            # with an unassigned value, observed with empty and repeated members
            Signal.of(space, [k // 6 for k in range(space.n)]),
            Signal.of(space, [min(k // 6, 1) for k in range(space.n)]),
        ]
        for _ in range(4):
            values = [rng.choice("abc") for _ in range(space.n)]
            signals.append(Signal.of(
                space, values, codomain="abcd",
                family=[set(), {"a"}, {"b", "c"}, {"a"}, {"d"}, {"a", "b", "c"}],
            ))

        def reference(sig, believe):
            images = [believe(sig.preimage(m)) for m in sig.family]
            return [
                (state, m)
                for state in space.states
                for m, image in zip(sig.family, images)
                if sig.value_at(state) in m and state not in image
            ]

        verdicts = set()
        for sig in signals:
            common = reference(sig, model.common_belief)
            assert list(commonly_certain_of(model, sig).failures) == common
            verdicts.add(not common)
            for player in model.players:
                own = reference(sig, model.operator(player).apply)
                assert list(certain_of(model, player, sig).failures) == own
                verdicts.add(not own)
        assert verdicts == {True, False}

    def test_iterated_matches_intersected_mutual_iterates(self, kripke18):
        model, _ = kripke18
        op1, op2 = model.operator("1"), model.operator("2")
        for event in self.events(model.space):
            assert model.mutual_belief(event) == op1.apply(event) & op2.apply(event)
            cur = model.mutual_belief(event)
            acc = cur
            for depth in (1, 2, 3):
                assert model.common_belief_iterated(event, depth) == acc
                cur = model.mutual_belief(cur)
                acc = acc & cur


class TestOperatorComparisons:
    def test_operator_leq_and_equality_reports(self, space3, blindspot, identity3):
        leq = operator_leq(blindspot, identity3)
        assert leq.holds  # E minus ω3 sits inside E
        geq = operator_leq(identity3, blindspot)
        assert not geq.holds
        event, state = geq.witness
        assert event == space3.event(["ω3"]) and state == "ω3"
        eq = operators_equal(blindspot, identity3)
        assert not eq.holds
        assert eq.witness == (space3.event(["ω3"]), "ω3")
