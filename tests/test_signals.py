"""Certainty of signals, checked against an independent set-level oracle."""

import itertools

import pytest

from beliefcheck.audit import sample_monotone_operators
from beliefcheck.core import (
    Axiom,
    BeliefModel,
    BeliefOperator,
    PossibilityCorrespondence,
    StateSpace,
)
from beliefcheck.dsl import serialize_model
from beliefcheck.qualitative import FamilyKind, type_mapping_of, type_signal
from beliefcheck.signals import (
    CertaintyReport,
    Signal,
    belief_agreement_indicator,
    certain_of,
    certain_of_profile,
    certain_of_value_at,
    commonly_certain_of,
    commonly_certain_of_value_at,
    indicator_signal,
    partition_measurability_check,
    powerset_family,
    product_signal,
    singleton_family,
)


def _oracle_failures(space, signal, believed):
    failures = []
    for state in space.states:
        value = signal.value_at(state)
        for member in signal.family:
            if value not in member:
                continue
            pre = [s for s in space.states if signal.value_at(s) in member]
            if not believed(state, pre):
                failures.append((state, member))
    return failures


def certainty_oracle(model, player, signal):
    """Quantifier-level restatement: every consistent observation is believed.

    Uses set comprehension for the preimage instead of the signal's own
    bit machinery.
    """
    space = model.space
    op = model.operator(player)
    return _oracle_failures(
        space, signal, lambda state, pre: op.believes(state, space.event(pre))
    )


def common_belief_oracle(model, states):
    """Union of the publicly evident sets F, each state of F believing
    both the event and F, found by trying every subset of the space."""
    space = model.space
    event = space.event(states)
    ops = [model.operator(p) for p in model.players]
    out = set()
    for r in range(space.n + 1):
        for sub in itertools.combinations(space.states, r):
            f = space.event(sub)
            if all(op.believes(s, event) and op.believes(s, f) for op in ops for s in sub):
                out.update(sub)
    return out


def common_certainty_oracle(model, signal):
    """certainty_oracle with common belief in place of one player's."""
    return _oracle_failures(
        model.space,
        signal,
        lambda state, pre: state in common_belief_oracle(model, pre),
    )


def one_player(op):
    return BeliefModel(op.space, {"1": op})


def assert_agrees_with_oracles(model, sig):
    """All four certainty functions against the oracles; returns the
    verdicts, common certainty first, then one per player."""
    common = common_certainty_oracle(model, sig)
    assert list(commonly_certain_of(model, sig).failures) == common
    for state in model.space.states:
        expect = all(s != state for s, _ in common)
        assert commonly_certain_of_value_at(model, sig, state) == expect
    verdicts = [not common]
    for player in model.players:
        own = certainty_oracle(model, player, sig)
        assert list(certain_of(model, player, sig).failures) == own
        for state in model.space.states:
            expect = all(s != state for s, _ in own)
            assert certain_of_value_at(model, player, sig, state) == expect
        verdicts.append(not own)
    return verdicts


class TestSignalBasics:
    def test_of_dict_assignment_and_default_codomain(self, space3):
        sig = Signal.of(space3, {"ω1": "b", "ω2": "a", "ω3": "b"})
        assert sig.assignment == ("b", "a", "b")
        # codomain keeps first-occurrence order of the assignment
        assert sig.codomain == ("b", "a")
        assert sig.family == (frozenset({"b"}), frozenset({"a"}))

    def test_preimage_and_value_event(self, space3):
        sig = Signal.of(space3, ("a", "b", "a"))
        assert set(sig.preimage({"a"}).states()) == {"ω1", "ω3"}
        assert set(sig.value_event("b").states()) == {"ω2"}
        assert set(sig.preimage({"a", "b"}).states()) == {"ω1", "ω2", "ω3"}

    def test_observing_filters_family(self, space3):
        fam = powerset_family(("a", "b"))
        sig = Signal.of(space3, ("a", "b", "a"), family=fam)
        assert sig.observing("a") == (
            frozenset({"a"}),
            frozenset({"a", "b"}),
        )

    def test_powerset_family_order(self):
        assert powerset_family(("a", "b")) == (
            frozenset(),
            frozenset({"a"}),
            frozenset({"b"}),
            frozenset({"a", "b"}),
        )

    def test_validation(self, space3):
        with pytest.raises(ValueError):
            Signal(space3, ("a", "b"), ("a", "b", "c"), (frozenset({"a"}),))
        with pytest.raises(ValueError):
            Signal(space3, ("a", "b"), ("a", "b", "a"), (frozenset({"z"}),))
        with pytest.raises(ValueError):
            Signal(space3, ("a", "a"), ("a", "a", "a"), ())
        with pytest.raises(ValueError):
            Signal(space3, (), (), ())
        with pytest.raises(ValueError):
            Signal(space3, ("a",), ("a", "a"), ())


class TestCertainty:
    def test_constant_signal_certain_on_blindspot(self, blindspot_model):
        sig = Signal.of(blindspot_model.space, ("a", "a", "a"))
        for player in ("1", "2"):
            report = certain_of(blindspot_model, player, sig)
            assert report.holds
            assert report.failures == ()
        assert commonly_certain_of(blindspot_model, sig).holds

    def test_blindspot_fails_exactly_at_the_unseen_state(self, blindspot_model):
        sig = Signal.of(blindspot_model.space, ("a", "b", "a"), name="x")
        report = certain_of(blindspot_model, "1", sig)
        assert not report.holds
        # ω3 takes value a, but B({ω1, ω3}) = {ω1} misses it
        assert report.failures == (("ω3", frozenset({"a"})),)
        assert report.player == "1"
        assert report.signal == "x"
        assert certain_of_value_at(blindspot_model, "1", sig, "ω1")
        assert certain_of_value_at(blindspot_model, "1", sig, "ω2")
        assert not certain_of_value_at(blindspot_model, "1", sig, "ω3")

    def test_common_certainty_matches_single_player_here(self, blindspot_model):
        # common belief collapses to B_1 in this model, so the failure agrees
        sig = Signal.of(blindspot_model.space, ("a", "b", "a"))
        report = commonly_certain_of(blindspot_model, sig)
        assert report.failures == (("ω3", frozenset({"a"})),)
        assert commonly_certain_of_value_at(blindspot_model, sig, "ω2")
        assert not commonly_certain_of_value_at(blindspot_model, sig, "ω3")

    def test_oracle_agreement_on_varied_operators(self, space3, blindspot):
        closure = BeliefOperator.monotone_closure(
            space3, {space3.event(["ω1", "ω3"]): space3.event(["ω1", "ω3"])}
        )
        ops = [blindspot, closure]
        signals = [
            Signal.of(space3, ("a", "b", "a")),
            Signal.of(space3, ("a", "a", "b"), family=powerset_family(("a", "b"))),
            Signal.of(space3, ("a", "b", "c"), family=[{"a", "b"}, {"c"}]),
        ]
        for op, sig in itertools.product(ops, signals):
            model = one_player(op)
            report = certain_of(model, "1", sig)
            assert list(report.failures) == certainty_oracle(model, "1", sig)

    def test_oracle_agreement_on_every_monotone_pair(self, space2):
        tables = [
            t for t in itertools.product(range(4), repeat=4)
            if all(t[a] & ~t[a | b] == 0 for a in range(4) for b in range(4))
        ]
        ops = [BeliefOperator.from_table(space2, list(t)) for t in tables]
        assert len(ops) == 36
        signals = [
            Signal.of(space2, ("a", "b")),
            Signal.of(space2, ("a", "a"), codomain=("a", "b")),
            Signal.of(space2, ("a", "b"), family=powerset_family(("a", "b"))),
            Signal.of(space2, ("b", "a"), family=[{"a"}, {"b"}, {"a"}]),
            Signal.of(
                space2, ("a", "c"), codomain=("a", "b", "c"),
                family=[set(), {"a", "b"}, {"c"}, {"a", "b"}],
            ),
        ]
        for first, second in itertools.product(ops, repeat=2):
            model = BeliefModel(space2, {"1": first, "2": second})
            for sig in signals:
                assert_agrees_with_oracles(model, sig)

    def test_oracle_agreement_on_sampled_three_state_pairs(self):
        ops = list(sample_monotone_operators(3, seed=2021, count=800))
        space = ops[0].space
        shapes = [
            Signal.of(space, ("a", "b", "a")),
            Signal.of(space, ("a", "a", "a"), codomain=("a", "b")),
            Signal.of(space, ("a", "b", "c"), family=powerset_family(("a", "b", "c"))),
            Signal.of(space, ("b", "a", "b"), family=[{"a"}, {"b"}, {"a"}]),
            Signal.of(
                space, ("a", "c", "a"), codomain=("a", "b", "c", "d"),
                family=[set(), {"a", "b"}, {"c", "d"}, {"a", "b"}],
            ),
        ]
        seen = set()
        for first, second in zip(ops[::2], ops[1::2]):
            model = BeliefModel(space, {"1": first, "2": second})
            types = [
                type_signal(type_mapping_of(op), kind)
                for op in (first, second)
                for kind in FamilyKind
            ]
            for sig in shapes + types:
                seen.update(enumerate(assert_agrees_with_oracles(model, sig)))
        # common, player 1 and player 2 each both hold and fail somewhere
        assert len(seen) == 6

    def test_signal_on_another_space_is_rejected(self, space2, blindspot_model):
        # ω1 opens both spaces and the operators believe its masks, so
        # reading the two-state masks on the three-state model would
        # answer instead of failing; an empty family reads no mask at all
        for family in (None, ()):
            sig = Signal.of(space2, ("a", "b"), family=family)
            with pytest.raises(ValueError, match="different state space"):
                certain_of(blindspot_model, "1", sig)
            with pytest.raises(ValueError, match="different state space"):
                commonly_certain_of(blindspot_model, sig)
            with pytest.raises(ValueError, match="different state space"):
                certain_of_value_at(blindspot_model, "1", sig, "ω1")
            with pytest.raises(ValueError, match="different state space"):
                commonly_certain_of_value_at(blindspot_model, sig, "ω1")

    def test_compiled_masks_are_invisible(self, blindspot_model):
        space = blindspot_model.space
        signals = [
            Signal.of(space, ("a", "b", "a"), name="x"),
            Signal.of(
                space, ("a", "c", "a"), codomain=("a", "b", "c", "d"),
                family=[set(), {"a", "b"}, {"c", "d"}, {"a", "b"}], name="y",
            ),
        ]

        def looks(sig):
            text = serialize_model(blindspot_model, signals=(sig,))
            return hash(sig), repr(sig), text

        for sig in signals:
            fresh = Signal(sig.space, sig.codomain, sig.assignment, sig.family, sig.name)
            before = looks(sig)
            certain_of(blindspot_model, "1", sig)
            commonly_certain_of(blindspot_model, sig)
            certain_of_value_at(blindspot_model, "2", sig, "ω3")
            commonly_certain_of_value_at(blindspot_model, sig, "ω3")
            assert looks(sig) == before == looks(fresh)
            assert sig == fresh and fresh == sig
            masks = [sig.preimage(m).bits for m in sig.family]
            assert list(sig._preimage_masks()) == masks

    def test_certainty_of_constants_is_necessitation(self, space2):
        # sweeps operators where B(Ω) actually varies
        constant = Signal.of(space2, ("a", "a"), codomain=("a", "b"))
        cases = []
        for possible in itertools.product(range(4), repeat=2):
            cases.append(BeliefOperator.from_correspondence(
                PossibilityCorrespondence(space2, possible)
            ))
        for top in range(4):
            cases.append(BeliefOperator.monotone_closure(
                space2, {space2.full: space2.event_from_bits(top)}
            ))
        for op in cases:
            nec = op.check_axiom(Axiom.NECESSITATION).holds
            assert certain_of(one_player(op), "1", constant).holds == nec


class TestProfiles:
    def test_product_signal_shape(self, space3):
        x = Signal.of(space3, ("a", "b", "a"))
        y = Signal.of(space3, ("c", "c", "d"))
        prod = product_signal([x, y])
        assert prod.assignment == (("a", "c"), ("b", "c"), ("a", "d"))
        assert prod.codomain == (("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"))
        # one cylinder per component family member, in component order
        assert prod.family == (
            frozenset({("a", "c"), ("a", "d")}),
            frozenset({("b", "c"), ("b", "d")}),
            frozenset({("a", "c"), ("b", "c")}),
            frozenset({("a", "d"), ("b", "d")}),
        )

    def test_profile_certainty_is_componentwise(self, space3, blindspot, identity3):
        signals = [
            Signal.of(space3, ("a", "a", "a")),
            Signal.of(space3, ("c", "d", "c")),
            Signal.of(space3, ("e", "e", "f")),
        ]
        closure = BeliefOperator.monotone_closure(
            space3, {space3.full: space3.full}
        )
        for op in (blindspot, identity3, closure):
            model = one_player(op)
            for pair in itertools.combinations(signals, 2):
                combined = certain_of_profile(model, "1", pair)
                separate = [certain_of(model, "1", s).holds for s in pair]
                assert combined.holds == all(separate)

    def test_profile_certainty_without_conjunction(self, space3):
        # Believing each coordinate's observations does not require
        # believing their intersections: that extra step is exactly
        # Finite Conjunction, which this operator violates.
        a = space3.event(["ω1", "ω3"])
        b = space3.event(["ω2", "ω3"])
        op = BeliefOperator.monotone_closure(
            space3, {a: a, b: b, space3.full: space3.full}
        )
        assert not op.check_axiom(Axiom.FINITE_CONJUNCTION).holds
        model = one_player(op)

        x = Signal.of(space3, ("a", "b", "a"), family=[{"a"}])
        y = Signal.of(space3, ("d", "c", "c"), family=[{"c"}])
        assert certain_of(model, "1", x).holds
        assert certain_of(model, "1", y).holds
        assert certain_of_profile(model, "1", [x, y]).holds

        # same product signal, family closed under intersections
        prod = product_signal([x, y])
        closed = Signal(
            prod.space,
            prod.codomain,
            prod.assignment,
            prod.family + (frozenset({("a", "c")}),),
        )
        report = certain_of(model, "1", closed)
        assert not report.holds
        assert report.failures == (("ω3", frozenset({("a", "c")})),)


class TestIndicators:
    def test_indicator_signal_values(self, space3):
        sig = indicator_signal(space3.event(["ω2"]))
        assert sig.assignment == (0, 1, 0)
        assert sig.codomain == (0, 1)
        assert sig.family == (frozenset({0}), frozenset({1}))

    def test_agreement_with_the_actual_belief_is_flat(self, blindspot_model):
        space = blindspot_model.space
        e = space.event(["ω1"])
        target = blindspot_model.operator("1").apply(e)
        sig = belief_agreement_indicator(blindspot_model, "1", e, target)
        assert sig.assignment == (1, 1, 1)
        assert certain_of(blindspot_model, "2", sig).holds

    def test_agreement_with_a_wrong_target(self, blindspot_model):
        space = blindspot_model.space
        e = space.event(["ω1"])
        target = space.event(["ω1", "ω3"])
        sig = belief_agreement_indicator(blindspot_model, "1", e, target)
        # B_1({ω1}) = {ω1} matches {ω1, ω3} off ω3 only
        assert sig.assignment == (1, 1, 0)
        report = certain_of(blindspot_model, "2", sig)
        assert report.failures == (("ω3", frozenset({0})),)


PARTITIONS3 = [
    (0b001, 0b010, 0b100),
    (0b011, 0b011, 0b100),
    (0b101, 0b010, 0b101),
    (0b001, 0b110, 0b110),
    (0b111, 0b111, 0b111),
]


class TestPartitionMeasurability:
    def test_requires_partitional_beliefs(self, blindspot_model):
        sig = Signal.of(blindspot_model.space, ("a", "b", "a"))
        with pytest.raises(ValueError, match="not partitional"):
            partition_measurability_check(blindspot_model, "1", sig)

    def test_matches_singleton_certainty_on_every_partition(self, space3):
        for possible in PARTITIONS3:
            op = BeliefOperator.from_correspondence(
                PossibilityCorrespondence(space3, possible)
            )
            assert op.derive_correspondence().is_partition()
            model = one_player(op)
            for values in itertools.product("ab", repeat=3):
                sig = Signal.of(space3, values, codomain=("a", "b"))
                measurable = partition_measurability_check(model, "1", sig)
                certain = certain_of(model, "1", sig)
                assert measurable.holds == certain.holds
                assert measurable.failures == certain.failures

    def test_fine_partition_measures_everything(self, space3, identity3):
        model = one_player(identity3)
        sig = Signal.of(space3, ("a", "b", "a"))
        assert partition_measurability_check(model, "1", sig).holds
