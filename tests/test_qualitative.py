"""Qualitative types: round trips, observation families, meta-certainty."""

import itertools
import random

import pytest

from beliefcheck.core import (
    Axiom,
    AxiomReport,
    BeliefModel,
    BeliefOperator,
    Event,
    PossibilityCorrespondence,
    StateSpace,
)
from beliefcheck.qualitative import (
    FamilyKind,
    QualitativeType,
    QualitativeTypeMapping,
    certain_of_type_mapping,
    check_type_axiom,
    check_type_axioms,
    commonly_certain_of_type_mapping,
    compose_operators,
    meta_certainty_report,
    negative_access,
    observation_family,
    operator_of,
    positive_access,
    type_mapping_of,
    type_signal,
)
from beliefcheck.signals import Signal, certain_of


def all_kripke_operators(space):
    size = space.size
    for possible in itertools.product(range(size), repeat=space.n):
        yield BeliefOperator.from_correspondence(
            PossibilityCorrespondence(space, possible)
        )


def varied_operators(space3, blindspot, identity3):
    a = space3.event(["ω1", "ω3"])
    b = space3.event(["ω2", "ω3"])
    return [
        blindspot,
        identity3,
        BeliefOperator.monotone_closure(space3, {a: a, b: b, space3.full: space3.full}),
        BeliefOperator.monotone_closure(space3, {a: b, b: a, space3.full: space3.full}),
        BeliefOperator.from_table(space3, [space3.full] * space3.size),
    ]


class TestTypesAndMappings:
    def test_mapping_matches_pointwise_beliefs(self, space3, blindspot):
        mapping = type_mapping_of(blindspot)
        for state in space3.states:
            believed = {e.bits for e in mapping.type_at(state).believed_events()}
            expected = {
                e.bits for e in space3.events() if blindspot.believes(state, e)
            }
            assert believed == expected

    def test_blindspot_types(self, space3, blindspot):
        mapping = type_mapping_of(blindspot)
        # the unseen state's type believes only the whole space
        assert [e.bits for e in mapping.type_at("ω3").believed_events()] == [7]
        assert [e.bits for e in mapping.type_at("ω1").believed_events()] == [1, 3, 5, 7]
        assert len(mapping.realized()) == 3
        assert mapping.owner == blindspot.owner

    def test_preimage_and_realized_order(self, space3, identity3):
        mapping = type_mapping_of(identity3)
        t1 = mapping.type_at("ω1")
        assert mapping.realized()[0] == t1
        assert set(mapping.preimage(t1).states()) == {"ω1"}
        both = mapping.preimage([t1, mapping.type_at("ω3")])
        assert set(both.states()) == {"ω1", "ω3"}

    def test_of_and_dominates(self, space3):
        t_top = QualitativeType.of(space3, space3.events())
        t_bottom = QualitativeType.of(space3, [])
        t_mid = QualitativeType.of(space3, [space3.full])
        assert t_top.dominates(t_mid) and t_mid.dominates(t_bottom)
        assert not t_bottom.dominates(t_mid)
        assert t_mid.believes(space3.full)
        assert not t_mid.believes(space3.empty)

    def test_validation(self, space3):
        with pytest.raises(ValueError):
            QualitativeType(space3, 1 << space3.size)
        other = StateSpace(["a", "b"])
        with pytest.raises(ValueError):
            QualitativeType(space3, 0).believes(other.full)
        with pytest.raises(ValueError):
            QualitativeTypeMapping(space3, (QualitativeType(space3, 0),) * 2)
        with pytest.raises(ValueError):
            QualitativeTypeMapping(space3, (QualitativeType(other, 0),) * 3)


class TestRoundTrips:
    def test_operator_round_trip_on_varied_operators(
        self, space3, blindspot, identity3
    ):
        for op in varied_operators(space3, blindspot, identity3):
            assert operator_of(type_mapping_of(op)) == op

    def test_operator_round_trip_exhaustive_two_states(self):
        space = StateSpace(["ω1", "ω2"])
        for op in all_kripke_operators(space):
            assert operator_of(type_mapping_of(op)) == op

    def test_non_monotone_mapping_rejected_with_pair(self, space3):
        t = QualitativeType.of(space3, [space3.event(["ω1"])])
        mapping = QualitativeTypeMapping(space3, (t, t, t))
        with pytest.raises(ValueError, match="monotone"):
            operator_of(mapping)

    def test_necessitation_violations_are_allowed(self, space3):
        nothing = QualitativeType.of(space3, [])
        everything = QualitativeType(space3, (1 << space3.size) - 1)
        op = operator_of(QualitativeTypeMapping(space3, (nothing, everything, everything)))
        assert not op.check_axiom(Axiom.NECESSITATION).holds
        assert op.apply(space3.full).bits == 0b110


def _first_failure(space, event_tuples, holds):
    """First (events..., state) in enumeration order where `holds` fails."""
    for events in event_tuples:
        for i in range(space.n):
            if not holds(i, *events):
                return tuple(Event(space, e) for e in events) + (space.states[i],)
    return None


def _closed_under_meets(believed: list[int], full: int) -> bool:
    # every nonempty family of believed events has a believed meet
    meets = [full] * (1 << len(believed))
    for family in range(1, len(meets)):
        low = family & -family
        meets[family] = meets[family ^ low] & believed[low.bit_length() - 1]
        if meets[family] not in believed:
            return False
    return True


def reference_type_axioms(mapping) -> tuple[AxiomReport, ...]:
    """The nine axioms decided state by state from their set-theoretic
    definitions, with the documented witness order: the smallest
    event (or lexicographically smallest pair) in mask order, then the
    smallest failing state. Assumes nothing about monotonicity."""
    space = mapping.space
    n, size, full = space.n, space.size, space.size - 1

    def b(i, e):
        return mapping.types[i].believes_bits(e)

    def believers(e):
        return sum(1 << i for i in range(n) if b(i, e))

    singles = [(e,) for e in range(size)]
    pairs = [(e, f) for e in range(size) for f in range(size)]
    nested = [(e, f) for e, f in pairs if e & ~f == 0]
    believed = [[e for e in range(size) if b(i, e)] for i in range(n)]
    meet = []
    for events in believed:
        m = full
        for e in events:
            m &= e
        meet.append(m)

    def conjunctive(i, e, f):
        return not (b(i, e) and b(i, f)) or b(i, e & f)

    witnesses = {
        Axiom.MONOTONICITY: _first_failure(
            space, nested, lambda i, e, f: not b(i, e) or b(i, f)
        ),
        Axiom.NECESSITATION: _first_failure(space, [(full,)], b),
        Axiom.FINITE_CONJUNCTION: _first_failure(space, pairs, conjunctive),
        Axiom.KRIPKE: _first_failure(
            space, singles, lambda i, e: b(i, e) == (meet[i] & ~e == 0)
        ),
        Axiom.CONSISTENCY: _first_failure(
            space, singles, lambda i, e: not (b(i, e) and b(i, full & ~e))
        ),
        Axiom.TRUTH: _first_failure(
            space, singles, lambda i, e: not b(i, e) or e >> i & 1
        ),
        Axiom.POSITIVE_INTROSPECTION: _first_failure(
            space, singles, lambda i, e: not b(i, e) or b(i, believers(e))
        ),
        Axiom.NEGATIVE_INTROSPECTION: _first_failure(
            space, singles, lambda i, e: b(i, e) or b(i, full & ~believers(e))
        ),
    }
    verdicts = {axiom: witness is None for axiom, witness in witnesses.items()}
    # Kripke: some possible-set P has "believes E iff P within E"
    verdicts[Axiom.KRIPKE] = all(
        any(all(b(i, e) == (p & ~e == 0) for e in range(size)) for p in range(size))
        for i in range(n)
    )
    # Countable Conjunction: every nonempty family of believed events;
    # a failure's witness is its smallest failing pair
    verdicts[Axiom.COUNTABLE_CONJUNCTION] = all(
        _closed_under_meets(events, full) for events in believed
    )
    witnesses[Axiom.COUNTABLE_CONJUNCTION] = (
        None
        if verdicts[Axiom.COUNTABLE_CONJUNCTION]
        else _first_failure(space, pairs, conjunctive)
    )
    return tuple(
        AxiomReport(axiom, verdicts[axiom], witnesses[axiom]) for axiom in Axiom
    )


def _mapping_of_masks(space, masks):
    return QualitativeTypeMapping(
        space, tuple(QualitativeType(space, m) for m in masks)
    )


class TestTypeAxioms:
    def test_matches_reference_on_every_two_state_mapping(self):
        space = StateSpace(["ω1", "ω2"])
        type_count = 1 << space.size
        monotone = 0
        for masks in itertools.product(range(type_count), repeat=space.n):
            mapping = _mapping_of_masks(space, masks)
            expected = reference_type_axioms(mapping)
            assert check_type_axioms(mapping) == expected, masks
            monotone += expected[0].holds
        assert 0 < monotone < type_count**space.n

    def test_matches_reference_on_sampled_three_state_mappings(self):
        space = StateSpace(["ω1", "ω2", "ω3"])
        rng = random.Random(20211)
        type_count = 1 << space.size
        non_monotone = 0
        for _ in range(2000):
            masks = [rng.randrange(type_count) for _ in range(space.n)]
            mapping = _mapping_of_masks(space, masks)
            expected = reference_type_axioms(mapping)
            assert check_type_axioms(mapping) == expected, masks
            non_monotone += not expected[0].holds
        assert non_monotone > 1000

    def test_agrees_with_operator_checks(self, space3, blindspot, identity3):
        space2 = StateSpace(["ω1", "ω2"])
        ops = varied_operators(space3, blindspot, identity3)
        ops += list(all_kripke_operators(space2))
        for op in ops:
            mapping = type_mapping_of(op)
            for type_report, op_report in zip(
                check_type_axioms(mapping), op.check_axioms()
            ):
                assert type_report == op_report

    def test_blindspot_negative_introspection_witness(self, space3, blindspot):
        mapping = type_mapping_of(blindspot)
        report = check_type_axiom(mapping, Axiom.NEGATIVE_INTROSPECTION)
        assert not report.holds
        assert report.witness == (space3.event(["ω1"]), "ω3")

    def test_monotonicity_fails_on_raw_mapping(self, space3):
        t = QualitativeType.of(space3, [space3.event(["ω1"])])
        mapping = QualitativeTypeMapping(space3, (t, t, t))
        report = check_type_axiom(mapping, Axiom.MONOTONICITY)
        assert not report.holds
        assert report.witness == (
            space3.event(["ω1"]),
            space3.event(["ω1", "ω2"]),
            "ω1",
        )

    def test_unknown_axiom(self, space3, blindspot):
        with pytest.raises(ValueError):
            check_type_axiom(type_mapping_of(blindspot), "Omniscience")


class TestObservationFamilies:
    def test_blindspot_sigma_atoms_are_singletons(self, blindspot):
        mapping = type_mapping_of(blindspot)
        fam = observation_family(mapping, FamilyKind.SIGMA_ATOMS)
        assert fam.members == tuple(frozenset((t,)) for t in mapping.realized())

    def test_blindspot_upward_family(self, blindspot):
        mapping = type_mapping_of(blindspot)
        fam = observation_family(mapping, "upward")
        t = mapping.types
        # everybody believes the whole space, so the least informed
        # state's up-set is everything
        assert fam.members == (
            frozenset((t[0],)),
            frozenset((t[1],)),
            frozenset(t),
        )

    def test_blindspot_beta_members(self, space3, blindspot):
        mapping = type_mapping_of(blindspot)
        fam = observation_family(mapping, FamilyKind.BETA)
        t = mapping.types
        assert fam.members == (
            frozenset(),
            frozenset((t[0],)),
            frozenset((t[1],)),
            frozenset((t[0], t[1])),
            frozenset(t),
        )
        neg = observation_family(mapping, FamilyKind.NEG_BETA)
        assert frozenset(t) - fam.members[1] in neg.members
        both = observation_family(mapping, FamilyKind.BETA_AND_NEG)
        assert set(fam.members) <= set(both.members)
        assert set(neg.members) <= set(both.members)

    def test_single_state_beta_has_two_members(self):
        space = StateSpace(["ω1"])
        op = BeliefOperator.from_correspondence(
            PossibilityCorrespondence(space, (1,))
        )
        fam = observation_family(type_mapping_of(op), FamilyKind.BETA)
        assert len(fam.members) == 2

    def test_beta_pullbacks_are_the_believed_events(self, space3, blindspot):
        mapping = type_mapping_of(blindspot)
        sig = type_signal(mapping, FamilyKind.BETA)
        for event in space3.events():
            member = frozenset(
                t for t in mapping.realized() if t.believes(event)
            )
            assert sig.preimage(member) == blindspot.apply(event)

    def test_kind_coercion(self, blindspot):
        mapping = type_mapping_of(blindspot)
        assert observation_family(mapping, "sigmaAtoms").kind is FamilyKind.SIGMA_ATOMS
        with pytest.raises(ValueError):
            observation_family(mapping, "nonsense")


class TestCertaintyOfMappings:
    def test_worked_three_state_example(self, blindspot_model):
        # own-belief access: positive introspection holds, negative fails
        assert certain_of_type_mapping(blindspot_model, "1", "1", "beta").holds
        assert not certain_of_type_mapping(blindspot_model, "1", "1", "negBeta").holds
        assert not certain_of_type_mapping(
            blindspot_model, "1", "1", "sigmaAtoms"
        ).holds

    def test_identity_model_fully_certain(self, space3, identity3):
        model = BeliefModel(space3, {"1": identity3, "2": identity3})
        assert certain_of_type_mapping(model, "1", "2", "sigmaAtoms").holds
        assert commonly_certain_of_type_mapping(model, "2", "sigmaAtoms").holds

    def test_atom_certainty_decides_all_unions(self, space3, blindspot, identity3):
        space2 = StateSpace(["ω1", "ω2"])
        ops = varied_operators(space3, blindspot, identity3)
        ops += list(all_kripke_operators(space2))
        for op in ops:
            model = BeliefModel(op.space, {"1": op})
            mapping = type_mapping_of(op)
            realized = mapping.realized()
            unions = [
                frozenset(sub)
                for r in range(len(realized) + 1)
                for sub in itertools.combinations(realized, r)
            ]
            full_algebra = Signal(
                op.space,
                codomain=realized,
                assignment=mapping.types,
                family=tuple(unions),
            )
            atoms = certain_of_type_mapping(model, "1", "1", "sigmaAtoms")
            assert certain_of(model, "1", full_algebra).holds == atoms.holds


def truth_holds(op):
    return op.check_axiom(Axiom.TRUTH).holds


class TestIntrospectionEquivalences:
    """Certainty of type mappings against direct operator containments."""

    def leq_sets(self, left_table, right_table, size):
        return all(left_table[e] & ~right_table[e] == 0 for e in range(size))

    def test_single_player_sweep(self):
        space = StateSpace(["ω1", "ω2", "ω3"])
        for op in all_kripke_operators(space):
            model = BeliefModel(space, {"1": op})
            pi = op.check_axiom(Axiom.POSITIVE_INTROSPECTION).holds
            ni = op.check_axiom(Axiom.NEGATIVE_INTROSPECTION).holds
            beta = certain_of_type_mapping(model, "1", "1", "beta").holds
            neg = certain_of_type_mapping(model, "1", "1", "negBeta").holds
            atoms = certain_of_type_mapping(model, "1", "1", "sigmaAtoms").holds
            assert beta == pi
            assert neg == ni
            if atoms:
                assert pi and ni
            if truth_holds(op):
                assert atoms == ni
            cons = op.check_axiom(Axiom.CONSISTENCY).holds
            conj = op.check_axiom(Axiom.COUNTABLE_CONJUNCTION).holds
            if cons and conj:
                assert atoms == (pi and ni)

    def test_cross_player_sweep(self):
        space = StateSpace(["ω1", "ω2"])
        ops = list(all_kripke_operators(space))
        size = space.size
        for op_i, op_j in itertools.product(ops, repeat=2):
            model = BeliefModel(space, {"i": op_i, "j": op_j})
            composed = compose_operators(op_i, op_j).table()
            pos = self.leq_sets(op_j.table(), composed, size)
            full = size - 1
            neg = all(
                (full & ~op_j.table()[e])
                & ~op_i.table()[full & ~op_j.table()[e]]
                == 0
                for e in range(size)
            )
            beta = certain_of_type_mapping(model, "i", "j", "beta").holds
            negBeta = certain_of_type_mapping(model, "i", "j", "negBeta").holds
            atoms = certain_of_type_mapping(model, "i", "j", "sigmaAtoms").holds
            assert beta == pos
            assert negBeta == neg
            if atoms:
                assert pos and neg


class TestMetaCertainty:
    def test_blindspot_report(self, blindspot_model):
        report = meta_certainty_report(blindspot_model)
        assert not report.commonly_certain
        assert all(not r.holds for r in report.profile)
        for pair in report.pairs:
            assert pair.positive.holds
            assert not pair.negative.holds
            assert not pair.certain_sigma.holds
        assert all(r.holds for r in report.equal_operators)
        assert report.common_equals_mutual.holds
        assert all(r.holds for r in report.common_equals_player)

    def test_identity_report(self, space3, identity3):
        model = BeliefModel(space3, {"1": identity3, "2": identity3})
        report = meta_certainty_report(model)
        assert report.commonly_certain
        assert all(r.holds for r in report.profile)
        for pair in report.pairs:
            assert pair.positive.holds and pair.negative.holds
        assert report.common_equals_mutual.holds

    def test_access_rejects_operators_on_different_spaces(self, blindspot):
        two = next(all_kripke_operators(StateSpace(["ω1", "ω2"])))
        for access in (positive_access, negative_access):
            for observer, subject in ((two, blindspot), (blindspot, two)):
                with pytest.raises(ValueError, match="different state spaces"):
                    access(observer, subject)

    def test_unequal_operators_witnessed(self, space3, blindspot, identity3):
        model = BeliefModel(space3, {"1": identity3, "2": blindspot})
        report = meta_certainty_report(model)
        (eq,) = report.equal_operators
        assert not eq.holds
        assert eq.witness is not None

    def test_truth_sweep_two_states(self):
        # with truthful players, common certainty of the profile is
        # exactly shared beliefs plus negative introspection, and then
        # each player's operator is the common one
        space = StateSpace(["ω1", "ω2"])
        ops = list(all_kripke_operators(space))
        seen_certain = 0
        for op_i, op_j in itertools.product(ops, repeat=2):
            if not (truth_holds(op_i) and truth_holds(op_j)):
                continue
            model = BeliefModel(space, {"i": op_i, "j": op_j})
            report = meta_certainty_report(model)
            same = op_i == op_j
            ni = all(
                op.check_axiom(Axiom.NEGATIVE_INTROSPECTION).holds
                for op in (op_i, op_j)
            )
            assert report.commonly_certain == (same and ni)
            if report.commonly_certain:
                seen_certain += 1
                assert all(r.holds for r in report.common_equals_player)
        assert seen_certain > 0

    def test_consistency_conjunction_sweep_two_states(self):
        # with consistent conjunctive players, common certainty is an
        # introspection condition relative to common belief, and forces
        # common belief to collapse to mutual belief
        space = StateSpace(["ω1", "ω2"])
        size = space.size
        full = size - 1
        ops = [
            op
            for op in all_kripke_operators(space)
            if op.check_axiom(Axiom.CONSISTENCY).holds
            and op.check_axiom(Axiom.COUNTABLE_CONJUNCTION).holds
        ]
        seen_certain = 0
        for op_i, op_j in itertools.product(ops, repeat=2):
            model = BeliefModel(space, {"i": op_i, "j": op_j})
            report = meta_certainty_report(model)
            common = model.common_operator().table()
            access = True
            for op in (op_i, op_j):
                table = op.table()
                for e in range(size):
                    if table[e] & ~common[table[e]]:
                        access = False
                    outside = full & ~table[e]
                    if outside & ~common[outside]:
                        access = False
            assert report.commonly_certain == access
            if report.commonly_certain:
                seen_certain += 1
                assert report.common_equals_mutual.holds
        assert seen_certain > 0
