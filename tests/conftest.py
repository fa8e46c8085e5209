from __future__ import annotations

import itertools

import pytest

from beliefcheck.core import (
    BeliefModel,
    BeliefOperator,
    PossibilityCorrespondence,
    StateSpace,
)


@pytest.fixture
def pd_game():
    """Prisoner's dilemma: defecting strictly dominates for both players."""
    from beliefcheck.games import Game

    row = {("D", "C"): 4, ("C", "C"): 3, ("D", "D"): 2, ("C", "D"): 1}
    return Game.of(
        {"r": ["C", "D"], "c": ["C", "D"]},
        {
            "r": row,
            "c": {(a, b): row[(b, a)] for (a, b) in row},
        },
    )


@pytest.fixture
def space2() -> StateSpace:
    return StateSpace(["ω1", "ω2"])


@pytest.fixture
def space3() -> StateSpace:
    return StateSpace(["ω1", "ω2", "ω3"])


@pytest.fixture
def monotone_operators2(space2) -> list[BeliefOperator]:
    """Every monotone operator on two states, built from its table: 36."""
    size = space2.size
    return [
        BeliefOperator.from_table(space2, table)
        for table in itertools.product(range(size), repeat=size)
        if all(not table[e] & ~table[f] for e in range(size) for f in range(size) if not e & ~f)
    ]


def blindspot_operator(space: StateSpace, owner: str | None = None) -> BeliefOperator:
    """Three-state operator: B(E) = E minus ω3 for E != Ω, B(Ω) = Ω.

    ω3 is a blind spot that believes only the whole space. Satisfies
    every axiom except Negative Introspection.
    """
    images = {}
    for event in space.events():
        if event == space.full:
            images[event] = event
        else:
            images[event] = event - space.event(["ω3"])
    return BeliefOperator.from_table(space, images, owner)


@pytest.fixture
def blindspot(space3) -> BeliefOperator:
    return blindspot_operator(space3)


@pytest.fixture
def blindspot_model(space3) -> BeliefModel:
    return BeliefModel(
        space3,
        {"1": blindspot_operator(space3, "1"), "2": blindspot_operator(space3, "2")},
    )


def identity_operator(space: StateSpace, owner: str | None = None) -> BeliefOperator:
    """Kripke operator of the discrete partition: B(E) = E."""
    possible = PossibilityCorrespondence(
        space, tuple(1 << i for i in range(space.n))
    )
    return BeliefOperator.from_correspondence(possible, owner)


@pytest.fixture
def identity3(space3) -> BeliefOperator:
    return identity_operator(space3)
