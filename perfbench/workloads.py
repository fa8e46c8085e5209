"""The four benchmark workloads, as plain data built from a seed.

Seed 0 is the default: it reproduces the sources of the acceptance
battery (criteria 3, 4 and 6), and its outputs have reference digests
in ``references.json``. Another seed shifts every sampled source seed
by the same amount and draws other model files. The exhaustive sweeps
enumerate every instance, so the seed does not change them and their
digests are checked at every seed.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 0
WORKLOADS = ("pairs-exhaustive", "games-exhaustive", "sampled", "model-files")
SWEEPS = WORKLOADS[:3]
SEEDLESS = WORKLOADS[:2]  # exhaustive: the same instances at every seed
# Fresh-interpreter passes per untraced run. The sampled audits take
# about a second each, short enough for one noisy second of a shared
# machine to move them, so that run reports medians over three passes.
# The exhaustive sweeps take 20-35 s and are run once.
PASSES = {"sampled": 3}

# Claims audited on each sweep, with their sources and worker counts.
# The single jobs=2 call is the only place pool start-up, chunk RNG
# replay and the merge run.


def sweep_calls(workload: str, seed: int) -> list[tuple[str, dict, int]]:
    """(claim, ModelSource keyword arguments, jobs) for each audit call."""
    if workload == "pairs-exhaustive":
        pairs = {"mode": "exhaustive-kripke", "n_states": 3}
        return [("thm1-2", pairs, 1), ("prop4-1a", pairs, 1)]
    if workload == "games-exhaustive":
        return [("epistemic-iesda", {"mode": "exhaustive-games"}, 1)]
    if workload == "sampled":
        c3 = {"mode": "sampled-monotone", "n_states": 3, "seed": 0 + seed, "count": 20_000}
        c4 = {"mode": "sampled-monotone", "n_states": 3, "seed": 1 + seed, "count": 10_000}
        c6 = {
            "mode": "sampled-monotone", "n_states": 4, "n_players": 2,
            "n_actions": 3, "seed": 7 + seed, "count": 5_000,
        }
        return [
            ("common-belief-vs-iteration", c3, 1),
            ("strict-iteration-gap", c3, 1),
            ("remark1-1a", c4, 1),
            ("thm1-2", c4, 1),
            ("thm2", c6, 1),
            ("epistemic-iesda", c6, 2),
        ]
    raise ValueError(f"not a sweep workload: {workload!r}")


# Instance counts fixed by the sources, whatever the seed: every
# three-state Kripke pair (prop4-1a tallies ten transfer signals per
# pair) and every exhaustive 2x2 game instance.
PINNED_INSTANCES = {
    ("pairs-exhaustive", "thm1-2"): 262_144,
    ("pairs-exhaustive", "prop4-1a"): 2_621_440,
    ("games-exhaustive", "epistemic-iesda"): 331_776,
}
# Witness counts pinned by the acceptance battery at the default seed.
PINNED_WITNESSES = {("sampled", "strict-iteration-gap"): 25}


# ---------------------------------------------------------------------------
# model files

FILE_SIZES = (4, 5, 6, 7, 8)
FILES_PER_SIZE = 16  # half Kripke, half monotone-closure tables


def write_model_files(bc, directory, seed: int) -> list[str]:
    """Write the seeded model files into `directory`; return their names.

    `bc` is the imported ``beliefcheck`` package. Each file has two
    players, a three-valued signal and a 3x3 game; the odd-numbered
    files hold monotone-closure tables, the others Kripke frames.
    """
    rng = random.Random(f"model-files:{seed}")
    names = []
    for n in FILE_SIZES:
        space = bc.StateSpace(tuple(f"s{i + 1}" for i in range(n)))
        for k in range(FILES_PER_SIZE):
            ops = {}
            for player in ("p1", "p2"):
                if k % 2 == 0:
                    possible = tuple(rng.randrange(space.size) for _ in range(n))
                    ops[player] = bc.BeliefOperator.from_correspondence(
                        bc.PossibilityCorrespondence(space, possible), owner=player
                    )
                else:
                    core = {
                        rng.randrange(space.size): rng.randrange(space.size)
                        for _ in range(rng.randint(2, n))
                    }
                    ops[player] = bc.BeliefOperator.monotone_closure(
                        space, core, owner=player
                    )
            model = bc.BeliefModel(space, ops)
            signal = bc.Signal.of(
                space,
                [("lo", "mid", "hi")[rng.randrange(3)] for _ in range(n)],
                codomain=("lo", "mid", "hi"),
                family=[("lo",), ("mid",), ("hi",), ("lo", "mid")],
                name="x",
            )
            actions = {"p1": ("a", "b", "c"), "p2": ("a", "b", "c")}
            profiles = [(a, b) for a in "abc" for b in "abc"]
            ranks = {p: {pr: rng.randrange(10) for pr in profiles} for p in actions}
            strategies = {p: tuple(rng.choice("abc") for _ in range(n)) for p in actions}
            game_model = bc.GameModel.of(model, bc.Game.of(actions, ranks), strategies)
            name = f"m{n}-{k}-{'kripke' if k % 2 == 0 else 'table'}.bm"
            text = bc.serialize_model(model, [signal], game_model)
            (directory / name).write_text(text, encoding="utf-8")
            names.append(name)
    return names


def queries(names: list[str], seed: int) -> list[list[str]]:
    """One round of CLI argument lists: every query kind on every file."""
    rng = random.Random(f"queries:{seed}")
    out = []
    for name in names:
        n = int(name[1:].split("-", 1)[0])
        event = [f"s{i + 1}" for i in range(n) if rng.randrange(2)]
        out.extend(
            [
                ["--format", "json", "axioms", name],
                ["--format", "json", "common-belief", name,
                 "--event", "{" + ", ".join(event) + "}"],
                ["--format", "json", "certainty", name, "--signal", "x", "--common"],
                ["--format", "json", "meta", name],
                ["--format", "json", "game", name],
            ]
        )
    return out
