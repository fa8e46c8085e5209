"""Text format: lexing, parsing, validation, canonical serialization."""

import hashlib
import json
import random
import re
from pathlib import Path

import pytest

from beliefcheck.core import (
    BeliefModel,
    BeliefOperator,
    PossibilityCorrespondence,
    StateSpace,
)
from beliefcheck.dsl import (
    ModelSpecDocument,
    ModelSpecError,
    PlayerSpec,
    document_of,
    parse_event_literal,
    parse_model_spec,
    serialize_model,
    serialize_model_spec,
)
from beliefcheck.games import Game, GameModel, iesda
from beliefcheck.signals import Signal, certain_of

BLINDSPOT_TEXT = """
# two observers share a blind spot at ω3
states ω1 ω2 ω3;

player 1 {
  table {
    {}: {},
    {ω1}: {ω1},
    {ω2}: {ω2},
    {ω1, ω2}: {ω1, ω2},
    {ω3}: {},
    {ω1, ω3}: {ω1},
    {ω2, ω3}: {ω2},
    {ω1, ω2, ω3}: {ω1, ω2, ω3}
  }
}

player 2 {
  kripke {
    ω1: {ω1},
    ω2: {ω2},
    ω3: {ω3}
  }
}
"""


def blindspot_doc():
    return parse_model_spec(BLINDSPOT_TEXT)


class TestLexing:
    def test_comments_and_unicode_arrows_parse(self, space3):
        text = (
            "states a b;\n"
            "signal s : x y {  # the observation\n"
            "  a → x, b -> y\n"
            "} family { {x}, {y} }\n"
        )
        doc = parse_model_spec(text)
        assert doc.signals[0].assignment == (("a", "x"), ("b", "y"))

    def test_stray_angle_bracket_is_lexical(self):
        with pytest.raises(ModelSpecError) as err:
            parse_model_spec("states a >;")
        assert err.value.kind == "lexical"
        assert err.value.line == 1

    def test_error_message_carries_location(self):
        with pytest.raises(ModelSpecError, match=r"error at 2:"):
            parse_model_spec("states a;\nplayer ;")


# one case per reader and fault: (id, text, (kind, line, col, message))
READER_CASES = [
    # distinct word lists: states, codomain values, actions
    ("states duplicate", "states a b a;",
     ("semantic", 1, 12, "duplicate state: a")),
    ("states empty", "states ;",
     ("syntax", 1, 8, "expected at least one state name")),
    ("states keyword", "states a game;",
     ("syntax", 1, 10, "keyword 'game' cannot be used as state name")),
    ("states missing separator", "states a b\nplayer p { kripke { a: {a}, b: {b} } }",
     ("syntax", 2, 1, "keyword 'player' cannot be used as state name")),
    ("codomain duplicate", "states a;\nsignal x : u u { a -> u } family { {u} }",
     ("semantic", 2, 14, "duplicate codomain value: u")),
    ("codomain empty", "states a;\nsignal x : { a -> u } family { {u} }",
     ("syntax", 2, 12, "expected at least one codomain value")),
    ("codomain keyword", "states a;\nsignal x : u family { a -> u } family { {u} }",
     ("syntax", 2, 14, "keyword 'family' cannot be used as codomain value")),
    ("actions duplicate", "states a;\ngame { actions p: C C; }",
     ("semantic", 2, 21, "duplicate action: C")),
    ("actions empty", "states a;\ngame { actions p: ; }",
     ("syntax", 2, 19, "expected at least one action")),
    ("actions keyword", "states a;\ngame { actions p: C rank; }",
     ("syntax", 2, 21, "keyword 'rank' cannot be used as action name")),
    ("actions missing separator", "states a;\ngame { actions p: C D rank p: (C) = 1; }",
     ("syntax", 2, 23, "keyword 'rank' cannot be used as action name")),
    # state-keyed blocks: kripke entries, signal assignments, strategies
    ("kripke unknown", "states a b;\nplayer p {\n  kripke { a: {a}, c: {b} }\n}",
     ("semantic", 3, 20, "unknown state: c")),
    ("kripke duplicate", "states a b;\nplayer p {\n  kripke { a: {a}, a: {b} }\n}",
     ("semantic", 3, 20, "duplicate entry for state a")),
    ("kripke missing separator", "states a b;\nplayer p {\n  kripke { a {a}, b: {b} }\n}",
     ("syntax", 3, 14, "expected ':' after the state name, found '{'")),
    ("kripke missing state", "states a b;\nplayer p {\n  kripke { a: {a} }\n}",
     ("semantic", 3, 3, "kripke block is missing state b")),
    ("kripke keyword", "states a b;\nplayer p {\n  kripke { table: {a} }\n}",
     ("syntax", 3, 12, "keyword 'table' cannot be used as state name")),
    ("kripke empty", "states a b;\nplayer p {\n  kripke { }\n}",
     ("semantic", 3, 3, "kripke block is missing state a")),
    ("assignment unknown", "states a b;\nsignal x : u v {\n  a -> u, c -> v\n} family { {u} }",
     ("semantic", 3, 11, "unknown state: c")),
    ("assignment duplicate", "states a b;\nsignal x : u v {\n  a -> u, a -> v\n} family { {u} }",
     ("semantic", 3, 11, "duplicate assignment for a")),
    ("assignment missing separator", "states a b;\nsignal x : u v {\n  a u, b -> v\n} family { {u} }",
     ("syntax", 3, 5, "expected '->' in the assignment, found 'u'")),
    ("assignment missing state", "states a b;\nsignal x : u v {\n  a -> u\n} family { {u} }",
     ("semantic", 4, 1, "assignment is missing state b")),
    ("assignment keyword", "states a b;\nsignal x : u v {\n  a -> u, b -> rank\n} family { {u} }",
     ("syntax", 3, 16, "keyword 'rank' cannot be used as codomain value")),
    ("assignment outside codomain", "states a b;\nsignal x : u v {\n  a -> u, b -> w\n} family { {u} }",
     ("semantic", 3, 16, "value outside the codomain: w")),
    ("strategy unknown", "states a b;\ngame {\n  actions p: C D;\n  strategy p { a -> C, c -> D }\n}",
     ("semantic", 4, 24, "unknown state: c")),
    ("strategy duplicate", "states a b;\ngame {\n  actions p: C D;\n  strategy p { a -> C, a -> D }\n}",
     ("semantic", 4, 24, "duplicate assignment for a")),
    ("strategy missing separator", "states a b;\ngame {\n  actions p: C D;\n  strategy p { a C, b -> D }\n}",
     ("syntax", 4, 18, "expected '->' in the strategy, found 'C'")),
    ("strategy missing state", "states a b;\ngame {\n  actions p: C D;\n  strategy p { a -> C }\n}",
     ("semantic", 4, 23, "strategy is missing state b")),
    ("strategy keyword", "states a b;\ngame {\n  actions p: C D;\n  strategy p { a -> actions }\n}",
     ("syntax", 4, 21, "keyword 'actions' cannot be used as action name")),
    ("strategy duplicate player", "states a b;\ngame {\n  actions p: C D;\n  strategy p { a -> C, b -> C }\n  strategy p { a -> C, b -> C }\n}",
     ("semantic", 5, 12, "duplicate strategy for player p")),
    # checked set literals: state sets, family members
    ("set unknown", "states a b;\nplayer p {\n  kripke { a: {a, c}, b: {b} }\n}",
     ("semantic", 3, 15, "unknown state: c")),
    ("set duplicate", "states a b;\nplayer p {\n  kripke { a: {a, a}, b: {b} }\n}",
     ("semantic", 3, 15, "duplicate state in set")),
    ("set missing separator", "states a b;\nplayer p {\n  kripke { a: {a b}, b: {b} }\n}",
     ("syntax", 3, 18, "expected ',' or '}' in state set")),
    ("set keyword", "states a b;\nplayer p {\n  kripke { a: {core}, b: {b} }\n}",
     ("syntax", 3, 16, "keyword 'core' cannot be used as state name")),
    ("set unclosed", "states a b;\nplayer p {\n  kripke { a: {a",
     ("syntax", 3, 17, "expected ',' or '}' in state set")),
    ("table key unknown", "states a;\nplayer p {\n  table { {}: {}, {z}: {a} }\n}",
     ("semantic", 3, 19, "unknown state: z")),
    ("table duplicate key", "states a;\nplayer p {\n  table { {}: {}, {a}: {a}, {a}: {} }\n}",
     ("semantic", 3, 29, "duplicate entry for {a}")),
    ("table incomplete", "states a;\nplayer p {\n  table { {a}: {a} }\n}",
     ("semantic", 3, 20, "table has 1 of 2 events")),
    ("family unknown", "states a;\nsignal x : u v {\n  a -> u\n} family {\n  {u, w}\n}",
     ("semantic", 5, 3, "value outside the codomain: w")),
    ("family duplicate", "states a;\nsignal x : u v {\n  a -> u\n} family {\n  {u, u}\n}",
     ("semantic", 5, 3, "duplicate value in family member")),
    ("family missing separator", "states a;\nsignal x : u v {\n  a -> u\n} family {\n  {u v}\n}",
     ("syntax", 5, 6, "expected ',' or '}' in codomain value set")),
    ("family keyword", "states a;\nsignal x : u v {\n  a -> u\n} family {\n  {strategy}\n}",
     ("syntax", 5, 4, "keyword 'strategy' cannot be used as codomain value name")),
    ("family missing open", "states a;\nsignal x : u v {\n  a -> u\n} family u",
     ("syntax", 4, 10, "expected '{' opening the family block, found 'u'")),
    # lexical corner cases
    ("comment ends input after '>'", "states a;\nplayer p {#\t>",
     ("syntax", 2, 14, "expected 'kripke' or 'table' or 'core', found 'end of input'")),
    ("stray '>' after a name", "states a b;\nplayer p >",
     ("lexical", 2, 10, "stray '>'")),
    ("'>' inside a name", "states a>b a-b a>b;",
     ("semantic", 1, 16, "duplicate state: a>b")),
    ("'-' inside a name", "states a-b a>b a-b;",
     ("semantic", 1, 16, "duplicate state: a-b")),
    ("arrow between names", "states u;\nsignal x : v {\n  u->v, u->v\n} family { {v} }",
     ("semantic", 3, 9, "duplicate assignment for u")),
    ("blanks that end no line", "states a;\r\n\x0b\x0c\u2028\u3000player\r ;",
     ("syntax", 2, 13, "expected player name, found ';'")),
    ("blanks between names", "states a\x0b\x0cb\u2028\u3000a;",
     ("semantic", 1, 14, "duplicate state: a")),
    ("end of input after a comment line", "states a;\nplayer # c\n",
     ("syntax", 3, 1, "expected player name, found 'end of input'")),
]


class TestParseErrors:
    @pytest.mark.parametrize(
        "text, expected", [case[1:] for case in READER_CASES],
        ids=[case[0] for case in READER_CASES],
    )
    def test_reader_diagnostics(self, text, expected):
        with pytest.raises(ModelSpecError) as err:
            parse_model_spec(text)
        assert (err.value.kind, err.value.line, err.value.col, err.value.message) == expected

    def test_empty_input(self):
        with pytest.raises(ModelSpecError) as err:
            parse_model_spec("")
        assert (err.value.kind, err.value.line, err.value.col) == ("syntax", 1, 1)

    def test_comment_only_input(self):
        with pytest.raises(ModelSpecError) as err:
            parse_model_spec("# nothing here\n")
        assert err.value.kind == "syntax"

    def test_end_of_input_after_trailing_comment(self):
        # the column counts the comment's characters, as blanks would be
        for text in ("states a;\nplayer # c", "states a;\nplayer    "):
            with pytest.raises(ModelSpecError) as err:
                parse_model_spec(text)
            assert (err.value.kind, err.value.line, err.value.col) == ("syntax", 2, 11)

    def test_duplicate_state(self):
        with pytest.raises(ModelSpecError) as err:
            parse_model_spec("states a a;")
        assert err.value.kind == "semantic"
        assert "duplicate state" in err.value.message

    def test_keyword_cannot_name_a_state(self):
        with pytest.raises(ModelSpecError, match="keyword"):
            parse_model_spec("states table;")

    def test_unknown_state_in_kripke(self):
        with pytest.raises(ModelSpecError, match="unknown state: c"):
            parse_model_spec("states a b;\nplayer i { kripke { c: {a} } }")

    def test_missing_kripke_state(self):
        with pytest.raises(ModelSpecError, match="missing state b"):
            parse_model_spec("states a b;\nplayer i { kripke { a: {a} } }")

    def test_incomplete_table(self):
        with pytest.raises(ModelSpecError, match="1 of 4 events"):
            parse_model_spec("states a b;\nplayer i { table { {}: {} } }")

    def test_core_may_be_partial(self):
        doc = parse_model_spec("states a b;\nplayer i { core { {a}: {a, b} } }")
        op = doc.belief_model().operator("i")
        assert op.apply(doc.space().event(["a"])) == doc.space().event(["a", "b"])

    def test_duplicate_player(self):
        text = "states a;\nplayer i { kripke { a: {a} } }\nplayer i { kripke { a: {a} } }"
        with pytest.raises(ModelSpecError, match="duplicate player"):
            parse_model_spec(text)

    def test_duplicate_states_declaration(self):
        with pytest.raises(ModelSpecError, match="duplicate 'states'"):
            parse_model_spec("states a;\nstates b;")

    def test_signal_value_outside_codomain(self):
        with pytest.raises(ModelSpecError, match="outside the codomain"):
            parse_model_spec("states a;\nsignal s : x { a -> y } family { {x} }")

    def test_signal_missing_state(self):
        with pytest.raises(ModelSpecError, match="missing state b"):
            parse_model_spec("states a b;\nsignal s : x { a -> x } family { {x} }")

    def test_rank_must_be_integer(self):
        text = (
            "states a;\n"
            "game { actions i: l; rank i: (l) = three; strategy i { a -> l } }"
        )
        with pytest.raises(ModelSpecError, match="integer"):
            parse_model_spec(text)

    def test_missing_rank(self):
        text = (
            "states a;\n"
            "game { actions i: l r; rank i: (l) = 0; strategy i { a -> l } }"
        )
        with pytest.raises(ModelSpecError, match="no rank for player i"):
            parse_model_spec(text)

    def test_game_players_must_match_declared(self):
        text = (
            "states a;\n"
            "player i { kripke { a: {a} } }\n"
            "game { actions j: l; rank j: (l) = 0; strategy j { a -> l } }"
        )
        with pytest.raises(ModelSpecError, match="differ from declared"):
            parse_model_spec(text)

    def test_trailing_junk_after_statement(self):
        with pytest.raises(ModelSpecError, match="expected"):
            parse_model_spec("states a; junk")


class TestBuilders:
    def test_blindspot_operators(self, space3, blindspot):
        model = blindspot_doc().belief_model()
        assert model.players == ("1", "2")
        assert model.operator("1").table() == blindspot.table()
        full = space3.full
        assert model.operator("2").apply(full) == full

    def test_signal_builder(self):
        text = (
            "states a b;\n"
            "signal s : x y { a -> x, b -> y } family { {x}, {x, y} }\n"
        )
        doc = parse_model_spec(text)
        sig = doc.signal("s")
        assert isinstance(sig, Signal)
        assert sig.codomain == ("x", "y")
        assert sig.family == (frozenset({"x"}), frozenset({"x", "y"}))
        with pytest.raises(KeyError):
            doc.signal("t")

    def test_game_builder_runs_elimination(self):
        text = (
            "states a b;\n"
            "player r { kripke { a: {a}, b: {b} } }\n"
            "player c { kripke { a: {a}, b: {b} } }\n"
            "game {\n"
            "  actions r: C D;\n"
            "  actions c: C D;\n"
            "  rank r: (C, C) = 3; rank r: (C, D) = 1;\n"
            "  rank r: (D, C) = 4; rank r: (D, D) = 2;\n"
            "  rank c: (C, C) = 3; rank c: (C, D) = 4;\n"
            "  rank c: (D, C) = 1; rank c: (D, D) = 2;\n"
            "  strategy r { a -> C, b -> D }\n"
            "  strategy c { a -> D, b -> D }\n"
            "}\n"
        )
        gm = parse_model_spec(text).game_model()
        assert isinstance(gm, GameModel)
        assert iesda(gm.game).survivors == (("D",), ("D",))
        assert gm.strategy("r", "a") == "C"

    def test_builder_requires_players(self):
        doc = parse_model_spec("states a;")
        with pytest.raises(ValueError, match="no players"):
            doc.belief_model()

    def test_non_monotone_table_fails_at_build(self):
        text = (
            "states a;\n"
            "player i { table { {}: {a}, {a}: {} } }"
        )
        doc = parse_model_spec(text)
        with pytest.raises(ValueError, match="not monotone"):
            doc.belief_model()


class TestIntegerDocument:
    def test_kripke_block_holds_state_masks_in_state_order(self):
        doc = parse_model_spec(
            "states a b c;\nplayer i { kripke { c: {c, b}, a: {a, c}, b: {} } }"
        )
        assert doc.players[0].kripke == (0b101, 0b000, 0b110)

    def test_table_block_holds_mask_pairs_sorted_by_event(self):
        assert blindspot_doc().players[0].entries == (
            (0b000, 0b000),
            (0b001, 0b001),
            (0b010, 0b010),
            (0b011, 0b011),
            (0b100, 0b000),
            (0b101, 0b001),
            (0b110, 0b010),
            (0b111, 0b111),
        )

    def test_game_ranks_are_the_rows_of_game_ranks(self):
        text = (
            "states a b;\n"
            "player r { kripke { a: {a}, b: {b} } }\n"
            "player c { kripke { a: {a}, b: {b} } }\n"
            "game {\n"
            "  actions r: U D;\n"
            "  actions c: L M R;\n"
            "  rank c: (D, R) = 0; rank c: (D, M) = 1; rank c: (D, L) = 2;\n"
            "  rank c: (U, R) = 3; rank c: (U, M) = 4; rank c: (U, L) = 5;\n"
            "  rank r: (U, L) = 0; rank r: (U, M) = 1; rank r: (U, R) = 2;\n"
            "  rank r: (D, L) = 3; rank r: (D, M) = 4; rank r: (D, R) = 5;\n"
            "  strategy r { a -> U, b -> D }\n"
            "  strategy c { a -> M, b -> R }\n"
            "}\n"
        )
        doc = parse_model_spec(text)
        assert doc.game.ranks == ((0, 1, 2, 3, 4, 5), (5, 4, 3, 2, 1, 0))
        assert doc.game.ranks == doc.game_model().game.ranks


def _seeded_objects(kind: str, n: int, seed: int):
    """Two players with seeded Kripke or monotone-closure operators on
    `n` states, a three-valued signal and a 3x3 game over them."""
    rng = random.Random(seed)
    space = StateSpace([f"s{k}" for k in range(1, n + 1)])
    masks = range(space.size)
    ops = {}
    for p in ("r", "c"):
        if kind == "kripke":
            possible = tuple(rng.choice(masks) for _ in range(n))
            ops[p] = BeliefOperator.from_correspondence(
                PossibilityCorrespondence(space, possible), owner=p
            )
        else:
            core = {rng.choice(masks): rng.choice(masks) for _ in range(n + 1)}
            ops[p] = BeliefOperator.monotone_closure(space, core, owner=p)
    model = BeliefModel(space, ops)
    values = ("lo", "mid", "hi")
    signal = Signal(
        space,
        codomain=values,
        assignment=tuple(rng.choice(values) for _ in range(n)),
        family=(frozenset({"hi"}), frozenset({"lo", "mid"}), frozenset({"mid"})),
        name="x",
    )
    acts = ("L", "M", "R")
    ranks = tuple(tuple(rng.randrange(4) for _ in range(9)) for _ in ops)
    game = Game(tuple(ops), (acts, acts), ranks)
    strategies = tuple(tuple(rng.choice(acts) for _ in range(n)) for _ in ops)
    return model, [signal], GameModel(model, game, strategies)


def _assert_document_round_trip(model, signals=(), game_model=None):
    """The document of the objects is the parse of their text, and it
    rebuilds every operator with its table and its correspondence."""
    doc = document_of(model, signals, game_model)
    assert doc == parse_model_spec(serialize_model(model, signals, game_model))
    rebuilt = doc.belief_model()
    for p in model.players:
        assert rebuilt.operator(p).table() == model.operator(p).table()
        assert (
            rebuilt.operator(p).has_correspondence()
            == model.operator(p).has_correspondence()
        )
    return doc


SEEDED = [(n, seed) for n in range(1, 5) for seed in range(3)]


class TestRoundTrip:
    def test_parse_serialize_identity(self):
        doc = blindspot_doc()
        assert parse_model_spec(serialize_model_spec(doc)) == doc

    def test_serialize_parse_idempotent(self):
        text = serialize_model_spec(blindspot_doc())
        again = serialize_model_spec(parse_model_spec(text))
        assert again == text

    def test_round_trip_with_signal_and_game(self):
        text = (
            "states a b;\n"
            "player r { kripke { a: {a, b}, b: {b} } }\n"
            "player c { core { {a}: {a} } }\n"
            "signal s : x y { a -> x, b -> y } family { {y}, {x} }\n"
            "game {\n"
            "  actions r: L R;\n"
            "  actions c: L R;\n"
            "  rank r: (L, L) = 0; rank r: (L, R) = 1;\n"
            "  rank r: (R, L) = 2; rank r: (R, R) = 3;\n"
            "  rank c: (L, L) = 3; rank c: (L, R) = 2;\n"
            "  rank c: (R, L) = 1; rank c: (R, R) = 0;\n"
            "  strategy r { a -> L, b -> R }\n"
            "  strategy c { a -> R, b -> L }\n"
            "}\n"
        )
        doc = parse_model_spec(text)
        assert parse_model_spec(serialize_model_spec(doc)) == doc
        # normalization sorts the family by codomain order
        assert doc.signals[0].family == (("x",), ("y",))

    @pytest.mark.parametrize("seeded", [None, *SEEDED])
    def test_document_of_model(self, space3, blindspot_model, seeded):
        # seeded monotone closures come with a signal and a 3x3 game
        objects = (blindspot_model,) if seeded is None else _seeded_objects("closure", *seeded)
        doc = _assert_document_round_trip(*objects)
        assert doc.players[0].kind == "table"

    @pytest.mark.parametrize("seeded", [None, *SEEDED])
    def test_document_of_prefers_kripke_blocks(self, space3, seeded):
        if seeded is None:
            corr = PossibilityCorrespondence(space3, (0b001, 0b011, 0b111))
            op = BeliefOperator.from_correspondence(corr, owner="i")
            objects = (BeliefModel(space3, {"i": op}),)
        else:
            objects = _seeded_objects("kripke", *seeded)
        doc = _assert_document_round_trip(*objects)
        assert doc.players[0].kind == "kripke"

    def test_document_of_game_model(self, space2, pd_game):
        ops = {
            p: BeliefOperator.from_correspondence(
                PossibilityCorrespondence(space2, (0b01, 0b10)), owner=p
            )
            for p in ("r", "c")
        }
        gm = GameModel.of(
            BeliefModel(space2, ops),
            pd_game,
            {"r": ("C", "D"), "c": ("D", "D")},
        )
        text = serialize_model(game_model=gm)
        doc = parse_model_spec(text)
        rebuilt = doc.game_model()
        assert rebuilt.game.ranks == pd_game.ranks
        assert rebuilt.strategies == gm.strategies
        assert serialize_model_spec(doc) == text


class TestHandBuiltTables:
    # a table block's images are read by position, so a document whose
    # event masks are out of order or repeated would build an operator
    # that its own serialization does not describe
    @pytest.mark.parametrize(
        "entries",
        [((0, 0), (2, 2), (1, 1), (3, 3)), ((0, 0), (1, 1), (1, 1), (3, 3)), ((0, 0), (1, 1))],
    )
    def test_entries_must_list_every_event_in_order(self, entries):
        doc = ModelSpecDocument(("a", "b"), (PlayerSpec("i", "table", entries=entries),))
        with pytest.raises(ValueError, match="must list event masks 0 .. 3 in order"):
            doc.belief_model()


class TestFamilyOrder:
    TEXT = (
        "states a;\n"
        "player i { kripke { a: {a} } }\n"
        "signal x : u v w { a -> u } family { {w}, {v, u}, {u}, {u, v}, {w} }"
    )

    def test_parser_deduplicates_and_sorts_by_codomain_position(self):
        doc = parse_model_spec(self.TEXT)
        assert doc.signals[0].family == (("u",), ("u", "v"), ("w",))

    def test_document_of_agrees_with_the_parser(self):
        doc = parse_model_spec(self.TEXT)
        rebuilt = document_of(doc.belief_model(), [doc.signal("x")])
        assert rebuilt.signals == doc.signals


class TestEventLiteral:
    def test_parses_sets(self, space3):
        assert parse_event_literal(space3, "{ω1, ω3}") == space3.event(["ω1", "ω3"])
        assert parse_event_literal(space3, "{}") == space3.empty

    def test_unknown_state(self, space3):
        with pytest.raises(ModelSpecError, match="unknown state"):
            parse_event_literal(space3, "{ω9}")

    def test_trailing_junk(self, space3):
        with pytest.raises(ModelSpecError, match="after the closing"):
            parse_event_literal(space3, "{ω1} extra")

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("{ω1 ω2}", ("syntax", 1, 5, "expected ',' or '}' in state set")),
            ("{ω1, ω1}", ("semantic", 1, 1, "duplicate state in set")),
            ("ω1", ("syntax", 1, 1, "expected '{' opening a state set, found 'ω1'")),
        ],
    )
    def test_model_file_set_grammar(self, space3, text, expected):
        with pytest.raises(ModelSpecError) as err:
            parse_event_literal(space3, text)
        assert (err.value.kind, err.value.line, err.value.col, err.value.message) == expected


GOLDEN = Path(__file__).parent / "golden"
TOKEN = re.compile(r"\s+|->|[{}();:,=]|[^\s{}();:,=]+")


def _mutate(rng: random.Random, text: str, pool: list[str]) -> str:
    """One seeded byte-level or token-level edit of a model file."""
    if rng.random() < 0.5:
        data = bytearray(text.encode())
        pos = rng.randrange(len(data) + 1)
        kind = rng.randrange(3)
        if kind == 0 and pos < len(data):
            del data[pos]
        elif kind == 1:
            data.insert(pos, rng.randrange(256))
        elif pos < len(data):
            data[pos] = rng.randrange(256)
        return data.decode(errors="replace")
    tokens = TOKEN.findall(text)
    pos = rng.randrange(len(tokens))
    kind = rng.randrange(4)
    if kind == 0:
        del tokens[pos]
    elif kind == 1:
        tokens.insert(pos, tokens[pos])
    elif kind == 2:
        tokens[pos] = rng.choice(pool)
    elif pos + 1 < len(tokens):
        tokens[pos], tokens[pos + 1] = tokens[pos + 1], tokens[pos]
    return "".join(tokens)


def _mutations():
    """The 2,000 seeded one-to-three-edit mutations of the golden files."""
    texts = [path.read_text() for path in sorted(GOLDEN.glob("*.bm"))]
    assert texts
    pool = sorted({t for text in texts for t in TOKEN.findall(text)})
    rng = random.Random(5)
    for _ in range(2000):
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 3)):
            text = _mutate(rng, text, pool)
        yield text


# SHA-256 of the JSON list of outcomes of _mutations(): the canonical text
# of each file that parses, `kind line col message` of each that does not
DIAGNOSTICS_DIGEST = "3dd973358d1ff5cb3c60d2a9d171d9f4399c17b756625b4c368fd63650221839"


class TestMutationFuzz:
    def test_mutated_golden_files_fail_cleanly_or_round_trip(self):
        parsed = 0
        for text in _mutations():
            try:
                doc = parse_model_spec(text)
            except ModelSpecError:
                continue
            parsed += 1
            canonical = serialize_model_spec(doc)
            again = parse_model_spec(canonical)
            assert again == doc, text
            assert serialize_model_spec(again) == canonical, text
        # the mutations must reach both outcomes
        assert 0 < parsed < 2000

    def test_diagnostics_are_pinned(self):
        outcomes = []
        for text in _mutations():
            try:
                outcomes.append(serialize_model_spec(parse_model_spec(text)))
            except ModelSpecError as exc:
                outcomes.append(f"{exc.kind} {exc.line} {exc.col} {exc.message}")
        digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
        assert digest == DIAGNOSTICS_DIGEST
