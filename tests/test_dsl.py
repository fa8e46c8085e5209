"""Text format: lexing, parsing, validation, canonical serialization."""

import random
import re
from pathlib import Path

import pytest

from beliefcheck.core import BeliefModel, BeliefOperator, PossibilityCorrespondence
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


class TestParseErrors:
    def test_empty_input(self):
        with pytest.raises(ModelSpecError) as err:
            parse_model_spec("")
        assert (err.value.kind, err.value.line, err.value.col) == ("syntax", 1, 1)

    def test_comment_only_input(self):
        with pytest.raises(ModelSpecError) as err:
            parse_model_spec("# nothing here\n")
        assert err.value.kind == "syntax"

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

    def test_document_of_model(self, space3, blindspot_model):
        doc = document_of(blindspot_model)
        assert doc.players[0].kind == "table"
        rebuilt = doc.belief_model()
        for p in blindspot_model.players:
            assert rebuilt.operator(p).table() == blindspot_model.operator(p).table()

    def test_document_of_prefers_kripke_blocks(self, space3):
        corr = PossibilityCorrespondence(space3, (0b001, 0b011, 0b111))
        op = BeliefOperator.from_correspondence(corr, owner="i")
        model = BeliefModel(space3, {"i": op})
        doc = document_of(model)
        assert doc.players[0].kind == "kripke"
        assert parse_model_spec(serialize_model_spec(doc)) == doc

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


class TestMutationFuzz:
    def test_mutated_golden_files_fail_cleanly_or_round_trip(self):
        texts = [path.read_text() for path in sorted(GOLDEN.glob("*.bm"))]
        assert texts
        pool = sorted({t for text in texts for t in TOKEN.findall(text)})
        rng = random.Random(5)
        parsed = 0
        for _ in range(2000):
            text = rng.choice(texts)
            for _ in range(rng.randint(1, 3)):
                text = _mutate(rng, text, pool)
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
