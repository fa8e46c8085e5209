"""Text format for belief models, signals, and games.

A one-pattern lexer and a recursive-descent parser with line/column
diagnostics, a normalized document form, and a canonical serializer.
Parsing a serialized document gives the document back; serializing a
parsed document is idempotent after one round trip.

The document holds what the model holds: a player's block as state
masks (bit k stands for the k-th declared state) and a game's ranks as
one row per player in profile order. State names become masks in the
parser and masks become names again only in the serializer.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

from .core import BeliefModel, BeliefOperator, Event, StateSpace
from .core import PossibilityCorrespondence
from .games import Game, GameModel
from .signals import Signal

KEYWORDS = frozenset(
    {
        "states",
        "player",
        "signal",
        "game",
        "kripke",
        "table",
        "core",
        "family",
        "actions",
        "rank",
        "strategy",
    }
)

PUNCT = {
    "{": "LBRACE",
    "}": "RBRACE",
    "(": "LPAREN",
    ")": "RPAREN",
    ":": "COLON",
    ";": "SEMI",
    ",": "COMMA",
    "=": "EQUALS",
}


class ModelSpecError(Exception):
    """Parse or validation failure with a source location."""

    def __init__(self, kind: str, message: str, line: int, col: int):
        super().__init__(f"{kind} error at {line}:{col}: {message}")
        self.kind = kind
        self.message = message
        self.line = line
        self.col = col


class Token(NamedTuple):
    kind: str
    value: str
    pos: int  # offset in the text


# Blanks and comments, then one token. The comment ends with a lookahead
# so that a failed token match cannot backtrack into it: "#>" at the end
# of the input is a comment, not a stray '>'. \s accepts what
# str.isspace() accepts; only "\n" ends a line (_line_col).
_TOKEN = re.compile(
    r"""(?:\s|\#[^\n]*(?![^\n]))*
    (?: (?P<PUNCT>[{}():;,=]) | (?P<ARROW>→|->) | (?P<STRAY>>)
      | (?P<WORD>(?:[^\s{}():;,=\#→>-]|-(?!>))(?:[^\s{}():;,=\#→-]|-(?!>))*) )""",
    re.VERBOSE,
)


def _line_col(text: str, pos: int) -> tuple[int, int]:
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _lex(text: str) -> list[Token]:
    tokens = []
    end = 0
    while match := _TOKEN.match(text, end):
        kind = match.lastgroup
        value, pos = match[kind], match.start(kind)
        if kind == "STRAY":
            raise ModelSpecError("lexical", "stray '>'", *_line_col(text, pos))
        tokens.append(Token(PUNCT.get(value, kind), value, pos))
        end = match.end()
    tokens.append(Token("EOF", "", len(text)))
    return tokens


@dataclass(frozen=True)
class PlayerSpec:
    """One player's operator block over the document's state order.

    A kripke block holds each state's possible set as a state mask, in
    state order. A table or core block holds (event mask, image mask)
    pairs sorted by event mask; a table block has one for every event.
    """

    name: str
    kind: str
    kripke: tuple[int, ...] = ()
    entries: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class SignalSpec:
    name: str
    codomain: tuple[str, ...]
    assignment: tuple[tuple[str, str], ...]
    family: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class GameSpec:
    """Each player's actions and strategy, players in declaration order,
    and one rank row per player in profile enumeration order: the rows
    of ``Game.ranks``."""

    actions: tuple[tuple[str, tuple[str, ...]], ...]
    ranks: tuple[tuple[int, ...], ...]
    strategies: tuple[tuple[str, tuple[str, ...]], ...]


@dataclass(frozen=True)
class ModelSpecDocument:
    """Normalized parse result; equal documents serialize identically."""

    states: tuple[str, ...]
    players: tuple[PlayerSpec, ...] = ()
    signals: tuple[SignalSpec, ...] = ()
    game: GameSpec | None = None

    def space(self) -> StateSpace:
        return StateSpace(self.states)

    def belief_model(self) -> BeliefModel:
        if not self.players:
            raise ValueError("document declares no players")
        space = self.space()
        operators = {}
        for spec in self.players:
            operators[spec.name] = _operator_from_spec(space, spec)
        return BeliefModel(space, operators)

    def signal(self, name: str) -> Signal:
        space = self.space()
        for spec in self.signals:
            if spec.name == name:
                values = dict(spec.assignment)
                return Signal(
                    space,
                    codomain=spec.codomain,
                    assignment=tuple(values[s] for s in self.states),
                    family=tuple(frozenset(m) for m in spec.family),
                    name=spec.name,
                )
        raise KeyError(f"unknown signal: {name}")

    def game_model(self) -> GameModel:
        if self.game is None:
            raise ValueError("document declares no game")
        belief = self.belief_model()
        players = tuple(p for p, _ in self.game.actions)
        actions = tuple(acts for _, acts in self.game.actions)
        game = Game(players, actions, self.game.ranks)
        return GameModel(belief, game, tuple(row for _, row in self.game.strategies))


def _operator_from_spec(space: StateSpace, spec: PlayerSpec) -> BeliefOperator:
    if spec.kind == "kripke":
        return BeliefOperator.from_correspondence(
            PossibilityCorrespondence(space, spec.kripke), owner=spec.name
        )
    if spec.kind == "table":
        # the images are read by position, so the events must be in mask order
        if [event for event, _ in spec.entries] != list(range(space.size)):
            raise ValueError(
                f"table of player {spec.name} must list event masks 0 .. {space.size - 1} in order"
            )
        images = [image for _, image in spec.entries]
        return BeliefOperator.from_table(space, images, owner=spec.name)
    return BeliefOperator.monotone_closure(space, dict(spec.entries), owner=spec.name)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _lex(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: Token | None = None, kind: str = "syntax"):
        tok = tok or self.peek()
        raise ModelSpecError(kind, message, *_line_col(self.text, tok.pos))

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            shown = tok.value or "end of input"
            self.error(f"expected {what}, found {shown!r}")
        return self.next()

    def word(self, what: str, allow_keyword: bool = False) -> Token:
        tok = self.expect("WORD", what)
        if not allow_keyword and tok.value in KEYWORDS:
            self.error(f"keyword {tok.value!r} cannot be used as {what}", tok)
        return tok

    def keyword(self, *names: str) -> Token:
        tok = self.peek()
        if tok.kind != "WORD" or tok.value not in names:
            expected = " or ".join(repr(n) for n in names)
            shown = tok.value or "end of input"
            self.error(f"expected {expected}, found {shown!r}")
        return self.next()

    def opt_comma(self) -> None:
        if self.peek().kind == "COMMA":
            self.next()

    def word_list(self, what: str, duplicate: str, empty: str) -> list[str]:
        """One or more distinct names, up to the first token that is not one."""
        words: list[str] = []
        while self.peek().kind == "WORD":
            tok = self.word(what)
            if tok.value in words:
                self.error(f"{duplicate}: {tok.value}", tok, kind="semantic")
            words.append(tok.value)
        if not words:
            self.error(empty)
        return words

    def set_literal(
        self,
        universe: Sequence[str],
        what: str = "state",
        unknown: str = "unknown state",
        duplicate: str = "duplicate state in set",
    ) -> tuple[int, Token]:
        """A braced, comma-separated set of distinct names from `universe`
        as a mask, bit k standing for universe[k], and the token of its
        opening brace."""
        open_tok = self.expect("LBRACE", f"'{{' opening a {what} set")
        items = []
        while self.peek().kind != "RBRACE":
            items.append(self.word(f"{what} name").value)
            if self.peek().kind == "COMMA":
                self.next()
            elif self.peek().kind != "RBRACE":
                self.error(f"expected ',' or '}}' in {what} set")
        self.next()
        mask = 0
        for item in items:
            if item not in universe:
                self.error(f"{unknown}: {item}", open_tok, kind="semantic")
            mask |= 1 << universe.index(item)
        if mask.bit_count() != len(items):
            self.error(duplicate, open_tok, kind="semantic")
        return mask, open_tok

    def state_block(
        self,
        states: list[str],
        separator: tuple[str, str],
        value: Callable[[], object],
        duplicate: str,
        missing: str,
        missing_tok: Token | None = None,
    ) -> tuple:
        """Entries `state <separator> value`, optionally comma separated,
        through the closing brace: one per state, values in state order.
        A missing state is reported at `missing_tok`, else at the brace."""
        entries: dict[str, object] = {}
        while self.peek().kind != "RBRACE":
            tok = self.word("state name")
            if tok.value not in states:
                self.error(f"unknown state: {tok.value}", tok, kind="semantic")
            if tok.value in entries:
                self.error(f"{duplicate} {tok.value}", tok, kind="semantic")
            self.expect(*separator)
            entries[tok.value] = value()
            self.opt_comma()
        close_tok = self.next()
        for state in states:
            if state not in entries:
                self.error(
                    f"{missing} {state}", missing_tok or close_tok, kind="semantic"
                )
        return tuple(entries[s] for s in states)

    # document level

    def parse(self) -> ModelSpecDocument:
        if self.peek().kind == "EOF":
            self.error("empty input: expected a 'states' declaration")
        self.keyword("states")
        states = self.word_list(
            "state name", "duplicate state", "expected at least one state name"
        )
        self.expect("SEMI", "';' after the state list")
        players: list[PlayerSpec] = []
        signals: list[SignalSpec] = []
        game: GameSpec | None = None
        game_tok: Token | None = None
        while self.peek().kind != "EOF":
            tok = self.keyword("player", "signal", "game", "states")
            if tok.value == "states":
                self.error("duplicate 'states' declaration", tok, kind="semantic")
            if tok.value == "player":
                players.append(self.parse_player(states, players))
            elif tok.value == "signal":
                signals.append(self.parse_signal(states, signals))
            else:
                if game is not None:
                    self.error("duplicate 'game' block", tok, kind="semantic")
                game_tok = tok
                game = self.parse_game(states)
        declared = {p.name for p in players}
        if game is not None and declared and declared != {p for p, _ in game.actions}:
            self.error("game players differ from declared players", game_tok, kind="semantic")
        return ModelSpecDocument(
            states=tuple(states),
            players=tuple(players),
            signals=tuple(signals),
            game=game,
        )

    def parse_player(
        self, states: list[str], seen: list[PlayerSpec]
    ) -> PlayerSpec:
        name_tok = self.word("player name")
        if any(p.name == name_tok.value for p in seen):
            self.error(
                f"duplicate player: {name_tok.value}", name_tok, kind="semantic"
            )
        self.expect("LBRACE", "'{' opening the player block")
        kind_tok = self.keyword("kripke", "table", "core")
        self.expect("LBRACE", f"'{{' opening the {kind_tok.value} block")
        if kind_tok.value == "kripke":
            possible = self.state_block(
                states,
                ("COLON", "':' after the state name"),
                lambda: self.set_literal(states)[0],
                "duplicate entry for state",
                "kripke block is missing state",
                kind_tok,
            )
            spec = PlayerSpec(name=name_tok.value, kind="kripke", kripke=possible)
        else:
            spec = self.parse_table_entries(name_tok.value, kind_tok.value, states)
        self.expect("RBRACE", "'}' closing the player block")
        return spec

    def parse_table_entries(
        self, player: str, kind: str, states: list[str]
    ) -> PlayerSpec:
        entries: dict[int, int] = {}
        while self.peek().kind != "RBRACE":
            key, key_tok = self.set_literal(states)
            if key in entries:
                shown = _set_text(_names(key, states))
                self.error(f"duplicate entry for {shown}", key_tok, kind="semantic")
            self.expect("COLON", "':' after the event")
            entries[key] = self.set_literal(states)[0]
            self.opt_comma()
        close_tok = self.next()
        # a table block promises an image for every event; core blocks may be partial
        if kind == "table" and len(entries) != 1 << len(states):
            self.error(
                f"table has {len(entries)} of {1 << len(states)} events",
                close_tok,
                kind="semantic",
            )
        # canonical order: by event mask
        return PlayerSpec(name=player, kind=kind, entries=tuple(sorted(entries.items())))

    def parse_signal(
        self, states: list[str], seen: list[SignalSpec]
    ) -> SignalSpec:
        name_tok = self.word("signal name")
        if any(s.name == name_tok.value for s in seen):
            self.error(
                f"duplicate signal: {name_tok.value}", name_tok, kind="semantic"
            )
        self.expect("COLON", "':' before the codomain")
        codomain = self.word_list(
            "codomain value",
            "duplicate codomain value",
            "expected at least one codomain value",
        )
        self.expect("LBRACE", "'{' opening the assignment block")

        def value() -> str:
            tok = self.word("codomain value")
            if tok.value not in codomain:
                self.error(
                    f"value outside the codomain: {tok.value}", tok, kind="semantic"
                )
            return tok.value

        assignment = self.state_block(
            states,
            ("ARROW", "'->' in the assignment"),
            value,
            "duplicate assignment for",
            "assignment is missing state",
        )
        self.keyword("family")
        self.expect("LBRACE", "'{' opening the family block")
        members = []
        while self.peek().kind != "RBRACE":
            member, _ = self.set_literal(
                codomain,
                "codomain value",
                "value outside the codomain",
                "duplicate value in family member",
            )
            members.append(member)
            self.opt_comma()
        self.next()
        return SignalSpec(
            name=name_tok.value,
            codomain=tuple(codomain),
            assignment=tuple(zip(states, assignment)),
            family=_family_order(members, codomain),
        )

    def parse_game(self, states: list[str]) -> GameSpec:
        open_tok = self.expect("LBRACE", "'{' opening the game block")
        actions: dict[str, tuple[str, ...]] = {}
        ranks: list[tuple[str, tuple[str, ...], int, Token]] = []
        strategies: dict[str, tuple[str, ...]] = {}
        while self.peek().kind != "RBRACE":
            tok = self.keyword("actions", "rank", "strategy")
            if tok.value == "actions":
                player_tok = self.word("player name")
                if player_tok.value in actions:
                    self.error(
                        f"duplicate actions for player {player_tok.value}",
                        player_tok,
                        kind="semantic",
                    )
                self.expect("COLON", "':' after the player name")
                acts = self.word_list(
                    "action name", "duplicate action", "expected at least one action"
                )
                actions[player_tok.value] = tuple(acts)
                self.expect("SEMI", "';' after the action list")
            elif tok.value == "rank":
                player_tok = self.word("player name")
                self.expect("COLON", "':' after the player name")
                self.expect("LPAREN", "'(' opening the profile")
                profile = [self.word("action name").value]
                while self.peek().kind == "COMMA":
                    self.next()
                    profile.append(self.word("action name").value)
                self.expect("RPAREN", "')' closing the profile")
                self.expect("EQUALS", "'=' before the rank")
                value_tok = self.word("integer rank")
                try:
                    value = int(value_tok.value)
                except ValueError:
                    self.error(
                        f"rank must be an integer, found {value_tok.value!r}",
                        value_tok,
                    )
                self.expect("SEMI", "';' after the rank")
                ranks.append((player_tok.value, tuple(profile), value, player_tok))
            else:
                player_tok = self.word("player name")
                if player_tok.value in strategies:
                    self.error(
                        f"duplicate strategy for player {player_tok.value}",
                        player_tok,
                        kind="semantic",
                    )
                self.expect("LBRACE", "'{' opening the strategy block")
                strategies[player_tok.value] = self.state_block(
                    states,
                    ("ARROW", "'->' in the strategy"),
                    lambda: self.word("action name").value,
                    "duplicate assignment for",
                    "strategy is missing state",
                )
        self.next()
        return self._assemble_game(actions, ranks, strategies, states, open_tok)

    def _assemble_game(
        self,
        actions: dict[str, tuple[str, ...]],
        ranks: list[tuple[str, tuple[str, ...], int, Token]],
        strategies: dict[str, tuple[str, ...]],
        states: list[str],
        open_tok: Token,
    ) -> GameSpec:
        if not actions:
            self.error("game declares no actions", open_tok, kind="semantic")
        players = tuple(actions)
        profiles = list(itertools.product(*(actions[p] for p in players)))
        profile_index = {pr: k for k, pr in enumerate(profiles)}
        rows: dict[str, list[int | None]] = {p: [None] * len(profiles) for p in players}
        for player, profile, value, tok in ranks:
            if player not in actions:
                self.error(f"unknown player: {player}", tok, kind="semantic")
            if profile not in profile_index:
                shown = "(" + ", ".join(profile) + ")"
                self.error(
                    f"unknown action profile {shown}", tok, kind="semantic"
                )
            row, k = rows[player], profile_index[profile]
            if row[k] is not None:
                self.error(
                    f"duplicate rank for player {player}", tok, kind="semantic"
                )
            row[k] = value
        for player in players:
            for profile, value in zip(profiles, rows[player]):
                if value is None:
                    shown = "(" + ", ".join(profile) + ")"
                    self.error(
                        f"no rank for player {player} at {shown}",
                        open_tok,
                        kind="semantic",
                    )
        for player, row in strategies.items():
            if player not in actions:
                self.error(f"unknown player: {player}", open_tok, kind="semantic")
            for action in row:
                if action not in actions[player]:
                    self.error(
                        f"unknown action in strategy: {action}",
                        open_tok,
                        kind="semantic",
                    )
        for player in players:
            if player not in strategies:
                self.error(
                    f"no strategy for player {player}", open_tok, kind="semantic"
                )
        return GameSpec(
            actions=tuple((p, actions[p]) for p in players),
            ranks=tuple(tuple(rows[p]) for p in players),
            strategies=tuple((p, strategies[p]) for p in players),
        )


def read_model_file(path: str) -> str:
    """The text of a model file. A file that cannot be read as UTF-8
    text raises one ValueError naming the path and the reason."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise ValueError(f"cannot read {path}: {reason}") from exc


def parse_model_spec(text: str) -> ModelSpecDocument:
    return _Parser(text).parse()


def parse_event_literal(space: StateSpace, text: str) -> Event:
    """An event in the model-file set syntax, for command-line flags,
    e.g. '{ω1, ω2}'."""
    parser = _Parser(text)
    bits, _ = parser.set_literal(space.states)
    if parser.peek().kind != "EOF":
        parser.error("unexpected input after the closing '}'")
    return Event(space, bits)


def document_of(
    model: BeliefModel | None = None,
    signals: Iterable[Signal] = (),
    game_model: GameModel | None = None,
) -> ModelSpecDocument:
    """Normalized document for in-memory objects; operators with a
    stored correspondence serialize as kripke blocks, others as tables."""
    if game_model is not None:
        if model is not None and model is not game_model.belief:
            raise ValueError("game model carries a different belief model")
        model = game_model.belief
    if model is None:
        raise ValueError("nothing to serialize")
    states = model.space.states
    players = []
    for name in model.players:
        op = model.operator(name)
        if op.has_correspondence():
            spec = PlayerSpec(name, "kripke", kripke=op.derive_correspondence().possible)
        else:
            spec = PlayerSpec(name, "table", entries=tuple(enumerate(op.table())))
        players.append(spec)
    signal_specs = []
    for sig in signals:
        if sig.space != model.space:
            raise ValueError("signal on a different state space")
        codomain = tuple(str(v) for v in sig.codomain)
        by_value = {v: str(v) for v in sig.codomain}
        bit = {v: 1 << k for k, v in enumerate(sig.codomain)}
        members = (sum(bit[v] for v in member) for member in sig.family)
        signal_specs.append(
            SignalSpec(
                name=sig.name or "x",
                codomain=codomain,
                assignment=tuple(
                    (s, by_value[sig.value_at(s)]) for s in states
                ),
                family=_family_order(members, codomain),
            )
        )
    game_spec = None
    if game_model is not None:
        game = game_model.game
        game_spec = GameSpec(
            actions=tuple(zip(game.players, game.actions)),
            ranks=game.ranks,
            strategies=tuple(zip(game.players, game_model.strategies)),
        )
    return ModelSpecDocument(
        states=states,
        players=tuple(players),
        signals=tuple(signal_specs),
        game=game_spec,
    )


def _family_order(
    members: Iterable[int], codomain: Sequence[str]
) -> tuple[tuple[str, ...], ...]:
    """Canonical family from member masks over the codomain: each member
    in codomain order, duplicates dropped, members sorted by their tuples
    of codomain positions, so (0, 2) comes before (1,) though its mask
    is larger."""
    positions = range(len(codomain))
    ordered = sorted(set(members), key=lambda m: _names(m, positions))
    return tuple(_names(m, codomain) for m in ordered)


def _names(mask: int, universe: Sequence) -> tuple:
    """The members of `universe` whose bits are set in `mask`, in order."""
    return tuple(name for k, name in enumerate(universe) if mask >> k & 1)


def _set_text(items: Sequence[str]) -> str:
    return "{" + ", ".join(items) + "}"


def serialize_model_spec(doc: ModelSpecDocument) -> str:
    """Canonical text: two-space indent, one entry per line, comma
    separated, blocks in document order."""
    states = doc.states
    out = ["states " + " ".join(states) + ";"]
    for player in doc.players:
        out.append("")
        out.append(f"player {player.name} {{")
        out.append(f"  {player.kind} {{")
        if player.kind == "kripke":
            lines = [
                f"    {state}: {_set_text(_names(possible, states))}"
                for state, possible in zip(states, player.kripke)
            ]
        else:
            lines = [
                f"    {_set_text(_names(key, states))}: {_set_text(_names(value, states))}"
                for key, value in player.entries
            ]
        out.extend(_with_commas(lines))
        out.append("  }")
        out.append("}")
    for sig in doc.signals:
        out.append("")
        out.append(f"signal {sig.name} : " + " ".join(sig.codomain) + " {")
        out.extend(
            _with_commas([f"  {state} -> {value}" for state, value in sig.assignment])
        )
        out.append("} family {")
        out.extend(_with_commas([f"  {_set_text(member)}" for member in sig.family]))
        out.append("}")
    if doc.game is not None:
        out.append("")
        out.append("game {")
        for player, acts in doc.game.actions:
            out.append(f"  actions {player}: " + " ".join(acts) + ";")
        profiles = list(itertools.product(*(acts for _, acts in doc.game.actions)))
        for (player, _), row in zip(doc.game.actions, doc.game.ranks):
            for profile, value in zip(profiles, row):
                out.append(f"  rank {player}: (" + ", ".join(profile) + f") = {value};")
        for player, row in doc.game.strategies:
            out.append(f"  strategy {player} {{")
            out.extend(
                _with_commas(
                    [
                        f"    {state} -> {action}"
                        for state, action in zip(doc.states, row)
                    ]
                )
            )
            out.append("  }")
        out.append("}")
    return "\n".join(out) + "\n"


def _with_commas(lines: list[str]) -> list[str]:
    return [
        line + ("," if i + 1 < len(lines) else "")
        for i, line in enumerate(lines)
    ]


def serialize_model(
    model: BeliefModel | None = None,
    signals: Iterable[Signal] = (),
    game_model: GameModel | None = None,
) -> str:
    return serialize_model_spec(document_of(model, signals, game_model))
