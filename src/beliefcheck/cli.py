"""Command-line interface.

One invocation loads a model file (or generates an instance stream),
runs a check, and emits one report as text or JSON. Exit code 0 means
every checked property held, 1 means a property or claim was violated,
2 means the input could not be used.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Callable, Sequence

from . import __version__
from .audit import MODES, ModelSource, VIOLATION_CAP, audit, claim_ids
from .audit import enumerate_correspondences, resolve_claim
from .core import TABLE_LIMIT, Event, StateSpace
from .dsl import ModelSpecDocument, ModelSpecError, parse_event_literal
from .dsl import parse_model_spec, read_model_file
from .games import (
    GameModel,
    epistemic_iesda_verdict,
    iesda,
    rationality_event,
    strategy_certainty,
)
from .qualitative import meta_certainty_report
from .signals import CertaintyReport, certain_of, commonly_certain_of

# spec'd shorthand on the command line maps onto the canonical source modes
MODE_ALIASES = {
    "exhaustive": "exhaustive-kripke",
    "sampled": "sampled-monotone",
    "games": "exhaustive-games",
    "files": "from-files",
}


class _InputError(Exception):
    """Anything that makes the invocation unusable; reported on stderr."""


class _Emitter:
    """Collects one report and writes it once, honoring format and --out."""

    def __init__(self, fmt: str, out: str | None):
        self.fmt = fmt
        self.out = out
        self.color = (
            fmt == "text"
            and out is None
            and sys.stdout.isatty()
            and not os.environ.get("NO_COLOR")
        )

    def mark(self, ok: bool) -> str:
        mark = "✓" if ok else "✗"
        if self.color:
            return f"\x1b[32m{mark}\x1b[0m" if ok else f"\x1b[31m{mark}\x1b[0m"
        return mark

    def emit(self, lines: Sequence[str], payload: dict) -> None:
        if self.fmt == "json":
            text = json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
        else:
            text = "\n".join(lines) + "\n"
        if self.out is None:
            sys.stdout.write(text)
        else:
            try:
                with open(self.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise _InputError(f"cannot write {self.out}: {exc.strerror}") from exc


def _envelope(command: str, check_id: str, passed: bool, witnesses: list) -> dict:
    # every JSON report leads with the same four fields
    return {
        "tool-version": __version__,
        "command": command,
        "id": check_id,
        "verdict": "pass" if passed else "fail",
        "witnesses": witnesses,
    }


def _load_document(path: str) -> ModelSpecDocument:
    try:
        text = read_model_file(path)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    try:
        return parse_model_spec(text)
    except ModelSpecError as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _build(factory: Callable):
    try:
        return factory()
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        raise _InputError(str(message)) from exc


def _require_tables(space: StateSpace) -> None:
    # axioms, meta and game read every operator's explicit event table
    if space.n > TABLE_LIMIT:
        raise _InputError(
            f"{space.n} states: this command needs explicit event tables, "
            f"which allow at most {TABLE_LIMIT} states"
        )


def _event_json(event: Event) -> list[str]:
    return list(event)


def _witness_text(witness: tuple) -> str:
    *events, state = witness
    return f"{state}/" + ", ".join(str(e) for e in events)


def _value_set_text(members, codomain) -> str:
    ordered = sorted(members, key=list(codomain).index)
    return "{" + ", ".join(str(v) for v in ordered) + "}"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_axioms(args, em: _Emitter) -> int:
    doc = _load_document(args.file)
    model = _build(doc.belief_model)
    _require_tables(model.space)
    if args.player is not None and args.player not in model.players:
        raise _InputError(f"unknown player: {args.player!r}")
    players = (args.player,) if args.player is not None else model.players
    passed = True
    witnesses: list[str] = []
    lines: list[str] = []
    report_rows = []
    for p in players:
        lines.append(f"player {p}:")
        rows = []
        for report in model.operator(p).check_axioms():
            name = getattr(report.axiom, "value", report.axiom)
            if report.holds:
                lines.append(f"  {name} {em.mark(True)}")
                rows.append({"axiom": name, "holds": True, "witness": None})
            else:
                passed = False
                shown = _witness_text(report.witness)
                witnesses.append(f"{p}: {name} at {shown}")
                lines.append(f"  {name} {em.mark(False)} witness {shown}")
                rows.append({"axiom": name, "holds": False, "witness": shown})
        report_rows.append({"player": p, "axioms": rows})
    check_id = "axioms" if args.player is None else f"axioms:{args.player}"
    payload = _envelope("axioms", check_id, passed, witnesses)
    payload["file"] = args.file
    payload["players"] = report_rows
    em.emit(lines, payload)
    return 0 if passed else 1


def _cmd_common_belief(args, em: _Emitter) -> int:
    doc = _load_document(args.file)
    model = _build(doc.belief_model)
    try:
        event = parse_event_literal(model.space, args.event)
    except ModelSpecError as exc:
        raise _InputError(f"--event: {exc}") from exc
    common = model.common_belief(event)
    mutual = model.mutual_belief(event)
    lines = [
        f"event: {event}",
        f"mutual belief: {mutual}",
        f"common belief: {common}",
    ]
    payload = _envelope("common-belief", "common-belief", True, [])
    payload["file"] = args.file
    payload["event"] = _event_json(event)
    payload["mutual-belief"] = _event_json(mutual)
    payload["common-belief"] = _event_json(common)
    em.emit(lines, payload)
    return 0


def _certainty_rows(model, signal, args) -> list[tuple[str, CertaintyReport]]:
    if args.common:
        return [("common", commonly_certain_of(model, signal))]
    if args.player is not None:
        if args.player not in model.players:
            raise _InputError(f"unknown player: {args.player!r}")
        return [(args.player, certain_of(model, args.player, signal))]
    return [(p, certain_of(model, p, signal)) for p in model.players]


def _cmd_certainty(args, em: _Emitter) -> int:
    doc = _load_document(args.file)
    model = _build(doc.belief_model)
    signal = _build(lambda: doc.signal(args.signal))
    rows = _certainty_rows(model, signal, args)
    codomain = signal.codomain
    passed = all(report.holds for _, report in rows)
    witnesses: list[str] = []
    lines: list[str] = []
    json_rows = []
    for who, report in rows:
        word = "commonly certain" if who == "common" else "certain"
        lines.append(
            f"signal {args.signal}, {_who_text(who)}: {word} {em.mark(report.holds)}"
        )
        failures = []
        for state, members in report.failures:
            shown = _value_set_text(members, codomain)
            witnesses.append(f"{who}: {state}/{shown}")
            lines.append(f"  failure at {state}: value-set {shown}")
            failures.append({"state": state, "value-set": shown})
        json_rows.append({"player": who, "holds": report.holds, "failures": failures})
    scope = "common" if args.common else (args.player or "all")
    payload = _envelope("certainty", f"certainty:{args.signal}:{scope}", passed, witnesses)
    payload["file"] = args.file
    payload["signal"] = args.signal
    payload["reports"] = json_rows
    em.emit(lines, payload)
    return 0 if passed else 1


def _who_text(who: str) -> str:
    return "all players" if who == "common" else f"player {who}"


def _cmd_meta(args, em: _Emitter) -> int:
    doc = _load_document(args.file)
    model = _build(doc.belief_model)
    _require_tables(model.space)
    report = meta_certainty_report(model)
    passed = report.commonly_certain
    witnesses: list[str] = []
    lines = [f"commonly certain of type profile: {em.mark(passed)}"]
    profile_rows = []
    for player, cert in zip(model.players, report.profile):
        lines.append(f"player {player} type-profile certainty {em.mark(cert.holds)}")
        if not cert.holds:
            witnesses.append(f"type-profile certainty fails for {player}")
        profile_rows.append({"player": player, "holds": cert.holds})
    pair_rows = []
    for pair in report.pairs:
        lines.append(
            f"pair ({pair.observer} observes {pair.subject}): "
            f"positive {em.mark(pair.positive.holds)} "
            f"negative {em.mark(pair.negative.holds)} "
            f"sigma-certain {em.mark(pair.certain_sigma.holds)}"
        )
        pair_rows.append(
            {
                "observer": pair.observer,
                "subject": pair.subject,
                "positive": pair.positive.holds,
                "negative": pair.negative.holds,
                "certain-sigma": pair.certain_sigma.holds,
            }
        )
    equal_rows = []
    for check in report.equal_operators:
        lines.append(f"{check.check}: {em.mark(check.holds)}")
        equal_rows.append({"check": check.check, "holds": check.holds})
    lines.append(f"common = mutual: {em.mark(report.common_equals_mutual.holds)}")
    player_rows = []
    for check in report.common_equals_player:
        lines.append(f"{check.check}: {em.mark(check.holds)}")
        player_rows.append({"check": check.check, "holds": check.holds})
    payload = _envelope("meta", "meta-certainty", passed, witnesses)
    payload["file"] = args.file
    payload["commonly-certain"] = report.commonly_certain
    payload["profile"] = profile_rows
    payload["pairs"] = pair_rows
    payload["equal-operators"] = equal_rows
    payload["common-equals-mutual"] = report.common_equals_mutual.holds
    payload["common-equals-player"] = player_rows
    em.emit(lines, payload)
    return 0 if passed else 1


def _cmd_game(args, em: _Emitter) -> int:
    doc = _load_document(args.file)
    gm: GameModel = _build(doc.game_model)
    _require_tables(gm.space)
    if args.state is not None and args.state not in gm.space.states:
        raise _InputError(f"unknown state: {args.state!r}")
    states = (args.state,) if args.state is not None else gm.space.states
    players = gm.game.players
    trace = iesda(gm.game, mode="maximal")
    lines = ["players: " + ", ".join(players)]
    lines.append(
        "iesda survivors: "
        + "; ".join(
            f"{p}: " + " ".join(alive)
            for p, alive in zip(players, trace.survivors)
        )
    )
    for k, removed in enumerate(trace.rounds, start=1):
        lines.append(
            f"  round {k}: removed " + ", ".join(f"{p}.{a}" for p, a in removed)
        )
    cert_rows = []
    for p in players:
        cert = strategy_certainty(gm, p)
        cert_rows.append({"player": p, "holds": cert.certainty.holds})
        lines.append(f"strategy certainty {p}: {em.mark(cert.certainty.holds)}")
    rat_rows = []
    for p in players:
        rat = rationality_event(gm, p)
        rat_rows.append({"player": p, "event": _event_json(rat)})
        lines.append(f"rationality {p}: {rat}")
    passed = True
    witnesses: list[str] = []
    state_rows = []
    for state in states:
        verdict = epistemic_iesda_verdict(gm, state)
        status = verdict.status.value
        profile = ", ".join(a for _, a in verdict.profile)
        if status == "violated":
            passed = False
            witnesses.append(f"{state}: ({profile})")
        lines.append(
            f"state {state}: {status}; profile ({profile}) "
            f"survives {em.mark(verdict.survives)}"
        )
        state_rows.append(
            {
                "state": state,
                "status": status,
                "profile": [list(pair) for pair in verdict.profile],
                "survives": verdict.survives,
            }
        )
    check_id = "game" if args.state is None else f"game:{args.state}"
    payload = _envelope("game", check_id, passed, witnesses)
    payload["file"] = args.file
    payload["players"] = list(players)
    payload["iesda"] = {
        "survivors": {p: list(a) for p, a in zip(players, trace.survivors)},
        "rounds": [[list(pair) for pair in rd] for rd in trace.rounds],
    }
    payload["strategy-certainty"] = cert_rows
    payload["rationality"] = rat_rows
    payload["states"] = state_rows
    em.emit(lines, payload)
    return 0 if passed else 1


def _audit_source(args) -> ModelSource:
    mode = MODE_ALIASES.get(args.mode, args.mode)
    if mode not in MODES:
        raise _InputError(
            f"unknown mode {args.mode!r}; choose from "
            + ", ".join(sorted(set(MODES) | set(MODE_ALIASES)))
        )
    if mode == "from-files":
        if not args.file:
            raise _InputError("from-files mode needs at least one --file")
        return ModelSource(mode=mode, files=tuple(args.file))
    return ModelSource(
        mode=mode,
        n_states=args.states,
        n_players=args.players,
        n_actions=args.actions,
        seed=args.seed,
        count=args.count,
    )


def _cmd_audit(args, em: _Emitter) -> int:
    try:
        spec = resolve_claim(args.claim)
        source = _audit_source(args)
        result = audit(spec.canonical, source, jobs=args.jobs, cap=args.cap)
    except (ModelSpecError, ValueError) as exc:
        raise _InputError(str(exc)) from exc
    lines = [f"claim: {result.claim}"]
    if result.aliases:
        lines[0] += " (" + ", ".join(result.aliases) + ")"
    lines.append(f"kind: {result.kind}")
    lines.append(f"summary: {result.summary}")
    lines.append(f"mode: {source.mode}")
    lines.append(f"instances: {result.instances}")
    for tally in result.directions:
        lines.append(
            f"{tally.direction}: confirmed {tally.confirmed}, "
            f"vacuous {tally.vacuous}, violated {tally.violated}"
        )
    if result.kind == "existence":
        lines.append(f"witnesses found: {result.counterexamples_total}")
    shown = result.counterexamples if result.kind == "existence" else result.violations
    for text in shown:
        lines.append("---")
        lines.extend("  " + ln for ln in text.rstrip().splitlines())
    lines.append(f"passed {em.mark(result.passed)}")
    payload = _envelope("audit", result.claim, result.passed, list(shown))
    payload["result"] = result.to_dict()
    em.emit(lines, payload)
    return 0 if result.passed else 1


def _cmd_enumerate(args, em: _Emitter) -> int:
    try:
        listed = list(enumerate_correspondences(args.states, tuple(args.filter)))
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    lines = [f"{len(listed)} correspondences on {args.states} states"]
    rows = []
    for corr in listed:
        parts = []
        for state in corr.space.states:
            parts.append(f"{state}: {corr.at(state)}")
        lines.append("  " + ", ".join(parts))
        rows.append({s: _event_json(corr.at(s)) for s in corr.space.states})
    payload = _envelope("enumerate", f"enumerate:{args.states}", True, [])
    payload["states"] = args.states
    payload["filters"] = list(args.filter)
    payload["count"] = len(listed)
    payload["correspondences"] = rows
    em.emit(lines, payload)
    return 0


# ---------------------------------------------------------------------------
# argument wiring


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first query and reused: parsing fills a new namespace
    # each time, and an `append` option copies its default list
    parser = argparse.ArgumentParser(
        prog="beliefcheck",
        description="Check finite qualitative belief models: axioms, common "
        "belief, certainty of signals and types, games, and claim audits.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument("--out", metavar="PATH", help="write the report to a file")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("axioms", help="check the nine belief axioms")
    p.add_argument("file", help="model file")
    p.add_argument("--player", help="restrict to one player")
    p.set_defaults(run=_cmd_axioms)

    p = sub.add_parser("common-belief", help="mutual and common belief of an event")
    p.add_argument("file", help="model file")
    p.add_argument("--event", required=True, help="event literal, e.g. '{ω1, ω2}'")
    p.set_defaults(run=_cmd_common_belief)

    p = sub.add_parser("certainty", help="certainty of a declared signal")
    p.add_argument("file", help="model file with a signal block")
    p.add_argument("--signal", required=True, help="signal name from the file")
    who = p.add_mutually_exclusive_group()
    who.add_argument("--player", help="one player's certainty")
    who.add_argument(
        "--common", action="store_true", help="common certainty across players"
    )
    p.set_defaults(run=_cmd_certainty)

    p = sub.add_parser("meta", help="certainty about the belief structure itself")
    p.add_argument("file", help="model file")
    p.set_defaults(run=_cmd_meta)

    p = sub.add_parser("game", help="rationality, IESDA, and the epistemic verdict")
    p.add_argument("file", help="model file with a game block")
    p.add_argument("--state", help="restrict the verdict to one state")
    p.set_defaults(run=_cmd_game)

    p = sub.add_parser(
        "audit",
        help="run one registered claim over a model source",
        epilog="claims: " + ", ".join(claim_ids()),
    )
    p.add_argument("--claim", required=True, help="claim id or alias")
    p.add_argument(
        "--mode",
        default=None,
        help="source mode: exhaustive, sampled, games, files (or canonical names)",
    )
    p.add_argument("--states", type=int, default=2, help="states per model")
    p.add_argument("--players", type=int, default=2, help="players per model")
    p.add_argument("--actions", type=int, default=2, help="actions per player")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument("--count", type=int, default=0, help="sampled instance count")
    p.add_argument(
        "--jobs", type=int, default=1,
        help="parallel worker count, at most one per CPU",
    )
    p.add_argument(
        "--cap", type=int, default=VIOLATION_CAP,
        help="listed violations/witnesses per report",
    )
    p.add_argument(
        "--file", action="append", default=[],
        help="model file for from-files mode (repeatable)",
    )
    p.set_defaults(run=_cmd_audit)

    p = sub.add_parser("enumerate", help="list possibility correspondences")
    p.add_argument("--states", type=int, required=True, help="state count")
    p.add_argument(
        "--filter", action="append", default=[],
        help="frame property: serial, reflexive, transitive, euclidean (repeatable)",
    )
    p.set_defaults(run=_cmd_enumerate)
    return parser


def run_cli(argv: Sequence[str] | None = None) -> int:
    """Parse arguments, run one subcommand, emit one report."""
    args = _parser().parse_args(argv)
    if args.command == "audit" and args.mode is None:
        args.mode = "from-files" if args.file else "exhaustive-kripke"
    em = _Emitter(args.format, args.out)
    try:
        return args.run(args, em)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> int:
    return run_cli()


if __name__ == "__main__":
    sys.exit(main())
