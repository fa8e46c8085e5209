"""Command-line interface: subcommands, formats, and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import beliefcheck
from beliefcheck import cli
from beliefcheck.audit import _CLAIMS
from beliefcheck.cli import run_cli

GOLDEN = Path(__file__).parent / "golden"
BLINDSPOT = str(GOLDEN / "blindspot.bm")
PD = str(GOLDEN / "pd.bm")
FC_VIOLATION = str(GOLDEN / "fc_violation.bm")


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAxioms:
    def test_blindspot_report(self, capsys):
        code, out, _ = run(capsys, "axioms", BLINDSPOT, "--player", "1")
        assert code == 1
        assert "TruthAxiom ✓" in out
        assert "NegativeIntrospection ✗ witness ω3/{ω1}" in out
        assert "PositiveIntrospection ✓" in out

    def test_all_players_by_default(self, capsys):
        code, out, _ = run(capsys, "axioms", BLINDSPOT)
        assert out.count("player") == 2

    def test_partition_model_passes(self, capsys):
        code, out, _ = run(capsys, "axioms", PD)
        assert code == 0
        assert "✗" not in out

    def test_unknown_player(self, capsys):
        code, _, err = run(capsys, "axioms", BLINDSPOT, "--player", "9")
        assert code == 2
        assert "unknown player" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "axioms", "no-such-file.bm")
        assert code == 2
        assert "cannot read" in err

    def test_non_monotone_table_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "table.bm"
        path.write_text(
            "states a b; player i { table { {}: {a}, {a}: {}, {b}: {}, {a, b}: {a, b} } }",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "axioms", str(path))
        assert code == 2
        assert out == ""
        assert err == (
            "error: not monotone: {} is contained in {a} but B{} = {a} "
            "is not contained in B{a} = {}\n"
        )


class TestCommonBelief:
    def test_empty_event_stays_empty(self, capsys):
        code, out, _ = run(capsys, "common-belief", PD, "--event", "{}")
        assert code == 0
        assert "common belief: {}" in out

    def test_full_event(self, capsys):
        code, out, _ = run(
            capsys, "common-belief", BLINDSPOT, "--event", "{ω1, ω2, ω3}"
        )
        assert code == 0
        assert "common belief: {ω1, ω2, ω3}" in out

    def test_bad_event_literal(self, capsys):
        code, _, err = run(capsys, "common-belief", PD, "--event", "ω1")
        assert code == 2
        assert "--event" in err

    def test_unknown_state_in_event(self, capsys):
        code, _, err = run(capsys, "common-belief", PD, "--event", "{ω9}")
        assert code == 2

    def test_event_uses_the_model_file_set_grammar(self, capsys):
        for event in ("{ω1 ω2}", "{ω1, ω1}"):
            code, out, err = run(capsys, "common-belief", PD, "--event", event)
            assert code == 2
            assert out == ""
            assert len(err.splitlines()) == 1
            assert err.startswith("error: --event: ")


class TestCertainty:
    def test_uniform_signal_certain(self, capsys):
        code, out, _ = run(
            capsys, "certainty", BLINDSPOT, "--signal", "uniform", "--player", "1"
        )
        assert code == 0
        assert "certain ✓" in out

    def test_mixed_signal_fails_at_blindspot(self, capsys):
        code, out, _ = run(capsys, "certainty", BLINDSPOT, "--signal", "mixed")
        assert code == 1
        assert out.count("failure at ω3: value-set {a}") == 2

    def test_common_certainty(self, capsys):
        code, out, _ = run(
            capsys, "certainty", BLINDSPOT, "--signal", "uniform", "--common"
        )
        assert code == 0
        assert "commonly certain" in out

    def test_player_and_common_conflict(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                ["certainty", BLINDSPOT, "--signal", "uniform",
                 "--player", "1", "--common"]
            )
        assert exc.value.code == 2

    def test_unknown_signal(self, capsys):
        code, _, err = run(capsys, "certainty", BLINDSPOT, "--signal", "nope")
        assert code == 2
        assert "unknown signal" in err


class TestMeta:
    def test_blindspot_not_commonly_certain(self, capsys):
        code, out, _ = run(capsys, "meta", BLINDSPOT)
        assert code == 1
        assert "commonly certain of type profile: ✗" in out
        assert "positive ✓ negative ✗" in out

    def test_partition_model_commonly_certain(self, capsys):
        code, out, _ = run(capsys, "meta", PD)
        assert code == 0
        assert "commonly certain of type profile: ✓" in out


class TestGame:
    def test_pd_survivors(self, capsys):
        code, out, _ = run(capsys, "game", PD)
        assert code == 0
        assert "iesda survivors: row: D; col: D" in out
        assert "removed row.C, col.C" in out

    def test_single_state(self, capsys):
        code, out, _ = run(capsys, "game", PD, "--state", "ω1")
        assert code == 0
        assert "state ω1: confirmed" in out
        assert "state ω2" not in out

    def test_unknown_state(self, capsys):
        code, _, err = run(capsys, "game", PD, "--state", "ω7")
        assert code == 2

    def test_file_without_game_block(self, capsys):
        code, _, err = run(capsys, "game", BLINDSPOT)
        assert code == 2
        assert "no game" in err

    def test_game_without_declared_players(self, capsys, tmp_path):
        path = tmp_path / "game.bm"
        path.write_text(
            "states a;\ngame { actions i: l; rank i: (l) = 0; strategy i { a -> l } }\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "game", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: document declares no players\n"

    def test_fc_violation_is_vacuous_not_violated(self, capsys):
        # Finite Conjunction fails, so the rationality-belief premise
        # chain never fires; the verdict must not report a violation
        code, out, _ = run(capsys, "game", FC_VIOLATION)
        assert code == 0


class TestAudit:
    def test_spec_mode_shorthand(self, capsys):
        code, out, _ = run(
            capsys, "audit", "--claim", "prop1-1a", "--mode", "exhaustive",
            "--states", "2",
        )
        assert code == 0
        assert "passed ✓" in out

    def test_canonical_mode_name(self, capsys):
        code, _, _ = run(
            capsys, "audit", "--claim", "prop1-1a", "--mode", "exhaustive-kripke",
            "--states", "2",
        )
        assert code == 0

    def test_existence_claim_lists_witnesses(self, capsys):
        code, out, _ = run(
            capsys, "audit", "--claim", "beta-not-negbeta-exists",
            "--mode", "exhaustive", "--states", "2", "--cap", "2",
        )
        assert code == 0
        assert "witnesses found: 6" in out
        assert out.count("states ω1 ω2;") == 2

    def test_unfound_existence_fails(self, capsys):
        code, out, _ = run(
            capsys, "audit", "--claim", "strict-iteration-gap",
            "--mode", "exhaustive", "--states", "2",
        )
        assert code == 1
        assert "passed ✗" in out

    def test_observational_claim_passes_with_recordings(self, capsys):
        code, out, _ = run(
            capsys, "audit", "--claim", "prop4-side-condition",
            "--mode", "exhaustive", "--states", "2",
        )
        assert code == 0

    def test_unknown_claim(self, capsys):
        code, _, err = run(capsys, "audit", "--claim", "nope", "--mode", "exhaustive")
        assert code == 2
        assert "unknown claim" in err

    def test_unknown_mode(self, capsys):
        code, _, err = run(capsys, "audit", "--claim", "prop1-1a", "--mode", "meh")
        assert code == 2
        assert "unknown mode" in err

    def test_files_mode_needs_file(self, capsys):
        code, _, err = run(capsys, "audit", "--claim", "prop1-1a", "--mode", "files")
        assert code == 2
        assert "--file" in err

    def test_file_defaults_to_files_mode(self, capsys):
        code, out, _ = run(
            capsys, "audit", "--claim", "remark1-1a", "--file", BLINDSPOT,
        )
        assert code == 0
        assert "instances: 1" in out

    def test_sampled_without_count(self, capsys):
        code, _, err = run(
            capsys, "audit", "--claim", "prop1-1a", "--mode", "sampled",
        )
        assert code == 2
        assert "count" in err

    @pytest.mark.parametrize(
        "size", [("--states", "1", "--actions", "1"), ("--players", "1")]
    )
    def test_game_sweep_size_is_input_error(self, capsys, size):
        code, out, err = run(
            capsys, "audit", "--claim", "epistemic-iesda", "--mode", "games", *size,
        )
        assert code == 2
        assert out == ""
        assert "2 states, 2 players, 2 actions" in err

    @pytest.mark.parametrize(
        "source",
        [
            ("--mode", "exhaustive", "--states", "1", "--players", "1"),
            ("--mode", "sampled", "--count", "3", "--players", "1"),
            ("--mode", "sampled", "--count", "3", "--players", "5"),
        ],
    )
    def test_pair_claim_player_count_is_input_error(self, capsys, source):
        # pair sweeps audit two-player models only; another count would
        # be reported over instances that do not have it
        code, out, err = run(
            capsys, "--format", "json", "audit", "--claim", "thm1-2", *source,
        )
        assert code == 2
        assert out == ""
        assert "pair claims take exactly 2 players" in err

    def test_sampled_game_profile_limit_is_input_error(self, capsys):
        code, out, err = run(
            capsys, "audit", "--claim", "thm2", "--mode", "sampled", "--states", "2",
            "--players", "6", "--actions", "10", "--count", "1",
        )
        assert code == 2
        assert out == ""
        assert "action profiles" in err

    def test_sampled_game_action_limit_is_input_error(self, capsys):
        code, out, err = run(
            capsys, "audit", "--claim", "thm2", "--mode", "sampled",
            "--actions", "12", "--count", "1",
        )
        assert code == 2
        assert out == ""
        assert "capped at 10 actions per player" in err

    def test_mode_restriction_reported_as_input_error(self, capsys):
        code, _, err = run(
            capsys, "audit", "--claim", "thm2", "--mode", "exhaustive",
        )
        assert code == 2
        assert "accepts source modes" in err

    def test_games_mode_on_file(self, capsys):
        code, out, _ = run(
            capsys, "audit", "--claim", "epistemic-iesda", "--file", PD,
        )
        assert code == 0

    def test_negative_cap_is_input_error(self, capsys):
        code, out, err = run(
            capsys, "audit", "--claim", "strict-iteration-gap", "--mode", "sampled",
            "--states", "3", "--count", "20000", "--cap", "-1",
        )
        assert code == 2
        assert out == ""
        assert "cap must not be negative" in err


# the 13 pair claims, whose instances pair an observer with a subject
PAIR_CLAIMS = tuple(
    spec.canonical for spec in _CLAIMS if spec.arena == "pair"
)
ONE_PLAYER = """states ω1 ω2;

player 1 {
  table {
    {}: {},
    {ω1}: {ω1},
    {ω2}: {},
    {ω1, ω2}: {ω1, ω2}
  }
}
"""


class TestOnePlayerFiles:
    def test_every_pair_claim_is_listed(self):
        assert len(PAIR_CLAIMS) == 13

    @pytest.mark.parametrize("claim", PAIR_CLAIMS)
    def test_pair_claims_refuse_one_player(self, capsys, tmp_path, claim):
        path = tmp_path / "one.bm"
        path.write_text(ONE_PLAYER, encoding="utf-8")
        code, out, err = run(capsys, "audit", "--claim", claim, "--file", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: pair claims need a model with at least two players\n"


class TestParserReuse:
    def test_options_do_not_carry_over(self, capsys):
        # the parser is built once; an `append` option and the mode
        # default still start afresh on every call
        assert cli._parser() is cli._parser()
        results = []
        for claim, *rest in (
            ("epistemic-iesda", "--file", PD, "--file", PD),
            ("prop1-1a", "--states", "1"),
            ("epistemic-iesda", "--file", PD),
        ):
            code, out, _ = run(capsys, "--format", "json", "audit", "--claim", claim, *rest)
            assert code == 0
            results.append(json.loads(out)["result"])
        assert [r["files"] for r in results] == [[PD, PD], [], [PD]]
        assert [r["mode"] for r in results] == ["from-files", "exhaustive-kripke", "from-files"]


# every command that reads model files, with the path to read last
READING_COMMANDS = [
    ("axioms",),
    ("common-belief", "--event", "{ω1}"),
    ("certainty", "--signal", "x"),
    ("meta",),
    ("game",),
    ("audit", "--claim", "prop1-1a", "--mode", "files", "--file"),
    ("audit", "--claim", "epistemic-iesda", "--file", PD, "--file"),
]


class TestUnusableFiles:
    """A model file that cannot be read as UTF-8 text, or an --out path
    that cannot be written, is unusable input: exit 2 with one error
    line naming the path, and no traceback."""

    @pytest.mark.parametrize(
        "command",
        READING_COMMANDS,
        ids=["axioms", "common-belief", "certainty", "meta", "game", "audit", "audit-2nd"],
    )
    @pytest.mark.parametrize(
        "make, reason",
        [
            (lambda d: d / "missing.bm", "No such file or directory"),
            (lambda d: d, "Is a directory"),
            (
                lambda d: d / "latin1.bm",
                "'utf-8' codec can't decode byte 0xff in position 0: "
                "invalid start byte",
            ),
        ],
        ids=["missing", "directory", "not-utf8"],
    )
    def test_unreadable_model_file(self, capsys, tmp_path, command, make, reason):
        (tmp_path / "latin1.bm").write_bytes(b"\xffmodel")
        path = str(make(tmp_path))
        code, out, err = run(capsys, *command, path)
        assert code == 2
        assert out == ""
        assert err == f"error: cannot read {path}: {reason}\n"

    @pytest.mark.parametrize(
        "make, reason",
        [
            (lambda d: d / "no-dir" / "x.json", "No such file or directory"),
            (lambda d: d, "Is a directory"),
        ],
        ids=["missing-directory", "directory"],
    )
    def test_unwritable_out(self, capsys, tmp_path, make, reason):
        path = str(make(tmp_path))
        code, out, err = run(capsys, "--out", path, "axioms", BLINDSPOT)
        assert code == 2
        assert out == ""
        assert err == f"error: cannot write {path}: {reason}\n"


class TestEnumerate:
    def test_counts(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--states", "2")
        assert code == 0
        assert out.startswith("16 correspondences on 2 states")
        assert len(out.rstrip().splitlines()) == 17

    def test_filtered(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--states", "2", "--filter", "reflexive"
        )
        assert out.startswith("4 correspondences")

    def test_cap(self, capsys):
        code, _, err = run(capsys, "enumerate", "--states", "4")
        assert code == 2

    def test_bad_filter(self, capsys):
        code, _, err = run(
            capsys, "enumerate", "--states", "2", "--filter", "nope"
        )
        assert code == 2
        assert "unknown frame property" in err


class TestJsonFormat:
    def test_envelope_field_order(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "certainty", BLINDSPOT,
            "--signal", "mixed", "--player", "1",
        )
        payload = json.loads(out)
        assert list(payload)[:5] == [
            "tool-version", "command", "id", "verdict", "witnesses",
        ]
        assert payload["verdict"] == "fail"
        assert payload["witnesses"] == ["1: ω3/{a}"]

    def test_audit_embeds_result_dict(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "audit", "--claim", "prop1-1a",
            "--mode", "exhaustive", "--states", "2",
        )
        payload = json.loads(out)
        assert payload["result"]["instances"] == 16
        assert payload["result"]["passed"] is True

    def test_fixed_seed_reports_identical(self, capsys):
        argv = (
            "--format", "json", "audit", "--claim", "prop1-2b",
            "--mode", "sampled", "--states", "3", "--seed", "5",
            "--count", "200",
        )
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_game_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "game", PD)
        payload = json.loads(out)
        assert payload["iesda"]["survivors"] == {"row": ["D"], "col": ["D"]}
        assert [row["status"] for row in payload["states"]] == [
            "confirmed", "vacuous",
        ]

    def test_enumerate_json(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "enumerate", "--states", "1"
        )
        payload = json.loads(out)
        assert payload["count"] == 2
        assert payload["correspondences"] == [{"ω1": []}, {"ω1": ["ω1"]}]


class TestOutputPlumbing:
    def test_out_writes_file_and_not_stdout(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "--format", "json", "--out", str(target),
            "axioms", PD,
        )
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert payload["command"] == "axioms"

    def test_color_only_on_tty_without_no_color(self, capsys, monkeypatch):
        monkeypatch.setattr(sys.stdout, "isatty", lambda: True, raising=False)
        monkeypatch.delenv("NO_COLOR", raising=False)
        _, colored, _ = run(capsys, "axioms", PD)
        assert "\x1b[32m" in colored
        monkeypatch.setenv("NO_COLOR", "1")
        _, plain, _ = run(capsys, "axioms", PD)
        assert "\x1b[" not in plain

    def test_no_color_off_tty(self, capsys):
        _, out, _ = run(capsys, "axioms", PD)
        assert "\x1b[" not in out

    def test_python_dash_m_runs_the_cli(self):
        src = str(Path(beliefcheck.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        # the package does not import cli, so runpy has no cause to warn
        for module in ("beliefcheck", "beliefcheck.cli"):
            done = subprocess.run(
                [sys.executable, "-W", "error", "-m", module,
                 "--format", "json", "axioms", PD],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert done.returncode == 0, (module, done.stderr)
            assert done.stderr == ""
            assert json.loads(done.stdout)["command"] == "axioms"

    def test_table_commands_reject_models_above_the_table_limit(self, capsys, tmp_path):
        states = [f"s{k}" for k in range(1, 18)]
        rows = ",\n".join(f"{s}: {{{s}}}" for s in states)
        signal = ",\n".join(f"{s} -> a" for s in states)
        strategy = ",\n".join(f"{s} -> C" for s in states)
        path = tmp_path / "large.bm"
        path.write_text(
            f"states {' '.join(states)};\n"
            f"player 1 {{ kripke {{\n{rows}\n}} }}\n"
            f"signal flat : a b {{\n{signal}\n}} family {{ {{a}}, {{b}} }}\n"
            "game {\n actions 1: C D;\n rank 1: (C) = 1;\n rank 1: (D) = 0;\n"
            f" strategy 1 {{\n{strategy}\n}}\n}}\n",
            encoding="utf-8",
        )
        for command in ("axioms", "meta", "game"):
            code, out, err = run(capsys, command, str(path))
            assert code == 2, command
            assert out == ""
            assert err.count("\n") == 1 and err.startswith("error: 17 states")
            assert "at most 16 states" in err
        # commands that need no event tables still run
        assert run(capsys, "certainty", str(path), "--signal", "flat")[0] == 0
        assert run(capsys, "common-belief", str(path), "--event", "{s1, s2}")[0] == 0

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["--version"])
        assert exc.value.code == 0
