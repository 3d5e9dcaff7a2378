"""Command-line behavior: exit codes, formats, reproducibility, verify."""

import csv
import io
import json
import math
import os
import runpy
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trinegamble import cli, montecarlo, verify
from trinegamble.cli import (
    ENV_SEED,
    SIM_COLUMNS,
    SWEEP_R_COLUMNS,
    SWEEP_THETA_COLUMNS,
    build_parser,
    main,
)
from trinegamble.montecarlo import SimResult
from trinegamble.protocol import leaf_transcript
from trinegamble.strategies import aligned_pair
from trinegamble.verify import (
    check_no_signalling,
    check_povm_completeness,
    check_povm_positivity,
    check_table_rows,
)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# simulate


def test_simulate_csv_roundtrip(capsys):
    code, out, err = _run(capsys, [
        "simulate", "--alice", "honest", "--bob", "honest",
        "--rounds", "2000", "--seed", "5"])
    assert code == 0
    header, rows = _parse_csv(out)
    assert tuple(header) == SIM_COLUMNS
    assert len(rows) == 1
    rec = dict(zip(header, rows[0]))
    assert int(rec["rounds"]) == 2000
    assert int(rec["win_count"]) + int(rec["lose_count"]) == 2000
    assert rec["aborted"] == "false"
    assert float(rec["mean_gain_alice"]) == -float(rec["mean_gain_bob"])
    assert err.startswith("# trinegamble simulate ")


def test_simulate_requires_rounds(capsys):
    code, out, err = _run(capsys, ["simulate", "--alice", "honest"])
    assert code == 1
    assert "error:" in err and out == ""


def test_simulate_jsonl(capsys):
    code, out, _ = _run(capsys, [
        "simulate", "--rounds", "500", "--seed", "1", "--format", "jsonl"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert set(rec) == set(SIM_COLUMNS)
    assert rec["aborted"] is False


def test_simulate_output_file(tmp_path, capsys):
    target = tmp_path / "run.csv"
    code, out, _ = _run(capsys, [
        "simulate", "--rounds", "300", "--seed", "2", "--output", str(target)])
    assert code == 0 and out == ""
    header, rows = _parse_csv(target.read_text())
    assert tuple(header) == SIM_COLUMNS and len(rows) == 1


def test_simulate_deterministic_stdout(capsys):
    args = ["simulate", "--rounds", "1500", "--seed", "77"]
    _, out1, _ = _run(capsys, args)
    _, out2, _ = _run(capsys, args)
    assert out1 == out2


@pytest.mark.parametrize("argv", [
    ["simulate", "--alice", "fixed:theta_a=1.0,claim=b", "--rounds", "500", "--seed", "9"],
    ["analytic", "--theta-a", "1.0", "--rate-r", "0.1"],
    ["sweep-theta", "--points", "3", "--rounds", "300", "--seed", "4"],
    ["sweep-theta", "--theta-list", "0.5,1", "--rounds", "300", "--penalty-R", "98"],
    ["sweep-r", "--r-list", "0.1,0.05", "--rounds", "300", "--seed", "4"],
    ["verify", "--trials", "5", "--grid-points", "4", "--seed", "2"],
], ids=["simulate", "analytic", "sweep-theta-points", "sweep-theta-list", "sweep-r", "verify"])
def test_effective_config_line_reproduces_the_run(capsys, argv):
    code, out1, err1 = _run(capsys, argv)
    assert code == 0
    line = next(l for l in err1.splitlines() if l.startswith("# trinegamble "))
    tokens = shlex.split(line[len("# trinegamble "):])
    code2, out2, err2 = _run(capsys, tokens)
    assert code2 == 0
    assert out2 == out1
    assert next(l for l in err2.splitlines() if l.startswith("# ")) == line


ECHO_LINES = [
    (["simulate", "--rounds", "10", "--seed", "3", "--noise", "0.1", "--abort-threshold", "0.5",
      "--workers", "2", "--bob", "random"],
     "simulate --alice=honest --bob=random --rounds=10 --seed=3 --rate-r=0.05 --penalty-R=398.0 "
     "--noise=0.1 --abort-threshold=0.5 --abort-min-checks=1 --workers=2 --transcript= "
     "--format=csv --output=-"),
    (["analytic", "--theta-a", "1", "--format", "jsonl"],
     "analytic --theta-a=1.0 --rate-r=0.05 --penalty-R=398.0 --format=jsonl --output=-"),
    (["sweep-theta", "--theta-list", "0.5,1", "--rounds", "10", "--seed", "7", "--rate-r", "0.1"],
     "sweep-theta --rate-r=0.1 --penalty-R=398.0 --points=2 --theta-list=0.5,1.0 --rounds=10 "
     "--seed=7 --workers=1 --format=csv --output=-"),
    (["sweep-r", "--r-list", "0.1,0.05", "--k", "10", "--rounds", "10"],
     "sweep-r --r-list=0.1,0.05 --k=10.0 --rounds=10 --seed=12 --workers=1 --format=csv "
     "--output=-"),
    (["verify", "--trials", "3", "--grid-points", "2", "--seed", "1"],
     "verify --seed=1 --trials=3 --grid-points=2"),
]


@pytest.mark.parametrize("argv, line", ECHO_LINES, ids=[argv[0] for argv, _ in ECHO_LINES])
def test_effective_config_line_is_pinned(monkeypatch, capsys, argv, line):
    # every flag of the command in --help order, the seed resolved (here
    # from the environment for sweep-r)
    monkeypatch.setenv(ENV_SEED, "12")
    code, _, err = _run(capsys, argv)
    assert code == 0
    assert err.splitlines()[0] == f"# trinegamble {line}"


def test_transcript_stream(tmp_path, capsys):
    path = tmp_path / "rounds.jsonl"
    code, _, _ = _run(capsys, [
        "simulate", "--rounds", "400", "--seed", "3", "--rate-r", "0.5",
        "--transcript", str(path)])
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 400
    kinds = {json.loads(l)["kind"] for l in lines}
    assert kinds == {"normal", "checking"}
    rec = json.loads(lines[0])
    assert set(rec) == {"kind", "sent", "guess", "result", "claimed", "check",
                        "alice_delta", "bob_delta"}


def test_abort_exits_three(capsys):
    code, out, _ = _run(capsys, [
        "simulate", "--alice", f"fixed:theta_a={2.0 * math.pi / 3.0},claim=a",
        "--rounds", "50000", "--seed", "4", "--rate-r", "0.5",
        "--abort-threshold", "0.25", "--abort-min-checks", "10"])
    assert code == 3
    header, rows = _parse_csv(out)
    rec = dict(zip(header, rows[0]))
    assert rec["aborted"] == "true"
    assert int(rec["rounds"]) < 50000


# ---------------------------------------------------------------------------
# seeds


def test_env_seed_fallback(monkeypatch, capsys):
    monkeypatch.setenv(ENV_SEED, "123")
    _, out_env, err_env = _run(capsys, ["simulate", "--rounds", "800"])
    monkeypatch.delenv(ENV_SEED)
    _, out_flag, _ = _run(capsys, ["simulate", "--rounds", "800", "--seed", "123"])
    assert out_env == out_flag
    assert "--seed=123" in err_env


def test_flag_overrides_env_seed(monkeypatch, capsys):
    monkeypatch.setenv(ENV_SEED, "123")
    _, out, _ = _run(capsys, ["simulate", "--rounds", "800", "--seed", "9"])
    monkeypatch.delenv(ENV_SEED)
    _, out9, _ = _run(capsys, ["simulate", "--rounds", "800", "--seed", "9"])
    assert out == out9


def test_bad_env_seed_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv(ENV_SEED, "not-a-number")
    code, _, err = _run(capsys, ["simulate", "--rounds", "10"])
    assert code == 1 and ENV_SEED in err
    monkeypatch.setenv(ENV_SEED, "-1")
    code, _, err = _run(capsys, ["simulate", "--rounds", "10"])
    assert code == 1 and err.splitlines()[-1] == "error: --seed must lie in [0, 2**64), got -1"


# ---------------------------------------------------------------------------
# validation errors all exit 1


@pytest.mark.parametrize("argv", [
    ["simulate", "--rounds", "100", "--alice", "teleport"],
    ["simulate", "--rounds", "100", "--bob", "psychic"],
    ["simulate", "--rounds", "100", "--rate-r", "1.0"],
    ["simulate", "--rounds", "100", "--penalty-R", "0"],
    ["simulate", "--rounds", "0"],
    ["simulate", "--rounds", "100", "--format", "xml"],
    ["analytic", "--theta-a", "7.0"],
    ["analytic"],
    ["sweep-theta", "--points", "1", "--rounds", "10"],
    ["sweep-theta", "--theta-list", "0.1,zebra", "--rounds", "10"],
    ["sweep-r", "--r-list", "", "--rounds", "10"],
    ["sweep-r", "--k", "1.5", "--rounds", "10"],
    ["no-such-command"],
    [],
    ["simulate", "--alice", "mixture:nan:a:a", "--rounds", "1000", "--seed", "1"],
    ["simulate", "--rounds", "100000", "--penalty-R", "inf", "--alice", "fixed:theta_a=1,claim=a"],
    ["sweep-theta", "--theta-list", "1", "--rounds", "1000", "--penalty-R", "inf"],
    ["analytic", "--theta-a", "1", "--rate-r", "0.05", "--penalty-R", "inf"],
    ["sweep-theta", "--theta-list", "0.1,0.2", "--rounds", "200000",
     "--seed", "18446744073709551615"],
    ["sweep-r", "--r-list", "0.1,0.05", "--rounds", "200000", "--seed", "18446744073709551615"],
    ["verify", "--trials", "0", "--grid-points", "0"],
    ["verify", "--trials", "-3"],
    ["verify", "--trials", "0"],
    ["verify", "--grid-points", "1"],
    ["simulate", "--alice", "mixture:1:inf:a", "--rounds", "10"],
    ["simulate", "--alice", "mixture:1:-inf:a", "--rounds", "10"],
    ["simulate", "--alice", "fixed:theta_a=0.5,claim=a,claim=b", "--rounds", "10"],
    ["simulate", "--alice", "entangled:random:-1", "--rounds", "10"],
    ["verify", "--seed", "-1"],
    ["simulate", "--rounds", "10", "--seed", "-1"],
    ["simulate", "--alice", "mixture:0.5000000003:a:a;0.5:b:b", "--rounds", "10"],
])
def test_usage_and_validation_errors(capsys, argv):
    code, _, err = _run(capsys, argv)
    assert code == 1
    assert "error:" in err.lower()
    if "mixture:1:inf:a" in argv or "mixture:1:-inf:a" in argv:
        # names the field and the value, not just "math domain error"
        assert "state angle must be finite" in err and "inf'" in err
    if "mixture:0.5000000003:a:a;0.5:b:b" in argv:
        # refused as enumerate_exact would refuse it, in one line
        assert err == "error: component probabilities must sum to 1, got 1.0000000003\n"
    if "fixed:theta_a=0.5,claim=a,claim=b" in argv:
        # a repeated key is named, not silently overwritten
        assert "repeated fixed parameter 'claim'" in err
    if "entangled:random:-1" in argv:
        assert "entangled:random" in err and "'-1'" in err
    if argv[-2:] == ["--seed", "-1"]:
        want = {"verify": "must be nonnegative", "simulate": "must lie in [0, 2**64)"}[argv[0]]
        assert f"error: --seed {want}, got -1" in err


@pytest.mark.parametrize("flag", ["--transcript", "--output"])
def test_unopenable_output_path_exits_one(tmp_path, capsys, flag):
    target = tmp_path / "missing" / "x.out"
    code, _, err = _run(capsys, ["simulate", "--rounds", "10", "--seed", "1", flag, str(target)])
    assert code == 1
    assert err.splitlines()[-1].startswith("error: ") and str(target) in err


def _no_simulate(config, transcript_sink=None):
    raise AssertionError("a round was played before the bad input was rejected")


@pytest.mark.parametrize("argv", [
    ["simulate", "--rounds", "300000"],
    ["sweep-theta", "--theta-list", "0.1,0.2", "--rounds", "200000"],
    ["sweep-r", "--r-list", "0.1,0.05", "--rounds", "200000"],
])
def test_unopenable_output_fails_before_any_round(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.setattr("trinegamble.cli.simulate", _no_simulate)
    target = tmp_path / "missing" / "x.csv"
    code, out, err = _run(capsys, argv + ["--seed", "1", "--output", str(target)])
    assert code == 1 and out == ""
    assert err.splitlines()[-1].startswith("error: ") and str(target) in err


def test_a_bad_sweep_angle_fails_before_any_row(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("trinegamble.cli.simulate", _no_simulate)
    target = tmp_path / "out.csv"
    code, out, err = _run(capsys, ["sweep-theta", "--theta-list", "0.1,4", "--rounds", "300000",
                                   "--seed", "1", "--output", str(target)])
    assert code == 1 and out == "" and not target.exists()
    assert err.splitlines()[-1] == "error: cheat angle must lie in [0, pi], got 4.0"


@pytest.mark.parametrize("flag, message", [
    ("--rounds", "need at least one round, got 0"),
    ("--workers", "need at least one worker, got 0"),
])
@pytest.mark.parametrize("command", ["sweep-theta", "sweep-r"])
def test_bad_sweep_flags_leave_the_output_untouched(tmp_path, monkeypatch, capsys, command,
                                                    flag, message):
    monkeypatch.setattr("trinegamble.cli.simulate", _no_simulate)
    target = tmp_path / "out.csv"
    target.write_bytes(b"a line that must survive\n")
    argv = [command, "--rounds", "10", "--seed", "1", flag, "0", "--output", str(target)]
    code, out, err = _run(capsys, argv)
    assert code == 1 and out == ""
    assert err.splitlines()[-1] == f"error: {message}"
    assert target.read_bytes() == b"a line that must survive\n"


@pytest.mark.parametrize("bad", ["--transcript", "--output"])
def test_a_bad_simulate_path_leaves_the_other_file_untouched(tmp_path, monkeypatch, capsys, bad):
    monkeypatch.setattr("trinegamble.cli.simulate", _no_simulate)
    missing = str(tmp_path / "missing" / "x.out")
    good = tmp_path / "kept.out"
    good.write_bytes(b"a line that must survive\n")
    other = {"--transcript": "--output", "--output": "--transcript"}[bad]
    code, out, err = _run(capsys, ["simulate", "--rounds", "10", "--seed", "1",
                                   bad, missing, other, str(good)])
    assert code == 1 and out == ""
    assert err.splitlines()[-1].startswith("error: ") and missing in err
    assert good.read_bytes() == b"a line that must survive\n"
    # once both open, both are replaced
    second = tmp_path / "second.out"
    second.write_bytes(b"x" * 10_000)
    monkeypatch.undo()
    code, out, err = _run(capsys, ["simulate", "--rounds", "10", "--seed", "1",
                                   bad, str(second), other, str(good)])
    assert code == 0, err
    transcript, output = (second, good) if bad == "--transcript" else (good, second)
    assert len(transcript.read_text().splitlines()) == 10
    assert output.read_text().startswith("rounds,") and len(output.read_text().splitlines()) == 2


@pytest.mark.parametrize("flag", ["--transcript", "--output"])
def test_a_device_path_is_written_like_a_file(capsys, flag):
    code, _, err = _run(capsys, ["simulate", "--rounds", "10", "--seed", "1", flag, os.devnull])
    assert code == 0, err


def test_transcript_to_standard_output_is_rejected(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("trinegamble.cli.simulate", _no_simulate)
    monkeypatch.chdir(tmp_path)
    code, out, err = _run(capsys, ["simulate", "--rounds", "10", "--seed", "1",
                                   "--transcript", "-"])
    assert code == 1 and out == ""
    assert err.splitlines()[-1] == (
        "error: --transcript needs a file path; standard output carries the result")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["sweep-theta", "sweep-r"])
def test_sweep_seeds_past_uint64_fail_before_any_row(monkeypatch, capsys, command):
    monkeypatch.setattr("trinegamble.cli.simulate", _no_simulate)
    last = str(2 ** 64 - 2)
    code, _, err = _run(capsys, [command, "--rounds", "200000", "--seed", last])
    assert code == 1 and "--seed" in err and str(2 ** 64) not in err
    # the same seed fits a sweep of two rows
    monkeypatch.undo()
    code, _, err = _run(capsys, [command, "--rounds", "10", "--seed", last,
                                 "--theta-list" if command == "sweep-theta" else "--r-list",
                                 "0.5,1.0" if command == "sweep-theta" else "0.1,0.05"])
    assert code == 0, err


def test_transcript_and_output_on_one_file_is_rejected(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("trinegamble.cli.simulate", _no_simulate)
    target = tmp_path / "run.out"
    code, _, err = _run(capsys, ["simulate", "--rounds", "10", "--seed", "1",
                                 "--transcript", str(target), "--output", str(target)])
    assert code == 1 and "same file" in err


# ---------------------------------------------------------------------------
# analytic


def test_analytic_frozen_point(capsys):
    code, out, err = _run(capsys, [
        "analytic", "--theta-a", str(math.pi), "--rate-r", "0.05",
        "--penalty-R", "98"])
    assert code == 0
    header, rows = _parse_csv(out)
    rec = dict(zip(header, rows[0]))
    assert float(rec["gain_total"]) == pytest.approx(-3.0, abs=1e-12)
    assert float(rec["gain_normal"]) == pytest.approx(2.0, abs=1e-12)
    assert float(rec["gain_checking"]) == pytest.approx(-98.0, abs=1e-12)
    assert err.startswith("# trinegamble analytic ")


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_theta_table(capsys):
    code, out, err = _run(capsys, [
        "sweep-theta", "--points", "5", "--rounds", "2000", "--seed", "21"])
    assert code == 0
    header, rows = _parse_csv(out)
    assert tuple(header) == SWEEP_THETA_COLUMNS
    assert len(rows) == 5
    thetas = [float(r[0]) for r in rows]
    assert thetas == pytest.approx(list(np.linspace(0.0, math.pi, 5)))
    for row in rows:
        rec = dict(zip(header, row))
        assert abs(float(rec["analytic"]) - float(rec["exact_oracle"])) < 1e-12
        assert abs(float(rec["z"])) < 5.0
    assert err.startswith("# trinegamble sweep-theta ")


def test_sweep_theta_explicit_list(capsys):
    code, out, _ = _run(capsys, [
        "sweep-theta", "--theta-list", "0,1.5707963267948966", "--rounds", "1000",
        "--seed", "22"])
    assert code == 0
    header, rows = _parse_csv(out)
    assert [float(r[0]) for r in rows] == [0.0, 1.5707963267948966]


def test_sweep_r_table(capsys):
    code, out, err = _run(capsys, [
        "sweep-r", "--rounds", "2000", "--seed", "23"])
    assert code == 0
    header, rows = _parse_csv(out)
    assert tuple(header) == SWEEP_R_COLUMNS
    recs = [dict(zip(header, row)) for row in rows]
    assert [float(r["parameter"]) for r in recs] == [0.1, 0.05, 0.01, 0.005]
    assert [float(r["penalty_R"]) for r in recs] == [198.0, 398.0, 1998.0, 3998.0]
    for rec in recs:
        assert float(rec["analytic"]) == float(rec["parameter"])
        assert abs(float(rec["exact_oracle"]) - float(rec["parameter"])) < 1e-15
        assert abs(float(rec["z"])) < 5.0
    assert err.startswith("# trinegamble sweep-r ")


def test_sweep_jsonl_format(capsys):
    code, out, _ = _run(capsys, [
        "sweep-theta", "--points", "3", "--rounds", "500", "--seed", "24",
        "--format", "jsonl"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert all(set(json.loads(l)) == set(SWEEP_THETA_COLUMNS) for l in lines)


# ---------------------------------------------------------------------------
# verify


def test_verify_all_pass(capsys):
    code, out, err = _run(capsys, ["verify", "--trials", "20", "--grid-points", "10",
                                   "--seed", "0"])
    assert code == 0
    lines = out.strip().splitlines()
    names = [l.split()[1].rstrip(":") for l in lines]
    assert names == ["povm_completeness", "povm_positivity", "table_rows",
                     "no_signalling", "gain_closed_forms", "posterior_floor"]
    assert all(l.startswith("PASS") for l in lines)
    assert err.startswith("# trinegamble verify ")


def test_verify_checks_catch_planted_defects():
    good = check_povm_completeness()
    assert good.passed
    broken = check_povm_completeness([np.eye(2) * 0.55, np.eye(2) * 0.55])
    assert not broken.passed
    lopsided = [np.diag([1.01, -0.01]), np.diag([-0.01, 1.01])]
    assert check_povm_completeness(lopsided).passed  # sums to I fine
    assert not check_povm_positivity(lopsided).passed


@pytest.fixture
def fresh_tables():
    # a planted defect reaches the entangled tables only through a fresh
    # compile, and no table compiled with it may outlive the test
    montecarlo._cached_entangled_table.cache_clear()
    yield
    montecarlo._cached_entangled_table.cache_clear()


def test_a_check_probability_off_by_1e9_fails_verify(monkeypatch, capsys, fresh_tables):
    fail = montecarlo.check_fail_probability
    monkeypatch.setattr(montecarlo, "check_fail_probability",
                        lambda state, claim: fail(state, claim) + 1e-9)
    report = check_table_rows(np.random.default_rng(0), 20)
    assert not report.passed and "0 of 160 tables" in report.detail, report.detail
    # python -m trinegamble verify, in this process
    monkeypatch.setattr(sys, "argv", ["trinegamble", "verify", "--trials", "5"])
    with pytest.raises(SystemExit) as exited:
        runpy.run_module("trinegamble", run_name="__main__")
    assert exited.value.code == 2
    assert capsys.readouterr().out.splitlines()[2].startswith("FAIL table_rows:")


def test_no_signalling_catches_skewed_outcome_odds(monkeypatch, fresh_tables):
    # the planted table moves 1e-10 of the receiver's odds from his first
    # outcome to his second, still summing to 1, whatever the sender measures
    branches = montecarlo.remote_povm_branches

    def skewed(psi, povm):
        (p0, k0), (p1, k1), *rest = branches(psi, povm)
        return [(p0 + 1e-10, k0), (p1 - 1e-10, k1), *rest]

    assert check_no_signalling(np.random.default_rng(0), 5).passed
    montecarlo._cached_entangled_table.cache_clear()
    monkeypatch.setattr(montecarlo, "remote_povm_branches", skewed)
    report = check_no_signalling(np.random.default_rng(0), 5)
    # scaled by (1 - r)(1 - lam) of the drawn games, far above the 1e-12 bar
    assert not report.passed and float(report.detail.rsplit("= ", 1)[1]) > 1e-11, report.detail


def test_table_rows_catch_one_swapped_claim(monkeypatch, fresh_tables):
    # the planted table rules aligned_pair's row on guess "a" and outcome 0,
    # whose claim is "a", on "b": its payoff and its transcript both follow
    compile_table = montecarlo._compile

    def swapped(alice, bob, params):
        table = compile_table(alice, bob, params)
        t = table.transcripts[0]
        if t.sent_descriptor != "entangled":
            return table
        t = leaf_transcript(t.kind, t.sent_descriptor, t.guess, "b", t.check, params)
        name, prob, _ = table.exact_rows[0]
        return table._replace(exact_rows=((name, prob, t.alice_delta), *table.exact_rows[1:]),
                              transcripts=(t, *table.transcripts[1:]))

    monkeypatch.setattr(verify, "random_entangled_policy", lambda rng: aligned_pair())
    assert check_table_rows(np.random.default_rng(0), 5).passed
    monkeypatch.setattr(montecarlo, "_compile", swapped)
    report = check_table_rows(np.random.default_rng(0), 5)
    assert not report.passed and "10 of 40 tables" in report.detail, report.detail


# ---------------------------------------------------------------------------
# failure exit codes through main()


def test_deterministic_divergence_exits_two(monkeypatch, capsys):
    def fake_simulate(config, transcript_sink=None):
        return SimResult(config.rounds, 99.0, -99.0, 0.0,
                         config.rounds, 0, 0, 0, False)

    monkeypatch.setattr("trinegamble.cli.simulate", fake_simulate)
    # at r = 0 the orthogonal cheat's table is degenerate: every round pays +2
    code, _, err = _run(capsys, ["sweep-theta", "--theta-list", repr(math.pi),
                                 "--rate-r", "0", "--rounds", "50", "--seed", "1"])
    assert code == 2
    assert "invariant failure" in err


@pytest.mark.parametrize("argv", [
    ["sweep-r", "--r-list", "0.05", "--rounds", "1"],
    *(["sweep-r", "--r-list", "0.05", "--rounds", "4", "--seed", str(s)] for s in (11, 24, 29)),
    ["sweep-theta", "--theta-list", repr(math.pi), "--rate-r", "0", "--rounds", "100"],
])
def test_zero_spread_runs_are_not_divergences(capsys, argv):
    # equal payoffs by chance, or a game whose exact table is degenerate
    # up to rounding residue: neither is an invariant failure
    code, out, err = _run(capsys, argv)
    assert code == 0, err
    _, rows = _parse_csv(out)
    assert all(math.isfinite(float(row[-1])) for row in rows)


# ---------------------------------------------------------------------------
# the README's examples


def _readme_commands():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    joined = section.replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in joined.splitlines()
            if line.strip().startswith("trinegamble ")]


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    commands = _readme_commands()
    assert len(commands) == 7
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, out, err = _run(capsys, argv)
        # the monitor example is meant to trip
        if "--abort-threshold" in argv:
            header, rows = _parse_csv(out)
            assert code == 3 and dict(zip(header, rows[0]))["aborted"] == "true", err
        else:
            assert code == 0, f"{argv}: {err}"


# ---------------------------------------------------------------------------
# module entry point


def test_module_invocation_end_to_end():
    proc = subprocess.run(
        [sys.executable, "-m", "trinegamble", "verify", "--trials", "5",
         "--grid-points", "5", "--seed", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.count("PASS") == 6


# ---------------------------------------------------------------------------
# one parser per process

# each argv as run in one process, in this order; the third is a usage error
SHARED_PARSER_SEQUENCE = [
    ["simulate", "--alice", "fixed:theta_a=2.5,claim=a", "--rounds", "3000", "--seed", "4",
     "--noise", "0.1", "--rate-r", "0.3", "--abort-threshold", "0.2", "--abort-min-checks", "20",
     "--transcript", "rounds.jsonl"],
    ["sweep-theta", "--theta-list", "0.1,2.0", "--rounds", "500", "--seed", "2"],
    ["simulate", "--rounds", "ten"],
    ["simulate", "--rounds", "500"],
    ["verify", "--trials", "1"],
]


def test_the_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_the_shared_parser_leaks_nothing_from_one_call_into_the_next(tmp_path, monkeypatch,
                                                                      capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(ENV_SEED, raising=False)
    shared = [_run(capsys, argv) for argv in SHARED_PARSER_SEQUENCE]
    transcript = (tmp_path / "rounds.jsonl").read_bytes()
    assert [code for code, _, _ in shared] == [3, 0, 1, 0, 0]
    # the fresh processes import the package these tests import
    env = {k: v for k, v in os.environ.items() if k != ENV_SEED}
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for argv, got in zip(SHARED_PARSER_SEQUENCE, shared):
        proc = subprocess.run([sys.executable, "-m", "trinegamble", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)
        assert got == (proc.returncode, proc.stdout, proc.stderr), argv
    assert (tmp_path / "rounds.jsonl").read_bytes() == transcript
