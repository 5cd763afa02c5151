import contextlib
import copy
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import advicecheck
from advicecheck import NonConvergenceError, sim, verifier
from advicecheck import schedule as sched
from advicecheck.cli import _schedule_from_config, build_parser, main

GAME = "fixtures/small_game.json"
CE = "fixtures/ce_strategy.json"
NON_CE = "fixtures/non_ce_strategy.json"


def test_check_ce_accepts(capsys):
    code = main(["check-ce", "--game", GAME, "--strategy", CE])
    assert code == 0
    assert "correlated equilibrium: yes" in capsys.readouterr().out


def test_check_ce_rejects_citing_agent(capsys):
    code = main(["check-ce", "--game", GAME, "--strategy", NON_CE])
    assert code == 1
    out = capsys.readouterr().out
    assert "correlated equilibrium: no" in out
    assert "agent 2" in out


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
def test_check_ce_bad_tolerance_exits_2(capsys, tolerance):
    code = main(["check-ce", "--game", GAME, "--strategy", NON_CE, "--tolerance", tolerance])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --tolerance")


def test_check_ce_malformed_strategy(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[0.5, 0.4, 0.0, 0.0]")
    code = main(["check-ce", "--game", GAME, "--strategy", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "strategy sums to 0.9, not 1" in err


def test_check_ce_strategy_of_the_wrong_length_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[0.5, 0.5]")
    code = main(["check-ce", "--game", GAME, "--strategy", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "strategy has 2 entries, game has 4 joint actions" in err


def test_plan_prints_worked_values(tmp_path, capsys):
    code = main([
        "plan", "--game", GAME, "--strategy", CE,
        "--p", "0.1", "--delta-hat", "0.01", "--mc-samples", "50000", "--seed", "3",
        "--out", str(tmp_path / "o"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    # --out keeps the printed plan and a manifest of the options
    assert (tmp_path / "o" / "plan.json").read_text() == out
    assert json.loads((tmp_path / "o" / "manifest.json").read_text())["seed"] == 3
    plan = json.loads(out)
    assert plan["alpha"] == 0.1
    assert abs(plan["critical_value"] - 6.2514) < 0.01
    assert abs(plan["psi"] - 0.0943) < 0.01
    assert plan["psi_se"] > 0
    assert 1900 <= plan["sample_size"] <= 2300


def test_plan_infeasible_exits_2(capsys):
    code = main([
        "plan", "--game", GAME, "--strategy", CE,
        "--p", "0.05", "--delta-hat", "0.01", "--mc-samples", "20000",
    ])
    assert code == 2
    assert "psi" in capsys.readouterr().err


def test_cmd_test_accepts_worked_counts(capsys):
    code = main([
        "test", "--game", GAME, "--strategy", CE,
        "--counts", "fixtures/accept_counts.json",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "do not reject" in out
    payload = json.loads(out[: out.rindex("}") + 1])
    assert abs(payload["statistic"] - 4.6997) < 0.05


def test_cmd_test_at_a_level_of_1e_300_gives_a_verdict(capsys):
    # 1 - 1e-300 rounds to 1.0: a lower-tail solve refused this level
    code = main([
        "test", "--game", GAME, "--strategy", CE, "--p", "1e-300",
        "--counts", "fixtures/accept_counts.json",
    ])
    assert code == 0
    out = capsys.readouterr().out
    payload = json.loads(out[: out.rindex("}") + 1])
    assert payload["outcome"] == "FollowMediator"
    assert payload["critical_value"] == pytest.approx(1388.34, abs=0.01)


def test_cmd_test_rejects_worked_counts(capsys):
    code = main([
        "test", "--game", GAME, "--strategy", NON_CE,
        "--counts", "fixtures/reject_counts.json",
    ])
    assert code == 1
    out = capsys.readouterr().out
    assert "reject" in out
    payload = json.loads(out[: out.rindex("}") + 1])
    assert abs(payload["statistic"] - 5145.0) < 1.0


@pytest.mark.parametrize("agent, outcome", [("2", "RejectByEq2"), ("1", "RejectByStatistic")])
def test_cmd_test_screens_the_agent_before_the_verdict(capsys, agent, outcome):
    # agent 2 fails its own incentive check on the non-CE announcement and
    # rejects without a statistic; agent 1 passes it and rejects on the counts
    code = main([
        "test", "--game", GAME, "--strategy", NON_CE,
        "--counts", "fixtures/reject_counts.json", "--agent", agent,
    ])
    assert code == 1
    out = capsys.readouterr().out
    payload = json.loads(out[: out.rindex("}") + 1])
    assert payload["outcome"] == outcome
    assert (payload["statistic"] is None) == (outcome == "RejectByEq2")
    assert out.splitlines()[-1] == "reject"


def test_cmd_test_simulated_under_mediator(capsys):
    code = main([
        "test", "--game", GAME, "--strategy", CE,
        "--p", "0.1", "--delta-hat", "0.01",
        "--mc-samples", "20000", "--seed", "5", "--simulate-under", "mediator",
    ])
    assert code == 0  # following the announcement passes at this seed
    assert "do not reject" in capsys.readouterr().out


def test_cmd_test_simulated_under_deviation(tmp_path, capsys):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"2": [0.75, 0.25]}))
    code = main([
        "test", "--game", GAME, "--strategy", NON_CE,
        "--p", "0.1", "--delta-hat", "0.01",
        "--mc-samples", "20000", "--seed", "5", "--simulate-under", str(profile),
    ])
    assert code == 1
    assert "reject" in capsys.readouterr().out


def test_cmd_test_profile_not_an_object_exits_2(tmp_path, capsys):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps([[0.75, 0.25]]))
    code = main([
        "test", "--game", GAME, "--strategy", NON_CE,
        "--p", "0.1", "--delta-hat", "0.01",
        "--mc-samples", "20000", "--seed", "5", "--simulate-under", str(profile),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--simulate-under" in err


@pytest.mark.parametrize("key", ["0", "3", "1.5", "x", "02"])
def test_cmd_test_profile_key_outside_the_agents_exits_2(tmp_path, capsys, key):
    # keys are 1-based: "0" was refused in 0-based terms and "1.5" by int()'s own
    # message, and "02" beside "2" named agent 2 twice, the later silently winning
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"2": [0.5, 0.5], key: [0.75, 0.25]}))
    code = main([
        "test", "--game", GAME, "--strategy", NON_CE,
        "--p", "0.1", "--delta-hat", "0.01",
        "--mc-samples", "20000", "--seed", "5", "--simulate-under", str(profile),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:")
    assert "--simulate-under" in err and repr(key) in err and "1..2" in err


@pytest.mark.parametrize("profile, named", [
    ({"1": [0.5, 0.5, 0]}, "strategy of agent 1 has the wrong action count"),
    ({"2": [0.5, 0.75]}, "strategy of agent 2 sums to 1.25"),
    ({"1": [0.5, 0.5], "2": [1.5, -0.5]}, "strategy of agent 2 has negative entries"),
], ids=["length", "sum", "negative"])
def test_cmd_test_bad_profile_strategy_names_its_1_based_key(tmp_path, capsys, profile, named):
    # the profile's key "1" used to be refused as "strategy of agent 0"
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile))
    code = main([
        "test", "--game", GAME, "--strategy", NON_CE,
        "--p", "0.1", "--delta-hat", "0.01",
        "--mc-samples", "20000", "--seed", "5", "--simulate-under", str(path),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and named in err


@pytest.mark.parametrize("sample", [("--counts", "fixtures/accept_counts.json"), ()],
                         ids=["counts", "simulated"])
@pytest.mark.parametrize("p", ["0", "1", "nan", "-0.5"])
def test_cmd_test_p_outside_the_unit_interval_exits_2_naming_the_option(capsys, sample, p):
    # in counts mode --p used to be refused as "alpha", the library's name for it
    code = main(["test", "--game", GAME, "--strategy", CE, "--p", p, *sample])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: --p must be in (0, 1)")


@pytest.mark.parametrize("agent", ["0", "5", "-1"])
def test_cmd_test_agent_outside_the_game_exits_2(capsys, agent):
    code = main([
        "test", "--game", GAME, "--strategy", CE,
        "--counts", "fixtures/accept_counts.json", "--agent", agent,
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--agent" in err


@pytest.mark.parametrize("entry", [10.5, True, "10"])
def test_cmd_test_counts_that_are_not_integers_exit_2(tmp_path, capsys, entry):
    # the int64 array used to truncate 10.5 to 10 and read true as 1
    counts = json.loads(Path("fixtures/accept_counts.json").read_text())
    counts[2] = entry
    (tmp_path / "counts.json").write_text(json.dumps(counts))
    code = main(["test", "--game", GAME, "--strategy", CE,
                 "--counts", str(tmp_path / "counts.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "counts[2]" in err


@pytest.mark.parametrize("counts", [[2.5, 2], [True, 2], [2, "2"], [2, 0]])
def test_game_file_with_action_counts_that_are_not_positive_integers_exits_2(tmp_path, capsys,
                                                                            counts):
    # int() used to truncate [2.5, 2] to a 2x2 game and read true or "2" as a count
    game = json.loads(Path(GAME).read_text())
    game["action_counts"] = counts
    (tmp_path / "game.json").write_text(json.dumps(game))
    assert main(["check-ce", "--game", str(tmp_path / "game.json"), "--strategy", CE]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "action_counts" in err


@pytest.mark.parametrize("top", ["[1, 2]", "3"])
def test_game_file_that_is_not_an_object_exits_2(tmp_path, capsys, top):
    # this read "is missing field list indices must be integers or slices, not str"
    game = tmp_path / "game.json"
    game.write_text(top)
    assert main(["check-ce", "--game", str(game), "--strategy", CE]) == 2
    assert capsys.readouterr().err == f"error: game file {game} must be a JSON object\n"


@pytest.mark.parametrize("key, value", [("action_counts", 3), ("action_names", 5),
                                        ("action_names", [5, 6])])
def test_game_file_with_fields_that_are_not_arrays_exits_2(tmp_path, capsys, key, value):
    # these died with a TypeError traceback and exit 1
    game = json.loads(Path(GAME).read_text())
    game[key] = value
    (tmp_path / "game.json").write_text(json.dumps(game))
    assert main(["check-ce", "--game", str(tmp_path / "game.json"), "--strategy", CE]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and key in err


@pytest.mark.parametrize("counts, name", [([2**64, 0, 0, 0], "counts[0]"),
                                          ([0, 2**63 - 1, 2**63 - 1, 0], "total of counts"),
                                          ([0, 0, 0, 0], "total of counts")])
def test_cmd_test_counts_beyond_int64_exit_2(tmp_path, capsys, counts, name):
    # 2**64 died with an OverflowError traceback; the two 2**63 - 1 wrapped to a total of -2;
    # a zero total was refused as the library's sample_size, not as the file's total
    (tmp_path / "counts.json").write_text(json.dumps(counts))
    code = main(["test", "--game", GAME, "--strategy", CE,
                 "--counts", str(tmp_path / "counts.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and name in err


def test_cmd_test_counts_file_that_is_not_an_array_exits_2(tmp_path, capsys):
    (tmp_path / "counts.json").write_text(json.dumps({"counts": [2, 2]}))
    code = main(["test", "--game", GAME, "--strategy", CE,
                 "--counts", str(tmp_path / "counts.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "flat JSON array" in err


def test_cmd_test_has_no_out_option(tmp_path, capsys):
    # `test` writes no files, so an output directory is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["test", "--game", GAME, "--strategy", CE, "--counts", "fixtures/accept_counts.json",
              "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("under", ["mediator", "no-such-profile.json"])
def test_cmd_test_counts_and_simulate_under_exclude_each_other(capsys, under):
    # the counts are the sample, so a profile to simulate under was silently ignored
    with pytest.raises(SystemExit) as exc:
        main(["test", "--game", GAME, "--strategy", CE, "--counts", "fixtures/accept_counts.json",
              "--simulate-under", under])
    assert exc.value.code == 2
    assert "not allowed with argument --counts" in capsys.readouterr().err


def test_cmd_test_counts_of_a_huge_valid_total_finish(tmp_path, capsys):
    # a total of 2^56 puts the noncentrality at 7.2e14; sizing its power used
    # to walk ~1.3e8 all-zero Poisson terms below the mode and ran for minutes
    (tmp_path / "counts.json").write_text(json.dumps([2**56, 0, 0, 0]))
    code = main(["test", "--game", GAME, "--strategy", CE,
                 "--counts", str(tmp_path / "counts.json")])
    assert code == 1
    payload = json.loads(capsys.readouterr().out.rsplit("}", 1)[0] + "}")
    assert payload["sample_size"] == 2**56 and payload["outcome"] == "RejectByStatistic"


def test_cmd_test_counts_verdict_is_the_same_at_a_delta_hat_whose_power_overflows(capsys):
    # the verdict reads only the critical value, df and the counts; beta's
    # noncentrality 2100 * 1e308 is inf, which used to be refused
    argv = ["test", "--game", GAME, "--strategy", CE, "--counts", "fixtures/accept_counts.json"]
    assert main(argv) == 0
    default = capsys.readouterr()
    assert main([*argv, "--delta-hat", "1e308"]) == 0
    assert capsys.readouterr() == (default.out, "")


def test_cmd_test_counts_of_the_largest_total_give_a_verdict(tmp_path, capsys):
    # 2^63 - 1 puts the noncentrality at 9.2e16, where the walk above the mode
    # divided by zero and the command exited 1 with a traceback
    (tmp_path / "counts.json").write_text(json.dumps([2**63 - 1, 0, 0, 0]))
    code = main(["test", "--game", GAME, "--strategy", CE,
                 "--counts", str(tmp_path / "counts.json"), "--p", "0.1", "--delta-hat", "0.01"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    payload = json.loads(captured.out.rsplit("}", 1)[0] + "}")
    assert payload["sample_size"] == 2**63 - 1 and payload["outcome"] == "RejectByStatistic"


def test_cmd_schedule_writes_its_stdout_to_schedule_csv(tmp_path, capsysbinary):
    code = main([
        "schedule", "--game", GAME, "--strategy", "fixtures/correlated_strategy.json",
        "--rules", "harmonic", "--tests", "2", "--mc-samples", "1000", "--seed", "11",
        "--out", str(tmp_path),
    ])
    assert code == 0
    out = capsysbinary.readouterr().out
    assert out.startswith(b"kind,j,begin,") and out.count(b"\r\n") == 5
    assert out == (tmp_path / "schedule.csv").read_bytes()


def test_cmd_schedule_emits_csv(capsys):
    code = main([
        "schedule", "--game", GAME, "--strategy", "fixtures/correlated_strategy.json",
        "--rules", "harmonic", "--tests", "2", "--mc-samples", "20000", "--seed", "11",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "kind,j,begin,length,delta,p,alpha,beta,psi,l_T"
    assert len(lines) == 5  # header + R1 F1 R2 F2
    assert lines[1].startswith("R,1,1,")
    assert lines[2].startswith("F,1,")


def test_cmd_schedule_harmonic_to_60_tests_reaches_levels_below_1e_16(capsys):
    # harmonic alpha is 2^-j; from test 54 on, 1 - alpha rounds to 1.0, where a
    # lower-tail solve refused the level
    code = main([
        "schedule", "--game", GAME, "--strategy", "fixtures/correlated_strategy.json",
        "--rules", "harmonic", "--tests", "60", "--mc-samples", "1000",
    ])
    assert code == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
    tests = [row for row in rows if row[0] == "R"]
    assert [int(row[1]) for row in tests] == list(range(1, 61))
    assert float(tests[-1][6]) == 2.0 ** -60


def test_cmd_schedule_infeasible_exits_2(capsys):
    code = main([
        "schedule", "--game", GAME, "--strategy", CE,
        "--rules", "harmonic", "--tests", "2", "--mc-samples", "20000",
    ])
    assert code == 2


def test_cmd_schedule_negative_delta0_exits_2_naming_it(capsys):
    code = main(["schedule", "--game", GAME, "--strategy", CE, "--rules", "geometric",
                 "--delta0", "-1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "delta0" in err


@pytest.mark.parametrize("argv, flag", [
    (["plan", "--p", "1", "--delta-hat", "0.01"], "--p"),
    (["plan", "--p", "0.1", "--delta-hat", "0"], "--delta-hat"),
    (["plan", "--p", "0.1", "--delta-hat", "0.01", "--mc-samples", "999"], "--mc-samples"),
    (["test", "--delta-hat", "nan", "--counts", "fixtures/accept_counts.json"], "--delta-hat"),
    (["test", "--delta-hat", "-1"], "--delta-hat"),
    (["test", "--mc-samples", "5"], "--mc-samples"),
    (["schedule", "--tests", "0"], "--tests"),
    (["schedule", "--mc-samples", "5"], "--mc-samples"),
    (["schedule", "--rules", "geometric", "--delta0", "inf"], "--delta0"),
    (["schedule", "--rules", "geometric", "--p0", "1"], "--p0"),
    # a flag the command does not read on this path is refused all the same
    (["schedule", "--rules", "harmonic", "--delta0", "inf"], "--delta0"),
    (["test", "--counts", "fixtures/accept_counts.json", "--mc-samples", "5"], "--mc-samples"),
])
def test_cli_refusal_names_the_flag_as_typed(capsys, argv, flag):
    # the library calls these horizon_tests, delta_hat, mc_samples, delta0 and p0
    code = main([*argv, "--game", GAME, "--strategy", CE])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {flag} ")


@pytest.mark.parametrize("argv", [
    ["plan", "--p", "0.1", "--delta-hat", "0.01"],
    ["schedule", "--rules", "harmonic"],
])
def test_negative_seed_exits_2_naming_it(capsys, argv):
    # SeedSequence's "expected non-negative integer" named no flag
    code = main([*argv, "--game", GAME, "--strategy", CE, "--mc-samples", "1000", "--seed", "-1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --seed") and err.count("\n") == 1


def test_simulate_negative_seed_exits_2_naming_it(tmp_path, capsys):
    assert _simulate(tmp_path, {"game": GAME, "strategy": CE, "schedule": TOY}, "--seed", "-1") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --seed") and err.count("\n") == 1


def test_negative_seed_is_refused_on_a_path_that_draws_nothing(capsys):
    # the counts are the sample: --seed goes unread, and is refused all the same
    code = main(["test", "--game", GAME, "--strategy", CE,
                 "--counts", "fixtures/accept_counts.json", "--seed", "-1"])
    assert code == 2
    assert capsys.readouterr().err == "error: --seed must be at least 0, got -1\n"


def test_cmd_schedule_beyond_the_sample_size_search_exits_2(capsys):
    # geometric test 12 needs more than 2^62 rounds
    code = main([
        "schedule", "--game", GAME, "--strategy", "fixtures/correlated_strategy.json",
        "--rules", "geometric", "--tests", "12", "--mc-samples", "1000",
    ])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert all(name in err[0] for name in ("alpha", "beta", "delta_hat"))


def test_simulate_writes_outputs_and_is_idempotent(tmp_path, capsys):
    cfg = {
        "game": GAME,
        "strategy": CE,
        "seed": 4,
        "schedule": {
            "kind": "toy",
            "alpha": 0.1,
            "delta_hat": 0.01,
            "test_lengths": [100],
            "free_lengths": [200],
        },
        "agents": [{"learner": {"name": "uniform"}}, {"learner": {"name": "uniform"}}],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1 = tmp_path / "out1"
    out2 = tmp_path / "out2"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out2)]) == 0
    for name in ("transcript.csv", "summary.json", "manifest.json"):
        assert (out1 / name).exists()
    # byte-identical outputs apart from the manifest timestamp
    assert (out1 / "transcript.csv").read_bytes() == (out2 / "transcript.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["config_hash"] == m2["config_hash"]
    assert m1["seed"] == m2["seed"]
    summary = json.loads((out1 / "summary.json").read_text())
    assert "decisions" in summary and "phases" in summary


def test_simulate_manifest_hashes_the_resolved_numbers(tmp_path, capsys):
    # the hash covered the config file alone: runs that differ in --mc-samples
    # (test 1 lasts 140 rounds against 143) or in --seeds shared it
    cfg = {"game": GAME, "strategy": CE,
           "schedule": {"kind": "geometric", "delta0": 0.05, "p0": 0.3, "horizon_tests": 1}}

    def run(name, *extra):
        (tmp_path / name).mkdir()
        assert _simulate(tmp_path / name, cfg, *extra) == 0
        out = tmp_path / name / "o"
        return (json.loads((out / "manifest.json").read_text())["config_hash"],
                sorted(path.read_text() for path in out.glob("*summary.json")))

    hash_1000, summary_1000 = run("mc-1000", "--mc-samples", "1000")
    hash_4000, summary_4000 = run("mc-4000", "--mc-samples", "4000")
    assert summary_1000 != summary_4000 and hash_1000 != hash_4000
    assert run("mc-1000-again", "--mc-samples", "1000")[0] == hash_1000
    assert run("seeds-2", "--seeds", "2")[0] != run("seeds-3", "--seeds", "3")[0]
    assert run("seed-1", "--seed", "1")[0] != run("seed-2", "--seed", "2")[0]


def test_simulate_single_test_no_free_periods(tmp_path, capsys):
    cfg = {
        "game": GAME,
        "strategy": CE,
        "seed": 2,
        "record": "counts",
        "schedule": {
            "kind": "toy",
            "alpha": 0.1,
            "delta_hat": 0.01,
            "test_lengths": [150],
            "free_lengths": [0],
        },
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["phases"]) == 1
    assert summary["phases"][0]["phase"] == "R"
    assert summary["decisions"]


def test_simulate_batch_mode(tmp_path, capsys):
    cfg = {
        "game": GAME,
        "strategy": CE,
        "schedule": {
            "kind": "toy",
            "alpha": 0.1,
            "delta_hat": 0.01,
            "test_lengths": [200],
            "free_lengths": [400],
        },
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "batch"
    code = main(["simulate", "--config", str(cfg_path), "--out", str(out),
                 "--seed", "0", "--seeds", "12"])
    assert code == 0
    batch = json.loads((out / "batch_summary.json").read_text())
    assert batch["num_seeds"] == 12
    assert batch["seeds"] == list(range(12))
    tally = batch["decision_tallies"]["agent1.test1"]
    assert sum(tally.values()) == 12
    assert batch["final_free_period_tv"]["max"] < 0.2
    assert len(batch["mean_average_utility"]) == 2


def test_successive_main_calls_match_fresh_processes(tmp_path):
    # the parser is built once per process; a batch call must leave no flag
    # (--seeds, --seed) behind for the plain call that follows it
    cfg = {"game": GAME, "strategy": CE, "seed": 5, "schedule": TOY,
           "agents": [{"learner": {"name": "fictitious-play"}}] * 2}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    env = dict(os.environ, PYTHONPATH=str(Path(advicecheck.__file__).parent.parent))
    assert build_parser() is build_parser()
    for where in ("same", "fresh"):
        for name, extra in (("batch", ["--seeds", "3", "--seed", "9"]), ("plain", [])):
            argv = ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / where / name),
                    *extra]
            with contextlib.redirect_stdout(io.StringIO()):
                code = (main(argv) if where == "same" else subprocess.run(
                    [sys.executable, "-m", "advicecheck.cli", *argv], env=env).returncode)
            assert code == 0
    for name in ("batch/batch_summary.json", "plain/summary.json", "plain/transcript.csv"):
        assert (tmp_path / "same" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
    assert sorted(p.name for p in (tmp_path / "same" / "plain").iterdir()) == [
        "manifest.json", "summary.json", "transcript.csv"]
    assert json.loads((tmp_path / "same" / "plain" / "summary.json").read_text())["seed"] == 5


def test_batch_summary_order_independent(game, ce_strategy):
    from advicecheck import batch_summary_dict, run_game_counts, toy_schedule

    sched = toy_schedule(game, ce_strategy, alpha=0.1, delta_hat=0.01,
                         test_lengths=[150], free_lengths=[150])
    runs = [run_game_counts(game, ce_strategy, sched, seed=s) for s in range(6)]
    forward = batch_summary_dict(runs)
    backward = batch_summary_dict(list(reversed(runs)))
    assert forward == backward


def test_missing_file_exits_2(capsys):
    assert main(["check-ce", "--game", "no-such.json", "--strategy", CE]) == 2


def test_simulate_1e8_round_test_in_counts_mode(tmp_path, capsys):
    # a 1e8-round toy test has noncentrality 1e6, where the noncentral CDF
    # used to fail an internal assert
    cfg = {
        "game": GAME,
        "strategy": CE,
        "record": "counts",
        "agents": [{"learner": {"name": "uniform"}}, {"learner": {"name": "uniform"}}],
        "schedule": {"kind": "toy", "alpha": 0.1, "delta_hat": 0.01,
                     "test_lengths": [10**8], "free_lengths": [10**18]},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "batch"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out), "--seeds", "1"]) == 0
    batch = json.loads((out / "batch_summary.json").read_text())
    assert batch["num_seeds"] == 1
    assert sorted(batch["decision_tallies"]) == ["agent1.test1", "agent2.test1"]


TOY = {"kind": "toy", "alpha": 0.1, "delta_hat": 0.01, "test_lengths": [100], "free_lengths": [200]}
GEOMETRIC = {"kind": "geometric", "delta0": 0.01, "p0": 0.2, "horizon_tests": 1}


@pytest.mark.parametrize("schedule, key", [
    (TOY, "game"), (TOY, "strategy"), (TOY, "test_lengths"), (TOY, "free_lengths"),
    (GEOMETRIC, "delta0"), (GEOMETRIC, "p0"),
])
def test_simulate_config_missing_key_exits_2(tmp_path, capsys, schedule, key):
    cfg = {"game": GAME, "strategy": CE, "schedule": dict(schedule)}
    cfg.pop(key, None)
    cfg["schedule"].pop(key, None)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert repr(key) in err


@pytest.mark.parametrize("decays", [
    {}, {"delta_decay": 16.0}, {"p_decay": 3}, {"delta_decay": 20, "p_decay": 1.5},
])
def test_geometric_config_decays_default_to_the_rules_own(game, correlated_strategy, decays):
    # a decay the config leaves out is geometric_rules' default, not a copy of it
    schedule = _schedule_from_config(game, correlated_strategy, {**GEOMETRIC, **decays}, 1000, 0)
    reference = sched.geometric_rules(0.01, 0.2, **decays)
    for j in (1, 2, 5):
        assert schedule.rules.delta_rule(j) == reference.delta_rule(j)
        assert schedule.rules.p_rule(j) == reference.p_rule(j)
    assert schedule.rules.p_series_bound == reference.p_series_bound


def test_simulate_config_not_an_object_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("[1, 2]")
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_numerics_failure_exits_2(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise NonConvergenceError("incomplete gamma series did not converge")

    monkeypatch.setattr(verifier, "plan_test", fail)
    code = main(["plan", "--game", GAME, "--strategy", CE, "--p", "0.1", "--delta-hat", "0.01"])
    assert code == 2
    assert "did not converge" in capsys.readouterr().err


def test_simulate_out_of_memory_exits_2(monkeypatch, tmp_path, capsys):
    def fail(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.49 TiB for an array with shape (200000000000,)")

    monkeypatch.setattr(sim, "run_game", fail)
    assert _simulate(tmp_path, {"game": GAME, "strategy": CE, "schedule": TOY}) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and err.count("\n") == 1


def _simulate(tmp_path, cfg, *extra):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    return main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o"), *extra])


@pytest.mark.parametrize("key, value", [
    ("schedule", 3), ("agents", ["x", "y"]), ("agents", 3), ("rounds", "x"),
    ("seed", None), ("game", 3), ("schedule", {**TOY, "alpha": "0.1"}),
    ("schedule", {**TOY, "test_lengths": [None]}), ("schedule", {**TOY, "free_lengths": 200}),
    ("agents", [{"fallback": {"a": 1}}, {}]), ("agents", [{"learner": 3}, {}]),
    # falsy values used to run with the default agents; only an absent key means those
    ("agents", []), ("agents", {}), ("agents", 0), ("agents", False), ("agents", ""),
    ("schedule", {**GEOMETRIC, "p_decay": "2"}), ("schedule", {**GEOMETRIC, "delta_decay": None}),
    # integers no float can hold passed the range check and overflowed
    ("schedule", {**TOY, "delta_hat": 10**400}), ("schedule", {**GEOMETRIC, "delta0": 10**400}),
    ("schedule", {**GEOMETRIC, "p_decay": 10**400}),
])
def test_simulate_config_of_wrong_shape_exits_2(tmp_path, capsys, key, value):
    cfg = {"game": GAME, "strategy": CE, "schedule": TOY, key: value}
    assert _simulate(tmp_path, cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("cfg, named", [
    ({"seed": "1"}, "seed must be an integer, got '1'"),
    ({"mc_samples": 2.5}, "mc_samples must be an integer, got 2.5"),
    ({"schedule": {**TOY, "alpha": "0.1"}}, "alpha must be a number, got '0.1'"),
    ({"schedule": {**TOY, "delta_hat": True}}, "delta_hat must be a number, got True"),
    # no test reads alpha, so the schedule itself must refuse it
    ({"schedule": {**TOY, "alpha": None, "test_lengths": [], "free_lengths": []}},
     "alpha must be a number, got None"),
    ({"schedule": {**TOY, "test_lengths": [2.0]}}, "test 1 length must be an integer, got 2.0"),
    ({"schedule": {**TOY, "free_lengths": 200}}, "free_lengths must be a list or tuple, got 200"),
    ({"schedule": {**GEOMETRIC, "p0": True}}, "p0 must be a number, got True"),
    ({"schedule": {**GEOMETRIC, "p_decay": "2"}}, "p_decay must be a number, got '2'"),
    ({"schedule": {"kind": "harmonic", "horizon_tests": 1.0}},
     "horizon_tests must be an integer, got 1.0"),
])
def test_simulate_config_number_refusal_names_the_library_argument(tmp_path, capsys, cfg, named):
    # the CLI checks no config number itself: the library call that reads it names it
    assert _simulate(tmp_path, {"game": GAME, "strategy": CE, "schedule": TOY, **cfg}) == 2
    assert capsys.readouterr().err == f"error: {named}\n"


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    return err


@pytest.mark.parametrize("argv, named", [
    # delta(257) divides by 16.0 ** 256, which overflows
    (["--rules", "geometric", "--tests", "257"], "test 257: p(j) or delta(j) overflows a float"),
    (["--rules", "geometric", "--tests", "256"], "test 12: no sample size up to 2^62"),
])
def test_schedule_refusal_names_the_planned_test(capsys, argv, named):
    assert main(["schedule", "--game", GAME, "--strategy", CE, *argv]) == 2
    assert _one_error_line(capsys).startswith(f"error: {named}")


def test_schedule_stops_reading_rules_at_the_first_bad_test(monkeypatch, capsys):
    # harmonic p(1075) = 2^-1075 is 0.0; all 10^7 tests' rules used to be read first
    calls = []
    rules = sched.harmonic_rules()
    monkeypatch.setattr(sched, "harmonic_rules", lambda: dataclasses.replace(
        rules, p_rule=lambda j: calls.append(j) or rules.p_rule(j)))
    assert main(["schedule", "--game", GAME, "--strategy", CE, "--tests", "10000000"]) == 2
    assert _one_error_line(capsys) == "error: test 1075: p must be in (0, 1), got 0.0\n"
    assert len(calls) == 1075


def test_simulate_config_decay_that_overflows_names_the_test(tmp_path, capsys):
    # delta(3) divides by 1e308 ** 2
    schedule = {**GEOMETRIC, "delta_decay": 1e308, "horizon_tests": 3}
    assert _simulate(tmp_path, {"game": GAME, "strategy": CE, "schedule": schedule}) == 2
    assert _one_error_line(capsys) == "error: test 3: p(j) or delta(j) overflows a float\n"


@pytest.mark.parametrize("where, key", [
    ((), "round"), (("schedule",), "alhpa"), (("agents", 0), "fallbak"),
    (("agents", 1, "learner"), "watch_agnet"),
    (("schedule",), "horizon_tests"),  # a toy schedule's lengths are literal
])
def test_simulate_config_with_an_unknown_key_exits_2_naming_it(tmp_path, capsys, where, key):
    # a misspelled key used to be ignored, and the run played on the defaults
    cfg = {"game": GAME, "strategy": CE, "schedule": dict(TOY),
           "agents": [{"fallback": [1, 0]}, {"learner": {"name": "trigger"}}]}
    node = cfg
    for step in where:
        node = node[step]
    node[key] = 5
    assert _simulate(tmp_path, cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and repr(key) in err
    assert not (tmp_path / "o" / "summary.json").exists()


@pytest.mark.parametrize("agents, named", [
    ([{"fallback": [1]}, {}], "strategy of agent 1 has the wrong action count"),
    ([{}, {"fallback": [1]}], "strategy of agent 2 has the wrong action count"),
    ([{}, {"fallback": [0.5, 0.75]}], "strategy of agent 2 sums to 1.25"),
], ids=["first-length", "second-length", "second-sum"])
def test_simulate_bad_fallback_names_the_agent_from_1(tmp_path, capsys, agents, named):
    # the config numbers its agents from 1, as an unknown key's refusal does; a bad
    # fall-back of the first agent used to be refused as "strategy of agent 0"
    cfg = {"game": GAME, "strategy": CE, "schedule": TOY, "agents": agents}
    assert _simulate(tmp_path, cfg) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and named in err


# JSON true and "0.5" used to be read as 1.0 and 0.5, and a ragged utilities array
# leaked numpy's message, which named no field
UTILITIES = [[0, 1], [2, 5], [5, 2], [1, 0]]  # fixtures/small_game.json's
NOT_NUMBERS = [
    ("strategy", [True, False, False, False], "correlated strategy must hold numbers, got True"),
    ("strategy", ["0.25"] * 4, "correlated strategy must hold numbers, got '0.25'"),
    ("game", [[0, 1], [2, 5], [5, True], [1, 0]], "utilities must hold numbers, got True"),
    ("game", [[0, 1], [2, 5], [5, "3"], [1, 0]], "utilities must hold numbers, got '3'"),
    ("game", [[0, 1], [2, 5], [5], [1, 0]], "utilities must hold numbers, got [0, 1]"),
]


@pytest.mark.parametrize("command", ["check-ce", "plan", "simulate"])
@pytest.mark.parametrize("field, value, named", NOT_NUMBERS,
                         ids=["strategy-true", "strategy-text", "utilities-true",
                              "utilities-text", "utilities-ragged"])
def test_game_or_strategy_entries_that_are_not_numbers_exit_2_naming_the_field(
        tmp_path, capsys, command, field, value, named):
    game, strategy = tmp_path / "game.json", tmp_path / "strategy.json"
    game.write_text(json.dumps({"action_counts": [2, 2],
                                "utilities": value if field == "game" else UTILITIES}))
    strategy.write_text(json.dumps(value if field == "strategy" else [0.25] * 4))
    files = {"game": str(game), "strategy": str(strategy)}
    if command == "simulate":
        code = _simulate(tmp_path, {**files, "schedule": TOY})
    else:
        argv = [command, "--game", files["game"], "--strategy", files["strategy"]]
        code = main(argv + (["--p", "0.1", "--delta-hat", "0.01"] if command == "plan" else []))
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and named in err


@pytest.mark.parametrize("mixes, named", [
    ({"1": [True, False]}, "strategy of agent 1 must hold numbers, got True"),
    ({"2": ["0.5", "0.5"]}, "strategy of agent 2 must hold numbers, got '0.5'"),
], ids=["true", "text"])
@pytest.mark.parametrize("source", ["profile", "fallback"])
def test_mix_entries_that_are_not_numbers_exit_2_naming_the_agent(tmp_path, capsys, mixes,
                                                                  named, source):
    if source == "profile":  # test --simulate-under
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps(mixes))
        code = main(["test", "--game", GAME, "--strategy", CE, "--mc-samples", "1000",
                     "--simulate-under", str(profile)])
    else:  # a simulate config's fall-backs
        agents = [{"fallback": mixes[str(i)]} if str(i) in mixes else {} for i in (1, 2)]
        code = _simulate(tmp_path, {"game": GAME, "strategy": CE, "schedule": TOY,
                                    "agents": agents})
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and named in err


@pytest.mark.parametrize("schedule", [GEOMETRIC, {"kind": "harmonic", "horizon_tests": 1}],
                         ids=["geometric", "harmonic"])
def test_planned_schedule_config_with_an_unknown_key_exits_2_naming_it(tmp_path, capsys,
                                                                       schedule):
    cfg = {"game": GAME, "strategy": CE, "schedule": {**schedule, "alpha": 0.1}}
    assert _simulate(tmp_path, cfg) == 2
    assert "unknown key 'alpha'" in capsys.readouterr().err


@pytest.mark.parametrize("record", ["count", True, 3])
def test_simulate_record_other_than_full_or_counts_exits_2(tmp_path, capsys, record):
    # any value but "counts" used to run and write a full transcript
    cfg = {"game": GAME, "strategy": CE, "schedule": TOY, "record": record}
    assert _simulate(tmp_path, cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "record" in err
    assert not (tmp_path / "o" / "transcript.csv").exists()


@pytest.mark.parametrize("strategy", [CE, NON_CE])
@pytest.mark.parametrize("params", [{"watch_agent": 5}, {"watch_agent": -1}, {"watch_action": 2}])
def test_simulate_trigger_outside_the_game_exits_2(tmp_path, capsys, strategy, params):
    # on the CE fixture nobody rejects, so the trigger never observes a round
    learner = {"name": "trigger", **params}
    cfg = {"game": GAME, "strategy": strategy, "schedule": TOY,
           "agents": [{"learner": learner}, {"learner": learner}]}
    assert _simulate(tmp_path, cfg) == 2
    assert "trigger" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [(), ("--seeds", "2")])
def test_simulate_phase_beyond_int64_exits_2(tmp_path, capsys, extra):
    cfg = {"game": GAME, "strategy": CE, "record": "counts",
           "schedule": {**TOY, "free_lengths": [2**64]}}
    assert _simulate(tmp_path, cfg, *extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "2**63" in err


def test_simulate_batch_of_zero_round_runs_exits_2(tmp_path, capsys):
    # no round means no average utility to aggregate
    cfg = {"game": GAME, "strategy": CE, "schedule": TOY, "rounds": 0}
    assert _simulate(tmp_path, cfg, "--seeds", "2") == 2
    assert "no rounds" in capsys.readouterr().err


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_simulate_seeds_below_one_exits_2(tmp_path, capsys, seeds):
    # 0 is a value, not an absent flag: it must not fall through to a full-record run
    out = tmp_path / "o"
    code = main(["simulate", "--config", "fixtures/sim_config.json", "--out", str(out),
                 "--seeds", seeds])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--seeds" in err
    assert not out.exists()


def test_simulate_mc_samples_flag_of_0_overrides_the_config(tmp_path, capsys):
    # the config's 2000 samples would plan (and find the test infeasible);
    # the flag's 0 must be refused instead of replaced by the config's value
    cfg = {"game": GAME, "strategy": CE, "mc_samples": 2000, "record": "counts",
           "schedule": {"kind": "harmonic", "horizon_tests": 1}}
    assert _simulate(tmp_path, cfg, "--mc-samples", "0") == 2
    assert "--mc-samples must be at least 1000" in capsys.readouterr().err


@pytest.mark.parametrize("schedule", [TOY, GEOMETRIC, {"kind": "harmonic", "horizon_tests": 1}],
                         ids=["toy", "geometric", "harmonic"])
def test_simulate_refuses_mc_samples_below_the_bound_for_every_schedule_kind(tmp_path, capsys,
                                                                             schedule):
    # a toy schedule never estimates psi, so the bound must be checked up front
    # the flag is refused by its own name, the config's entry by the library's argument
    cfg = {"game": GAME, "strategy": CE, "record": "counts", "schedule": schedule}
    low = str(verifier.MIN_MC_SAMPLES - 1)
    for cfg_, extra, name in [
        (cfg, ("--mc-samples", "5", "--seeds", "1"), "--mc-samples"),
        (cfg, ("--mc-samples", low), "--mc-samples"),
        ({**cfg, "mc_samples": 2000}, ("--mc-samples", low), "--mc-samples"),
        ({**cfg, "mc_samples": 5}, (), "mc_samples"),
    ]:
        assert _simulate(tmp_path, cfg_, *extra) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {name} must be at least {verifier.MIN_MC_SAMPLES}, got ")
    if schedule is TOY:
        assert _simulate(tmp_path, cfg, "--mc-samples", str(verifier.MIN_MC_SAMPLES)) == 0
        # a valid flag overrides a config entry that would be refused
        assert _simulate(tmp_path, {**cfg, "mc_samples": 5}, "--mc-samples", "1000") == 0


def test_simulate_one_agent_fictitious_play_exits_0(tmp_path):
    # with no opponents, fictitious play best-responds to the empty profile
    (tmp_path / "game.json").write_text(json.dumps({"action_counts": [2],
                                                    "utilities": [[1.0], [2.0]]}))
    (tmp_path / "sigma.json").write_text("[0.5, 0.5]")
    cfg = {"game": str(tmp_path / "game.json"), "strategy": str(tmp_path / "sigma.json"),
           "agents": [{"learner": {"name": "fictitious-play"}}], "schedule": TOY}
    assert _simulate(tmp_path, cfg) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    # screened out (uniform advice is no equilibrium), it plays its better action
    assert summary["decisions"]["agent1.test1"]["outcome"] == "RejectByEq2"
    assert summary["phases"][1]["avg_utility"] == [2.0]


# replacement values for mutated configs: every JSON type, small numbers only,
# and paths to files of the wrong kind
_VALUES = st.sampled_from([None, True, -1, 0, 3, 0.5, "x", ".", GAME, NON_CE, [], [0], [0.5, 0.5],
                           [None], {}, {"name": "trigger"}])
_LEARNERS = st.fixed_dictionaries({}, optional={
    "name": st.sampled_from(["uniform", "fictitious-play", "trigger", "no-such"]),
    **{key: st.integers(-2, 3) for key in
       ("initial_action", "switch_action", "watch_agent", "watch_action")},
})


def _slots(node):
    """(container, key) of every entry of every object and array in a JSON value."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in list(items):
        yield node, key
        yield from _slots(value)


@st.composite
def _mutated_configs(draw):
    with open("fixtures/sim_config.json") as fh:
        cfg = json.load(fh)
    cfg["schedule"].update(test_lengths=[30, 30], free_lengths=[60, 60])
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["drop", "swap", "add", "learner"]))
        if op == "learner" and isinstance(cfg.get("agents"), list) and cfg["agents"]:
            agent = draw(st.sampled_from(cfg["agents"]))
            if isinstance(agent, dict):
                agent["learner"] = draw(_LEARNERS)
        elif op == "add":
            key = draw(st.sampled_from(["rounds", "record"]))
            cfg[key] = copy.deepcopy(draw(_VALUES | st.just("counts")))
        else:
            container, key = draw(st.sampled_from(list(_slots(cfg))))
            if op == "drop":
                container.pop(key)
            else:
                container[key] = copy.deepcopy(draw(_VALUES))  # the pool's values stay unmutated
    return cfg


@settings(max_examples=100, deadline=None)
@given(cfg=_mutated_configs(), batch=st.booleans())
def test_simulate_mutated_configs_exit_cleanly(cfg, batch):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        cfg_path = Path(tmp) / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        argv = ["simulate", "--config", str(cfg_path), "--out", str(Path(tmp) / "o")]
        code = main(argv + (["--seeds", "2"] if batch else []))
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1


# each JSON input's flag -> the rest of a call that reads it
_READERS = {
    "--game": ["test", "--strategy", CE],
    "--strategy": ["test", "--game", GAME],
    "--counts": ["test", "--game", GAME, "--strategy", CE],
    "--simulate-under": ["test", "--game", GAME, "--strategy", CE, "--mc-samples", "1000"],
    "--config": ["simulate"],
}


@pytest.mark.parametrize("flag", list(_READERS))
def test_a_file_that_is_not_json_is_refused_naming_it(tmp_path, capsys, flag):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main([*_READERS[flag], flag, str(bad)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {bad} is not JSON: Expecting value: line 1 column 1 (char 0)\n"


def test_every_json_document_comes_from_one_encoder(tmp_path, capsys):
    # plan.json, summary.json, batch_summary.json, manifest.json and the stdout of
    # plan and test: each is sim._json of its own parse, byte for byte
    texts = {}
    common = ["--game", GAME, "--strategy", CE, "--mc-samples", "1000"]
    assert main(["plan", *common, "--p", "0.1", "--delta-hat", "0.01",
                 "--out", str(tmp_path / "plan")]) == 0
    texts["plan stdout"] = capsys.readouterr().out
    assert main(["test", *common, "--counts", "fixtures/accept_counts.json"]) == 0
    texts["test stdout"] = capsys.readouterr().out.removesuffix("do not reject\n")
    cfg = {"game": GAME, "strategy": CE, "schedule": TOY}
    for name, extra in [("run", ()), ("batch", ("--seeds", "3"))]:
        (tmp_path / name).mkdir()
        assert _simulate(tmp_path / name, cfg, *extra) == 0
    for path in sorted(tmp_path.glob("*/**/*.json")):
        if path.name != "cfg.json":
            texts[path.relative_to(tmp_path).as_posix()] = path.read_text()
    assert set(texts) == {"plan stdout", "test stdout", "plan/plan.json", "plan/manifest.json",
                          "run/o/summary.json", "run/o/manifest.json",
                          "batch/o/batch_summary.json", "batch/o/manifest.json"}
    for name, text in texts.items():
        assert text == sim._json(json.loads(text)), name
