import json

import pytest

from advicecheck import NonConvergenceError, verifier
from advicecheck.cli import main

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


def test_check_ce_malformed_strategy(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[0.5, 0.2, 0.1, 0.1]")  # sums to 0.9
    code = main(["check-ce", "--game", GAME, "--strategy", str(bad)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_plan_prints_worked_values(capsys):
    code = main([
        "plan", "--game", GAME, "--strategy", CE,
        "--p", "0.1", "--delta-hat", "0.01", "--mc-samples", "50000", "--seed", "3",
    ])
    assert code == 0
    plan = json.loads(capsys.readouterr().out)
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


def test_cmd_schedule_infeasible_exits_2(capsys):
    code = main([
        "schedule", "--game", GAME, "--strategy", CE,
        "--rules", "harmonic", "--tests", "2", "--mc-samples", "20000",
    ])
    assert code == 2


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
