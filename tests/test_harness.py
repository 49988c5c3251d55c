"""Experiment harness: reproducibility, skip accounting, scaling fits, CLI."""
import json
import math
import os

import pytest

from qvilab import (
    ORACLES,
    ExperimentConfig,
    FiniteHorizonMdp,
    ResultRow,
    exact_value_iteration,
    fit_scaling,
    random_mdp,
    run_experiment,
)
from qvilab.cli import main as cli_main
from qvilab.harness import read_csv, trial_seed, write_csv


def small_config(**overrides):
    base = dict(
        algorithm="qvi3",
        sweep={"S": (3,), "A": (2,), "H": (3,), "eps": (0.4,), "delta": (0.1,)},
        trials=2,
        master_seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_vi_baseline_always_succeeds():
    rows = run_experiment(small_config(algorithm="vi"))
    assert all(r.status == "completed" and r.success for r in rows)
    assert all(r.v_gap == 0.0 and r.policy_gap == 0.0 for r in rows)


def test_rerun_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_experiment(small_config(out_path=str(out1)))
    run_experiment(small_config(out_path=str(out2)))
    assert out1.read_bytes() == out2.read_bytes()
    sidecar = json.loads((tmp_path / "a.csv.config.json").read_text())
    assert sidecar["algorithm"] == "qvi3"
    assert sidecar["csv_schema_version"] == 1


def test_different_master_seed_changes_rows(tmp_path):
    rows_a = run_experiment(small_config())
    rows_b = run_experiment(small_config(master_seed=6))
    assert rows_a[0].seed != rows_b[0].seed
    assert rows_a[0].v_gap != rows_b[0].v_gap


def test_skipped_points_are_accounted():
    config = small_config(
        algorithm="qvi4",
        sweep={"S": (3,), "A": (2,), "H": (4,), "eps": (0.5, 3.0), "delta": (0.1,)},
        trials=3,
    )
    rows = run_experiment(config)
    assert len(rows) == 2 * 3  # points x trials
    skipped = [r for r in rows if r.status == "skipped"]
    assert len(skipped) == 3
    assert all("sqrt(H)" in r.skip_reason for r in skipped)


@pytest.mark.parametrize(
    "delta, reason",
    [(0.999, "estimator failure budget"), (1.5, "delta must be in (0, 1), got 1.5")],
)
def test_infeasible_delta_gives_skipped_rows_not_a_crash(delta, reason):
    config = small_config(sweep={"S": (2,), "A": (2,), "H": (2,), "delta": (0.1, delta)})
    rows = run_experiment(config)
    assert [r.status for r in rows] == ["completed"] * 2 + ["skipped"] * 2
    assert all(reason in r.skip_reason and r.ledger_counts == {} for r in rows[2:])


def test_skip_reason_with_commas_round_trips_through_csv(tmp_path):
    path = tmp_path / "eta.csv"
    rows = run_experiment(small_config(
        algorithm="qvi5", sweep={"S": (4,), "A": (2,), "H": (2,), "eta": (0.6,)},
        out_path=str(path)))
    back = read_csv(path)
    assert [r["skip_reason"] for r in back] == [r.skip_reason for r in rows]
    assert back[0]["skip_reason"] == "eta must be in (0, 1/2), got 0.6"
    assert back[0]["success"] == "" and back[0]["q_total"] == "0"


def test_trial_seeds_are_distinct_counters():
    seeds = {trial_seed(1, p, t) for p in range(4) for t in range(4)}
    assert len(seeds) == 16


def test_fixed_mdp_path(tmp_path):
    path = tmp_path / "fixed.json"
    random_mdp(4, 3, 3, seed=9).save(path)
    rows = run_experiment(small_config(mdp_path=str(path),
                                       sweep={"eps": (0.4, 0.2)}, trials=1))
    assert all(r.S == 4 and r.A == 3 and r.H == 3 for r in rows)


def synthetic_rows(exponent, axis="A", values=(4, 8, 16, 32), scale=100.0):
    rows = []
    for i, x in enumerate(values):
        count = int(round(scale * x**exponent))
        point = dict(S=5, A=3, H=4, eps=0.3, delta=0.1, eta=0.05)
        point[axis] = x
        rows.append(
            ResultRow(
                point_index=i, trial=0, algo="qvi3",
                S=point["S"], A=point["A"], H=point["H"],
                eps=point["eps"], delta=point["delta"], eta=point["eta"],
                seed=i, status="completed", skip_reason="", success=True,
                v_gap=0.0, policy_gap=0.0, q_gap=None,
                ledger_counts={"quantum_generative": count}, wall_time=0.0,
            )
        )
    return rows


def test_fit_recovers_planted_square_root_signal():
    fit = fit_scaling(synthetic_rows(0.5, scale=1e6), "A", oracle="quantum_generative")
    assert abs(fit.slope - 0.5) <= 0.02


def test_fit_recovers_planted_inverse_eps_signal():
    rows = synthetic_rows(-1.0, axis="eps", values=(0.4, 0.2, 0.1, 0.05), scale=1e6)
    fit = fit_scaling(rows, "eps", oracle="quantum_generative")
    assert abs(fit.slope - (-1.0)) <= 0.02


def test_fit_requires_three_distinct_values():
    with pytest.raises(ValueError):
        fit_scaling(synthetic_rows(0.5, values=(4, 8)), "A", oracle="quantum_generative")


def test_qvi1_consecutive_ledger_ratios_near_sqrt_two():
    config = small_config(
        algorithm="qvi1",
        sweep={"S": (5,), "A": (4, 8, 16), "H": (4,), "delta": (0.1,)},
        trials=1,
    )
    rows = [r for r in run_experiment(config) if r.status == "completed"]
    totals = [r.ledger_counts["quantum_mdp"] for r in rows]
    for prev, nxt in zip(totals, totals[1:]):
        assert math.sqrt(2) * 0.85 <= nxt / prev <= math.sqrt(2) * 1.15


def test_fit_on_measured_eps_sweep():
    config = small_config(
        sweep={"S": (5,), "A": (4,), "H": (4,), "eps": (0.4, 0.2, 0.1, 0.05), "delta": (0.1,)},
        trials=2,
    )
    rows = run_experiment(config)
    fit = fit_scaling(rows, "eps", oracle="quantum_generative")
    assert abs(fit.slope - (-1.0)) <= 0.15


def test_csv_round_trip_and_fit_from_file(tmp_path):
    rows = synthetic_rows(0.5, scale=1e6)
    path = tmp_path / "rows.csv"
    write_csv(rows, path)
    back = read_csv(path)
    assert len(back) == len(rows)
    fit = fit_scaling(back, "A", oracle="quantum_generative")
    assert abs(fit.slope - 0.5) <= 0.02


def test_parallel_jobs_match_serial(tmp_path):
    config = small_config(
        sweep={"S": (3, 4), "A": (2,), "H": (3,), "eps": (0.4,), "delta": (0.1,)},
        trials=2,
        out_path=str(tmp_path / "serial.csv"),
    )
    run_experiment(config, jobs=1)
    config2 = small_config(
        sweep={"S": (3, 4), "A": (2,), "H": (3,), "eps": (0.4,), "delta": (0.1,)},
        trials=2,
        out_path=str(tmp_path / "parallel.csv"),
    )
    run_experiment(config2, jobs=2)
    assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "parallel.csv").read_bytes()


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(algorithm="nope")
    with pytest.raises(ValueError):
        ExperimentConfig(algorithm="vi", trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(algorithm="vi", sweep={"S": ()})


@pytest.mark.parametrize("field", ["noise_mode", "qms_budget_mode"])
def test_config_rejects_unknown_modes(field):
    with pytest.raises(ValueError, match=field):
        ExperimentConfig(algorithm="qvi3", **{field: "bogus"})


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_gen_solve_sweep_fit(tmp_path, capsys):
    mdp_path = str(tmp_path / "m.json")
    assert cli_main(["gen", "--kind", "m1", "--S", "7", "--A", "3", "--H", "4",
                     "--out", mdp_path]) == 0
    mdp = FiniteHorizonMdp.load(mdp_path)
    assert (mdp.num_states, mdp.num_actions, mdp.horizon) == (7, 3, 4)

    out_json = str(tmp_path / "r.json")
    assert cli_main(["solve", "--mdp", mdp_path, "--algo", "qvi1",
                     "--delta", "0.1", "--out", out_json]) == 0
    blob = json.loads(open(out_json).read())
    assert blob["algorithm"] == "qvi1"
    assert "value gap 0" in capsys.readouterr().out

    csv_path = str(tmp_path / "sweep.csv")
    assert cli_main(["sweep", "--algo", "qvi3", "--S", "4", "--A", "3", "--H", "3",
                     "--eps", "0.4", "0.2", "0.1", "--trials", "2", "--seed", "3",
                     "--out", csv_path]) == 0
    assert cli_main(["fit", "--results", csv_path, "--axis", "eps",
                     "--oracle", "quantum_generative"]) == 0
    out = capsys.readouterr().out
    assert "slope" in out


def test_cli_gen_horizon_reduction(tmp_path):
    base_path = str(tmp_path / "base.json")
    random_mdp(3, 2, 1, seed=0).save(base_path)
    out_path = str(tmp_path / "reduced.json")
    assert cli_main(["gen", "--kind", "horizon-reduction", "--base", base_path,
                     "--gamma", "0.5", "--eps", "0.2", "--out", out_path]) == 0
    mdp = FiniteHorizonMdp.load(out_path)
    assert mdp.num_states == 4  # sink appended
    assert mdp.horizon == math.ceil(2 / 0.5 * math.log(2 / 0.2))


def test_cli_env_seed_override(tmp_path, capsys):
    mdp_path = str(tmp_path / "m.json")
    cli_main(["gen", "--kind", "random", "--S", "4", "--A", "3", "--H", "3",
              "--out", mdp_path])
    out_json = str(tmp_path / "r.json")
    os.environ["QVI_SEED"] = "123"
    try:
        cli_main(["solve", "--mdp", mdp_path, "--algo", "qvi2", "--eps", "0.4",
                  "--seed", "7", "--out", out_json])
    finally:
        del os.environ["QVI_SEED"]
    assert json.loads(open(out_json).read())["seed"] == 123


def test_cli_solve_vi_writes_the_result_payload(tmp_path):
    mdp_path = str(tmp_path / "m.json")
    random_mdp(4, 3, 3, seed=1).save(mdp_path)
    out_json = str(tmp_path / "vi.json")
    assert cli_main(["solve", "--mdp", mdp_path, "--algo", "vi", "--seed", "4",
                     "--out", out_json]) == 0
    blob = json.loads(open(out_json).read())
    pi, v, q = exact_value_iteration(FiniteHorizonMdp.load(mdp_path))
    assert blob == {
        "algorithm": "vi",
        "policy": pi.actions.tolist(),
        "V": v.values.tolist(),
        "Q": q.qvalues.tolist(),
        "ledger": {name: 0 for name in ORACLES},
        "config": {},
        "seed": 4,
    }
    assert list(blob) == ["algorithm", "policy", "V", "Q", "ledger", "config", "seed"]


def test_cli_solve_reports_infeasible_params_as_an_error(tmp_path, capsys):
    mdp_path = str(tmp_path / "m.json")
    random_mdp(3, 2, 2, seed=0).save(mdp_path)
    out_json = tmp_path / "r.json"
    code = cli_main(["solve", "--mdp", mdp_path, "--algo", "qvi3", "--delta", "1.5",
                     "--out", str(out_json)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: delta must be in (0, 1), got 1.5\n"
    assert not out_json.exists()
