"""Experiment harness: reproducibility, skip accounting, scaling fits, CLI."""
import json
import math
import os
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from qvilab import cli, harness
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


def test_sweep_generates_each_size_once(monkeypatch):
    made = []

    def counting_random_mdp(*args, **kwargs):
        made.append(args)
        return random_mdp(*args, **kwargs)

    monkeypatch.setattr(harness, "random_mdp", counting_random_mdp)
    rows = run_experiment(small_config(sweep={"S": (3, 4), "A": (2,), "H": (2,),
                                              "eps": (0.4, 0.3), "delta": (0.1,)}))
    assert len(rows) == 8 and all(r.status == "completed" for r in rows)
    assert made == [(3, 2, 2), (4, 2, 2)]

    made.clear()  # a sweep this small runs in-process even with jobs=2
    rows = run_experiment(small_config(sweep={"S": (3, 4), "A": (2,), "H": (2,),
                                              "eps": (0.4, 0.3, 0.2), "delta": (0.1,)},
                                       trials=2), jobs=2)
    assert len(rows) == 12 and all(r.status == "completed" for r in rows)
    assert made == [(3, 2, 2), (4, 2, 2)]


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
                ledger_counts={"quantum_generative": count},
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


def test_parallel_jobs_match_serial(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "_POOL_MIN_SECONDS", 0)  # force the pool on a tiny sweep
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


def test_pool_threshold_weighs_each_algorithm(monkeypatch):
    assert set(harness._NS_PER_ENTRY) == set(harness.ALGORITHMS)
    pools = []

    class CountingPool(harness.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
    sweep = {"S": (3, 4), "A": (2,), "H": (2,), "eps": (0.4,), "delta": (0.1,)}
    entries = 2 * (2 * 3**2 * 2 + 2 * 4**2 * 2)  # trials * sum of H * S^2 * A
    # A threshold between the two estimates: qvi4's entries cost more than qvi3's.
    threshold = entries * 1e-9 * (harness._NS_PER_ENTRY["qvi3"] + harness._NS_PER_ENTRY["qvi4"]) / 2
    monkeypatch.setattr(harness, "_POOL_MIN_SECONDS", threshold)
    for algorithm in ("qvi3", "qvi4"):
        rows = run_experiment(small_config(algorithm=algorithm, sweep=sweep), jobs=2)
        assert len(rows) == 4
    assert pools == [2]  # only the qvi4 sweep went to the pool


@st.composite
def sweep_grids(draw):
    """Keyword arguments of a small sweep (vi, qvi3 or qvi5; 1-3 eps values,
    1-2 trials; qvi5 also sweeps an infeasible eta) and the fixed instance it
    runs on, or None to generate 1-3 sizes."""
    algorithm = draw(st.sampled_from(["vi", "qvi3", "qvi5"]))
    sweep = {"eps": draw(st.lists(st.sampled_from([0.4, 0.3, 0.2]), min_size=1, max_size=3,
                                  unique=True)),
             "eta": [0.05, 0.6] if algorithm == "qvi5" else [0.05]}
    n_s, n_a, horizon = st.integers(2, 5), st.integers(1, 3), st.integers(1, 3)
    fixed = None
    if draw(st.booleans()):
        fixed = random_mdp(draw(n_s), draw(n_a), draw(horizon), seed=draw(st.integers(0, 99)))
    else:
        sweep.update(S=draw(st.lists(n_s, min_size=1, max_size=3, unique=True)),
                     A=[draw(n_a)], H=[draw(horizon)])
    kwargs = dict(algorithm=algorithm, sweep=sweep, trials=draw(st.integers(1, 2)),
                  master_seed=draw(st.integers(0, 99)),
                  sparsity=draw(st.sampled_from([1.0, 0.5])))
    return kwargs, fixed


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(grid=sweep_grids())
def test_sweep_output_is_independent_of_the_schedule(tmp_path_factory, grid):
    kwargs, fixed = grid
    root = tmp_path_factory.mktemp("sweep")
    if fixed is not None:
        fixed.save(root / "fixed.json")
        kwargs = dict(kwargs, mdp_path=str(root / "fixed.json"))
    config = ExperimentConfig(**kwargs)
    n_tasks = min(2, len(config.points())) if fixed else len(config.sweep["S"])
    pools = []

    class CountingPool(harness.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    outputs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "ProcessPoolExecutor", CountingPool)
        default = harness._POOL_MIN_SECONDS
        for name, jobs, threshold in [("serial", 1, default), ("in-process", 2, default),
                                      ("pool", 2, 0)]:
            mp.setattr(harness, "_POOL_MIN_SECONDS", threshold)
            (root / name).mkdir()
            mp.chdir(root / name)  # the same relative out_path keeps the sidecars equal
            rows = run_experiment(ExperimentConfig(out_path="out.csv", **kwargs), jobs=jobs)
            outputs.append((Path("out.csv").read_bytes(),
                            Path("out.csv.config.json").read_bytes()))
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    assert len(rows) == len(config.points()) * config.trials
    assert pools == ([2] if n_tasks >= 2 else [])
    if config.algorithm == "qvi5":
        assert any(r.status == "skipped" for r in rows)


def no_instance(*args, **kwargs):
    raise AssertionError("an instance was built")


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_is_an_error_before_any_instance(monkeypatch, jobs):
    monkeypatch.setattr(harness, "random_mdp", no_instance)
    with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
        run_experiment(small_config(), jobs=jobs)


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


BAD_SWEEPS = {
    "size-zero": (dict(sweep={"S": (5, 0)}), "sweep axis 'S' takes integers >= 1"),
    "fixed-mdp-two-sizes": (dict(sweep={"S": (5, 10)}, mdp_path="m.json"),
                            "sweep axis 'S' takes one value with a fixed mdp_path"),
    "fractional-size": (dict(sweep={"A": (2.5,)}), "sweep axis 'A' takes integers >= 1"),
    "zero-sparsity": (dict(sparsity=0.0), "sparsity must lie in"),
    "negative-seed": (dict(master_seed=-1), "master_seed must be an integer >= 0"),
    "fractional-trials": (dict(trials=1.5), "trials must be an integer >= 1, got 1.5"),
}


@pytest.mark.parametrize("bad, reason", BAD_SWEEPS.values(), ids=BAD_SWEEPS.keys())
def test_bad_sweep_config_is_an_error_before_any_instance(tmp_path, monkeypatch, bad, reason):
    monkeypatch.chdir(tmp_path)
    random_mdp(4, 3, 3, seed=0).save("m.json")
    monkeypatch.setattr(harness, "random_mdp", no_instance)
    with pytest.raises(ValueError, match=reason):
        run_experiment(ExperimentConfig(algorithm="qvi3", out_path="s.csv", **bad))
    assert not Path("s.csv").exists()


BAD_SWEEP_FLAGS = {
    "size-zero": (["--S", "5", "0"], "sweep axis 'S' takes integers >= 1, got (5, 0)"),
    "fixed-mdp-two-sizes": (["--mdp", "m.json", "--S", "5", "10"],
                            "sweep axis 'S' takes one value with a fixed mdp_path, got (5, 10)"),
    "zero-sparsity": (["--sparsity", "0"], "sparsity must lie in (0, 1], got 0.0"),
    "negative-seed": (["--seed", "-1"], "master_seed must be an integer >= 0, got -1"),
}


@pytest.mark.parametrize("flags, reason", BAD_SWEEP_FLAGS.values(), ids=BAD_SWEEP_FLAGS.keys())
def test_cli_sweep_reports_bad_config_as_an_error(tmp_path, monkeypatch, capsys, flags, reason):
    monkeypatch.chdir(tmp_path)
    random_mdp(4, 3, 3, seed=0).save("m.json")
    monkeypatch.setattr(harness, "random_mdp", no_instance)
    assert cli_main(["sweep", "--algo", "qvi3", *flags, "--out", "s.csv"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {reason}\n"
    assert captured.out == "" and not Path("s.csv").exists()


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
    blob = json.loads(Path(out_json).read_text())
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
    assert json.loads(Path(out_json).read_text())["seed"] == 123


def test_cli_solve_vi_writes_the_result_payload(tmp_path):
    mdp_path = str(tmp_path / "m.json")
    random_mdp(4, 3, 3, seed=1).save(mdp_path)
    out_json = str(tmp_path / "vi.json")
    assert cli_main(["solve", "--mdp", mdp_path, "--algo", "vi", "--seed", "4",
                     "--out", out_json]) == 0
    blob = json.loads(Path(out_json).read_text())
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


def test_cli_fit_reports_an_unfittable_sweep_as_an_error(tmp_path, capsys):
    csv_path = str(tmp_path / "s.csv")
    assert cli_main(["sweep", "--algo", "qvi3", "--S", "3", "4", "--A", "2", "--H", "2",
                     "--delta", "0.1", "0.999", "--out", csv_path]) == 0
    capsys.readouterr()
    assert cli_main(["fit", "--results", csv_path, "--axis", "S"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: need at least three distinct axis values to fit a slope\n"
    assert captured.out == ""


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


def test_cli_solve_rejects_more_than_one_accuracy_value(tmp_path, capsys):
    mdp_path = str(tmp_path / "m.json")
    random_mdp(3, 2, 2, seed=0).save(mdp_path)
    out_json = tmp_path / "r.json"
    code = cli_main(["solve", "--mdp", mdp_path, "--algo", "qvi3", "--eps", "0.3", "0.2",
                     "--delta", "0.1", "0.05", "--out", str(out_json)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: solve takes one --eps value, got [0.3, 0.2]\n"
    assert captured.out == "" and not out_json.exists()


def test_cli_sweep_reports_bad_jobs_as_an_error(tmp_path, capsys):
    csv_path = tmp_path / "s.csv"
    assert cli_main(["sweep", "--algo", "qvi3", "--S", "3", "--A", "2", "--H", "2",
                     "--jobs", "0", "--out", str(csv_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: jobs must be >= 1, got 0\n"
    assert captured.out == "" and not csv_path.exists()


BAD_SEEDS = {
    "solve-negative-flag": (["solve", "--mdp", "m.json", "--algo", "qvi2", "--seed", "-1"],
                            None, "rng_seed must be an integer >= 0, got -1"),
    "gen-negative-flag": (["gen", "--seed", "-1", "--out", "g.json"],
                          None, "seed must be an integer >= 0, got -1"),
    **{f"{command}-env-{name}": (argv, env, f"QVI_SEED must be an integer >= 0, got {env!r}")
       for command, argv in (
           ("solve", ["solve", "--mdp", "m.json", "--algo", "qvi2"]),
           ("sweep", ["sweep", "--algo", "qvi3", "--out", "s.csv"]),
           ("gen", ["gen", "--out", "g.json"]))
       for name, env in (("negative", "-1"), ("fractional", "1.5"), ("text", "seven"))},
}


@pytest.mark.parametrize("argv, env, reason", BAD_SEEDS.values(), ids=BAD_SEEDS.keys())
def test_cli_reports_a_bad_seed_before_any_instance(tmp_path, monkeypatch, capsys, argv, env,
                                                    reason):
    monkeypatch.chdir(tmp_path)
    random_mdp(3, 2, 2, seed=0).save("m.json")
    if env is not None:
        monkeypatch.setenv("QVI_SEED", env)
    for module, name in ((cli, "random_mdp"), (cli, "make_hard_instance"), (harness, "random_mdp")):
        monkeypatch.setattr(module, name, no_instance)
    monkeypatch.setattr(FiniteHorizonMdp, "load", no_instance)
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {reason}\n"
    assert captured.out == "" and not Path("s.csv").exists() and not Path("g.json").exists()


def test_cli_sweep_lets_internal_errors_raise(tmp_path, monkeypatch):
    def broken_task(*args):
        raise ValueError("internal fault")

    monkeypatch.setattr(harness, "_run_task", broken_task)
    with pytest.raises(ValueError, match="internal fault"):
        cli_main(["sweep", "--algo", "qvi3", "--S", "3", "--A", "2", "--H", "2",
                  "--out", str(tmp_path / "s.csv")])


BAD_FILES = {
    "solve-missing-mdp": (["solve", "--mdp", "missing.json", "--algo", "qvi3"],
                          r"\[Errno 2\] No such file or directory: 'missing\.json'"),
    "solve-malformed-mdp": (["solve", "--mdp", "bad.json", "--algo", "qvi3"],
                            r"Expecting ',' delimiter"),
    "solve-out-missing-directory": (["solve", "--mdp", "m.json", "--algo", "vi",
                                     "--out", "missing/r.json"],
                                    r"\[Errno 2\] No such file or directory: 'missing/r\.json'"),
    "sweep-malformed-mdp": (["sweep", "--mdp", "bad.json", "--algo", "qvi3", "--out", "s.csv"],
                            r"Expecting ',' delimiter"),
    "gen-missing-base": (["gen", "--kind", "horizon-reduction", "--base", "missing.json",
                          "--out", "g.json"],
                         r"\[Errno 2\] No such file or directory: 'missing\.json'"),
    "gen-zero-states": (["gen", "--S", "0", "--out", "g.json"],
                        r"--S, --A and --H must be >= 1, got 0, 3, 4"),
    "gen-zero-sparsity": (["gen", "--sparsity", "0", "--out", "g.json"],
                          r"sparsity must lie in \(0, 1\], got 0\.0"),
    "gen-m1-two-states": (["gen", "--kind", "m1", "--S", "2", "--out", "g.json"],
                          r"num_states must be >= 4 and congruent to 1 mod 3"),
    "gen-reduction-without-base": (["gen", "--kind", "horizon-reduction", "--out", "g.json"],
                                   r"--base is required for kind=horizon-reduction"),
    "gen-out-missing-directory": (["gen", "--out", "missing/g.json"],
                                  r"\[Errno 2\] No such file or directory: 'missing/g\.json'"),
    "fit-missing-results": (["fit", "--results", "missing.csv", "--axis", "S"],
                            r"\[Errno 2\] No such file or directory: 'missing\.csv'"),
}


@pytest.mark.parametrize("argv, reason", BAD_FILES.values(), ids=BAD_FILES.keys())
def test_cli_reports_file_and_size_errors_without_a_traceback(tmp_path, monkeypatch, capsys,
                                                              argv, reason):
    monkeypatch.chdir(tmp_path)
    Path("bad.json").write_text(json.dumps(random_mdp(3, 2, 2, seed=0).to_json())[:-30])
    random_mdp(3, 2, 2, seed=0).save("m.json")
    if "missing/g.json" not in argv:  # every other case fails before an instance is built
        for name in ("random_mdp", "make_hard_instance", "make_horizon_reduction"):
            monkeypatch.setattr(cli, name, no_instance)
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.endswith("\n")
    assert re.match(reason, captured.err[len("error: "):])
    assert captured.out == "" and not Path("s.csv").exists() and not Path("g.json").exists()
