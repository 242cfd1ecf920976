import json
from dataclasses import replace

import pytest

from semibus import analytic
from semibus.cli import bundled_path, main
from semibus.model import load_scenario, save_scenario


def test_analytic_model1_report(capsys):
    assert main(["analytic", "--scenario", "model1"]) == 0
    out = capsys.readouterr().out
    assert "SI" in out and "0.8019" in out
    assert "88.03" in out
    assert "favorable" in out


def test_analytic_zonal_table(capsys):
    assert main(["analytic", "--scenario", "model1", "--v-h", "50"]) == 0
    out = capsys.readouterr().out
    assert "zones n_o" in out


def test_analytic_json_zonal_table_is_zonal_plan(tmp_path, capsys):
    assert main(["analytic", "--scenario", "model1", "--v-h", "50", "--n-max", "4", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "model1_analytic.json").read_text())
    scenario = load_scenario(bundled_path("model1"))
    svc = replace(scenario.service, v_h=50.0)
    plan = analytic.zonal_plan(scenario.cost, scenario.grid, svc, report["md_km"], 4)
    assert [r["n"] for r in report["zonal"]["table"]] == [1, 2, 3, 4]
    assert [r["total"] for r in report["zonal"]["table"]] == [r.total for r in plan.table]
    assert (report["zonal"]["n_opt"], report["zonal"]["n_continuous"]) == (plan.n_opt, plan.n_continuous)
    # printed rows start with n and the zone headway n * 15 min
    rows = capsys.readouterr().out.splitlines()[-4:]
    assert [row.split()[:2] for row in rows] == [["1", "15"], ["2", "30"], ["3", "45"], ["4", "60"]]


def test_analytic_parallel_figures_use_the_screening_access(tmp_path, capsys):
    # this s_o / 2 does not survive the trip through minutes (* 60 / 60)
    base = load_scenario(bundled_path("model1"))
    path = tmp_path / "scenario.json"
    save_scenario(replace(base, service=replace(base.service, s_o=2 * 0.035191402383526194)), path)
    assert main(["analytic", "--scenario", str(path), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "model1_analytic.json").read_text())
    scenario = load_scenario(path)
    md, mean_access = analytic.screening_dispersion(scenario.grid), analytic.screening_mean_access(scenario.service)
    par = analytic.parallel_metrics(scenario.cost, scenario.service, md, mean_access, 2)
    assert (report["si_p"], report["parallel_bound"]) == (par.si, par.demand_bound)


def test_screen_ranking(capsys):
    rc = main(["screen", "--scenario", "cta126", "model1", "cta84", "model2"])
    assert rc == 0
    out = capsys.readouterr().out
    order = [line.split()[1] for line in out.strip().splitlines()[1:]]
    assert order == ["cta126", "model1", "cta84", "model2"]


def test_unknown_verb_exits_1(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_help_exits_0():
    assert main(["--help"]) == 0


def test_validation_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    from semibus.cli import bundled_path

    data = json.loads(bundled_path("model1").read_text())
    data["service"].pop("headway_h", None)
    data["service"]["headway_min"] = 0
    bad.write_text(json.dumps(data))
    assert main(["analytic", "--scenario", str(bad)]) == 1
    assert "non-positive parameter" in capsys.readouterr().err


def test_missing_scenario_exits_1(capsys):
    assert main(["analytic", "--scenario", "nope.json"]) == 1
    assert "not found" in capsys.readouterr().err


def test_simulate_writes_reports(tmp_path, capsys):
    rc = main(
        ["simulate", "--scenario", "model1", "--out", str(tmp_path), "--replications", "8", "--seed", "4", "--trace"]
    )
    assert rc == 0
    for name in ("model1_stats.json", "model1_table.csv", "model1_delta_tc_hist.csv", "model1_trace.csv"):
        assert (tmp_path / name).exists()
    out = capsys.readouterr().out
    assert "delta_tc" in out


def test_simulate_json_format_writes_only_the_stats_file(tmp_path):
    argv = ["simulate", "--scenario", "model1", "--replications", "4", "--seed", "3", "--out"]
    assert main(argv + [str(tmp_path / "csv")]) == 0
    assert main(argv + [str(tmp_path / "json"), "--format", "json"]) == 0
    assert [p.name for p in (tmp_path / "json").iterdir()] == ["model1_stats.json"]
    assert (tmp_path / "json" / "model1_stats.json").read_bytes() == (tmp_path / "csv" / "model1_stats.json").read_bytes()


def test_simulate_byte_identical_reruns(tmp_path):
    for sub in ("one", "two"):
        assert (
            main(["simulate", "--scenario", "model1", "--out", str(tmp_path / sub), "--replications", "6", "--seed", "4"])
            == 0
        )
    for name in ("model1_stats.json", "model1_table.csv", "model1_delta_tc_hist.csv"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_simulate_runtime_error_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    rc = main(["simulate", "--scenario", "model1", "--out", str(blocker), "--replications", "2"])
    assert rc == 2


def test_sweep_cli(tmp_path, capsys):
    rc = main(
        [
            "sweep",
            "--scenario",
            "model1",
            "--dimension",
            "lambda",
            "--values",
            "40,60",
            "--replications",
            "5",
            "--out",
            str(tmp_path),
            "--seed",
            "6",
        ]
    )
    assert rc == 0
    lines = (tmp_path / "model1_lambda_sweep.csv").read_text().strip().splitlines()
    assert lines[0].startswith("value,delta_tc_median")
    assert len(lines) == 3


def test_ingest_cli_roundtrip(tmp_path):
    from semibus.cli import bundled_path

    out = tmp_path / "rebuilt.json"
    rc = main(
        [
            "ingest",
            "--data",
            str(bundled_path("cta126").parent / "cta126_boardings.csv"),
            "--route-id",
            "126",
            "--template",
            "cta126",
            "--out",
            str(out),
            "--name",
            "rebuilt",
        ]
    )
    assert rc == 0
    scenario = load_scenario(out)
    assert scenario.name == "rebuilt"
    assert scenario.grid.gl_x == pytest.approx(10.9)


def test_trace_replays_replication_0(tmp_path):
    import numpy as np

    from semibus.cli import bundled_path
    from semibus.simulator import sample_requests, simulate_requests, write_trace

    argv = ["simulate", "--scenario", "model1", "--out", str(tmp_path), "--replications", "3", "--seed", "4"]
    assert main(argv + ["--trace"]) == 0
    scenario = load_scenario(bundled_path("model1"))
    rng = np.random.default_rng(np.random.SeedSequence([4], spawn_key=(0,)))
    requests = sample_requests(scenario.grid, scenario.service, rng)
    expected = tmp_path / "expected_trace.csv"
    write_trace(simulate_requests(scenario, "amsod", requests), scenario.service, expected)
    assert (tmp_path / "model1_trace.csv").read_bytes() == expected.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [  # explicit ids: adding or removing a case renames no other
        pytest.param(["simulate", "--scenario", "model1", "--replications", "0"], id="argv0"),
        pytest.param(["simulate", "--scenario", "model1", "--workers", "-3"], id="argv1"),
        pytest.param(["sweep", "--scenario", "model1", "--dimension", "lambda", "--values", "40", "--replications", "0"], id="argv2"),
        pytest.param(["sweep", "--scenario", "model1", "--dimension", "lambda", "--values", "40", "--workers", "0"], id="argv3"),
        pytest.param(["analytic", "--scenario", "model1", "--n-max", "0"], id="argv4"),
    ],
)
def test_count_flags_below_one_are_usage_errors(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path)]) == 1
    assert "usage" in capsys.readouterr().err.lower()
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "section,key,value",
    [
        ("grid", "gl_x_km", float("inf")),
        ("service", "horizon_h", float("inf")),
        ("service", "capacity", 30.7),
    ],
)
def test_bad_scenario_numbers_exit_1(section, key, value, tmp_path, capsys):
    from semibus.cli import bundled_path

    data = json.loads(bundled_path("model1").read_text())
    data[section][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    for verb in (["analytic"], ["simulate", "--replications", "1"]):
        assert main(verb + ["--scenario", str(bad), "--out", str(tmp_path / "out")]) == 1
        assert f"{section}.{key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_reproduce_script_writes_the_screen_ranking(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import semibus

    script = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_results.py"
    src = str(Path(semibus.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run(
        [sys.executable, str(script), "--replications", "2", "--out", str(tmp_path / "script")],
        env=env,
        check=True,
        capture_output=True,
        timeout=300,
    )
    assert main(["screen", "--scenario", "cta126", "model1", "cta84", "model2", "--out", str(tmp_path / "cli")]) == 0
    ranking = "screen_ranking.csv"
    assert (tmp_path / "script" / ranking).read_bytes() == (tmp_path / "cli" / ranking).read_bytes()


@pytest.mark.parametrize(
    "run,field",
    [
        (5, "run"),
        ({"replicatons": 3}, "replicatons"),
        ({"replications": 0}, "run.replications"),
        ({"seed": -1}, "run.seed"),
    ],
    ids=["not-an-object", "misspelt-key", "zero-replications", "negative-seed"],
)
def test_bad_run_object_exits_1(run, field, tmp_path, capsys):
    from semibus.cli import bundled_path

    data = json.loads(bundled_path("model1").read_text())
    data["run"] = run
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["simulate", "--scenario", str(bad), "--replications", "1", "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    assert not (tmp_path / "out").exists()


def test_negative_seed_flag_is_a_usage_error(tmp_path, capsys):
    assert main(["simulate", "--scenario", "model1", "--seed", "-1", "--out", str(tmp_path)]) == 1
    assert "usage" in capsys.readouterr().err.lower()
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("script", ["reproduce_results.py", "run_sensitivity.py"])
@pytest.mark.parametrize("flag", ["--replications", "--workers"])
def test_script_count_flags_below_one_are_usage_errors(script, flag, tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import semibus

    path = Path(__file__).resolve().parents[1] / "scripts" / script
    src = str(Path(semibus.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(path), "--replications", "1", "--workers", "1", flag, "0", "--out", str(tmp_path / "out")],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2  # argparse's usage-error status
    assert "must be at least 1" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flag,value,message",
    [("--capacities", "15.5", "service.capacity: non-integer count"), ("--demands", "abc", "invalid values_arg value")],
)
def test_sensitivity_script_bad_values_are_usage_errors(flag, value, message, tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import semibus

    path = Path(__file__).resolve().parents[1] / "scripts" / "run_sensitivity.py"
    src = str(Path(semibus.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(path), "--replications", "1", flag, value, "--out", str(tmp_path / "out")],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2  # argparse's usage-error status
    assert message in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("v_h", ["0", "-5", "nan", "inf"])
def test_analytic_bad_v_h_exits_1(v_h, tmp_path, capsys):
    assert main(["analytic", "--scenario", "model1", f"--v-h={v_h}", "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert "service.v_h: speed ordering" in captured.err and captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "dimension,values,message",
    [
        ("capacity", "15.5,20", "service.capacity: non-integer count"),
        ("lambda", "abc", "usage"),
        ("lambda", "nan", "service.lambda: non-finite number"),
        ("capacity", "inf", "service.capacity: non-finite number"),
        ("lambda", "60,40", "strictly increasing"),
        ("lambda", ",", "nonempty"),
    ],
)
def test_bad_sweep_values_exit_1(dimension, values, message, tmp_path, capsys):
    argv = ["sweep", "--scenario", "model1", "--dimension", dimension, "--values", values]
    assert main(argv + ["--replications", "2", "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("catchment", ["-1", "nan"])
def test_ingest_refuses_what_the_loader_would(catchment, tmp_path, capsys):
    data = tmp_path / "stops.csv"
    data.write_text("stop_id,routes,chainage_km,boardings\na,1,0.0,5\nb,1,0.5,6\nc,1,1.0,7\n")
    out = tmp_path / "built.json"
    argv = ["ingest", "--data", str(data), "--route-id", "1", "--template", "model1", "--out", str(out)]
    assert main(argv + [f"--default-catchment-km={catchment}"]) == 1
    assert "grid.gl_y" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("catchment", ["nan", "inf", "-1", "0"])
def test_ingest_refuses_a_bad_default_catchment_no_row_uses(catchment, tmp_path, capsys):
    from semibus.cli import bundled_path

    data = bundled_path("cta84").parent / "cta84_boardings.csv"  # every row names its own catchment_km
    out = tmp_path / "built.json"
    argv = ["ingest", "--data", str(data), "--route-id", "84", "--template", "cta84", "--out", str(out)]
    assert main(argv + [f"--default-catchment-km={catchment}"]) == 1
    err = capsys.readouterr().err
    assert "grid.gl_y" in err and "Traceback" not in err
    assert not out.exists()


def test_ingest_short_row_exits_2(tmp_path, capsys):
    data = tmp_path / "stops.csv"
    data.write_text("stop_id,routes,chainage_km,boardings\na,1,0.0,5\nb\nc,1,1.0,7\n")
    out = tmp_path / "built.json"
    assert main(["ingest", "--data", str(data), "--route-id", "1", "--template", "model1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: stops.csv line 3: missing routes, boardings, chainage_km"]
    assert not out.exists()


@pytest.mark.parametrize(
    "section,key,value",
    [
        ("service", "headway_h", [0.25]),
        ("grid", "l_x_km", [0.2]),
        ("service", "warmup_window_h", 1.0),
        ("grid", "stop_chainages_km", 0.4),
    ],
)
def test_wrong_value_shape_exits_1(section, key, value, tmp_path, capsys):
    from semibus.cli import bundled_path

    data = json.loads(bundled_path("model1").read_text())
    data[section][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["analytic", "--scenario", str(bad)]) == 1
    err = capsys.readouterr().err
    assert f"{section}.{key}: expected a {'number' if isinstance(value, list) else 'list'}" in err


def test_ingest_row_past_the_header_exits_2(tmp_path, capsys):
    data = tmp_path / "stops.csv"
    data.write_text("stop_id,routes,chainage_km,boardings,catchment_km\na,1,0.0,5,9,9\nb,1,0.5,6,\nc,1,1.0,7,\n")
    out = tmp_path / "built.json"
    assert main(["ingest", "--data", str(data), "--route-id", "1", "--template", "model1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: stops.csv line 2: 6 fields, header has 5"]
    assert not out.exists()


@pytest.mark.parametrize(
    "text,message",
    [
        ("stop_id,routes,lat,lon,boardings\na,1,41.877,-87.70,5\nb,1,41.877,-87.65,6\n", "stops.csv: lat/lon input requires a route axis"),
        ("stop_id,routes,chainage_km,boardings\na,1,0.0,5\nb,1,0.5,inf\n", "stops.csv line 3: non-finite boardings 'inf'"),
    ],
    ids=["latlon", "inf-boardings"],
)
def test_ingest_latlon_and_non_finite_rows_exit_2(text, message, tmp_path, capsys):
    # the CLI passes no route axis, so it reads chainage_km only
    data = tmp_path / "stops.csv"
    data.write_text(text)
    out = tmp_path / "built.json"
    assert main(["ingest", "--data", str(data), "--route-id", "1", "--template", "model1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()
