import json
from dataclasses import replace

import pytest

from semibus.model import (
    CostParams,
    GridGeometry,
    Scenario,
    ScenarioError,
    ServiceConfig,
    load_scenario,
    require_valid,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)


def grid_m1():
    return GridGeometry(
        l_x=0.2,
        l_y=0.1,
        gl_x=10.0,
        gl_y=8 / 60 * 4,
        stop_chainages=tuple(0.4 * i for i in range(25)),
        stop_weights=(0.04,) * 25,
        d_xs=0.4,
    )


def svc_m1():
    return ServiceConfig(
        headway=0.25,
        capacity=30,
        v_d=35.0,
        v_w=4.0,
        t_s=0.4 / 60,
        t_s_prime=0.4 / 60,
        demand_rate=60.0,
        s_o=8 / 60,
    )


def test_model1_parameters_valid():
    problems = validate_scenario(CostParams(), grid_m1(), svc_m1())
    assert [p for p in problems if p.severity == "error"] == []


def test_negative_operator_cost_rejected():
    problems = validate_scenario(CostParams(gamma_o=-1.0), grid_m1(), svc_m1())
    assert any(p.rule == "non-positive parameter" and "gamma_o" in p.field for p in problems)


def test_unnormalized_weights_rejected():
    grid = replace(grid_m1(), stop_chainages=(0.0, 1.0), stop_weights=(0.5, 0.4), gl_y=(0.5, 0.5))
    problems = validate_scenario(CostParams(), grid, svc_m1())
    assert any(p.rule == "weights not normalized" for p in problems)


def test_unsorted_stops_rejected():
    grid = replace(grid_m1(), stop_chainages=(1.0, 0.5), stop_weights=(0.5, 0.5), gl_y=(0.5, 0.5))
    problems = validate_scenario(CostParams(), grid, svc_m1())
    assert any(p.rule == "unsorted stops" for p in problems)


def test_catchment_beyond_walk_reach_is_warning_only():
    # widening s_o is the documented fix, so this must not be fatal
    svc = replace(svc_m1(), s_o=2 / 60)
    problems = validate_scenario(CostParams(), grid_m1(), svc)
    walk = [p for p in problems if p.rule == "catchment exceeds walk reach"]
    assert walk and all(p.severity == "warning" for p in walk)
    assert not any(p.severity == "error" for p in problems)


def test_zonal_requires_highway_speed():
    svc = replace(svc_m1(), n_zones=2)
    problems = validate_scenario(CostParams(), grid_m1(), svc)
    assert any(p.rule == "missing v_h" for p in problems)


def test_validation_is_idempotent():
    args = (CostParams(gamma_o=-1.0), grid_m1(), svc_m1())
    assert validate_scenario(*args) == validate_scenario(*args)


def test_scalar_catchment_expands_per_stop():
    grid = grid_m1()
    assert len(grid.gl_y) == grid.n_stops
    assert grid.max_gl_y == pytest.approx(8 / 60 * 4)


@pytest.mark.parametrize("name", ["model1", "model2", "cta126", "cta84"])
def test_scenario_roundtrip(name, request, tmp_path):
    scenario = request.getfixturevalue(name)
    path = tmp_path / "roundtrip.json"
    save_scenario(scenario, path)
    again = load_scenario(path)
    assert replace(again, name=scenario.name) == scenario


def test_unit_suffixes_equivalent(model1):
    data = scenario_to_dict(model1)
    data["service"].pop("headway_h")
    data["service"]["headway_min"] = 15
    data["grid"].pop("d_xs_km")
    data["grid"]["d_xs_m"] = 400
    alt = scenario_from_dict(data, name=model1.name)
    assert alt.service.headway == pytest.approx(0.25)
    assert alt.grid.d_xs == pytest.approx(0.4)


def test_missing_section_reported(model1):
    data = scenario_to_dict(model1)
    del data["service"]
    with pytest.raises(ScenarioError, match="service"):
        scenario_from_dict(data)


def test_unknown_field_reported(model1):
    data = scenario_to_dict(model1)
    data["service"]["headwa_min"] = 15
    with pytest.raises(ScenarioError, match="headwa_min"):
        scenario_from_dict(data)


def test_zero_headway_rejected(model1, tmp_path):
    data = scenario_to_dict(model1)
    data["service"].pop("headway_h")
    data["service"]["headway_min"] = 0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ScenarioError, match="non-positive parameter"):
        load_scenario(path)


def test_parse_error_carries_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"cost": {,}')
    with pytest.raises(ScenarioError, match="line"):
        load_scenario(path)


def test_trip_cost_total_is_component_sum(model1):
    from semibus.model import TripCosts

    tc = TripCosts(c_a=1.5, c_w=2.5, c_r=3.0, c_o=4.0, per_passenger=(), k_j=0)
    assert tc.total == 1.5 + 2.5 + 3.0 + 4.0


@pytest.mark.parametrize(
    "section,key,value,rule",
    [
        ("grid", "gl_x_km", float("inf"), "non-finite number"),
        ("service", "horizon_h", float("inf"), "non-finite number"),
        ("cost", "vot", float("nan"), "non-finite number"),
        ("grid", "stop_weights", [float("nan")] + [0.04] * 24, "non-finite number"),
        ("grid", "gl_y_km", [float("-inf")] * 25, "non-finite number"),
        pytest.param("grid", "l_x_km", 10**400, "non-finite number", id="grid-l_x_km-beyond-float-range"),
        ("grid", "stop_chainages_km", ["0.0"] * 25, "non-numeric value"),
        ("service", "capacity", 30.7, "non-integer count"),
        ("service", "n_parallel", 1.5, "non-integer count"),
        ("service", "n_zones", float("inf"), "non-finite number"),
        ("service", "n_zones", 2.5, "non-integer count"),
        ("run", "seed", 1729.5, "non-integer count"),
        ("run", "replications", 10.5, "non-integer count"),
        ("run", "replications", "100", "non-integer count"),
    ],
)
def test_bad_numbers_refused_at_parse(model1, section, key, value, rule):
    data = scenario_to_dict(model1)
    data[section][key] = value
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(data)
    assert [(p.field, p.rule) for p in info.value.problems] == [(f"{section}.{key}", rule)]


def test_integer_valued_counts_accepted(model1):
    data = scenario_to_dict(model1)
    data["service"]["capacity"] = 30.0
    data["run"]["seed"] = 10**30
    scenario = scenario_from_dict(data)
    assert scenario.service.capacity == 30 and isinstance(scenario.service.capacity, int)
    assert scenario.seed == 10**30


@pytest.mark.parametrize("name", ["model1", "model2", "cta126", "cta84"])
def test_bundled_files_resave_byte_identical(name, tmp_path):
    from semibus.cli import bundled_path

    path = tmp_path / f"{name}.json"
    save_scenario(load_scenario(bundled_path(name)), path)
    assert path.read_bytes() == bundled_path(name).read_bytes()


def test_lambda_and_demand_rate_together_refused(model1):
    data = scenario_to_dict(model1)
    data["service"]["demand_rate"] = data["service"]["lambda"]
    with pytest.raises(ScenarioError, match="demand_rate"):
        scenario_from_dict(data)


@pytest.mark.parametrize(
    "field,value",
    [
        ("demand_rate", float("nan")),
        ("t_s", float("nan")),
        ("t_s_prime", float("nan")),
        ("v_h", float("nan")),
        ("t_s_prime", -0.1),
    ],
)
def test_bad_service_values_named_by_field(field, value):
    problems = validate_scenario(CostParams(), grid_m1(), replace(svc_m1(), **{field: value}))
    assert [p.field for p in problems if p.severity == "error"] == [f"service.{field}"]


NAN = float("nan")


@pytest.mark.parametrize(
    "section,field,value,rules",
    [
        ("grid", "stop_weights", (0.04,) * 24 + (NAN,), ["negative parameter", "weights not normalized"]),
        ("grid", "stop_chainages", (0.0, NAN) + tuple(0.4 * i for i in range(2, 25)), ["unsorted stops"]),
        ("grid", "stop_chainages", tuple(0.4 * i for i in range(24)) + (NAN,), ["unsorted stops", "stop outside route"]),
        ("service", "capacity", 15.5, ["non-integer count"]),
        ("service", "n_zones", 1.0, ["non-integer count"]),
        ("run", "seed", 1729.5, ["non-integer count"]),
    ],
)
def test_nan_and_non_integer_values_refused_before_a_run(section, field, value, rules):
    # unrefused, the NaN weight gives numbers, the NaN chainage an
    # IndexError in the simulator and capacity 15.5 a TypeError
    scenario = Scenario("bad", CostParams(), grid_m1(), svc_m1())
    if section == "run":
        scenario = replace(scenario, **{field: value})
    else:
        scenario = replace(scenario, **{section: replace(getattr(scenario, section), **{field: value})})
    with pytest.raises(ScenarioError) as info:
        require_valid(scenario)
    assert [(p.field, p.rule) for p in info.value.problems] == [(f"{section}.{field}", rule) for rule in rules]
