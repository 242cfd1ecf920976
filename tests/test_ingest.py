import pytest
from pytest import approx

from semibus import ingest
from semibus.cli import bundled_path
from semibus.model import ScenarioError, scenario_problems


def write_csv(path, rows, header="stop_id,routes,chainage_km,boardings,catchment_km"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


def test_parse_well_formed_rows(tmp_path):
    path = write_csv(
        tmp_path / "stops.csv",
        ["a,126,0.0,10,", "b,126,0.5,20,0.3", 'c,"126,20",1.0,5,'],
    )
    records = ingest.parse_boardings(path, "126")
    assert len(records) == 3
    assert records[1].catchment_km == approx(0.3)
    assert records[2].chainage_km == approx(1.0)
    # a row may leave out the trailing catchment_km
    short = write_csv(tmp_path / "short.csv", ["a,126,0.0,10", "b,126,0.5,20,0.3"])
    assert [r.catchment_km for r in ingest.parse_boardings(short, "126")] == [None, approx(0.3)]


def test_parse_filters_other_routes(tmp_path):
    path = write_csv(tmp_path / "stops.csv", ["a,126,0.0,10,", "b,20,0.5,20,"])
    records = ingest.parse_boardings(path, "126")
    assert [r.stop_id for r in records] == ["a"]


def test_parse_bad_boardings_names_line(tmp_path):
    path = write_csv(tmp_path / "stops.csv", ["a,126,0.0,10,", "b,126,0.5,n/a,"])
    with pytest.raises(ValueError, match="line 3"):
        ingest.parse_boardings(path, "126")
    short = write_csv(tmp_path / "short.csv", ["a,126,0.0,10,", "b"])  # a stop id only
    with pytest.raises(ValueError, match="short.csv line 3: missing routes, boardings, chainage_km"):
        ingest.parse_boardings(short, "126")
    latlon = write_csv(tmp_path / "latlon.csv", ["a,9,41.877,-87.70,10", "b,9,abc,-87.65,10"], header="stop_id,routes,lat,lon,boardings")
    axis = ingest.RouteAxis(lat0=41.877, lon0=-87.70, lat1=41.877, lon1=-87.60)
    with pytest.raises(ValueError, match="latlon.csv line 3: non-numeric lat/lon 'abc'"):
        ingest.parse_boardings(latlon, "9", axis=axis)
    # float() reads these; unrefused, the loader named a grid field and no row
    for rows, message in [
        (["a,126,0.0,10,", "b,126,0.5,inf,"], "line 3: non-finite boardings 'inf'"),
        (["a,126,nan,10,"], "line 2: non-finite chainage 'nan'"),
        (["a,126,0.0,10,", "b,126,0.5,20,NaN"], "line 3: non-finite catchment 'NaN'"),
    ]:
        with pytest.raises(ValueError, match=f"nonfinite.csv {message}"):
            ingest.parse_boardings(write_csv(tmp_path / "nonfinite.csv", rows), "126")
    latlon = write_csv(tmp_path / "latlon.csv", ["a,9,41.877,-87.70,10", "b,9,41.877,-inf,10"], header="stop_id,routes,lat,lon,boardings")
    with pytest.raises(ValueError, match="latlon.csv line 3: non-finite lat/lon '41.877', '-inf'"):
        ingest.parse_boardings(latlon, "9", axis=axis)


def test_parse_refuses_fields_past_the_header(tmp_path):
    # csv.DictReader files the extras under the key None; unrefused, the
    # first row read catchment 9 km and the unquoted route list shifted
    # every field of the second
    for rows in (["a,1,0.0,5,9,9"], ["a,126,0.0,10,", "c,126,20,1.0,5,"]):
        path = write_csv(tmp_path / "wide.csv", rows)
        with pytest.raises(ValueError, match=f"wide.csv line {len(rows) + 1}: 6 fields, header has 5"):
            ingest.parse_boardings(path, rows[-1].split(",")[1])


def test_parse_missing_column(tmp_path):
    path = tmp_path / "stops.csv"
    path.write_text("stop_id,chainage_km\na,0.0\n")
    with pytest.raises(ValueError, match="routes"):
        ingest.parse_boardings(path, "126")


def test_parse_empty_result(tmp_path):
    path = write_csv(tmp_path / "stops.csv", ["a,20,0.0,10,"])
    with pytest.raises(ValueError, match="no stops for route"):
        ingest.parse_boardings(path, "126")


def test_parse_latlon_projection(tmp_path):
    path = tmp_path / "stops.csv"
    path.write_text(
        "stop_id,routes,lat,lon,boardings\n"
        "a,9,41.877,-87.70,10\n"
        "b,9,41.877,-87.65,10\n"
        "c,9,41.877,-87.60,10\n"
    )
    axis = ingest.RouteAxis(lat0=41.877, lon0=-87.70, lat1=41.877, lon1=-87.60)
    records = ingest.parse_boardings(path, "9", axis=axis)
    chain = [r.chainage_km for r in records]
    assert chain[0] == approx(0.0, abs=1e-9)
    assert chain[1] == approx(chain[2] / 2, rel=1e-6)
    assert 7.0 < chain[2] < 9.0  # ~0.1 deg lon at Chicago latitude


def test_equal_boardings_equal_weights(tmp_path):
    rows = [f"s{i},126,{0.5 * i},12," for i in range(4)]
    records = ingest.parse_boardings(write_csv(tmp_path / "s.csv", rows), "126")
    grid = ingest.build_grid(records, l_x=0.2, l_y=0.1, d_xs=0.5, default_catchment_km=0.2)
    assert grid.stop_weights == (0.25, 0.25, 0.25, 0.25)
    assert grid.gl_x == approx(1.5)


def test_zero_boarding_stop_keeps_place(tmp_path):
    rows = ["a,126,0.0,0,", "b,126,0.5,10,", "c,126,1.0,10,"]
    records = ingest.parse_boardings(write_csv(tmp_path / "s.csv", rows), "126")
    grid = ingest.build_grid(records, 0.2, 0.1, 0.5, 0.2)
    assert grid.stop_weights[0] == 0.0
    assert grid.n_stops == 3


def test_duplicate_chainages_merge(tmp_path):
    rows = ["a,126,0.0,5,", "b,126,0.5,10,0.4", "c,126,0.5,20,0.8", "d,126,1.0,5,"]
    records = ingest.parse_boardings(write_csv(tmp_path / "s.csv", rows), "126")
    grid = ingest.build_grid(records, 0.2, 0.1, 0.5, 0.2)
    assert grid.n_stops == 3
    assert grid.stop_weights[1] == approx(30 / 40)
    assert grid.gl_y[1] == approx(0.8)


def test_all_zero_boardings_rejected(tmp_path):
    rows = ["a,126,0.0,0,", "b,126,0.5,0,"]
    records = ingest.parse_boardings(write_csv(tmp_path / "s.csv", rows), "126")
    with pytest.raises(ValueError, match="all-zero"):
        ingest.build_grid(records, 0.2, 0.1, 0.5, 0.2)


def test_bundled_cta126_configuration(cta126):
    # built from the bundled boardings fixture via the same pipeline
    records = ingest.parse_boardings(bundled_path("cta126").parent / "cta126_boardings.csv", "126")
    rebuilt = ingest.build_route_model(records, cta126, default_catchment_km=0.2)
    assert rebuilt.grid == cta126.grid
    assert cta126.grid.gl_x == approx(10.9)
    assert cta126.service.demand_rate == 80.0
    assert cta126.service.v_d == 30.0
    assert cta126.service.t_s * 60 == approx(0.33)
    assert sum(cta126.grid.stop_weights) == approx(1.0, abs=1e-12)


def test_bundled_cta84_catchment_varies(cta84):
    assert cta84.grid.max_gl_y == approx(0.8)
    assert min(cta84.grid.gl_y) == approx(0.2)
    assert not any(v.severity == "error" for v in scenario_problems(cta84))


def test_built_scenarios_validate(tmp_path, cta126):
    rows = [f"s{i},126,{0.25 * i},{5 + i}," for i in range(8)]
    records = ingest.parse_boardings(write_csv(tmp_path / "s.csv", rows), "126")
    scenario = ingest.build_route_model(records, cta126, name="mini")
    assert not any(v.severity == "error" for v in scenario_problems(scenario))
    assert scenario.name == "mini"


def test_non_finite_boardings_refused(tmp_path, cta126):
    rows = ["a,126,0.0,5,", "b,126,0.5,nan,", "c,126,1.0,7,"]
    with pytest.raises(ValueError, match="s.csv line 3: non-finite boardings 'nan'"):
        ingest.parse_boardings(write_csv(tmp_path / "s.csv", rows), "126")
    # records built in Python skip the parser; the scenario rules still refuse them
    records = [ingest.StopRecord(s, "126", x, b) for s, x, b in [("a", 0.0, 5.0), ("b", 0.5, float("nan")), ("c", 1.0, 7.0)]]
    with pytest.raises(ScenarioError, match="stop_weights"):
        ingest.build_route_model(records, cta126)
