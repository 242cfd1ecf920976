"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench -q
"""
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import checks
import workloads
from hostspeed import REF_BLOCK_S, HostSpeed
from spans import Span, Tracer, self_times, unattributed

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def test_self_time_of_a_span_tree():
    spans = [
        Span("root", 0.0, 10.0, None, None),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.leaf", 2.0, 3.0, 1, 0),
        Span("b", 3.0, 6.0, 0, 1),  # overlaps a: the union is what is covered
        Span("later", 11.0, 11.5, None, None),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 3.0, 0.5])
    # [-2, 12] less the roots [0, 10] and [11, 11.5]
    assert unattributed(spans, -2.0, 12.0) == pytest.approx(3.5)
    # a window that cuts a root counts only the part inside it
    assert unattributed(spans, 5.0, 11.25) == pytest.approx(1.0)


def test_tracer_nests_and_sums_self_time():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner", rep=3):
            pass
        with tracer.span("inner", rep=4):
            pass
    outer, first, second = tracer.spans
    assert (outer.parent, first.parent, second.parent) == (None, 0, 0)
    assert (first.rep, second.rep) == (3, 4)
    agg = tracer.by_name()
    assert agg["inner"][0] == 2
    assert agg["outer"][1] + agg["inner"][1] == pytest.approx(outer.duration)


def test_host_speed_scales_an_event_by_the_blocks_around_it():
    host = HostSpeed()
    host.tick()
    host.tick()  # the block gives the same result every time
    assert len(host.walls) == 2 and host.result is not None
    host.walls, host.cpus = [0.1, 0.3, 0.05], [0.1, 0.1, 0.2]
    assert host.wall_scale(0) == pytest.approx(REF_BLOCK_S / 0.2)
    assert host.wall_scale(1) == pytest.approx(REF_BLOCK_S / 0.175)
    assert host.cpu_scale(1) == pytest.approx(REF_BLOCK_S / 0.15)


@pytest.fixture(scope="module")
def model1_run():
    sb = workloads.import_semibus()
    scenario = sb.model.load_scenario(sb.cli.bundled_path("model1"))
    run = sb.experiments.run_scenario(scenario, replications=3, seed=(1729, 0))
    return sb, scenario, run


def test_replayed_run_passes(model1_run):
    sb, scenario, run = model1_run
    ledger = checks.Ledger()
    op = ledger.new_op()
    counts = workloads.verify_run(sb, ledger, op, scenario, (1729, 0), run)
    assert ledger.failed == set()
    assert counts["reps"] == 3 and counts["requests"] > 0


def test_perturbed_delta_tc_fails_its_operation(model1_run):
    sb, scenario, run = model1_run
    ledger = checks.Ledger()
    ok, bad = ledger.new_op(), ledger.new_op()
    values = list(run.delta_tc_values)
    values[1] += 1e-9
    workloads.verify_run(sb, ledger, ok, scenario, (1729, 0), run)
    workloads.verify_run(sb, ledger, bad, scenario, (1729, 0), replace(run, delta_tc_values=tuple(values)))
    assert (ledger.attempted, ledger.failed) == (2, {bad})


def test_wrong_operator_cost_and_ranking_are_caught(model1_run):
    _, _, run = model1_run
    summary = run.fixed.metrics["operator_cost"]
    assert checks.operator_cost("model1", summary) == []
    assert checks.operator_cost("model1", replace(summary, p97_5=120.5))
    assert checks.screen_ranking("rank,scenario\n1,model1\n2,cta126\n3,cta84\n4,model2\n")


def test_acceptance_intervals():
    med = {
        name: {"delta_tc": -100.0, "fixed.avg_wait_min": 7.5, "fixed.avg_ivtt_min": 14.0,
               "amsod.avg_wait_min": 13.0, "amsod.avg_ivtt_min": 15.0}
        for name in workloads.CORRIDORS
    }
    med["model1"]["amsod.avg_wait_min"] = 9.0
    med["cta126"]["fixed.avg_ivtt_min"] = 20.0
    med["cta84"]["fixed.avg_wait_min"] = 10.0
    assert checks.acceptance(med) == []
    med["model1"]["delta_tc"] = 0.5  # the paper's sign claim: conversion pays
    assert [name for name, _ in checks.acceptance(med)] == ["model1"]
