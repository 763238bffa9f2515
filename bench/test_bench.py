"""Tests of the benchmark itself (not of contesteq).

    python3 -m pytest bench/test_bench.py
"""

import json
import math
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_same_seed_gives_byte_identical_inputs(name):
    first = workloads.inputs_bytes(name, 7)
    assert workloads.inputs_bytes(name, 7) == first
    assert workloads.inputs_bytes(name, 8) != first


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_timed_prize_scales_are_powers_of_two(name):
    lo, hi = workloads.LOG2_K_RANGE
    exponents = {math.log2(case["prize"])
                 for case in workloads.WORKLOADS[name].generate(3)}
    assert all(e == int(e) and lo <= e <= hi for e in exponents)
    probe = [case["prize"] for case in
             workloads.WORKLOADS[name].generate(3, probe=True)]
    lo, hi = workloads.SCALE_PROBE_RANGE
    assert all(10.0 ** lo <= k < 10.0 ** hi for k in probe)


def test_scaled_time_cancels_a_slow_spell_and_a_stalled_kernel():
    ref = speed.REFERENCE_S
    assert speed.scaled([0.5], [ref], [ref]) == [0.5]
    slow = 1.2 * ref
    assert speed.scaled([0.6] * 3, [slow] * 3, [slow] * 3) == (
        pytest.approx([0.5] * 3))
    # one stalled kernel run is outvoted by its neighbours'
    assert speed.scaled([0.5] * 3, [ref, 9 * ref, ref], [ref] * 3) == (
        pytest.approx([0.5] * 3))


def test_self_time_of_nested_spans():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    rec = spans.Recorder(clock=lambda: next(ticks))
    with rec.span("op"):                    # 0 .. 10
        with rec.span("a"):                 # 1 .. 7
            with rec.span("b", keep=False):  # 2 .. 4
                pass
            with rec.span("b", keep=False):  # 5 .. 6
                pass
        with rec.span("c"):                 # 8 .. 9
            pass
    summary = spans.layer_sums(rec.summary())
    assert summary["calls"] == {"op": 1, "a": 1, "b": 2, "c": 1}
    assert summary["self_s"] == {"op": 3.0, "a": 3.0, "b": 3.0, "c": 1.0}
    assert summary["inclusive_s"] == {"op": 10.0, "a": 6.0, "b": 3.0,
                                      "c": 1.0}
    assert sum(summary["self_s"].values()) == 10.0
    assert summary["calls_by_parent"] == {"op<": 1, "a<op": 1, "b<a": 2,
                                          "c<op": 1}
    kept = {s.name: s for s in rec.spans}
    assert set(kept) == {"op", "a", "c"}  # leaf "b" is aggregated only
    assert kept["a"].parent == kept["c"].parent == kept["op"].ident
    assert kept["op"].parent == -1


def test_merge_adds_a_child_summary():
    child = spans.Recorder(clock=iter([0.0, 2.0]).__next__)
    with child.span("cli.main"):
        pass
    rec = spans.Recorder()
    rec.merge(child.summary())
    rec.merge(child.summary())
    sums = spans.layer_sums(rec.summary())
    assert sums["calls"] == {"cli.main": 2}
    assert sums["self_s"] == {"cli.main": 4.0}


@pytest.fixture
def fake_package(monkeypatch):
    home = types.ModuleType("fakepkg.home")
    user = types.ModuleType("fakepkg.user")

    def kernel(x):
        return 2 * x

    home.kernel = kernel
    user.kernel = kernel  # a `from .home import kernel` binding
    for module in (types.ModuleType("fakepkg"), home, user):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    return home, user, kernel


def test_every_binding_is_wrapped_and_a_missing_name_is_absent(fake_package):
    home, user, kernel = fake_package
    layers = (spans.Layer("home.kernel", "home", "kernel", False),
              spans.Layer("home.gone", "home", "renamed_away", True),
              spans.Layer("lost.fn", "lost", "fn", True))
    rec = spans.Recorder()
    with spans.installed(rec, "fakepkg", layers) as absent:
        assert absent == ["home.gone", "lost.fn"]
        assert user.kernel(1) == 2  # outside an op: not recorded
        with rec.span("op"):
            assert home.kernel(2) == 4 and user.kernel(3) == 6
    assert home.kernel is kernel and user.kernel is kernel
    assert spans.layer_sums(rec.summary())["calls"] == {"home.kernel": 2,
                                                       "op": 1}


def test_unexercised_layers_read_zero():
    values = spans.per_layer_values(spans.Recorder().summary(), 1, {})
    assert set(values) == {name for name, *_ in spans.PER_LAYER}
    assert all(v == 0.0 for v in values.values())


def test_real_package_layers_are_all_present():
    import contesteq.cli  # noqa: F401  (imports every module)
    from contesteq import dynamics, eos

    rec = spans.Recorder()
    with spans.installed(rec, "contesteq") as absent:
        assert absent == []
        assert eos.verify_equilibrium is dynamics.verify_equilibrium
        assert hasattr(dynamics.verify_equilibrium, "__wrapped__")
    assert not hasattr(dynamics.verify_equilibrium, "__wrapped__")


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([float(i) for i in range(1, 11)]) == (10.0, 100.0)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(
        workloads.WORKLOAD_NAMES)
    assert [w["why"] for w in spec["workloads"]] == [
        w.why for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in spans.PER_LAYER]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        run.END_TO_END_UNITS)
