"""Tests of the benchmark's tracer and correctness gate."""

from __future__ import annotations

import json
import sys
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import pytest

import gate
import run
from tracer import Tracer, instrumented

HEADER = "# convention: test\nn,method,improvement_pct,t_opt,coeffs,status\n"


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_calls():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        traced_inner()
        clock.now += 3.0

    traced_inner = tracer.wrap("inner", inner)
    tracer.wrap("outer", outer)()
    traced_inner()
    assert tracer.totals() == {"outer": (1, 4.0), "inner": (2, 4.0)}


def test_self_time_is_per_thread():
    tracer = Tracer()
    nap = 0.05
    barrier = threading.Barrier(2, timeout=10)

    def inner():
        time.sleep(nap)

    traced_inner = tracer.wrap("inner", inner)

    def outer():
        barrier.wait()
        time.sleep(nap)
        traced_inner()

    traced_outer = tracer.wrap("outer", outer)
    workers = [threading.Thread(target=traced_outer) for _ in range(2)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=10)
        assert not w.is_alive()
    totals = tracer.totals()
    # Each thread's inner span overlaps the other thread's outer span in
    # time; only a span on the same thread may be subtracted from it, so
    # neither total falls below two naps. The upper limit only rules out
    # double counting and leaves room for a loaded machine.
    assert totals["inner"][0] == 2 and totals["outer"][0] == 2
    assert 2 * nap <= totals["outer"][1] < 2 * nap + 0.5
    assert 2 * nap <= totals["inner"][1] < 2 * nap + 0.5


def test_parent_waiting_on_a_pool_keeps_its_wait_as_self_time():
    tracer = Tracer()
    nap = 0.05
    traced_inner = tracer.wrap("inner", lambda _: time.sleep(nap))

    def parent():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(traced_inner, range(2)))

    start = time.perf_counter()
    tracer.wrap("parent", parent)()
    wall = time.perf_counter() - start
    totals = tracer.totals()
    assert totals["parent"][1] >= nap
    assert totals["parent"][1] + totals["inner"][1] > wall


@pytest.fixture
def fake_package():
    pkg = types.ModuleType("fakepkg")
    mod_a = types.ModuleType("fakepkg.a")
    mod_b = types.ModuleType("fakepkg.b")

    def f(x):
        return x + 1

    @dataclass
    class Box:
        value: int

        def __post_init__(self):
            if self.value < 0:
                raise ValueError("negative")

    mod_a.f, mod_a.Box = f, Box
    # mod_b binds f by value, as ``from .a import f`` does
    exec("def g(x):\n    return f(f(x))\n", mod_b.__dict__)
    mod_b.f = f
    names = {"fakepkg": pkg, "fakepkg.a": mod_a, "fakepkg.b": mod_b}
    sys.modules.update(names)
    try:
        yield mod_a, mod_b
    finally:
        for name in names:
            sys.modules.pop(name, None)


def test_instrumented_patches_every_binding_and_restores(fake_package):
    mod_a, mod_b = fake_package
    original_f, original_hook = mod_a.f, mod_a.Box.__post_init__
    tracer = Tracer()
    with instrumented(tracer, "fakepkg", ("a.f", "a.Box", "a.gone")) as missing:
        assert mod_b.g(1) == 3
        mod_a.f(0)
        mod_a.Box(1)
        with pytest.raises(ValueError):
            mod_a.Box(-1)
    assert missing == ["a.gone"]
    totals = tracer.totals()
    assert totals["a.f"][0] == 3
    assert totals["a.Box"][0] == 2
    assert mod_a.f is original_f and mod_b.f is original_f
    assert mod_a.Box.__post_init__ is original_hook


def ghz_report(**changes):
    n, gamma, total_time = 8, 1.0, 100.0
    report = {
        "n": n,
        "gamma": gamma,
        "total_time": total_time,
        "t_opt": 0.5 / (n * gamma),
        "qfi": 0.092,
        "classical_fi_sld": 0.092,
        "delta_omega": gate.reference_limit(n, total_time, gamma),
    }
    report.update(changes)
    return report


def test_gate_accepts_consistent_outputs():
    rows = gate.parse_csv(
        (HEADER + "3,gen-ramsey,3.46,0.43,0.63;0.77,ok\n3,qfi,5.27,0.36,0.71;0.69,ok\n").encode()
    )
    assert gate.check_optimize_rows(rows) == []
    assert gate.check_curve_pair(rows[:1], rows[1:]) == []
    assert gate.check_qfi_report(ghz_report(), "ghz") == []


def test_gate_rejects_improvement_above_cap():
    rows = gate.parse_csv((HEADER + "3,gen-ramsey,40.0,0.43,0.63;0.77,ok\n").encode())
    assert gate.check_optimize_rows(rows)


def test_gate_rejects_failed_status():
    rows = gate.parse_csv((HEADER + "3,qfi,nan,nan,,failed\n").encode())
    assert gate.check_optimize_rows(rows)


def test_gate_rejects_qfi_row_below_genramsey():
    rows = gate.parse_csv(
        (HEADER + "3,gen-ramsey,3.46,0.43,0.63;0.77,ok\n3,qfi,3.45,0.36,0.71;0.69,ok\n").encode()
    )
    assert gate.check_optimize_rows(rows) == []
    assert gate.check_curve_pair(rows[:1], rows[1:])


def test_gate_rejects_ghz_report_off_the_reference_limit():
    report = ghz_report()
    report["delta_omega"] *= 1.0 - 0.005  # 0.5 percentage points better
    assert gate.check_qfi_report(report, "ghz")


def test_check_pass_counts_exit_codes_and_changed_bytes():
    jobs = {"ghz": ["qfi", "--scheme", "ghz"], "uncorrelated": ["qfi", "--scheme", "uncorrelated"]}
    good = json.dumps(ghz_report()).encode()
    seen = {}
    assert run.check_pass({"ghz": jobs["ghz"]}, {"ghz": (0, good)}, seen) == {"ghz": []}
    errors = run.check_pass(jobs, {"ghz": (0, good + b" "), "uncorrelated": (3, b"")}, seen)
    assert errors["ghz"] and errors["uncorrelated"]


def test_drawn_coefficients_repeat_for_a_seed():
    a = run.draw_coeffs(5, 8)
    assert a == run.draw_coeffs(5, 8) != run.draw_coeffs(6, 8)
    values = [float(x) for x in a.split(";")]
    assert len(values) == 5 and abs(sum(v * v for v in values) - 1.0) < 1e-12


def test_benchmark_json_names_what_run_reports():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = json.loads((run.BENCH / "spec.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in declared["workloads"]] == list(spec["workloads"])
    tables = [{t: (1, 0.5) for t in run.LAYER_TARGETS}]
    reported = run.layer_metrics([1.0], [1.1], tables)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == [
        (name, unit) for name, (_, unit) in reported.items()
    ]


def test_draws_give_each_seed_its_own_inputs():
    workload = {"draws": 2, "jobs": {"sweep": ["optimize", "--seed", "{seed}"]}}
    seeds = [argv[-1] for s in (0, 1, 2) for argv in run.build_jobs(workload, s).values()]
    assert seeds == ["0", "1", "2", "3", "4", "5"]
    assert list(run.build_jobs(workload, 0)) == ["sweep_0", "sweep_1"]


def test_pass_time_sums_per_job_medians():
    passes = [{"a": 1.0, "b": 2.0}, {"a": 5.0, "b": 2.2}, {"a": 1.2, "b": 9.0}]
    assert run.pass_time(passes) == pytest.approx(1.2 + 2.2)


def test_check_pass_compares_qfi_with_genramsey_of_the_same_seed():
    def csv(method, value):
        return (0, (HEADER + f"3,{method},{value},0.4,0.6;0.8,ok\n").encode())

    jobs = {
        f"{m}_{d}": ["optimize", "--method", m, "--seed", str(d)]
        for d in (0, 1)
        for m in ("genramsey", "qfi")
    }
    outputs = {
        "genramsey_0": csv("gen-ramsey", 3.0),
        "qfi_0": csv("qfi", 3.5),
        "genramsey_1": csv("gen-ramsey", 4.0),
        "qfi_1": csv("qfi", 4.5),
    }
    assert not any(run.check_pass(jobs, outputs, {}).values())
    outputs["qfi_1"] = csv("qfi", 3.9)  # above draw 0's gen-Ramsey, below its own
    errors = run.check_pass(jobs, outputs, {})
    assert errors["qfi_1"] and not errors["qfi_0"]
