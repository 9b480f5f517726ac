"""Tests of the end-to-end benchmark itself (``--quick`` sizes).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``; tier-1
(``testpaths = ["tests"]``) does not collect this file.
"""

from __future__ import annotations

import gc
import json
import os
import re
import subprocess
import sys

import pytest

import bench_e2e
import repro.recovery.manager as manager_module
from bench_e2e import (END_TO_END, PER_LAYER, BENCHMARK_JSON, benchmark_spec,
                       build_rig, check_batches, check_serve, result_line,
                       run_workload, trace_server)
from repro.recovery.checkpoint import checkpoint_structure
from repro.serve import Refusal, RefusalReason
from repro.serve.server import JournalEntry
from hostprobe import HostProbe
from spans import Recorder
from workloads import WORKLOADS, generate, resolve

#: Per-layer times that partition the timed phase: every instant of it is
#: inside exactly one of these.
PARTITION = [
    "serve.server.self_s", "bench.driver_s", "serve.admission.admit_s",
    "serve.coalesce.next_batch_s", "serve.policy.execute_self_s",
    "recovery.manager.run_self_s", "recovery.checkpoint.capture_s",
    "recovery.durable.append_s", "recovery.durable.snapshot_s",
    "structure.apply_batch_self_s", "sim.machine.issue_s",
    "sim.machine.drain_s",
]


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced(request):
    return run_workload(request.param, seed=1, trace=True, quick=True)


def test_every_metric_is_emitted_with_a_unit(traced):
    assert traced["correct"] and traced["failed"] == 0
    assert set(traced["end_to_end"]) == {m.name for m in END_TO_END}
    assert set(traced["per_layer"]) == {m.name for m in PER_LAYER}
    line = json.loads(result_line(traced))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m.name for m in PER_LAYER}
    assert all(v["unit"] and isinstance(v["value"], (int, float))
               for v in line["metrics"].values())
    assert all(v > 0 for v in traced["end_to_end"].values())


def test_self_times_and_remainder_sum_to_the_wall(traced):
    layers = traced["per_layer"]
    total = sum(layers[name] for name in PARTITION)
    assert total == pytest.approx(traced["timed_wall_s"], rel=1e-9)
    if traced["workload"].startswith("batch_"):
        assert layers["trace.named_share"] >= 0.95
        assert layers["serve.server.requests"] == 0


def test_host_times_are_reported_at_the_reference_hosts_speed(traced):
    clock, shown = traced["wall_clock"], traced["end_to_end"]
    slow = traced["host_slowdown"]
    assert slow > 0
    assert shown["ops_per_s"] == pytest.approx(clock["ops_per_s"] * slow)
    assert shown["lat_p50_ms"] == pytest.approx(clock["lat_p50_ms"] / slow)
    assert shown["lat_tail_ms"] == pytest.approx(clock["lat_tail_ms"] / slow)
    assert traced["timed_wall_s"] == pytest.approx(
        clock["timed_wall_s"] / slow)


def test_each_workload_exercises_the_layer_it_names(traced):
    layers = traced["per_layer"]
    name = traced["workload"]
    assert layers["sim.machine.drain_n"] > 0
    assert (layers["recovery.durable.fsync_n"] > 0) \
        == (name == "serve_durable_write")
    assert (layers["recovery.checkpoint.capture_n"] > 0) \
        == name.startswith("serve_")
    if name == "serve_durable_write":
        assert layers["recovery.durable.snapshot_n"] > 0
        assert layers["recovery.durable.open_s"] > 0
        assert layers["recovery.manager.restore_s"] > 0
    if name == "batch_write_churn":
        assert layers["structure.upsert_s"] > layers["structure.get_s"]


def test_tracing_is_undone_after_a_traced_run(traced):
    assert manager_module.checkpoint_structure is checkpoint_structure
    assert not [cb for cb in gc.callbacks
                if isinstance(getattr(cb, "__self__", None), Recorder)]
    assert gc.get_freeze_count() == 0  # the inputs are unfrozen again


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_a_pure_function_of_workload_and_seed(name):
    spec = resolve(name, quick=True)
    assert generate(spec, 5) == generate(spec, 5)
    assert generate(spec, 5) != generate(spec, 6)


def test_the_host_probe_keeps_its_own_time_and_scales_by_the_nominal():
    now = [0.0]

    def clock():
        now[0] += 0.5   # every burst reads the clock twice: 0.5 s each
        return now[0]

    probe = HostProbe(clock=clock)
    for _ in range(3):
        probe.burst()
    assert probe.samples == [0.5, 0.5, 0.5] and probe.spent == 1.5
    assert probe.due == now[0] + HostProbe.EVERY
    assert probe.slowdown() == pytest.approx(0.5 / HostProbe.NOMINAL_S)
    probe.samples.append(1.5)
    assert probe.slowdown(since=3) == pytest.approx(1.5 / HostProbe.NOMINAL_S)
    assert gc.isenabled()  # held off only while a burst runs


def test_span_arithmetic_on_a_nested_call_tree():
    now = [0.0]

    def work(seconds, *children):
        now[0] += seconds
        for child in children:
            child()
        now[0] += seconds

    rec = Recorder(clock=lambda: now[0])
    leaf = lambda: rec.call("leaf", work, 1.0)            # 2 s
    mid = lambda: rec.call("mid", work, 0.5, leaf, leaf)  # 1 + 4 s
    rec.call("outer", work, 2.0, mid, leaf)               # 4 + 5 + 2 s
    assert rec.total("outer").inclusive == 11.0
    assert rec.total("outer").self_s == 4.0
    assert rec.total("mid").self_s == 1.0
    assert (rec.total("leaf").n, rec.total("leaf").self_s) == (3, 6.0)
    assert rec.self_sum() == rec.root_s == 11.0
    parents = {span[0]: span[1] for span in rec.spans}
    names = {span[0]: span[2] for span in rec.spans}
    assert sorted(names[parents[i]] for i in parents if names[i] == "leaf") \
        == ["mid", "mid", "outer"]


def test_a_raising_call_still_closes_its_span():
    now = [0.0]

    def boom():
        now[0] += 3.0
        raise KeyError("x")

    rec = Recorder(clock=lambda: now[0])
    with pytest.raises(KeyError):
        rec.call("outer", lambda: rec.call("inner", boom))
    assert rec.total("inner").inclusive == 3.0
    assert rec.total("outer").self_s == 0.0
    rec.reset()  # would raise with a span still open
    assert not rec.totals


def test_tracing_touches_only_the_live_instances_and_is_undone(tmp_path):
    spec = resolve("serve_durable_write", quick=True)
    rig = build_rig(spec, generate(spec, 0), str(tmp_path))
    server = rig.server
    watched = {owner: type(owner) for owner in (
        server.admission, server.coalescer, server.policy, server.manager,
        server.durable, rig.live, rig.live.machine)}
    untouched = {cls: dict(vars(cls)) for cls in watched.values()}
    rebuild = server.manager.rebuild
    try:
        rec = Recorder()
        trace_server(rec, server, {"capture_items": 0, "snapshot_bytes": 0})
        # Each traced instance gets a subclass of its own; the classes
        # themselves (and so every other instance) are untouched.
        assert all(type(owner) is not cls and isinstance(owner, cls)
                   for owner, cls in watched.items())
        assert all(dict(vars(cls)) == before
                   for cls, before in untouched.items())
        assert manager_module.checkpoint_structure is not checkpoint_structure
        rec.uninstall()
        assert all(type(owner) is cls for owner, cls in watched.items())
        assert server.manager.rebuild is rebuild
        assert manager_module.checkpoint_structure is checkpoint_structure
        assert server.admission.admit.__func__ \
            is type(server.admission).admit
    finally:
        rig.discard()
    assert not os.listdir(tmp_path)  # the state dir is always removed


def test_a_corrupted_answer_fails_the_correctness_gate():
    initial = [(0, 0), (2, 6)]
    batches = [("get", [0, 2, 5]), ("upsert", [(5, 1)]), ("get", [5])]
    good = [[0, 6, None], None, [1]]
    assert check_batches(initial, batches, good) == 0
    assert check_batches(initial, batches, [[0, 7, None], None, [1]]) == 1

    journal = [
        JournalEntry(1, "get", (0, 2), ((0, "c0000", 0, 1), (1, "c0001", 1, 2))),
        JournalEntry(2, "upsert", ((2, 9),), ((2, "c0000", 0, 1),)),
        JournalEntry(3, "get", (2,), ((3, "c0001", 0, 1),)),
    ]
    programs = [[("get", [0]), ("upsert", [(2, 9)])],
                [("get", [2]), ("get", [2])]]
    # The gate is handed the repr of each answer (see _run_serve).
    assert check_serve(initial, journal, programs,
                       [["[0]", "None"], ["[6]", "[9]"]])[0] == 0
    assert check_serve(initial, journal, programs,
                       [["[0]", "None"], ["[6]", "[6]"]])[0] == 1  # stale read
    refusal = Refusal("get", "c0001", RefusalReason.OVERLOADED, "")
    assert check_serve(initial, journal[:2], programs,
                       [["[0]", "None"], ["[6]", refusal]])[0] == 1


def test_benchmark_json_matches_the_tables_and_the_contract():
    with open(BENCHMARK_JSON) as f:
        doc = json.load(f)
    assert doc == benchmark_spec()
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer")
             for e in doc[key]]
    assert len(set(names)) == len(names) and all(map(name.match, names))
    assert all(unit.match(m["unit"])
               for m in doc["end_to_end"] + doc["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in doc["workloads"])
    assert all(0 <= m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": 0.25} in doc["end_to_end"]


def test_one_run_prints_the_result_as_its_last_line():
    done = subprocess.run(
        [sys.executable, os.path.join(bench_e2e.HERE, "bench_e2e.py"),
         "--workload", "batch_read_wide", "--seed", "3", "--seconds", "0.2",
         "--trace", "0", "--quick"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert list(line) == ["correct", "attempted", "failed", "metrics"]
    assert line["correct"] is True and line["attempted"] >= 1
    assert list(line["metrics"]) == [m.name for m in END_TO_END]
