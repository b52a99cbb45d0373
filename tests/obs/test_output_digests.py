"""Byte-level pins of every observability output.

The other ``tests/obs`` and ``tests/metrics`` suites check properties
of traces and metric series (nesting, monotone timestamps, totals that
agree with the loader).  These tests pin the exact bytes: a Chrome
trace (on one server and on two), a ``repro serve`` sweep's JSON and
per-point traces, the JSONL export of a metrics registry, and a traced
chaos epoch.  Any change to
what the tracer, the registry or the invariant checker records — or to
the order it records it in — changes a digest.

The engine's bucketed core and the heap-core oracle
(``tests/engine/reference_core.py``) produce the same bytes, so one
digest per case holds on both: the last test replays every case on the
heap core.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.chaos import ChaosRuntime, FaultPlan
from repro.chaos.faults import LinkFlap, WorkerCrash
from repro.cli import main
from repro.control import ControllerConfig, TenancyConfig, TenantSpec
from repro.core import RunConfig, build_system
from repro.metrics import MetricsRegistry, to_jsonl
from repro.obs import Tracer, to_chrome_trace
from repro.serve import GNNServer, ServeConfig, WorkloadConfig, make_workload

ARGS = ["--dataset", "tiny", "--gpus", "2", "--hidden", "16",
        "--batch-size", "8", "--fanout", "5,3"]

CFG = RunConfig(dataset="tiny", num_gpus=2, hidden_dim=16, batch_size=8,
                fanout=(5, 3), seed=0)


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


#: ``repro trace`` on tiny, 2 GPUs, 2 batches
TRACE = {
    "DSP": "0d1210612d5c62da8c42af92735513d7f04ac872f666f3d3195a406c1768b5fe",
    "DSP-Seq": "637914ac8d0a3ff3278f27f7352a94633a61daccbed9fc8d321e25473a7f9c82",
}

#: ``repro trace`` of DSP on 2 servers x 2 GPUs, 2 batches: the
#: hierarchical shuffles (NVLink funnel, NIC exchange, scatter) and the
#: NIC gradient ring, whose routes are asymmetric
TRACE_TWO_SERVERS = (
    "d92df5cf8946143080ceb1add88c70ce2910e9ab4067e8046f3eeea4d981a734"
)

#: ``repro serve`` with every instrumentation flag at qps 3000 (the
#: controller acts) and 1e6 (admission sheds)
SERVE = {
    "out": "0b162b22148c8377da67ce409023b11f0609f9f394b5d125771dea1742c5e9de",
    "sweep-DSP-qps3000.json":
        "f6949b863835044f7d839106dd0145a43a386e7111ee20657146b355db1a1320",
    "sweep-DSP-qps1e_06.json":
        "41289440b2017faf45597ed286c7df11170a1f8bd348bb15a76625f8ed793fdf",
}

#: ``to_jsonl`` of a metrics registry attached to one run
JSONL = {
    "epoch": "b1ef9d3799f033bc4d31b60406880e8ebf8b86e06323a2207fc60a40be3da47c",
    "serve": "55f19c77a48c893760f42970d0b0aa5bc23889b63b701b062893d1997e3f4962",
}

#: a traced chaos epoch (link flap + sampler crash): Chrome trace and
#: the metrics registry's JSONL
CHAOS = {
    "trace": "8eb68ba50de90f34da65c14dfbdcca24df81d9293f301dbbb4eec19e1045cf48",
    "jsonl": "aa549859a1d7df5cb45d4ed2c633fd4e35862250f12f81d118579076cf7729ad",
}


@pytest.mark.parametrize("system", sorted(TRACE))
def test_trace_command(tmp_path, capsys, system):
    out = tmp_path / "trace.json"
    assert main(["trace", *ARGS, "--system", system, "--batches", "2",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert sha(out.read_bytes()) == TRACE[system]


def test_trace_command_two_servers(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main(["trace", *ARGS, "--num-nodes", "2", "--system", "DSP",
                 "--batches", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    assert sha(out.read_bytes()) == TRACE_TWO_SERVERS


def test_serve_sweep(tmp_path, capsys):
    out = tmp_path / "out.json"
    assert main(["serve", *ARGS, "--systems", "DSP", "--requests", "192",
                 "--seed", "3", "--arrival", "diurnal", "--slo-ms", "2",
                 "--batch-timeout-ms", "2", "--queue-capacity", "8",
                 "--qps", "3000,1e6", "--metrics", "--invariants",
                 "--controller", "--tenants", "2", "--dynamic-cache",
                 "--trace-base", str(tmp_path / "sweep.json"),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    got = {"out": sha(out.read_bytes())}
    for name in sorted(SERVE):
        if name != "out":
            got[name] = sha((tmp_path / name).read_bytes())
    assert got == SERVE


def test_epoch_registry_jsonl():
    reg = MetricsRegistry(window_s=1e-4)
    build_system("DSP", CFG).run_epoch(max_batches=3, functional=False,
                                       metrics=reg)
    assert sha(to_jsonl(reg)) == JSONL["epoch"]


def test_serve_registry_jsonl():
    """One metrics-on serve point with a controller, a quota-bound
    tenant and a dynamic cache, past the knee: every serving series,
    all three shed reasons and the controller's annotated actions."""
    system = build_system("DSP", RunConfig(
        dataset="tiny", num_gpus=2, hidden_dim=16, batch_size=8,
        fanout=(12,), feature_cache_bytes=3200.0, dynamic_cache=True,
        cache_window=2, cache_ewma=0.3, cache_prefetch=16, seed=3))
    tenancy = TenancyConfig(tenants=(
        TenantSpec("hog", quota=0.25, weight=3.0),
        TenantSpec("ok", priority=1),
    ), seed=3)
    cfg = ServeConfig(slo_s=1e-3, queue_capacity=8, tenancy=tenancy,
                      controller=ControllerConfig(max_pressure=1))
    workload = make_workload(
        WorkloadConfig(num_requests=256, skew=1.5, drift_phases=2, seed=7,
                       arrival="diurnal"),
        np.arange(system.base_dataset.num_nodes),
    )
    reg = MetricsRegistry(window_s=cfg.slo_s)
    GNNServer(system, cfg, metrics=reg).run(workload.requests(6000.0),
                                            offered_qps=6000.0)
    jsonl = to_jsonl(reg)
    for name in ('"reason": "priority"', '"reason": "quota"',
                 '"requests_shed"', '"control:pressure-up"',
                 '"cache_promote"'):
        assert name in jsonl
    assert sha(jsonl) == JSONL["serve"]


def test_traced_chaos_epoch():
    """Injector instants, lost-batch instants and degraded spans."""
    plan = FaultPlan((
        LinkFlap(0.0, link="nvlink", duration=2e-4),
        WorkerCrash(1e-4, gpu=1, stage="sample"),
    ))
    tracer = Tracer()
    reg = MetricsRegistry(window_s=1e-4)
    build_system("DSP", CFG).run_epoch(max_batches=4, functional=False,
                                       tracer=tracer, metrics=reg,
                                       chaos=ChaosRuntime(plan))
    doc = to_chrome_trace(tracer)
    names = {ev["name"] for ev in doc["traceEvents"]}
    assert {"inject:link-flap", "clear:link-flap", "inject:worker-crash",
            "lost:sample"} <= names
    assert any(ev.get("args", {}).get("degraded")
               for ev in doc["traceEvents"])
    got = {"trace": sha(json.dumps(doc)),
           "jsonl": sha(to_jsonl(reg))}
    assert got == CHAOS


def test_every_case_on_heap_core(heap_core, tmp_path, capsys):
    for system in sorted(TRACE):
        case_dir = tmp_path / f"trace-{system}"
        case_dir.mkdir()
        test_trace_command(case_dir, capsys, system)
    case_dir = tmp_path / "trace-two-servers"
    case_dir.mkdir()
    test_trace_command_two_servers(case_dir, capsys)
    case_dir = tmp_path / "serve"
    case_dir.mkdir()
    test_serve_sweep(case_dir, capsys)
    test_epoch_registry_jsonl()
    test_serve_registry_jsonl()
    test_traced_chaos_epoch()
