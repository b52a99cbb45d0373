"""Per-point purity: no state leaks between runs or sweep points.

The control plane retunes live batcher knobs and the dynamic cache
mutates admission state mid-run, so the sweep driver must reset both
between points — a point's report may depend only on its own spec,
never on which points ran before it in the same process.
"""

import pytest

from repro.cluster import RouterConfig
from repro.control import ControllerConfig, control_cell
from repro.core import RunConfig, build_system
from repro.serve import ServeConfig, qps_sweep
from repro.serve.sweep import serve_once

from tests.control.conftest import CFG, TIGHT_SLO_S, digest


@pytest.fixture(scope="module")
def dynamic_system():
    cfg = RunConfig(dataset="tiny", num_gpus=2, hidden_dim=16,
                    batch_size=8, fanout=(5, 3), seed=3,
                    dynamic_cache=True)
    return build_system("DSP", cfg)


def test_controlled_serve_once_is_repeatable(system, diurnal):
    cfg = ServeConfig(slo_s=TIGHT_SLO_S, controller=ControllerConfig())
    runs = [serve_once(system, diurnal, 3000.0, cfg) for _ in range(2)]
    assert digest(runs[0].to_dict()) == digest(runs[1].to_dict())


def test_control_cell_is_repeatable():
    kwargs = dict(requests=48, qps=3000.0,
                  serve_config=ServeConfig(slo_s=TIGHT_SLO_S))
    a = control_cell("DSP", CFG, "straggler", ControllerConfig(), **kwargs)
    b = control_cell("DSP", CFG, "straggler", ControllerConfig(), **kwargs)
    assert a == b


def test_sweep_points_independent_of_order(system, diurnal):
    """Each controlled sweep point matches the same point served alone
    and served after a different prefix — the controller's retuning of
    one point must not leak into the next."""
    cfg = ServeConfig(slo_s=TIGHT_SLO_S, controller=ControllerConfig())
    full = qps_sweep(system, diurnal, [1000.0, 2000.0, 3000.0], cfg)
    alone = serve_once(system, diurnal, 3000.0, cfg)
    suffix = qps_sweep(system, diurnal, [2000.0, 3000.0], cfg)
    at = {p.qps: digest(p.report.to_dict()) for p in full}
    assert at[3000.0] == digest(alone.to_dict())
    assert at[3000.0] == digest(suffix[1].report.to_dict())
    assert at[2000.0] == digest(suffix[0].report.to_dict())


def test_dynamic_cache_serve_is_repeatable(dynamic_system, diurnal):
    """The dynamic cache's promotion state must be reset per point:
    back-to-back controlled runs on the same system are identical."""
    cfg = ServeConfig(slo_s=TIGHT_SLO_S, controller=ControllerConfig())
    a = serve_once(dynamic_system, diurnal, 3000.0, cfg)
    b = serve_once(dynamic_system, diurnal, 3000.0, cfg)
    assert digest(a.to_dict()) == digest(b.to_dict())


def test_replicated_serve_is_repeatable_on_dynamic_system(
        dynamic_system, diurnal):
    router = RouterConfig(num_replicas=2, policy="affinity", seed=3)
    cfg = ServeConfig(slo_s=TIGHT_SLO_S, controller=ControllerConfig())
    a = serve_once(dynamic_system, diurnal, 8000.0, cfg, replicas=router)
    b = serve_once(dynamic_system, diurnal, 8000.0, cfg, replicas=router)
    assert digest(a.to_dict()) == digest(b.to_dict())
