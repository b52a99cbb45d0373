"""The pinned regression matrix: controller-on vs static, 14 cells.

Seven core chaos scenarios x two workloads (diurnal cycle, phase-drift
Poisson), all at the pipeline's latency-floor SLO.  The controller must
beat the static configuration in **every** cell, and the per-cell
action accounting is pinned so that a behaviour change in the tuner —
even one that still improves SLO minutes — shows up as a diff here.

One more cell runs on 2 servers x 2 GPUs and is pinned by digest: the
only control output that sees cross-server routes.
"""

import pytest

from repro.control import CORE_SCENARIOS, ControllerConfig, control_matrix
from repro.serve import ServeConfig, WorkloadConfig

from tests.control.conftest import CFG, TIGHT_SLO_S, digest

#: ``link-flap/diurnal`` on 2 servers at 20k qps, where serving time
#: (not the flap's queueing) sets p99, so the routes show in the digest
TWO_SERVER_LINK_FLAP = (
    "74181644fffedf13d182cd447ce9bcb8201cd8877c2a5585a9ed4dbb0b92b105"
)

WORKLOADS = {
    "diurnal": WorkloadConfig(num_requests=128, arrival="diurnal", seed=5),
    "drift": WorkloadConfig(num_requests=128, drift_phases=4, seed=5),
}


@pytest.fixture(scope="module")
def matrix():
    return control_matrix(
        "DSP", CFG, ControllerConfig(),
        scenarios=CORE_SCENARIOS,
        workload_configs=WORKLOADS,
        qps=3000.0,
        serve_config=ServeConfig(slo_s=TIGHT_SLO_S),
        workers=2,
    )


def test_every_cell_strictly_improves(matrix):
    for label, cell in matrix["cells"].items():
        assert cell["improved"], label
        assert cell["static_slo_minutes"] > 0, label
        assert (cell["controller_slo_minutes"]
                < cell["static_slo_minutes"]), label


def test_pinned_summary(matrix):
    s = matrix["summary"]
    assert s["cells"] == 14
    assert s["improved_or_equal"] == 14
    assert s["regressed"] == 0
    assert s["total_actions"] == 58
    assert s["total_static_minutes"] == pytest.approx(0.009, abs=1e-9)
    assert s["total_controller_minutes"] == pytest.approx(
        0.0028666666666666667, abs=1e-9
    )


def test_pinned_per_cell_action_counts(matrix):
    """Every cell does two max-wait cuts and recovers fully; the
    link-flap cells need one extra recovery step because the second
    flap re-trips the burn mid-recovery."""
    for label, cell in matrix["cells"].items():
        expected = ({"max-wait-down": 2, "max-wait-recover": 3}
                    if label.startswith("link-flap")
                    else {"max-wait-down": 2, "max-wait-recover": 2})
        assert cell["action_counts"] == expected, label


def test_cells_cover_the_core_scenarios(matrix):
    labels = set(matrix["cells"])
    assert labels == {f"{sc}/{wl}" for sc in CORE_SCENARIOS
                      for wl in WORKLOADS}
    for cell in matrix["cells"].values():
        if cell["scenario"] != "none":
            assert sum(cell["faults"].values()) >= 1


def test_controller_never_sheds_more_than_static(matrix):
    for label, cell in matrix["cells"].items():
        assert cell["controller_shed"] <= cell["static_shed"], label


def test_two_server_link_flap_cell_pinned():
    cell = control_matrix(
        "DSP", CFG.with_(num_nodes=2), ControllerConfig(),
        scenarios=("link-flap",),
        workload_configs={"diurnal": WORKLOADS["diurnal"]},
        qps=20000.0,
        serve_config=ServeConfig(slo_s=TIGHT_SLO_S),
    )
    assert cell["cells"]["link-flap/diurnal"]["improved"]
    assert digest(cell) == TWO_SERVER_LINK_FLAP
