"""Capacity scaling with serving replicas under a diurnal workload.

A storefront's traffic is not flat: the diurnal arrival process swings
between a quiet trough and a rush-hour peak.  One DSP serving system
(2 simulated GPUs here) has a knee — the highest offered QPS it
sustains at the p99 SLO without shedding — and once the peak crosses
that knee the only lever left is replication: identical copies of the
whole serving system behind the cluster router.

Partition-affinity routing gives each replica one contiguous slice of
every GPU patch, so a node always hits the same replica (warm plan
cache, hot feature rows) while the load still spreads over every
replica's GPU batchers.  This walkthrough sweeps the offered load for
1, 2 and 4 replicas and prints the knee scaling curve — the same law
`benchmarks/test_cluster_knee.py` asserts (see `docs/cluster.md`):

    python examples/multi_node.py
"""

from repro import RunConfig, build_system
from repro.cluster import RouterConfig, knee_vs_replicas
from repro.serve import ServeConfig, WorkloadConfig, make_workload, serve_once

REPLICAS = (1, 2, 4)
LADDER = [2000e3, 3200e3, 5000e3, 8000e3, 12800e3, 20000e3,
          32000e3, 51200e3]


def main() -> None:
    config = RunConfig(dataset="tiny", num_gpus=2, hidden_dim=16,
                       batch_size=8, fanout=(5, 3), seed=0)
    system = build_system("DSP", config)
    print(f"serving {config.dataset!r} on {config.num_gpus} simulated "
          f"GPUs per replica (DSP, diurnal arrivals)\n")

    workload = make_workload(
        WorkloadConfig(num_requests=1024, arrival="diurnal", skew=1.0,
                       seed=7),
        system.data.train_nodes,
    )
    serve_cfg = ServeConfig(batch_max=32, batch_timeout_s=0.3e-3,
                            queue_capacity=128, slo_s=1e-3,
                            functional=True)

    # one replica at rush-hour load: the knee in action
    qps = LADDER[3]
    report = serve_once(system, workload, qps, serve_cfg,
                        replicas=RouterConfig(num_replicas=1))
    verdict = "over the knee" if report.shed_rate > 0.01 else "sustained"
    print(f"one replica at {qps / 1e6:.1f}M QPS: "
          f"p99 {report.p99 * 1e3:.2f} ms, shed {report.shed_rate:.1%} "
          f"-> {verdict}")

    knees = knee_vs_replicas(system, workload, LADDER, REPLICAS,
                             policy="affinity", config=serve_cfg)

    print(f"\n{'replicas':>9} {'knee QPS':>10} {'vs 1 replica':>13}")
    for r in REPLICAS:
        print(f"{r:>9} {knees[r] / 1e6:>9.1f}M {knees[r] / knees[1]:>12.1f}x")

    print("\nthe knee never degrades as replicas are added — each extra"
          "\nreplica serves a strictly smaller slice of every GPU patch")


if __name__ == "__main__":
    main()
