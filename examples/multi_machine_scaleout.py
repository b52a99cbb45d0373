"""Scenario: scaling a citation-graph training job past one server.

The nightly papers-graph job outgrew a single 8-GPU machine.  The
paper's §3.2 sketches DSP's answer: replicate topology and hot features
per machine, shard the cold features, and let machines talk only for
cold features and gradient synchronization.  This script sweeps machine
counts and network fabrics to show when scale-out pays.

    python examples/multi_machine_scaleout.py
"""

from repro.cluster import ReplicatedDSP
from repro.core import RunConfig
from repro.hw.network import NICSpec
from repro.utils import GB, fmt_bytes, fmt_time


def main() -> None:
    cfg = RunConfig(dataset="papers", num_gpus=4)

    print("== scaling machines (4 GPUs each, 100 Gb/s fabric)")
    base = None
    for machines in (1, 2, 4):
        mm = ReplicatedDSP(cfg.with_(num_nodes=machines))
        m = mm.run_epoch(max_batches=4, functional=False)
        base = base or m.epoch_time
        print(f"  {machines} machine(s): epoch {fmt_time(m.epoch_time):>10} "
              f"(speedup {base / m.epoch_time:4.2f}x, "
              f"network {fmt_bytes(m.network_bytes):>10}/epoch)")

    print("\n== fabric sensitivity (2 machines, cold features)")
    for label, bw in (("100 GbE", 12.5 * GB), ("25 GbE", 3.125 * GB),
                      ("10 GbE", 1.25 * GB)):
        mm = ReplicatedDSP(cfg.with_(feature_cache_bytes=0.0, num_nodes=2))
        mm.engine.network = NICSpec(bandwidth=bw)
        m = mm.run_epoch(max_batches=4, functional=False)
        print(f"  {label:>8}: epoch {fmt_time(m.epoch_time):>10} "
              f"(network {fmt_bytes(m.network_bytes):>10})")

    print("\nwith hot features replicated, the fabric only carries the "
          "gradient ring -- §3.2's design point")


if __name__ == "__main__":
    main()
