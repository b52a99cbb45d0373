"""The DSP training system and the baseline system architectures.

This package assembles the substrates into end-to-end trainable
systems.  Each system is *functional* (it really trains the model, so
accuracy curves are real) and *costed* (every mini-batch emits an op
trace that the cost engine converts into simulated hardware time,
either analytically for sequential execution or through the
discrete-event engine for DSP's producer-consumer pipeline).

Systems (paper §7.1):

====================  ================================================
``DSP``               partitioned topology + CSP + partitioned cache +
                      pipeline (the paper's contribution)
``DSP-Seq``           DSP with the pipeline disabled (Fig 6 / Fig 12)
``DGL-UVA``           topology in host memory, UVA sampling, no cache
``Quiver``            UVA sampling + replicated GPU feature cache +
                      raw cudaMalloc allocation overhead
``DGL-CPU``           CPU sampling, host features, bulk PCIe copies
``PyG``               like DGL-CPU with a slower host sampler
====================  ================================================
"""

from repro.core.config import RunConfig
from repro.core.metrics import BatchCost, EpochMetrics, RunResult
from repro.core.cost import CostEngine
from repro.core.layout import DSPLayout, plan_layout
from repro.core.system import DSP, build_system, SYSTEMS
from repro.core.baselines import PyG, DGLCPU, DGLUVA, Quiver
from repro.core.inference import full_graph_inference

__all__ = [
    "RunConfig",
    "BatchCost",
    "EpochMetrics",
    "RunResult",
    "CostEngine",
    "DSPLayout",
    "plan_layout",
    "DSP",
    "PyG",
    "DGLCPU",
    "DGLUVA",
    "Quiver",
    "build_system",
    "SYSTEMS",
    "full_graph_inference",
]
