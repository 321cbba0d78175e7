"""csTuner — scalable auto-tuning for complex stencil computation on GPUs.

Reproduction of Sun et al., *"csTuner: Scalable Auto-tuning Framework for
Complex Stencil Computation on GPUs"*, IEEE CLUSTER 2021.

The package is organised as a stack of substrates with the paper's
contribution (:mod:`repro.core`) on top:

``repro.stencil``
    Stencil pattern definitions (Table III suite) and NumPy reference
    executors used for correctness checks.
``repro.space``
    The parameterised optimization space of Table I, with the paper's
    explicit and implicit (resource) constraints.
``repro.codegen``
    Kernel planning and CUDA-C source emission for a (stencil, setting)
    pair; resource estimation feeding the implicit constraints.
``repro.gpusim``
    Deterministic analytical GPU performance simulator with A100 and V100
    device models — the stand-in for the paper's hardware testbed.
``repro.profiler``
    Simulated Nsight metric collection and performance-dataset management.
``repro.ml``
    Statistics (CV, PCC, RSE), PMNF regression machinery and a
    from-scratch random forest.
``repro.parallel``
    The island GA's in-process ring and the experiment worker pool.
``repro.core``
    csTuner itself: parameter grouping, PMNF-guided search-space sampling
    and the evolutionary search with approximation.
``repro.baselines``
    Garvey, OpenTuner-style and Artemis-style tuners plus random search.
``repro.experiments``
    Drivers that regenerate every table and figure of the evaluation.
"""

from repro._version import __version__
from repro.stencil import StencilPattern, STENCIL_SUITE, get_stencil
from repro.space import SearchSpace, Setting, build_space
from repro.gpusim import DeviceSpec, GpuSimulator, A100, V100
from repro.core import Budget, CsTuner, CsTunerConfig, TuningResult

__all__ = [
    "__version__",
    "StencilPattern",
    "STENCIL_SUITE",
    "get_stencil",
    "SearchSpace",
    "Setting",
    "build_space",
    "DeviceSpec",
    "GpuSimulator",
    "A100",
    "V100",
    "Budget",
    "CsTuner",
    "CsTunerConfig",
    "TuningResult",
]
