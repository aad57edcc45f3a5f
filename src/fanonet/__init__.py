"""Tight-binding network toolkit: trapped-mode certification on arbitrary
graphs, exact bound states and transmission spectra of side-coupled chains."""

from .graphs import (
    GraphSpecError,
    LatticeGraph,
    Partition,
    assemble_hamiltonian,
    build_graph,
    parse_graph_file,
    subgraph_hamiltonian,
)
from .pilattice import CENTRAL, PiLattice, PiLatticeSpec, build_pi_lattice
from .spectra import (
    EigenMode,
    TrappingCertificate,
    diagonalize,
    find_trapping_modes,
    open_chain_modes,
    residual_rounding_bound,
    verify_trapping,
)
from .dynamics import (
    SpectralPropagator,
    SurvivalSeries,
    classify_decay,
    safe_horizon,
)
from .bound_states import (
    BoundState,
    LongTimeSurvival,
    evanescent_bound_states,
    long_time_survival,
    resonant_bound_states,
)
from .scattering import (
    PeakDipReport,
    ScatteringPoint,
    ZeroCatalog,
    common_zeros,
    l_dependent_reflection_zeros,
    numeric_scatter_oracle,
    peak_dip_report,
    scattering_point,
    transmission_amplitude,
    transmission_probability,
    transmission_sweep,
)

__version__ = "0.1.0"
