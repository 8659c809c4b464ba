"""Decay of a single collective atomic excitation in a waveguide-coupled chain."""

from .model import (
    AtomArray,
    ChainSpec,
    ConfigError,
    DisorderSpec,
    GeometryError,
    PhysParams,
    SegmentRole,
    StateVector,
    build_chain,
    dicke_initial_state,
)
from .hamiltonian import effective_hamiltonian
from .dynamics import (
    AmplitudeTrajectory,
    ModalTrajectory,
    ProbabilitySeries,
    default_time_grid,
    evolve_markovian,
    fit_decay_rate,
    probabilities,
    superradiant_overlap,
)
from .spectral import (
    ResolventSet,
    SpectralGrid,
    build_grid,
    resolvent_sweep,
    time_domain,
)
from .emission import (
    DirectionalSpectrum,
    EmissionRecord,
    EnergyLedger,
    SpatialProfile,
    emission_spectrum,
    energy_ledger,
    spatial_profile,
)
from .analytic import (
    JCParams,
    RegimeReport,
    classify_regime,
    collective_rate,
    jc_population,
    kappa_estimate,
    mirror_reflectance_lorentzian,
    transfer_matrix_reflectance,
)

__version__ = "0.1.0"
