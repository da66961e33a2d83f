"""Quantum mechanics of a charged particle in a uniform magnetic field, in
the infinite plane and on a flux-quantized torus: Landau levels, the
Runge-Lenz / magnetic-translation symmetry structure, coherent states, and a
finite-difference spectral cross-check."""

__version__ = "0.1.0"

from .config import (
    InfiniteConfig,
    TorusConfig,
    torus_config_from_mapping,
)
from .gauge import (
    TransitionFunctions,
    boundary_residual,
    cocycle_defect,
    flux_consistency_defect,
    polyakov_phase_x,
    polyakov_phase_y,
    standard_transition_functions,
)
from .maggroup import (
    GroupElement,
    UnitaryRep,
    center,
    clock_and_shift,
    conjugacy_class,
    elements,
    identity,
    inverse,
    multiply,
    represent,
    weyl_deviation,
)
from .oscillator import (
    hermite_eigenfunction,
)
from .plane import (
    ClassicalOrbit,
    CoherentLabel,
    FockLabel,
    classical_orbit_trace,
    coherent_center,
    coherent_expectations,
    eigenstate_py,
    evolve_coherent,
    ladder_apply,
    landau_energy,
)
from .spectral import SpectrumReport, cluster_eigenvalues, low_spectrum
from .torus import (
    DensityMap,
    SampledState,
    TorusLabel,
    apply_operator,
    apply_translation_power,
    apply_tx,
    apply_ty,
    coherent_translation_series,
    default_grid,
    density_map,
    eigenvalue_residual,
    expectation,
    gram_matrix,
    normalized,
    projector_distance,
    torus_coherent,
    torus_eigenstate,
    torus_eigenstates,
    torus_inner,
    translation_expectation,
)
