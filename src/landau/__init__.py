"""Quantum mechanics of a charged particle in a uniform magnetic field, in
the infinite plane and on a flux-quantized torus: Landau levels, the
Runge-Lenz / magnetic-translation symmetry structure, coherent states, and a
finite-difference spectral cross-check."""

__version__ = "0.1.0"
