"""Generalized momenta of mass for compressible gas flow.

Submodules
----------
core        domain types, radial quadrature, conserved functionals
momenta     weight functions, G_phi, curvature terms, virial residual
exact       compatible profiles, deformation ODE, field reconstruction
bounds      decay classes and growth-contradiction certificates
lagrangian  material-volume tracking and boundary pressure flux
solver      radial finite-volume cross-check solver
cli         command-line entry point
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
