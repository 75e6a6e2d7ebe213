"""Exact global Fourier coefficients of spectral-element fields on box meshes."""

from . import bessel, cases, cubature, gll, harness, mesh, transform

__version__ = "0.1.0"
