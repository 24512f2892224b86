"""Numerical laboratory for six-vertex measures with boundary reweighting and
their Gaussian-corners asymptotics: exact evaluators, samplers, contour
integrals, and cross-validation suites."""

__version__ = "0.1.0"

from .core import ModelParams, Signature  # noqa: F401
