"""Anytime-valid k-sample testing with e-values for exponential families.

The package logs through the ``ksample_evalues`` logger, which is silent
until the application configures logging.
"""

import logging

from .expfam import (
    Alternative,
    BetaFixedAlpha,
    Bernoulli,
    ComputationError,
    Exponential,
    FamilySpec,
    GaussianFreeMean,
    GaussianFreeVariance,
    Geometric,
    MeanDomainError,
    Poisson,
    Support,
    SupportError,
    as_generator,
    default_direction,
    family_from_config,
    make_family,
    reduce_sufficient,
    spawn_generator,
)

logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "Alternative",
    "Bernoulli",
    "BetaFixedAlpha",
    "ComputationError",
    "Exponential",
    "FamilySpec",
    "GaussianFreeMean",
    "GaussianFreeVariance",
    "Geometric",
    "MeanDomainError",
    "Poisson",
    "Support",
    "SupportError",
    "as_generator",
    "default_direction",
    "family_from_config",
    "make_family",
    "reduce_sufficient",
    "spawn_generator",
]
