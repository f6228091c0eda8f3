"""A seeded sweep over each family's whole mean space.

Each (family setting, k) draws problems of k group means spread over the
mean space: log-uniform over 1e-3 ... 1e3 on the half lines, uniform on
(-10, 10) for gaussian_mean, logit-uniform on (-8, 8) for Bernoulli and
logit-uniform E[U] on (1e-6, 1 - 1e-6) for beta, so that every decade of the
free shape near both ends is drawn.  On every problem

* the k-sum density has mass 1 within 1e-10 on its own 2048-node
  ``sum_nodes`` grid,
* blocks drawn from the alternative are finite and in the support, and
  ``cond`` and ``gro_iid`` are finite on them,
* a refusal is a ``MeanDomainError``, a ``ComputationError`` or another
  ``ValueError`` that names a value, never a ``SupportError`` on the
  program's own grid or draws,

and no ``RuntimeWarning`` is raised.  A failure here is a program fault, to
be mended or refused by name; the ranges and the seed stay as they are.
Refusals at the gamma series' term cap take up to a few seconds each, which
bounds the number of problems drawn.
"""

import re

import numpy as np
import pytest
from scipy import special

from ksample_evalues import (Alternative, ComputationError, MeanDomainError,
                             SupportError, make_family)
from ksample_evalues import _quad
from ksample_evalues import evariables as ev

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SETTINGS = [("bernoulli", {}), ("gaussian_mean", {}), ("gaussian_variance", {}),
            ("poisson", {}), ("exponential", {}), ("geometric", {}),
            ("beta_fixed_alpha", {"alpha": 1.0}), ("beta_fixed_alpha", {"alpha": 2.0}),
            ("beta_fixed_alpha", {"alpha": 2.5})]
KS = (2, 3, 4)
PROBLEMS = 2  # per setting and k
BLOCKS = 50
SEED = 20231


def draw_means(spec, k, rng) -> list[float]:
    fid = spec.family_id
    if fid == "bernoulli":
        return special.expit(rng.uniform(-8.0, 8.0, k)).tolist()
    if fid == "gaussian_mean":
        return rng.uniform(-10.0, 10.0, k).tolist()
    if fid == "beta_fixed_alpha":
        edge = special.logit(1e-6)
        return [spec.mean_from_beta_mean(u)
                for u in special.expit(rng.uniform(edge, -edge, k))]
    return (10.0 ** rng.uniform(-3.0, 3.0, k)).tolist()


def check(spec, mus, rng) -> None:
    z, w = _quad.sum_nodes(spec, mus, len(mus))
    mass = np.sum(w * np.exp(spec.sum_log_pdf(mus, z)))
    assert abs(mass - 1.0) <= 1e-10, (mus, mass)
    blocks = np.stack([spec.sample(m, BLOCKS, rng) for m in mus], axis=-1)
    assert np.all(np.isfinite(blocks)) and np.all(spec.support.contains(blocks)), mus
    alt = Alternative.from_means(spec, mus)
    for log_s in (ev.log_s_cond, ev.log_s_gro_iid):
        assert np.all(np.isfinite(log_s(spec, alt, blocks))), (mus, log_s.__name__)


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("name, fixed", SETTINGS,
                         ids=[n + "".join(f"{v}" for v in fx.values()) for n, fx in SETTINGS])
def test_whole_range(name, fixed, k):
    spec = make_family(name, **fixed)
    for i in range(PROBLEMS):
        rng = np.random.default_rng([SEED, SETTINGS.index((name, fixed)), k, i])
        mus = draw_means(spec, k, rng)
        try:
            check(spec, mus, rng)
        except (MeanDomainError, ComputationError, ValueError) as exc:
            assert not isinstance(exc, SupportError), (mus, exc)
            assert re.search(r"\d", str(exc)), (mus, exc)
