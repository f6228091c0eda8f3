"""On a lattice, a batch of blocks is scored through per-value tables, and
every block keeps the bits it has when scored alone.

``evariables._per_value`` evaluates the value-only terms of a statistic
(``gro_iid``'s per-coordinate mixture, ``cond``'s sum-density ratio,
``gro_m``'s mixture of sums) once per integer in [min, max] of a batch and
gathers the results.  The table is taken only for more than one block of
exact integers with fewer integers in range than values; anything else,
near-integers and a single block among them, takes the direct path.
"""

import numpy as np
import pytest

from ksample_evalues import Alternative, make_family, ripr
from ksample_evalues import evariables as ev

hypothesis = pytest.importorskip(
    "hypothesis", reason="the batch-against-block property draws its batches "
    "with hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# (family, means, kind, largest value drawn): gro_m on Li's mixture
PROBLEMS = [
    ("poisson", (2.0, 1.0), "pseudo", 40),
    ("poisson", (2.0, 1.0), "gro_iid", 40),
    ("poisson", (2.0, 1.0), "cond", 40),
    ("poisson", (2.0, 1.0), "gro_m", 40),
    ("poisson", (5.0, 0.1, 3.0), "gro_iid", 40),
    ("poisson", (5.0, 0.1, 3.0), "cond", 40),
    ("geometric", (1.0, 0.5), "gro_iid", 40),
    ("geometric", (1.0, 0.5), "cond", 40),
    ("geometric", (1.0, 0.5), "gro_m", 40),
    ("bernoulli", (0.6, 0.4, 0.3), "gro_iid", 1),
    ("bernoulli", (0.6, 0.4, 0.3), "cond", 1),
    ("bernoulli", (0.6, 0.4), "gro_m", 1),
]

_BUILT = {}


def statistic(family, means, kind):
    """The built statistic of one problem, with Li's mixture for gro_m."""
    key = (family, means, kind)
    if key not in _BUILT:
        spec = make_family(family)
        alt = Alternative.from_means(spec, list(means))
        mixture = None
        if kind == "gro_m":
            mixture = ripr.li_approximate(spec, alt, max_iters=3)[0]
        _BUILT[key] = spec, ev._statistic(spec, alt, kind, mixture)
    return _BUILT[key]


@st.composite
def batches(draw, k, top):
    """2 to 30 blocks of k counts in [lo, lo + span], a range narrower or
    wider than the batch, with up to two values moved by 1e-10."""
    n = draw(st.integers(2, 30))
    lo = draw(st.integers(0, top))
    span = draw(st.integers(0, top - lo))
    x = np.array(draw(st.lists(st.integers(lo, lo + span), min_size=n * k,
                               max_size=n * k)), dtype=float).reshape(n, k)
    for i, nudge in draw(st.lists(st.tuples(st.integers(0, n * k - 1),
                                            st.sampled_from([-1e-10, 1e-10])),
                                  max_size=2)):
        x.flat[i] += nudge
    return x


@pytest.mark.parametrize("family, means, kind, top", PROBLEMS,
                         ids=[f"{f}-k{len(m)}-{kind}" for f, m, kind, _ in PROBLEMS])
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data())
def test_batch_equals_each_block_bitwise(family, means, kind, top, data):
    spec, score = statistic(family, means, kind)
    x = spec.check_support(data.draw(batches(len(means), top)))
    assert np.array_equal(score(x), [score(block) for block in x])


def recorded_terms(monkeypatch):
    """The shapes ``_log_sum_of_tilts`` is called on, recorded."""
    shapes = []
    tilts = ev._log_sum_of_tilts
    monkeypatch.setattr(ev, "_log_sum_of_tilts",
                        lambda *a: shapes.append(np.shape(a[-1])) or tilts(*a))
    return shapes


POISSON = make_family("poisson")
POISSON_ALT = Alternative.from_means(POISSON, [2.0, 1.0])


@pytest.mark.parametrize("case, want", [
    ("batch", [(7,)]),  # the integers 0..6 of the batch
    ("near-integer", [(1000, 2)]),
    ("wider-than-the-batch", [(3, 2)]),
    ("one-block", [(2,)]),
    ("one-block-of-a-batch", [(1, 2)]),
])
def test_table_is_taken_only_where_its_rules_hold(monkeypatch, case, want):
    x = np.tile([[0.0, 6.0], [3.0, 1.0]], (500, 1))
    if case == "near-integer":
        x[700, 1] += 1e-10
    elif case == "wider-than-the-batch":
        x = np.array([[0.0, 50.0], [3.0, 1.0], [2.0, 2.0]])
    elif case == "one-block":
        x = x[0]
    elif case == "one-block-of-a-batch":
        x = x[:1]
    score = ev._statistic(POISSON, POISSON_ALT, "gro_iid")
    shapes = recorded_terms(monkeypatch)
    got = score(POISSON.check_support(x))
    assert shapes == want
    assert np.array_equal(got, [score(block) for block in np.reshape(x, (-1, 2))]
                          if x.ndim > 1 else score(x))


def test_sum_table_spans_the_sums_of_a_batch(monkeypatch):
    # z = 0 + 6 and 3 + 1: two sums, 6 and 4, tabulated over 4..6
    mixture = ripr.li_approximate(POISSON, POISSON_ALT, max_iters=3)[0]
    score = ev._statistic(POISSON, POISSON_ALT, "gro_m", mixture)
    x = np.tile([[0.0, 6.0], [3.0, 1.0]], (500, 1))
    shapes = recorded_terms(monkeypatch)
    got = score(x)
    assert shapes == [(3,)]
    assert np.array_equal(got, [score(block) for block in x])
