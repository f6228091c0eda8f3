"""On a lattice, a batch of blocks is scored through per-value tables, and
every block keeps the bits it has when scored alone.

``evariables._per_value`` evaluates the value-only terms of a statistic
(``gro_iid``'s per-coordinate mixture, ``cond``'s sum-density ratio,
``gro_m``'s mixture of sums) once per integer in [min, max] of its input and
gathers the results.  The table is taken only for exact integers with fewer
integers in range than values, so it is always smaller than its input; a
single value, values that differ more than their count and near-integers
take the direct path.  Bernoulli's sums follow the same rule as every other
lattice.
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


def test_one_block_of_equal_values_gathers_from_a_one_entry_table(monkeypatch):
    score = ev._statistic(POISSON, POISSON_ALT, "gro_iid")
    shapes = recorded_terms(monkeypatch)
    got = score(np.array([3.0, 3.0]))
    assert shapes == [(1,)]
    # the same block among values that differ more than their count: direct
    direct = score(np.array([[3.0, 3.0], [0.0, 50.0]]))[0]
    assert shapes == [(1,), (2, 2)]
    assert got.tobytes() == direct.tobytes()


BERNOULLI = make_family("bernoulli")
BERNOULLI_MEANS = {2: (0.6, 0.4), 3: (0.6, 0.4, 0.3),
                   9: (0.7, 0.2, 0.5, 0.6, 0.3, 0.4, 0.5, 0.45, 0.55)}


@pytest.mark.parametrize("k", sorted(BERNOULLI_MEANS))
def test_bernoulli_sum_ratio_is_the_whole_support_table(k):
    # the table over every sum 0..k that bernoulli once kept: each sum alone,
    # each range of sums as a table, and a near-integer give its bits
    alt = Alternative.from_means(BERNOULLI, list(BERNOULLI_MEANS[k]))
    mu0 = alt.mu0_star
    zs = np.arange(k + 1.0)
    table = (BERNOULLI._sum_density(list(alt.mu))(zs)
             - BERNOULLI._sum_density([mu0] * k)(zs))
    ratio = ev._log_sum_ratio(BERNOULLI, alt, mu0)
    for z in zs:
        assert ratio(np.array(z)) == table[int(z)]
    for lo in range(k + 1):
        for hi in range(lo, k + 1):
            z = np.repeat(np.arange(lo, hi + 1.0), 2)
            assert np.array_equal(ratio(z), table[z.astype(int)])
    near = np.array([0.0, 1.0 + 1e-10, 1.0, 1.0])
    assert np.array_equal(ratio(near), table[[0, 1, 1, 1]])


def bernoulli_batch(k: int, case: str) -> np.ndarray:
    """40 blocks of k bernoulli values for one case of the sum table."""
    x = np.random.default_rng(k).integers(0, 2, (40, k)).astype(float)
    if case == "whole-support":  # sums 0 and k, and whatever lies between
        x[0], x[1] = 0.0, 1.0
    elif case == "misses-zero":
        x[x.sum(axis=1) == 0, 0] = 1.0
    elif case == "near-integer":
        x[3, 0] = x[7, k - 1] = 1.0 + 1e-10
        x[3, 1:] = 1.0
    elif case == "equal-values":
        x[:5], x[5:8] = 1.0, 0.0
    return x


@pytest.mark.parametrize("case", ["whole-support", "misses-zero", "near-integer",
                                  "equal-values"])
@pytest.mark.parametrize("k, kind", [(k, kind) for k in (2, 3, 9)
                                     for kind in ("gro_iid", "cond")]
                         + [(2, "gro_m"), (3, "gro_m")])
def test_bernoulli_block_alone_equals_batch_and_passes(monkeypatch, k, kind, case):
    x = BERNOULLI.check_support(bernoulli_batch(k, case))
    if case == "whole-support":
        assert {0.0, float(k)} <= set(x.sum(axis=1))
    elif case == "misses-zero":
        assert x.sum(axis=1).min() >= 1.0
    _, score = statistic("bernoulli", BERNOULLI_MEANS[k], kind)
    alone = [score(block) for block in x]
    assert np.array_equal(score(x), alone)
    monkeypatch.setattr(ev, "_CHUNK_ELEMENTS", 3 * k)  # passes of three blocks
    assert np.array_equal(score(x), alone)
