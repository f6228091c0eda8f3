"""Scoring in chunks of a fixed element budget changes no output and bounds
the memory of a campaign.

``evariables._CHUNK_ELEMENTS`` bounds the block coordinates that one pass of
a built statistic scores, and so the trials that ``sequential.simulate``
draws into its buffer at once.  Every caller gives the same bits whatever
its value: one block, an odd number of blocks that splits trials, a few
whole trials, or more than the input.
"""

import re
import tracemalloc

import numpy as np
import pytest

from ksample_evalues import Alternative, make_family, ripr
from ksample_evalues import expfam
from ksample_evalues import evariables as ev
from ksample_evalues import growth as gr
from ksample_evalues import sequential as sq

TRIALS, MAX_BLOCKS = 11, 9


def budget(name: str, kprime: int) -> int:
    """The element budget ``name`` for blocks of kprime coordinates."""
    return {"one-block": kprime, "seven-blocks": 7 * kprime,
            "two-trials-and-a-bit": (2 * MAX_BLOCKS + 3) * kprime,
            "all": 10**9}[name]


BUDGETS = ["one-block", "seven-blocks", "two-trials-and-a-bit", "all"]


class StopAtOne:
    """A custom policy that records every trace prefix it is shown."""

    name = "stop-at-one"

    def __init__(self):
        self.seen = []

    def should_stop(self, block_log_values, alpha):
        self.seen.append(np.array(block_log_values))
        return float(np.sum(block_log_values)) >= 1.0


# (family, fixed params, means, multiplicities, kinds): gro_m uses Li's
# certified mixture; exponential (2, 1, 1) takes the Erlang partial
# fractions, gaussian_variance at k = 3 the gamma series; poisson, geometric
# and bernoulli take the lattice tables of a batch (not of one block), and
# bernoulli's cond its finite-support table
SIM_PROBLEMS = [
    ("exponential", {}, (0.5, 0.25), None, ("pseudo", "gro_iid", "cond", "gro_m")),
    ("exponential", {}, (1.0, 0.7, 0.5), [2, 1, 1],
     ("pseudo", "gro_iid", "cond", "gro_m")),
    ("gaussian_variance", {}, (1.0, 0.6, 0.8), None, ("cond",)),
    ("beta_fixed_alpha", {"alpha": 2.0}, (-1.0, -0.5), None, ("gro_iid", "cond")),
    ("poisson", {}, (2.0, 1.0), None, ("pseudo", "gro_iid", "cond")),
    ("geometric", {}, (1.0, 0.5), None, ("cond", "gro_m")),
    ("bernoulli", {}, (0.6, 0.4, 0.3), None, ("pseudo", "gro_iid", "cond")),
]
SIM_CASES = [(family, fixed, means, mult, kind)
             for family, fixed, means, mult, kinds in SIM_PROBLEMS for kind in kinds]
POLICIES = ["threshold", "fixed", "budget", "custom"]


def sim_id(family, fixed, means, mult, kind):
    shape = f"m{''.join(map(str, mult))}" if mult else f"k{len(means)}"
    return "-".join([family, *(f"{k}{v}" for k, v in fixed.items()), shape, kind])


_MIXTURES = {}


def problem(family, fixed, means, mult, kind):
    """spec, alt and, for gro_m, Li's mixture for the expanded alternative."""
    spec = make_family(family, **fixed)
    alt = Alternative.from_means(spec, list(means))
    mixture = None
    if kind == "gro_m":
        key = (family, means, tuple(mult or ()))
        if key not in _MIXTURES:
            flat = sq.expand_multiplicities(spec, alt, mult)
            _MIXTURES[key] = ripr.li_approximate(spec, flat, max_iters=3)[0]
        mixture = _MIXTURES[key]
    return spec, alt, mixture


def campaign(spec, alt, kind, mixture, mult, policy_name):
    policy = StopAtOne() if policy_name == "custom" else policy_name
    summary = sq.simulate(spec, alt, kind, alpha=0.05, policy=policy,
                          trials=TRIALS, seed=3, max_blocks=MAX_BLOCKS,
                          truth="alt", multiplicities=mult, mixture=mixture)
    arrays = [summary.stop_times, summary.rejected, summary.final_log_evalues]
    if policy_name == "custom":
        arrays += policy.seen
    return summary.to_json_dict(), arrays


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("family, fixed, means, mult, kind", SIM_CASES,
                         ids=[sim_id(*c) for c in SIM_CASES])
def test_simulate_bits_do_not_depend_on_the_chunk(monkeypatch, family, fixed,
                                                  means, mult, kind, policy):
    spec, alt, mixture = problem(family, fixed, means, mult, kind)
    kprime = sum(mult or [1] * alt.k)
    want_summary, want = campaign(spec, alt, kind, mixture, mult, policy)
    for name in BUDGETS:
        monkeypatch.setattr(ev, "_CHUNK_ELEMENTS", budget(name, kprime))
        got_summary, got = campaign(spec, alt, kind, mixture, mult, policy)
        assert got_summary == want_summary, name
        assert len(got) == len(want), name
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), name


def pass_sizes(n, step):
    """Passes of step items over n, the last taking what is left."""
    return [step] * (n // step) + ([n % step] if n % step else [])


@pytest.mark.parametrize("name", BUDGETS)
def test_simulate_draws_trials_in_chunks_of_the_budget(monkeypatch, name):
    spec = make_family("exponential")
    alt = Alternative.from_means(spec, [1.0, 0.7, 0.5])
    kprime = 4  # multiplicities (2, 1, 1)
    shapes = []
    build = ev._statistic

    def recording_build(*args, **kwargs):
        score = build(*args, **kwargs)
        return lambda x: shapes.append(x.shape) or score(x)

    monkeypatch.setattr(ev, "_statistic", recording_build)
    monkeypatch.setattr(ev, "_CHUNK_ELEMENTS", budget(name, kprime))
    sq.simulate(spec, alt, "cond", 0.05, "threshold", trials=TRIALS, seed=1,
                max_blocks=MAX_BLOCKS, multiplicities=[2, 1, 1])
    chunk = max(1, budget(name, kprime) // (MAX_BLOCKS * kprime))
    assert shapes == [(n, MAX_BLOCKS, kprime) for n in pass_sizes(TRIALS, chunk)]


@pytest.mark.parametrize("name", BUDGETS)
def test_statistic_passes_hold_at_most_the_budget(monkeypatch, name):
    k, x = 3, np.arange(5 * 7 * 3, dtype=float).reshape(5, 7, 3)
    passes = []
    monkeypatch.setattr(ev, "_CHUNK_ELEMENTS", budget(name, k))
    out = ev._in_chunks(lambda rows: passes.append(rows.shape) or rows.sum(axis=-1))(x)
    assert np.array_equal(out, x.sum(axis=-1))
    if x.size <= budget(name, k):
        assert passes == [x.shape]
    else:
        step = max(1, budget(name, k) // k)
        assert passes == [(n, k) for n in pass_sizes(35, step)]


# (family, fixed params, means): a gamma series, beta alpha = 2, a lattice
# convolution, a finite-support table and the Erlang partial fractions
MC_PROBLEMS = [
    ("gaussian_variance", {}, (1.0, 0.6, 0.8)),
    ("beta_fixed_alpha", {"alpha": 2.0}, (-1.0, -0.5)),
    ("geometric", {}, (1.0, 0.5)),
    ("bernoulli", {}, (0.6, 0.4, 0.3)),
    ("exponential", {}, (1.0, 1.0, 0.7, 0.5)),
]
MC_KINDS = ("pseudo", "gro_iid", "cond")


def mc_id(family, fixed, means):
    return "-".join([family, *(f"{k}{v}" for k, v in fixed.items()), f"k{len(means)}"])


def under_each_budget(monkeypatch, k, compute):
    """compute() without a patch, then under each budget for blocks of k."""
    want = compute()
    for name in BUDGETS:
        monkeypatch.setattr(ev, "_CHUNK_ELEMENTS", budget(name, k))
        yield name, compute(), want


@pytest.mark.parametrize("family, fixed, means", MC_PROBLEMS,
                         ids=[mc_id(*p) for p in MC_PROBLEMS])
def test_monte_carlo_bits_do_not_depend_on_the_chunk(monkeypatch, family, fixed, means):
    spec = make_family(family, **fixed)
    alt = Alternative.from_means(spec, list(means))
    x = ev._mc_draws(spec, alt.mu, 150, np.random.default_rng(4))

    def compute():
        report = gr.growth_report(spec, alt, MC_KINDS, method="mc", mc_n=150, seed=2)
        return ([ev._log_statistic(spec, alt, x, kind) for kind in MC_KINDS]
                + [np.array([(e.rate, e.stderr) for e in report.entries.values()])]
                + [np.array(ev.null_expectation_mc(spec, alt, kind, alt.mu0_star,
                                                   n=150, seed=5))
                   for kind in MC_KINDS])

    for name, got, want in under_each_budget(monkeypatch, alt.k, compute):
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), name


# small geometric means: the profile sums over the whole lattice
@pytest.mark.parametrize("family, fixed, means", [
    ("geometric", {}, (0.3, 0.15)), ("beta_fixed_alpha", {"alpha": 2.0}, (-1.0, -0.5))],
    ids=["geometric", "beta_fixed_alpha-alpha2.0"])
def test_heatmap_and_profile_bits_do_not_depend_on_the_chunk(monkeypatch, family,
                                                             fixed, means):
    spec = make_family(family, **fixed)
    alt = Alternative.from_means(spec, list(means))

    def compute():
        hm = gr.heatmap(spec, ("gro_iid", "cond"), n=3, method="mc", mc_n=40, seed=1)
        return [hm.gap, hm.stderr] + [
            ev.null_expectation_profile(spec, alt, kind, [alt.mu0_star], n=12)
            for kind in MC_KINDS]

    for name, got, want in under_each_budget(monkeypatch, 2, compute):
        assert all(np.array_equal(g, w, equal_nan=True)
                   for g, w in zip(got, want)), name


def traced_peak(fn) -> int:
    """Peak bytes traced by tracemalloc (numpy reports its buffers) in fn()."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_campaign_peak_memory_is_bounded_by_its_log_values():
    # 10^4 trials of 200 blocks: logs hold 16 MB; all blocks at once held 32
    # MB and their temporaries ~260 MB
    spec = make_family("poisson")
    alt = Alternative.from_means(spec, [2.0, 1.0])
    trials, max_blocks = 10**4, 200
    peak = traced_peak(lambda: sq.simulate(
        spec, alt, "gro_iid", 0.05, "threshold", trials=trials, seed=1,
        max_blocks=max_blocks, truth="alt"))
    assert peak <= 3 * trials * max_blocks * 8


def test_monte_carlo_growth_peak_memory_is_bounded_by_its_draws():
    # 10^6 blocks of 2 draws hold 16 MB; whole-array scoring peaked at ~130 MB
    spec = make_family("poisson")
    alt = Alternative.from_means(spec, [2.0, 1.0])
    n = 10**6
    peak = traced_peak(lambda: gr.growth_report(
        spec, alt, ["pseudo", "gro_iid", "cond"], method="mc", mc_n=n, seed=0))
    assert peak <= 4 * n * alt.k * 8


# (family, fixed params, means, multiplicities, kinds): the nine families of
# tests/test_sweep.py (beta alpha = 2.5 has cond at k = 2 only; beta alpha = 2
# takes the Erlang partial fractions with multiplicity 2), gro_m on Li's
# mixture and the Erlang fractions with multiplicities (2, 1, 1)
BATCH_PROBLEMS = [
    ("bernoulli", {}, (0.6, 0.4, 0.3), None, MC_KINDS),
    ("gaussian_mean", {}, (0.5, -0.25, 1.0), None, MC_KINDS),
    ("gaussian_variance", {}, (1.0, 0.6, 0.8), None, MC_KINDS),
    ("poisson", {}, (2.0, 1.0, 3.0), None, MC_KINDS),
    ("exponential", {}, (1.0, 0.7, 0.5), None, MC_KINDS),
    ("geometric", {}, (1.0, 0.5, 2.0), None, MC_KINDS),
    ("beta_fixed_alpha", {"alpha": 1.0}, (-1.0, -0.5, -0.7), None, MC_KINDS),
    ("beta_fixed_alpha", {"alpha": 2.0}, (-1.0, -0.5), None, MC_KINDS),
    ("beta_fixed_alpha", {"alpha": 2.5}, (-1.0, -0.5), None, MC_KINDS),
    ("exponential", {}, (0.5, 0.25), None, ("gro_m",)),
    ("exponential", {}, (1.0, 0.7, 0.5), [2, 1, 1], MC_KINDS),
]
BATCH_CASES = [(family, fixed, means, mult, kind)
               for family, fixed, means, mult, kinds in BATCH_PROBLEMS for kind in kinds]


@pytest.mark.parametrize("family, fixed, means, mult, kind", BATCH_CASES,
                         ids=[sim_id(*c) for c in BATCH_CASES])
def test_block_value_does_not_depend_on_the_batch(family, fixed, means, mult, kind):
    spec, alt, mixture = problem(family, fixed, means, mult, kind)
    flat = sq.expand_multiplicities(spec, alt, mult)
    x = ev._mc_draws(spec, flat.mu, 60, np.random.default_rng(8))
    score = ev._statistic(spec, flat, kind, mixture)
    assert np.array_equal([score(block) for block in x], score(x))


# the two Erlang streams: one z per streamed block
@pytest.mark.parametrize("family, fixed, means, mult", [
    ("exponential", {}, (1.0, 0.7, 0.5), [2, 1, 1]),
    ("beta_fixed_alpha", {"alpha": 2.0}, (-1.0, -0.5), None)],
    ids=["exponential-m211", "beta_fixed_alpha-alpha2.0-k2"])
def test_streamed_block_values_equal_the_vectorized_ones(family, fixed, means, mult):
    spec = make_family(family, **fixed)
    alt = Alternative.from_means(spec, list(means))
    flat = sq.expand_multiplicities(spec, alt, mult)
    x = ev._mc_draws(spec, flat.mu, 60, np.random.default_rng(9))
    state = sq.StreamState(spec, alt, "cond", 0.05, multiplicities=mult)
    groups = np.repeat(np.arange(1, alt.k + 1), mult or [1] * alt.k)
    for block in x:
        for group, value in zip(groups, block):
            state.ingest(int(group), float(value))
    assert np.array_equal(state.block_log_values, ev._log_statistic(spec, flat, x, "cond"))


def test_support_refusal_in_a_later_pass_names_the_values_of_one_pass(monkeypatch):
    # the first value outside lies in the second pass of 16, the fifth in the
    # fourth: the refusal names the same five values as one pass over all
    spec = make_family("poisson")
    x = np.zeros((40, 2))
    x.flat[[17, 20, 33, 40, 70, 75]] = [2.5, -1.0, 0.5, np.nan, 1e-3, 7.25]
    with pytest.raises(expfam.SupportError) as whole:
        spec.check_support(x)
    assert str(whole.value).startswith("value(s) [2.5, -1.0, 0.5, nan, 0.001] outside")
    monkeypatch.setattr(expfam, "_CHUNK_ELEMENTS", 16)
    with pytest.raises(expfam.SupportError, match=f"^{re.escape(str(whole.value))}$"):
        spec.check_support(x)
    x.flat[[17, 20, 33, 40, 70, 75]] = 3.0
    assert spec.check_support(x) is not None


def test_support_check_holds_no_temporaries_of_the_input_size():
    # 10^6 blocks of 2 counts hold 16 MB; one pass over all of them peaked at
    # 32 MB, passes of the budget at ~1 MB
    spec = make_family("poisson")
    x = ev._mc_draws(spec, [2.0, 1.0], 10**6, np.random.default_rng(0))
    assert traced_peak(lambda: spec.check_support(x)) <= 4 * expfam._CHUNK_ELEMENTS * 8
