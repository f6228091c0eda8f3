"""Every entry point checks its sizes, seeds, multiplicities and methods with
one shared rule, before any grid, cell or trial is built, and every report
record lists its fields once."""

import numpy as np
import pytest

from ksample_evalues import Alternative, default_direction, make_family
from ksample_evalues import _quad
from ksample_evalues import evariables as ev
from ksample_evalues import growth as gr
from ksample_evalues import ripr
from ksample_evalues import sequential as sq

SPEC = make_family("exponential")
ALT = Alternative.from_means(SPEC, [0.5, 0.25])
MIX = ripr.MixtureNull(((1.0, 0.375),))
KINDS = ("pseudo", "cond")

# (entry point, positional arguments, other keyword arguments, the checked
# argument, its least value)
SIZES = [
    (ripr.li_approximate, (SPEC, ALT), {}, "max_iters", 1),
    (ripr.li_approximate, (SPEC, ALT), {}, "n_alpha", 2),
    (ripr.li_approximate, (SPEC, ALT), {}, "mu_count", 1),
    (ripr.li_approximate, (SPEC, ALT), {}, "cert_count", 1),
    (ripr.brute_force_two_component, (SPEC, ALT), {}, "n_alpha", 2),
    (ripr.brute_force_two_component, (SPEC, ALT), {}, "mu_count", 1),
    (ripr.brute_force_two_component, (SPEC, ALT), {}, "mu0_count", 1),
    (ripr.point_mixture, (SPEC, ALT, 0.375), {}, "count", 1),
    (ripr.li_approximate, (SPEC, ALT), {}, "n_z", 1),
    (ripr.brute_force_two_component, (SPEC, ALT), {}, "n_z", 1),
    (ripr.worst_case_expectation, (SPEC, ALT, MIX), {}, "count", 1),
    (gr.growth_rate, (SPEC, ALT, "pseudo"), {"method": "mc"}, "mc_n", 2),
    (gr.growth_rate, (SPEC, ALT, "pseudo"), {"method": "mc", "mc_n": 100}, "seed", 0),
    (gr.heatmap, (SPEC, KINDS), {}, "n", 2),
    (gr.heatmap, (SPEC, KINDS), {"n": 3, "method": "mc"}, "mc_n", 2),
    (gr.heatmap, (SPEC, KINDS), {"n": 3, "method": "mc", "mc_n": 100}, "seed", 0),
    (ev.null_expectation_mc, (SPEC, ALT, "cond", 0.375), {}, "n", 2),
    (ev.null_expectation_mc, (SPEC, ALT, "cond", 0.375), {"n": 100}, "seed", 0),
    (ev.null_expectation_profile, (SPEC, ALT, "cond", [0.375]), {}, "n", 1),
    (sq.simulate, (SPEC, ALT, "cond", 0.05, "threshold"), {"seed": 0}, "trials", 1),
    (sq.simulate, (SPEC, ALT, "cond", 0.05, "threshold"), {"trials": 10, "seed": 0},
     "max_blocks", 1),
    (sq.simulate, (SPEC, ALT, "cond", 0.05, "threshold"), {"trials": 10}, "seed", 0),
    (gr.coeff_iid_gap, (SPEC, 0.375), {}, "k", 2),
    (gr.coeff_cond_gap, (SPEC, 0.375), {}, "k", 2),
    (default_direction, (), {}, "k", 2),
    # n = -1 and 2.5 once failed inside numpy without naming n
    (SPEC.sample, (0.5,), {"rng": 0}, "n", 0),
]


@pytest.fixture
def no_work(monkeypatch):
    """Fail on building a z or support grid, a heatmap cell, a Monte Carlo
    draw or a simulation trial."""
    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")

    monkeypatch.setattr(_quad, "sum_nodes", forbidden)
    monkeypatch.setattr(_quad, "support_nodes", forbidden)
    monkeypatch.setattr(ev, "_mc_draws", forbidden)
    monkeypatch.setattr(sq, "spawn_keys", forbidden)
    monkeypatch.setattr(Alternative, "from_means", classmethod(forbidden))


@pytest.mark.parametrize("value", [2.5, True, "below"])
@pytest.mark.parametrize("func, args, kwargs, name, least", SIZES,
                         ids=[f"{f.__name__}-{name}" for f, _, _, name, _ in SIZES])
def test_sizes_and_seeds_refused_by_name(no_work, func, args, kwargs, name,
                                         least, value):
    # 2.5 was once truncated (count=10.7 certified over 10 points) or used
    # as is (k), or failed inside numpy or scipy without naming the argument;
    # True once passed as 1
    if value == "below":
        value = least - 1
        match = f"^{name} must be at least {least}, got {value}$"
    else:
        match = f"^{name} must be an integer, got {value}$"
    with pytest.raises(ValueError, match=match):
        func(*args, **{**kwargs, name: value})


def test_integral_float_size_refused():
    # 2.0 once passed simulate's own loop and then failed in np.empty
    with pytest.raises(ValueError, match="^trials must be an integer, got 2.0$"):
        sq.simulate(SPEC, ALT, "cond", 0.05, "threshold", trials=2.0, seed=0)


def test_bool_size_refused():
    # True once passed every check and then failed in np.empty with an
    # unnamed "TypeError: an integer is required"
    with pytest.raises(ValueError, match="^trials must be an integer, got True$"):
        sq.simulate(SPEC, ALT, "cond", 0.05, "threshold", True, 0, max_blocks=5)


@pytest.mark.parametrize("seed", [np.random.default_rng(0), 1.5])
def test_monte_carlo_seed_that_is_no_integer_refused(no_work, seed):
    # a Generator seed once failed in every heatmap cell
    with pytest.raises(ValueError, match="^seed must be an integer, got "):
        gr.heatmap(SPEC, KINDS, n=3, method="mc", mc_n=100, seed=seed)


def test_null_expectation_mc_still_takes_a_generator():
    rng = np.random.default_rng(0)
    mean, se = ev.null_expectation_mc(SPEC, ALT, "cond", 0.375, n=100, seed=rng)
    assert np.isfinite(mean) and se >= 0


def _state(multiplicities):
    return sq.StreamState(SPEC, ALT, "cond", 0.05, multiplicities=multiplicities)


def _set(multiplicities):
    return _state(None).set_multiplicities(multiplicities)


def _simulate(multiplicities):
    return sq.simulate(SPEC, ALT, "cond", 0.05, "threshold", trials=20, seed=3,
                       max_blocks=5, multiplicities=multiplicities)


ENTRIES = {"constructor": _state, "set_multiplicities": _set, "simulate": _simulate}


@pytest.mark.parametrize("given, message", [
    ([1.5, 1], "multiplicities must be positive integers, got [1.5, 1]"),
    ([2.0, 1], "multiplicities must be positive integers, got [2.0, 1]"),
    ([0, 1], "multiplicities must be positive integers, got [0, 1]"),
    ([], "need one multiplicity per group (2), got []"),
    ([1, 1, 1], "need one multiplicity per group (2), got [1, 1, 1]"),
], ids=["fraction", "integral-float", "zero", "empty", "too-many"])
@pytest.mark.parametrize("entry", list(ENTRIES))
def test_multiplicities_refused_alike(entry, given, message):
    # the constructor once ran (1.5, 1) as (1, 1), simulate ran (2.7, 1) as
    # (2, 1), and [] meant all ones
    with pytest.raises(ValueError) as exc:
        ENTRIES[entry](given)
    assert str(exc.value) == message


def test_numpy_multiplicities_accepted_everywhere():
    # an array once crashed the constructor and simulate with "the truth
    # value of an array ... is ambiguous"
    given = np.array([2, 1])
    assert _state(given).multiplicities == (2, 1)
    assert _set(given).multiplicities == (2, 1)
    a, b = _simulate(given), _simulate([2, 1])
    assert a.to_json_dict() == b.to_json_dict()
    assert np.array_equal(a.final_log_evalues, b.final_log_evalues)


@pytest.mark.parametrize("given, message", [
    (np.array([2, 0]), "multiplicities must be positive integers, got [2, 0]"),
    (np.array([1, 1, 1]), "need one multiplicity per group (2), got [1, 1, 1]"),
], ids=["zero", "too-many"])
@pytest.mark.parametrize("entry", list(ENTRIES))
def test_numpy_multiplicities_refused_as_plain_integers(entry, given, message):
    # an array was once printed as [np.int64(2), np.int64(0)]
    with pytest.raises(ValueError) as exc:
        ENTRIES[entry](given)
    assert str(exc.value) == message


def test_none_multiplicities_mean_one_per_group():
    assert _state(None).multiplicities == (1, 1)
    assert sq.expand_multiplicities(SPEC, ALT, None) == ALT


@pytest.mark.parametrize("kwargs, match", [
    ({"kinds": KINDS, "method": "bogus"}, r"^method must be 'quadrature' or 'mc', got 'bogus'$"),
    ({"kinds": ("pseudo",)}, r"^heatmap needs exactly two statistics, got \['pseudo'\]$"),
    ({"kinds": ("pseudo", "cond", "gro_iid")},
     r"^heatmap needs exactly two statistics, got \['pseudo', 'cond', 'gro_iid'\]$"),
], ids=["unknown-method", "one-kind", "three-kinds"])
def test_heatmap_refused_before_any_cell(monkeypatch, kwargs, match):
    # an unknown method once recorded 6 cell failures at n = 3; a third kind
    # was silently dropped and ("pseudo",) raised an IndexError
    cells = []
    monkeypatch.setattr(gr.Alternative, "from_means",
                        classmethod(lambda cls, spec, mus: cells.append(mus)))
    with pytest.raises(ValueError, match=match):
        gr.heatmap(SPEC, n=3, **kwargs)
    assert not cells


def test_growth_report_names_an_unknown_method():
    with pytest.raises(ValueError, match="got 'bogus'"):
        gr.growth_report(SPEC, ALT, ["pseudo"], method="bogus")


def test_certificate_record_fields():
    cert = ripr.point_mixture(SPEC, ALT, ALT.mu0_star).certificate
    assert list(cert.to_dict()) == ["sup_expectation", "mu0_grid_size", "mu0_lo",
                                    "mu0_hi", "method", "argmax_mu0"]
    assert ripr.Certificate(**cert.to_dict()) == cert


def test_simulation_summary_record_fields():
    summary = _simulate(None)
    assert list(summary.to_json_dict()) == [
        "trials", "rejection_rate", "rejection_stderr", "mean_stop_time", "truth",
        "kind", "alpha", "policy", "seed"]
