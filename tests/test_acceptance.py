"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Grid endpoints for the projection searches are artifact decisions (the
published protocol chose them "by trial and error" without recording them);
the choices used here are documented inline and in the README.  Two checks
encode published claims that correct computation contradicts; they are
implemented faithfully and fail with diagnostics rather than being loosened:

* criterion 1's mixture-location clause (the worst-case objective is flat to
  ~1e-4 near its minimum, so the argmin is not identifiable from the recorded
  protocol; the published triples are not minimax for any tested endpoint
  choice or parameterization reading, while the certified values themselves
  reproduce within 8e-4),
* criterion 7's ordering-sign claims for the beta / free-variance /
  exponential families (the conditional statistic dominates the equal-mixture
  one there, confirmed by independent Monte Carlo and forced near the
  diagonal by the same fourth-order coefficients that criterion 6 verifies).
"""

import itertools
import math
import time

import numpy as np
import pytest

from ksample_evalues import Alternative, as_generator, make_family
from ksample_evalues import evariables as ev
from ksample_evalues import growth as gr
from ksample_evalues import ripr
from ksample_evalues import sequential as sq


def report(cid: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {detail}")


# --------------------------------------------------------------------------
# criterion 1: two-component brute-force reproduction of the published table
# --------------------------------------------------------------------------

TABLE_ROWS = [
    # family, group means, published (alpha, mu01, mu02), published sup
    ("exponential", (0.5, 0.25), (0.56, 0.35, 0.51), 1.0000),
    ("geometric", (10.0 / 3, 5.0 / 4), (0.47, 1.84, 2.97), 1.0008),
    ("gaussian_variance", (0.5, 0.25), (0.37, 0.50, 0.50), 1.0000),
    ("gaussian_variance", (10.0 / 3, 5.0 / 4), (0.08, 3.64, 2.73), 1.0002),
]


@pytest.fixture(scope="module")
def table_searches():
    out = []
    for name, mus, published, published_sup in TABLE_ROWS:
        spec = make_family(name)
        alt = Alternative.from_means(spec, list(mus))
        t0 = time.time()
        mix, _ = ripr.brute_force_two_component(spec, alt)
        out.append((name, mus, published, published_sup, mix, time.time() - t0))
    return out


def test_criterion_1a_table_sup_expectations(table_searches):
    lines, ok = [], True
    for name, mus, published, published_sup, mix, dt in table_searches:
        sup = mix.certificate.sup_expectation
        row_ok = abs(sup - published_sup) <= 5e-3 and dt <= 600.0
        ok &= row_ok
        lines.append(f"{name}{mus}: sup={sup:.4f} vs {published_sup} in {dt:.0f}s")
    report("1a (table sup expectations +-5e-3)", ok, "; ".join(lines))
    assert ok, lines


def test_criterion_1b_table_mixture_locations(table_searches):
    """Faithful check of the published (alpha, mu01, mu02) within one grid step.

    Expected to fail: the minimax objective is flat to ~1e-4 around its
    minimum and the published grid endpoints are unrecorded, so the argmin is
    not reproducible (see the module docstring and the decisions ledger).
    """
    lines, ok = [], True
    for name, mus, published, published_sup, mix, _ in table_searches:
        cert = mix.certificate
        step_mu = (cert.mu0_hi - cert.mu0_lo) / 99.0
        step_a = 1.0 / 99.0
        if len(mix.components) == 1:
            ours = (1.0, mix.components[0][1], mix.components[0][1])
        else:
            (w1, m1), (w2, m2) = mix.components
            ours = (w1, m1, m2)
        pa, p1, p2 = published
        orientations = [ours, (1.0 - ours[0], ours[2], ours[1])]
        comp_match = any(
            abs(o[1] - p1) <= step_mu + 1e-12 and abs(o[2] - p2) <= step_mu + 1e-12
            for o in orientations
        )
        if p1 == p2:
            # both published components coincide: the weight is unidentified
            alpha_match = True
        else:
            alpha_match = any(
                abs(o[0] - pa) <= step_a + 1e-12
                and abs(o[1] - p1) <= step_mu + 1e-12
                and abs(o[2] - p2) <= step_mu + 1e-12
                for o in orientations
            )
        row_ok = comp_match and alpha_match
        ok &= row_ok
        lines.append(
            f"{name}{mus}: ours=({ours[0]:.3f}, {ours[1]:.3f}, {ours[2]:.3f}) "
            f"vs published={published} step={step_mu:.4f} -> "
            f"{'match' if row_ok else 'NO MATCH'}"
        )
    report("1b (table mixture locations, one grid step)", ok, "; ".join(lines))
    assert ok, (
        "published mixture locations not reproduced: the worst-case objective "
        "is flat to ~1e-4 near its minimum, so the argmin is not identifiable "
        "without the unrecorded grid endpoints (see module docstring)\n"
        + "\n".join(lines)
    )


def test_criterion_1_beta_row_invariant_level():
    # the beta rows are checked at the invariant level (sup <= 1.01) pending
    # the observation-mean vs statistic-mean parameterization question
    spec = make_family("beta_fixed_alpha")
    mus = [spec.mean_from_beta_mean(0.5), spec.mean_from_beta_mean(0.25)]
    alt = Alternative.from_means(spec, mus)
    t0 = time.time()
    mix, _ = ripr.brute_force_two_component(spec, alt)
    dt = time.time() - t0
    sup = mix.certificate.sup_expectation
    ok = 1.0 - 1e-6 <= sup <= 1.01 and dt <= 600.0
    report("1 (beta row, invariant level)", ok, f"sup={sup:.4f} in {dt:.0f}s")
    assert ok


# --------------------------------------------------------------------------
# criterion 2: greedy projection converges for the four reference pairs
# --------------------------------------------------------------------------

LI_PAIRS = [
    ("beta_fixed_alpha", "beta_means", (1.0 / 6, 1.0 / 10)),
    ("geometric", "direct", (5.0, 2.0)),
    ("exponential", "direct", (0.5, 1.0 / 9)),
    ("gaussian_variance", "direct", (2.0, 6.0)),
]


def test_criterion_2_li_convergence():
    lines, ok = [], True
    for name, mode, mus in LI_PAIRS:
        spec = make_family(name)
        if mode == "beta_means":
            mus = tuple(spec.mean_from_beta_mean(m) for m in mus)
        alt = Alternative.from_means(spec, list(mus))
        # documented endpoint protocol: means hull expanded by (0.5, 1.2)
        lo_h, hi_h = min(mus), max(mus)
        if hi_h < 0:
            lo, hi = 1.2 * lo_h, 0.5 * hi_h
        else:
            lo, hi = 0.5 * lo_h, 1.2 * hi_h
        t0 = time.time()
        mix, trace = ripr.li_approximate(spec, alt, max_iters=15, mu_lo=lo, mu_hi=hi)
        dt = time.time() - t0
        kls = [t["kl"] for t in trace]
        monotone = all(b <= a + 1e-12 for a, b in zip(kls, kls[1:]))
        sup = trace[-1]["sup_expectation"]
        pair_ok = sup <= 1.005 and monotone and len(trace) <= 15 and dt <= 300.0
        ok &= pair_ok
        lines.append(f"{name}: sup={sup:.4f} iters={len(trace)} "
                     f"monotone={monotone} {dt:.0f}s")
    report("2 (greedy projection <= 1.005 in 15 iterations)", ok, "; ".join(lines))
    assert ok, lines


# --------------------------------------------------------------------------
# criterion 3: family identities
# --------------------------------------------------------------------------

def test_criterion_3_family_identities():
    spec = make_family("bernoulli")
    alt = Alternative.from_means(spec, [0.5, 0.25])
    worst_b = max(
        abs(float(ev.log_s_pseudo(spec, alt, blk) - ev.log_s_gro_iid(spec, alt, blk)))
        for blk in itertools.product([0, 1], repeat=2)
    )
    worst_pc = 0.0
    for name, mus in [("gaussian_mean", [0.3, -0.5]), ("poisson", [1.0, 2.5])]:
        fam = make_family(name)
        a = Alternative.from_means(fam, mus)
        rng = as_generator(77)
        x = np.stack([fam.sample(m, 1000, rng) for m in a.mu], axis=-1)
        d = np.abs(ev.log_s_pseudo(fam, a, x) - ev.log_s_cond(fam, a, x))
        worst_pc = max(worst_pc, float(d.max()))
    ok = worst_b <= 1e-12 and worst_pc <= 1e-10
    report(
        "3 (family identities)",
        ok,
        f"bernoulli pseudo==mixture max|diff|={worst_b:.2e}; "
        f"gaussian/poisson pseudo==cond max|diff|={worst_pc:.2e}",
    )
    assert ok


# --------------------------------------------------------------------------
# criterion 4: e-variable property on a 200-point null grid
# --------------------------------------------------------------------------

ALT_RANGES = {
    "bernoulli": (0.08, 0.92),
    "gaussian_mean": (-2.0, 2.0),
    "gaussian_variance": (0.25, 4.0),
    "poisson": (0.3, 5.0),
    "exponential": (0.15, 3.0),
    "geometric": (0.3, 6.0),
    "beta_fixed_alpha": (-2.5, -0.2),
}


def test_criterion_4_evariable_property():
    rng = np.random.default_rng(20240)
    worst = -np.inf
    worst_at = None
    for name, (lo, hi) in ALT_RANGES.items():
        spec = make_family(name)
        for _ in range(10):
            mus = lo + (hi - lo) * rng.random(2)
            while abs(mus[0] - mus[1]) < 0.02 * (hi - lo):
                mus = lo + (hi - lo) * rng.random(2)
            alt = Alternative.from_means(spec, list(mus))
            glo, ghi = ripr.default_search_range(spec, alt)
            mu0s = np.linspace(glo, ghi, 200)
            for kind in ("gro_iid", "cond"):
                vals = ev.null_expectation_profile(spec, alt, kind, mu0s, n=256)
                if vals.max() > worst:
                    worst = float(vals.max())
                    worst_at = (name, kind, tuple(np.round(mus, 3)))
    ok = worst <= 1.0 + 1e-3
    report("4 (e-variable property)", ok, f"worst E = {worst:.6f} at {worst_at}")
    assert ok


# --------------------------------------------------------------------------
# criterion 5: sign of the variance criterion at the pooled mean
# --------------------------------------------------------------------------

def test_criterion_5_pseudo_verdict_signs():
    rng = np.random.default_rng(5150)
    checks = []
    positive = ["exponential", "geometric", "beta_fixed_alpha", "gaussian_variance"]
    for name in positive + ["bernoulli", "gaussian_mean", "poisson"]:
        lo, hi = ALT_RANGES[name]
        spec = make_family(name)
        for _ in range(10):
            mus = lo + (hi - lo) * rng.random(2)
            while abs(mus[0] - mus[1]) < 0.02 * (hi - lo):
                mus = lo + (hi - lo) * rng.random(2)
            alt = Alternative.from_means(spec, list(mus))
            f0 = ev.f_criterion(spec, alt, alt.mu0_star)
            if name in positive:
                checks.append((name, f0 > 0))
            elif name == "bernoulli":
                checks.append((name, f0 < 0))
            else:
                checks.append((name, abs(f0) < 1e-9))
    ok = all(c for _, c in checks)
    bad = sorted({n for n, c in checks if not c})
    report("5 (variance-criterion signs)", ok,
           f"{len(checks)} sign checks" + (f"; failing: {bad}" if bad else ""))
    assert ok, bad


# --------------------------------------------------------------------------
# criterion 6: fourth-power law and analytic coefficients
# --------------------------------------------------------------------------

DELTA_CASES = [
    # family, mu0, which gaps carry a positive coefficient there
    ("bernoulli", 0.3, ["cond"]),
    ("gaussian_mean", 0.0, ["iid"]),
    ("poisson", 2.0, ["iid"]),
    ("exponential", 0.375, ["iid", "cond"]),
    ("geometric", 2.0, ["iid", "cond"]),
    ("gaussian_variance", 1.0, ["iid", "cond"]),
    ("beta_fixed_alpha", -0.5, ["iid", "cond"]),
]


def test_criterion_6_delta4_law():
    t0 = time.time()
    deltas = np.array([0.02, 0.04, 0.06, 0.08, 0.10])
    lines, ok = [], True
    for name, mu0, gaps in DELTA_CASES:
        spec = make_family(name)
        direction = np.array([1.0, -1.0]) / math.sqrt(2.0)
        for which in gaps:
            vals = []
            for d in deltas:
                alt = Alternative.from_effect(spec, mu0, float(d), direction)
                g = (
                    gr.gap_pseudo_iid(spec, alt)
                    if which == "iid"
                    else gr.gap_pseudo_cond(spec, alt)
                )
                vals.append(g)
            vals = np.array(vals)
            slope = float(np.polyfit(np.log(deltas), np.log(vals), 1)[0])
            coeff = (
                gr.coeff_iid_gap(spec, mu0).value
                if which == "iid"
                else gr.coeff_cond_gap(spec, mu0).value
            )
            ratio = vals[0] / deltas[0] ** 4 / coeff
            case_ok = abs(slope - 4.0) <= 0.3 and abs(ratio - 1.0) <= 0.10
            ok &= case_ok
            lines.append(f"{name}/{which}: slope={slope:.2f} emp/ana={ratio:.3f}")
    dt = time.time() - t0
    ok &= dt <= 600.0
    report("6 (delta^4 law and coefficients)", ok, "; ".join(lines) + f"; {dt:.0f}s")
    assert ok, lines


# --------------------------------------------------------------------------
# criterion 7: ordering signs on a 10 x 10 grid
# --------------------------------------------------------------------------

def _sign_counts(name):
    spec = make_family(name)
    res = gr.heatmap(spec, ("gro_iid", "cond"), n=10)
    off = res.gap[np.triu_indices(10, 1)]
    tol = 1e-9  # quadrature-error floor; stderr is zero for quadrature
    return int((off > tol).sum()), int((off < -tol).sum()), len(res.failures)


def test_criterion_7a_beta_and_variance_orderings():
    """Published claim: the equal-mixture statistic grows at least as fast as
    the conditional one everywhere for beta and free-variance grids.

    Expected to fail: the conditional statistic dominates on these grids
    (verified against independent Monte Carlo, and forced near the diagonal
    by the criterion-6 coefficients); see the decisions ledger.
    """
    lines, ok = [], True
    for name in ("beta_fixed_alpha", "gaussian_variance"):
        pos, neg, fails = _sign_counts(name)
        fam_ok = neg == 0 and fails == 0
        ok &= fam_ok
        lines.append(f"{name}: {pos} cells favor mixture, {neg} favor conditional")
    report("7a (beta/variance grids: mixture >= conditional)", ok, "; ".join(lines))
    assert ok, (
        "the conditional statistic dominates the equal-mixture statistic on "
        "these grids (confirmed by independent Monte Carlo; the criterion-6 "
        "coefficients force this near the diagonal)\n" + "\n".join(lines)
    )


def test_criterion_7b_geometric_ordering():
    pos, neg, fails = _sign_counts("geometric")
    ok = pos == 0 and fails == 0
    report(
        "7b (geometric grid: conditional >= mixture)",
        ok,
        f"{neg} cells favor conditional, {pos} favor mixture",
    )
    assert ok


def test_criterion_7c_exponential_both_signs():
    """Published claim: the exponential grid exhibits both signs.

    Expected to fail: the conditional statistic wins on the whole grid (and
    on every alternative probed up to mean ratio 100); see the ledger.
    """
    pos, neg, fails = _sign_counts("exponential")
    ok = pos > 0 and neg > 0 and fails == 0
    report(
        "7c (exponential grid: both signs)",
        ok,
        f"{pos} cells favor mixture, {neg} favor conditional",
    )
    assert ok, (
        "no sign change found: the conditional statistic wins on the whole "
        "exponential grid (and on every alternative probed up to mean ratio 100)"
    )


# --------------------------------------------------------------------------
# criterion 8: optional-stopping validity
# --------------------------------------------------------------------------

def test_criterion_8_optional_stopping_type1():
    t0 = time.time()
    lines, ok = [], True
    cases = [
        ("bernoulli", [0.5, 0.25]),
        ("gaussian_mean", [0.4, -0.4]),
    ]
    for name, mus in cases:
        spec = make_family(name)
        alt = Alternative.from_means(spec, mus)
        for kind in ("gro_iid", "cond"):
            s = sq.simulate(
                spec, alt, kind, alpha=0.05, policy="threshold",
                trials=10_000, seed=88, max_blocks=200, truth="null",
            )
            band = 0.05 + 3 * s.rejection_stderr
            case_ok = s.rejection_rate <= band
            ok &= case_ok
            lines.append(f"{name}/{kind}: {s.rejection_rate:.4f} <= {band:.4f}")
    dt = time.time() - t0
    ok &= dt <= 300.0
    report("8 (optional-stopping validity)", ok, "; ".join(lines) + f"; {dt:.0f}s")
    assert ok, lines
