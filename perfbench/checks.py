"""Output checks for every operation of a round.

Two kinds of check run on every output:

* oracle checks that hold for any seed and size: certificates at least
  1 - 1e-6 on the row's ``default_search_range`` grid, finite symmetric
  heatmaps, Monte Carlo growth within 4 stderr of quadrature, streamed
  e-processes equal to the vectorized statistic over the same blocks, and
  campaign rejection rates inside the optional-stopping band;
* golden checks against ``golden.json``, the values recorded at the commit
  that introduced the benchmark.  Seed-independent outputs (certificates,
  heatmap gaps) are checked on every full-size run; seeded outputs (Monte
  Carlo rates, stream e-values, campaign rejection counts) on the seeds
  recorded there.

Tolerances are the ones the acceptance suite uses for each quantity:
certified sups 5e-3 (criterion 1a), heatmap gaps 1e-9 (criterion 7's
quadrature floor), Monte Carlo 4 stderr (test_growth), floating results
rel 1e-6 (pytest.approx), rejection counts and decisions exactly.
"""

from __future__ import annotations

import math

import numpy as np

TOL = {"sup": ("abs", 5e-3), "gap": ("abs", 1e-9), "float": ("rel", 1e-6),
       "exact": ("exact", 0)}


def within(value, expect, tol) -> bool:
    mode, eps = TOL[tol]
    if mode == "exact":
        return value == expect
    value, expect = np.asarray(value, dtype=float), np.asarray(expect, dtype=float)
    if value.shape != expect.shape:
        return False
    if mode == "abs":
        return bool(np.all(np.abs(value - expect) <= eps))
    return bool(np.all(np.abs(value - expect) <= eps * np.maximum(np.abs(expect), 1e-300)))


class Checker:
    def __init__(self, pkg, golden: dict, seed: int, tiny: bool):
        self.pkg = pkg
        self.golden = golden
        self.seed = str(seed)
        self.tiny = tiny
        self.failed: list[str] = []
        self.passed = 0
        # values to record: key -> (value, tolerance, seeded)
        self.observed: dict[str, tuple] = {}

    def expect(self, ok: bool, label: str, what: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failed.append(f"{label}: {what}")

    def golden_value(self, key: str, value, tol: str, seeded: bool) -> None:
        """Compare with the recorded value, and keep it for re-recording."""
        if self.tiny:
            return
        self.observed[key] = (value, tol, seeded)
        table = self.golden.get("seeds", {}).get(self.seed, {}) if seeded \
            else self.golden.get("fixed", {})
        if key in table:
            self.expect(within(value, table[key], tol), key,
                        f"{value!r} differs from recorded {table[key]!r} ({tol})")

    # -- per output kind -------------------------------------------------------

    def check(self, kind: str, label: str, payload) -> None:
        getattr(self, f"check_{kind}")(label, payload)

    def check_project(self, label, p) -> None:
        pkg = self.pkg
        spec = pkg.make_family(p["family"])
        means = list(p["means"])
        if p["beta_means"]:
            means = [spec.mean_from_beta_mean(m) for m in means]
        alt = pkg.Alternative.from_means(spec, means)
        cert = p["mixture"].get("certificate")
        self.expect(cert is not None, label, "mixture has no certificate")
        if cert is None:
            return
        sup = cert["sup_expectation"]
        self.expect(sup >= 1.0 - 1e-6, label, f"certificate sup {sup} below 1 - 1e-6")
        if p["method"] == "li" and not self.tiny:
            self.expect(sup <= 1.005, label, f"li sup {sup} above 1.005 (criterion 2)")
        lo, hi = pkg.ripr.default_search_range(spec, alt)
        grid = (cert["mu0_lo"], cert["mu0_hi"], cert["mu0_grid_size"])
        self.expect(abs(grid[0] - lo) <= 1e-12 * max(1.0, abs(lo))
                    and abs(grid[1] - hi) <= 1e-12 * max(1.0, abs(hi))
                    and grid[2] == 1000, label,
                    f"certificate grid {grid} is not default_search_range "
                    f"({lo}, {hi}, 1000)")
        self.golden_value(f"{label}.sup", sup, "sup", seeded=False)

    def check_heatmap(self, label, p) -> None:
        n = p["n"]
        gap = p["rows"][:, 2].reshape(n, n)
        self.expect(not np.isnan(gap).any(), label,
                    f"{int(np.isnan(gap).sum())} NaN cells")
        self.expect(np.all(np.diag(gap) == 0.0), label, "nonzero diagonal")
        self.expect(np.allclose(gap, gap.T, atol=1e-10, equal_nan=True), label,
                    "gap matrix not symmetric")
        self.golden_value(f"{label}.gaps", gap[np.triu_indices(n, 1)].tolist(),
                          "gap", seeded=False)

    def check_growth(self, label, p) -> None:
        pkg = self.pkg
        spec = pkg.make_family(p["family"])
        alt = pkg.Alternative.from_means(spec, list(p["means"]))
        for kind, entry in sorted(p["report"]["growth"].items()):
            quad = pkg.growth.growth_rate(spec, alt, kind).rate
            rate, se = entry["rate"], entry["stderr"]
            self.expect(abs(rate - quad) <= 4 * se + 1e-12, f"{label}.{kind}",
                        f"mc rate {rate} vs quadrature {quad} beyond 4 stderr ({se})")
            self.golden_value(f"{label}.{kind}.rate", rate, "float", seeded=True)

    def check_stream(self, label, p) -> None:
        pkg, spec_, st = self.pkg, p["spec"], p["state"]
        fam = pkg.make_family(spec_.family)
        m = spec_.multiplicities or (1,) * len(spec_.means)
        per_group = [[v for g, v in p["events"] if g == j + 1] for j in range(len(m))]
        blocks = min(len(vals) // mj for vals, mj in zip(per_group, m))
        self.expect(st.blocks_completed == blocks, label,
                    f"{st.blocks_completed} blocks completed, expected {blocks}")
        if blocks:
            rows = np.concatenate([np.asarray(vals[: blocks * mj]).reshape(blocks, mj)
                                   for vals, mj in zip(per_group, m)], axis=1)
            flat = pkg.sequential.expand_multiplicities(
                fam, pkg.Alternative.from_means(fam, list(spec_.means)), m)
            mix = p["mixture"] if spec_.kind == "gro_m" else None
            expect = float(np.sum(pkg.evariables._log_statistic(
                fam, flat, rows, spec_.kind, mix)))
        else:
            expect = 0.0
        self.expect(abs(st.log_evalue - expect) <= 1e-9 * max(1.0, abs(expect)),
                    label, f"streamed log e-value {st.log_evalue} vs vectorized {expect}")
        decision = st.decide().value
        reject = expect >= -math.log(st.alpha)
        self.expect((decision == "reject_null") == reject, label,
                    f"decision {decision} disagrees with log e-value {expect}")
        self.golden_value(f"{label}.log_evalue", st.log_evalue, "float", seeded=True)
        self.golden_value(f"{label}.blocks", st.blocks_completed, "exact", seeded=True)
        self.golden_value(f"{label}.decision", decision, "exact", seeded=True)

    def check_simulate(self, label, p) -> None:
        rate, se, alpha = p["rejection_rate"], p["rejection_stderr"], p["alpha"]
        if p["truth"] == "null":
            self.expect(rate <= alpha + 3 * se, label,
                        f"null rejection rate {rate} above {alpha} + 3 stderr "
                        "(criterion 8)")
        else:
            self.expect(rate >= 0.5, label, f"power {rate} below 0.5")
        rejections = int(round(rate * p["trials"]))
        self.golden_value(f"{label}.rejections", rejections, "exact", seeded=True)

    def record(self, golden: dict) -> dict:
        """golden.json with this run's values merged in."""
        out = {"fixed": dict(golden.get("fixed", {})),
               "seeds": {k: dict(v) for k, v in golden.get("seeds", {}).items()}}
        for key, (value, _tol, seeded) in self.observed.items():
            table = out["seeds"].setdefault(self.seed, {}) if seeded else out["fixed"]
            table[key] = value
        return out
