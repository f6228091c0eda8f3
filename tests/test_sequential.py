import math

import numpy as np
import pytest
from scipy import special

from ksample_evalues import Alternative, SupportError, make_family
from ksample_evalues import evariables as ev
from ksample_evalues import ripr
from ksample_evalues import sequential as sq
from ksample_evalues.expfam import spawn_generator


# (family, fixed params, three group means); k = 2 uses the first two
FAMILIES = [
    ("bernoulli", {}, (0.6, 0.4, 0.3)),
    ("gaussian_mean", {}, (0.3, -0.3, 0.1)),
    ("gaussian_variance", {}, (1.0, 0.6, 0.8)),
    ("poisson", {}, (2.0, 1.0, 1.5)),
    ("exponential", {}, (1.0, 0.7, 0.5)),
    ("geometric", {}, (1.0, 0.5, 2.0)),
    ("beta_fixed_alpha", {}, (-1.0, -0.5, -0.7)),
    ("beta_fixed_alpha", {"alpha": 2.0}, (-1.0, -0.5, -0.7)),
    ("beta_fixed_alpha", {"alpha": 2.5}, (-1.0, -0.5, -0.7)),
]
KINDS = ("pseudo", "gro_iid", "cond", "gro_m")


def case_id(family, fixed, means):
    return family + "".join(f"-{k}{v}" for k, v in fixed.items())


def stream_cases():
    """Every family and kind at k = 2, k = 3 and multiplicities (2, 1, 1);
    beta with non-integer alpha has a sum density, which cond and the
    certificate of gro_m need, only at k = 2."""
    for family, fixed, means in FAMILIES:
        for k, mult in ((2, None), (3, None), (3, [2, 1, 1])):
            kprime = sum(mult or [1] * k)
            shape = f"k{k}" + (f"-m{''.join(map(str, mult))}" if mult else "")
            for kind in KINDS:
                if (not float(fixed.get("alpha", 1.0)).is_integer()
                        and kind in ("cond", "gro_m") and kprime > 2):
                    continue
                yield pytest.param(family, fixed, means[:k], kind, mult,
                                   id=f"{case_id(family, fixed, means)}-{shape}-{kind}")


STREAM_CASES = list(stream_cases())


def hand_certified_mixture(spec, alt):
    """An equal two-component mixture around the pooled mean, certified on a
    coarse grid: worst_case_expectation, taken no lower than 1."""
    lo, hi = ripr.default_search_range(spec, alt)
    comps = ((0.5, 0.5 * (lo + alt.mu0_star)), (0.5, 0.5 * (alt.mu0_star + hi)))
    raw = ripr.MixtureNull(comps)
    sup, argmax = ripr.worst_case_expectation(spec, alt, raw, count=20)
    cert = ripr.Certificate(max(sup, 1.0), 20, lo, hi, "hand", argmax)
    return ripr.MixtureNull(comps, cert, spec.to_config(alt.mu))


def support_probes(support):
    """lo, hi, lo and hi +- 1e-10, integers +- 5e-10, 2.5, NaN and +-inf."""
    lo, hi = support.lo, support.hi
    near = [b + d for b in (lo, hi) for d in (-1e-10, 1e-10)]
    ints = [n + d for n in (-1, 0, 1, 2, 3) for d in (-5e-10, 5e-10)]
    return [lo, hi, *near, *ints, 2.5, math.nan, math.inf, -math.inf]


@pytest.fixture
def state():
    spec = make_family("bernoulli")
    alt = Alternative.from_means(spec, [0.5, 0.25])
    return sq.StreamState(spec, alt, "cond", alpha=0.05)


class TestIngest:
    def test_alternating_pairs_complete_blocks(self, state):
        state.ingest(1, 1)
        assert state.blocks_completed == 0
        state.ingest(2, 0)
        assert state.blocks_completed == 1
        state.ingest(1, 0).ingest(2, 1)
        assert state.blocks_completed == 2

    def test_incomplete_block_excluded(self, state):
        state.ingest(1, 1).ingest(2, 0).ingest(1, 1)
        # the pending group-1 observation contributes nothing
        spec, alt = state.spec, state.alt
        expect = float(ev.log_s_cond(spec, alt, [1, 0]))
        assert state.log_evalue == pytest.approx(expect)
        assert state.pending() == (1, 0)

    def test_multiplicity_two_one(self):
        spec = make_family("bernoulli")
        alt = Alternative.from_means(spec, [0.5, 0.25])
        st = sq.StreamState(spec, alt, "cond", 0.05, multiplicities=[2, 1])
        st.ingest(1, 1).ingest(2, 0)
        assert st.blocks_completed == 0
        st.ingest(1, 0)
        assert st.blocks_completed == 1
        # flattened to k' = 3 with means (mu1, mu1, mu2)
        flat = sq.expand_multiplicities(spec, alt, [2, 1])
        assert flat.mu == (0.5, 0.5, 0.25)
        expect = float(ev.log_s_cond(spec, flat, [1, 0, 0]))
        assert st.log_evalue == pytest.approx(expect)

    def test_geometric_cond_survives_an_outlier(self):
        # the outlier block's sums once underflowed, setting the e-process to
        # 0 (or NaN) for good
        spec = make_family("geometric")
        alt = Alternative.from_means(spec, [0.5, 0.25])
        st = sq.StreamState(spec, alt, "cond", 0.05)
        blocks = [[1.0, 0.0], [700.0, 700.0], [0.0, 2.0]]
        for x1, x2 in blocks:
            st.ingest(1, x1).ingest(2, x2)
        assert math.isfinite(st.log_evalue)
        expect = float(np.sum(ev.log_s_cond(spec, alt, np.array(blocks))))
        assert st.log_evalue == pytest.approx(expect, rel=1e-12)

    def test_support_violation_leaves_state_unchanged(self, state):
        state.ingest(1, 1)
        with pytest.raises(SupportError):
            state.ingest(2, 7)
        assert state.pending() == (1, 0)
        assert state.blocks_completed == 0

    @pytest.mark.parametrize("block, error", [
        ([3.0, 1.5], SupportError),  # group 1 valid, group 2 off the lattice
        ([3.0, 1.0, 2.0], ValueError),  # one value too many
    ])
    def test_refused_block_leaves_state_unchanged(self, block, error):
        spec = make_family("poisson")
        st = sq.StreamState(spec, Alternative.from_means(spec, [2.0, 1.0]),
                            "cond", 0.05)
        st.ingest_block([1.0, 0.0])
        with pytest.raises(error):
            st.ingest_block(block)
        assert st.pending() == (0, 0)
        assert st.blocks_completed == 1
        # the next group-2 value does not complete a block with refused data
        st.ingest(2, 4.0)
        assert st.pending() == (0, 1)
        assert st.blocks_completed == 1

    @pytest.mark.parametrize("group", [3, 0, -1, 1.5, 1.0, "1", None, math.nan],
                             ids=repr)
    def test_bad_group_refused_by_name(self, state, group):
        state.ingest(1, 1)
        with pytest.raises(ValueError) as excinfo:
            state.ingest(group, 1)
        assert str(excinfo.value) == f"group must be an integer in 1..2, got {group!r}"
        assert state.pending() == (1, 0) and state.blocks_completed == 0

    def test_numpy_integer_group_accepted(self, state):
        state.ingest(np.int64(1), 1).ingest(np.int32(2), 0)
        assert state.blocks_completed == 1 and state.pending() == (0, 0)
        with pytest.raises(ValueError, match=r"1\.\.2, got 3$"):
            state.ingest(np.int64(3), 1)

    def test_product_correctness(self):
        spec = make_family("gaussian_mean")
        alt = Alternative.from_means(spec, [0.4, -0.4])
        st = sq.StreamState(spec, alt, "gro_iid", 0.05)
        rng = np.random.default_rng(0)
        blocks = rng.normal(0, 1, size=(20, 2))
        for b in blocks:
            st.ingest(1, b[0]).ingest(2, b[1])
        recomputed = float(np.sum(ev.log_s_gro_iid(spec, alt, blocks)))
        assert st.log_evalue == pytest.approx(recomputed, abs=1e-12)
        assert st.log_evalue == pytest.approx(sum(st.block_log_values), abs=1e-12)

    @pytest.mark.parametrize("family, fixed, means, kind, mult", STREAM_CASES)
    def test_stream_block_equivalence(self, family, fixed, means, kind, mult):
        spec = make_family(family, **fixed)
        alt = Alternative.from_means(spec, means)
        m = mult or [1] * alt.k
        flat = sq.expand_multiplicities(spec, alt, m)
        mix = hand_certified_mixture(spec, flat) if kind == "gro_m" else None
        rng = np.random.default_rng(1)
        blocks = np.stack(
            [spec.sample(mu, 15, rng) for mu in flat.mu], axis=-1
        )
        st_stream = sq.StreamState(spec, alt, kind, 0.05, mult, mix)
        # interleave irregularly: all of group 1 first, then group 2, ...
        edges = np.cumsum([0] + m)
        for j in range(alt.k):
            for v in blocks[:, edges[j] : edges[j + 1]].ravel():
                st_stream.ingest(j + 1, v)
        st_block = sq.StreamState(spec, alt, kind, 0.05, mult, mix)
        for b in blocks:
            st_block.ingest_block(b)
        assert st_stream.log_evalue == pytest.approx(st_block.log_evalue, abs=0)
        assert st_stream.blocks_completed == st_block.blocks_completed == 15
        vectorized = float(np.sum(ev._log_statistic(spec, flat, blocks, kind, mix)))
        assert st_stream.log_evalue == pytest.approx(vectorized, abs=1e-12)

    def test_block_behind_pending_values_matches_per_value_ingest(self):
        # a partial block is pending; whole blocks queue behind it, first in
        # first out, as their values would one at a time
        spec = make_family("exponential")
        alt = Alternative.from_means(spec, [1.0, 0.7, 0.5])
        mult = [2, 1, 1]
        blocks = np.random.default_rng(3).exponential(1.0, size=(6, 4))
        by_value = sq.StreamState(spec, alt, "cond", 0.05, mult)
        by_block = sq.StreamState(spec, alt, "cond", 0.05, mult)
        for st in (by_value, by_block):
            st.ingest(1, 0.3).ingest(1, 1.2).ingest(1, 0.8).ingest(3, 2.0)
        for b in blocks:
            for g, v in zip([1, 1, 2, 3], b):
                by_value.ingest(g, v)
            by_block.ingest_block(b)
        assert by_block.block_log_values == by_value.block_log_values
        assert by_block.pending() == by_value.pending() == (3, 0, 1)
        assert by_block.blocks_completed == 6

    @pytest.mark.parametrize("seed", range(6))
    def test_random_arrival_orders_match_blocks_and_vectorized(self, seed):
        # ingest drains only when a group's buffer reaches its multiplicity
        rng = np.random.default_rng(seed)
        spec = make_family("poisson")
        alt = Alternative.from_means(spec, [2.0, 1.0, 1.5])
        kind = ("cond", "gro_iid", "pseudo")[seed % 3]
        mult = [int(m) for m in rng.integers(1, 4, size=3)]
        flat = sq.expand_multiplicities(spec, alt, mult)
        blocks = np.stack([spec.sample(mu, 12, rng) for mu in flat.mu], axis=-1)
        edges = np.cumsum([0] + mult)
        queues = [list(blocks[:, edges[j]:edges[j + 1]].ravel()) for j in range(3)]
        arrivals = rng.permutation(np.repeat([1, 2, 3], [len(q) for q in queues]))
        by_value = sq.StreamState(spec, alt, kind, 0.05, mult)
        for g in arrivals:
            by_value.ingest(int(g), queues[g - 1].pop(0))
        by_block = sq.StreamState(spec, alt, kind, 0.05, mult)
        for b in blocks:
            by_block.ingest_block(b)
        assert by_value.block_log_values == by_block.block_log_values
        assert by_value.blocks_completed == 12 and by_value.pending() == (0, 0, 0)
        vectorized = ev._statistic(spec, flat, kind)(blocks)
        np.testing.assert_allclose(by_value.block_log_values, vectorized,
                                   rtol=1e-14, atol=1e-14)


class TestScalarSupportCheck:
    """ingest checks its value with Support.contains_scalar; refused values
    raise through check_support."""

    @pytest.mark.parametrize("family, fixed, means", FAMILIES,
                             ids=[case_id(*f) for f in FAMILIES])
    def test_matches_contains(self, family, fixed, means):
        support = make_family(family, **fixed).support
        probes = support_probes(support)
        got = [support.contains_scalar(v) for v in probes]
        assert got == support.contains(np.array(probes)).tolist()
        assert any(got) and not all(got)

    @pytest.mark.parametrize("family, fixed, means", FAMILIES,
                             ids=[case_id(*f) for f in FAMILIES])
    def test_refused_value_leaves_state_unchanged(self, family, fixed, means):
        spec = make_family(family, **fixed)
        st = sq.StreamState(spec, Alternative.from_means(spec, means[:2]),
                            "gro_iid", 0.05)
        rng = np.random.default_rng(2)
        first, second = (float(spec.sample(mu, 1, rng)[0]) for mu in means[:2])
        st.ingest(1, first).ingest(2, second).ingest(1, first)
        before = (st.pending(), st.blocks_completed, st.log_evalue)
        refused = [v for v in support_probes(spec.support)
                   if not spec.support.contains(v)]
        assert refused
        for v in refused:
            with pytest.raises(SupportError, match="outside support"):
                st.ingest(2, v)
            assert (st.pending(), st.blocks_completed, st.log_evalue) == before


def memo_cases():
    """The discrete settings of tests/test_sweep.py, each kind, at k = 2,
    k = 3 and multiplicities (2, 1, 1), on moderate means and on means drawn
    over the mean space as the sweep draws them; a hand-certified ``gro_m``
    mixture needs the moderate ones."""
    rng = np.random.default_rng(32)
    for family, fixed, means in FAMILIES:
        if not make_family(family).support.discrete:
            continue
        for k, mult in ((2, None), (3, None), (3, [2, 1, 1])):
            shape = f"k{k}" + (f"-m{''.join(map(str, mult))}" if mult else "")
            drawn = (special.expit(rng.uniform(-8.0, 8.0, k)) if family == "bernoulli"
                     else 10.0 ** rng.uniform(-3.0, 3.0, k))
            for label, mus in (("moderate", means[:k]), ("drawn", drawn.tolist())):
                for kind in KINDS if label == "moderate" else KINDS[:3]:
                    yield pytest.param(family, mus, kind, mult,
                                       id=f"{family}-{label}-{shape}-{kind}")


class TestBlockMemo:
    """On a discrete support the built statistic stores single blocks by
    their bytes; a streamed block equals the same block in a batch, bit for
    bit, whether it was stored, looked up or scored past the memo's bound."""

    @pytest.mark.parametrize("family, means, kind, mult", list(memo_cases()))
    def test_streamed_blocks_equal_batch_bitwise(self, family, means, kind, mult):
        spec = make_family(family)
        alt = Alternative.from_means(spec, means)
        m = mult or [1] * alt.k
        flat = sq.expand_multiplicities(spec, alt, m)
        mix = hand_certified_mixture(spec, flat) if kind == "gro_m" else None
        rng = np.random.default_rng(5)
        drawn = np.stack([spec.sample(mu, 30, rng) for mu in flat.mu], axis=-1)
        signed = drawn[:4].copy()
        signed[:2, 0] = [0.0, -0.0]  # -0.0 and 0.0 in otherwise equal blocks
        signed[2:4] = signed[0]
        signed[3, 0] = -0.0
        near = drawn[:2].copy()
        near[:, -1] = [1.0, 1.0 + 1e-10]  # accepted by the support check
        # every block twice, so the second copy is looked up
        blocks = np.concatenate([drawn, signed, near, drawn, signed, near])
        batch = ev._statistic(spec, flat, kind, mix)
        want = batch(blocks).tolist()
        # the all-integer batch goes through the per-value tables
        integer = np.concatenate([drawn, signed, drawn, signed])
        assert batch(integer).tolist() == want[:34] + want[36:70]
        total = 0.0
        for v in want:
            total += v

        st = sq.StreamState(spec, alt, kind, 0.05, mult, mix)
        edges = np.cumsum([0] + m)
        for b in blocks:
            for j in range(alt.k):
                for v in b[edges[j]:edges[j + 1]]:
                    st.ingest(j + 1, v)
        st.ingest(1, blocks[0, 0])
        assert st.block_log_values == want
        assert st.log_evalue == total
        assert st.blocks_completed == len(blocks)
        assert st.pending() == (1,) + (0,) * (alt.k - 1)
        by_block = sq.StreamState(spec, alt, kind, 0.05, mult, mix)
        for b in blocks:
            by_block.ingest_block(b)
        assert by_block.block_log_values == want and by_block.log_evalue == total
        assert [float(batch(b)) for b in blocks] == want

    def test_memo_stops_storing_at_the_budget(self, monkeypatch):
        # 12 coordinates of budget hold 6 blocks of k = 2
        monkeypatch.setattr(ev, "_CHUNK_ELEMENTS", 12)
        scored = []
        in_chunks = ev._in_chunks

        def counting(block_map):
            return in_chunks(lambda x: scored.append(x.shape) or block_map(x))

        monkeypatch.setattr(ev, "_in_chunks", counting)
        spec = make_family("poisson")
        alt = Alternative.from_means(spec, [2.0, 1.0])
        stat = ev._statistic(spec, alt, "cond")
        blocks = np.array([[a, b] for a in range(4) for b in range(4)], dtype=float)
        first = [stat(b) for b in blocks]
        assert scored == [(2,)] * 16
        del scored[:]
        again = [stat(b) for b in blocks]
        # the first 6 blocks were stored; the other 10 are scored again
        assert scored == [(2,)] * 10
        want = ev._statistic(spec, alt, "cond")(blocks).tolist()
        assert first == again == want
        assert stat(blocks).tolist() == want

    def test_continuous_support_has_no_memo(self, monkeypatch):
        scored = []
        in_chunks = ev._in_chunks
        monkeypatch.setattr(ev, "_in_chunks", lambda block_map: in_chunks(
            lambda x: scored.append(x.shape) or block_map(x)))
        spec = make_family("exponential")
        alt = Alternative.from_means(spec, [1.0, 0.5])
        stat = ev._statistic(spec, alt, "cond")
        block = np.array([0.7, 0.4])
        assert stat(block) == stat(block)
        assert scored == [(2,), (2,)]


class TestDecide:
    def test_fresh_state_continues(self, state):
        assert state.decide() is sq.Decision.CONTINUE_OR_STOP_FREELY

    def test_boundary_convention_rejects_at_exact_threshold(self, state):
        state.log_evalue = -math.log(state.alpha)
        assert state.decide() is sq.Decision.REJECT_NULL

    def test_below_threshold_continues(self, state):
        state.log_evalue = -math.log(state.alpha) - 1e-9
        assert state.decide() is sq.Decision.CONTINUE_OR_STOP_FREELY


class TestMultiplicities:
    def test_change_at_boundary(self, state):
        state.ingest(1, 1).ingest(2, 0)
        state.set_multiplicities([2, 1])
        assert state.multiplicities == (2, 1)
        state.ingest(1, 1).ingest(1, 0)
        assert state.blocks_completed == 1
        state.ingest(2, 1)
        assert state.blocks_completed == 2

    def test_change_mid_block_refused(self, state):
        state.ingest(1, 1)
        with pytest.raises(sq.BlockBoundaryError):
            state.set_multiplicities([2, 1])

    def test_validation(self, state):
        with pytest.raises(ValueError):
            state.set_multiplicities([1])
        with pytest.raises(ValueError):
            state.set_multiplicities([0, 1])

    def test_adapted_multiplicities_stay_valid_under_null(self):
        # alternate (1,1) and (2,1) blocks; Type-I stays within the Ville band
        spec = make_family("bernoulli")
        alt = Alternative.from_means(spec, [0.6, 0.3])
        trials, alpha = 1500, 0.05
        rejected = 0
        for t in range(trials):
            rng = np.random.default_rng(10_000 + t)
            st = sq.StreamState(spec, alt, "gro_iid", alpha)
            for step in range(30):
                st.set_multiplicities([1, 1] if step % 2 == 0 else [2, 1])
                need = st.multiplicities
                for j, m in enumerate(need):
                    for v in (rng.random(m) < 0.45).astype(float):
                        st.ingest(j + 1, v)
                if st.decide() is sq.Decision.REJECT_NULL:
                    rejected += 1
                    break
        rate = rejected / trials
        se = math.sqrt(alpha * (1 - alpha) / trials)
        assert rate <= alpha + 3 * se


class TestGroMSequential:
    def test_requires_certified_mixture(self):
        spec = make_family("exponential")
        alt = Alternative.from_means(spec, [0.5, 0.25])
        with pytest.raises(ValueError, match="mixture"):
            sq.StreamState(spec, alt, "gro_m", 0.05)
        raw = ripr.MixtureNull(((1.0, alt.mu0_star),))
        with pytest.raises(ripr.CertificationError):
            sq.StreamState(spec, alt, "gro_m", 0.05, mixture=raw)

    def test_mixture_for_another_problem_refused(self):
        spec = make_family("exponential")
        alt = Alternative.from_means(spec, [0.5, 0.25])
        mix = ripr.point_mixture(spec, alt, alt.mu0_star)
        pois = make_family("poisson")
        with pytest.raises(ripr.CertificationError, match="poisson"):
            sq.StreamState(pois, Alternative.from_means(pois, [5.0, 0.1]), "gro_m",
                           0.05, mixture=mix)
        # the certified problem is the alternative after multiplicity expansion
        with pytest.raises(ripr.CertificationError, match=r"\[0\.5, 0\.5, 0\.25\]"):
            sq.StreamState(spec, alt, "gro_m", 0.05, [2, 1], mixture=mix)
        st = sq.StreamState(spec, alt, "gro_m", 0.05, mixture=mix)
        with pytest.raises(ripr.CertificationError):
            st.set_multiplicities([2, 1])
        assert st.multiplicities == (1, 1)
        st.ingest(1, 0.7).ingest(2, 0.4)
        assert st.blocks_completed == 1

    def test_validity_caveat_accumulates(self):
        spec = make_family("exponential")
        alt = Alternative.from_means(spec, [0.5, 0.25])
        mix = ripr.point_mixture(spec, alt, alt.mu0_star)
        st = sq.StreamState(spec, alt, "gro_m", 0.05, mixture=mix)
        st.ingest(1, 0.7).ingest(2, 0.4)
        caveat = st.validity_caveat()
        c = mix.certificate.sup_expectation
        assert caveat["blocks"] == 1
        assert caveat["type1_bound_factor"] == pytest.approx(c)

    def test_validity_caveat_past_the_double_range_is_inf(self):
        # Li's mixture certifies c = 3.0164 here, and c^700 > 1.8e308; the
        # factor once raised OverflowError
        spec = make_family("beta_fixed_alpha", alpha=1.0)
        alt = Alternative.from_means(spec, [-4.28, -8.51, -0.076])
        mix, _ = ripr.li_approximate(spec, alt)
        c = mix.certificate.sup_expectation
        assert c == pytest.approx(3.0164, abs=1e-4)
        st = sq.StreamState(spec, alt, "gro_m", 0.05, mixture=mix)
        rng = np.random.default_rng(4)
        blocks = np.stack([spec.sample(m, 700, rng) for m in alt.mu], axis=-1)
        for b in blocks[:642]:
            st.ingest_block(b)
        assert st.validity_caveat()["type1_bound_factor"] == c**642
        for b in blocks[642:]:
            st.ingest_block(b)
        assert st.validity_caveat() == {"certified_sup_expectation": c,
                                        "blocks": 700, "type1_bound_factor": math.inf}


class TestSimulate:
    def test_fixed_seed_reproducible(self):
        spec = make_family("bernoulli")
        alt = Alternative.from_means(spec, [0.5, 0.25])
        a = sq.simulate(spec, alt, "cond", 0.05, "threshold", 300, seed=9, max_blocks=50)
        b = sq.simulate(spec, alt, "cond", 0.05, "threshold", 300, seed=9, max_blocks=50)
        assert np.array_equal(a.final_log_evalues, b.final_log_evalues)
        assert np.array_equal(a.stop_times, b.stop_times)

    @pytest.mark.parametrize("policy", ["threshold", "fixed", "budget"])
    def test_null_type1_within_band_all_policies(self, policy):
        spec = make_family("bernoulli")
        alt = Alternative.from_means(spec, [0.5, 0.25])
        s = sq.simulate(
            spec, alt, "gro_iid", 0.05, policy, 2000, seed=1, max_blocks=150
        )
        assert s.rejection_rate <= 0.05 + 3 * s.rejection_stderr

    def test_null_type1_off_center_null(self):
        spec = make_family("gaussian_mean")
        alt = Alternative.from_means(spec, [0.4, -0.4])
        s = sq.simulate(
            spec, alt, "cond", 0.05, "threshold", 2000, seed=2,
            max_blocks=150, null_mu=0.7,
        )
        assert s.rejection_rate <= 0.05 + 3 * s.rejection_stderr

    def test_power_grows_with_budget(self):
        spec = make_family("bernoulli")
        alt = Alternative.from_means(spec, [0.7, 0.2])
        small = sq.simulate(
            spec, alt, "cond", 0.05, "threshold", 400, seed=3,
            max_blocks=10, truth="alt",
        )
        large = sq.simulate(
            spec, alt, "cond", 0.05, "threshold", 400, seed=3,
            max_blocks=120, truth="alt",
        )
        assert large.rejection_rate > small.rejection_rate
        assert large.rejection_rate > 0.95

    def test_fixed_policy_stops_at_horizon(self):
        spec = make_family("bernoulli")
        alt = Alternative.from_means(spec, [0.5, 0.25])
        s = sq.simulate(spec, alt, "cond", 0.05, "fixed", 100, seed=4, max_blocks=25)
        assert np.all(s.stop_times == 25)

    def test_budget_policy_stops_at_budget(self):
        spec = make_family("bernoulli")
        alt = Alternative.from_means(spec, [0.5, 0.25])
        s = sq.simulate(spec, alt, "cond", 0.05, "budget", 200, seed=5, max_blocks=30)
        assert np.all((1 <= s.stop_times) & (s.stop_times <= 30))
        assert len(np.unique(s.stop_times)) > 3

    def test_custom_policy_object(self):
        class StopAtFive:
            def should_stop(self, block_log_values, alpha):
                return len(block_log_values) >= 5

        spec = make_family("bernoulli")
        alt = Alternative.from_means(spec, [0.5, 0.25])
        s = sq.simulate(spec, alt, "cond", 0.05, StopAtFive(), 50, seed=6, max_blocks=20)
        assert np.all(s.stop_times == 5)

    @pytest.mark.parametrize("kind", ["pseudo", "gro_iid", "cond"])
    def test_beta_campaign_at_a_small_free_shape_is_finite(self, kind):
        # draws of 1 - U underflowed to 0 here, and every final log e-value
        # of cond and gro_iid was NaN while rejection_rate read 0.0
        spec = make_family("beta_fixed_alpha")
        alt = Alternative.from_means(
            spec, [spec.mean_from_beta_mean(m) for m in (0.999, 0.99)])
        s = sq.simulate(spec, alt, kind, 0.05, "threshold", 200, seed=1,
                        max_blocks=20)
        assert np.all(np.isfinite(s.final_log_evalues))
        assert s.rejection_rate <= 0.05 + 3 * s.rejection_stderr

    @pytest.mark.parametrize("policy", sq.POLICIES)
    @pytest.mark.parametrize("family, fixed, means", FAMILIES,
                             ids=[case_id(*case) for case in FAMILIES])
    def test_trial_draws_are_spawn_generator_streams(self, monkeypatch, family,
                                                     fixed, means, policy):
        # trial t draws from spawn_generator(seed, t): a budget's integers
        # first, then max_blocks values for each flattened group in turn
        spec = make_family(family, **fixed)
        alt = Alternative.from_means(spec, means[:2])
        seen = []
        build = ev._statistic

        def recording(*args, **kwargs):
            statistic = build(*args, **kwargs)
            return lambda x: seen.append(x.copy()) or statistic(x)

        monkeypatch.setattr(ev, "_statistic", recording)
        trials, max_blocks, seed = 25, 6, 2**40 + 17
        s = sq.simulate(spec, alt, "pseudo", 0.05, policy, trials, seed,
                        max_blocks=max_blocks, truth="alt", multiplicities=[2, 1])
        (blocks,) = seen
        flat = sq.expand_multiplicities(spec, alt, [2, 1])
        for t in range(trials):
            rng = spawn_generator(seed, t)
            if policy == "budget":
                assert s.stop_times[t] == rng.integers(1, max_blocks + 1)
            for j, mu in enumerate(flat.mu):
                assert np.array_equal(blocks[t, :, j], spec._draw(mu, max_blocks, rng))

    @pytest.mark.parametrize("arg, value, match", [
        ("kind", "gro_m", "needs a certified mixture"),
        ("alpha", 1.5, r"alpha must lie in \(0, 1\)"),
        ("alpha", 0.0, r"alpha must lie in \(0, 1\)"),
        ("policy", "thresholds", "threshold, fixed, budget"),
        ("policy", object(), "threshold, fixed, budget"),
        ("trials", 0, "trials"),
        ("max_blocks", 0, "max_blocks"),
        ("truth", "bogus", "truth must be 'null' or 'alt'"),
    ], ids=["gro_m-without-mixture", "alpha-above-1", "alpha-0", "policy-typo", "policy-object",
            "trials-0", "max_blocks-0", "truth-unknown"])
    def test_unusable_arguments_refused_before_drawing(self, monkeypatch, arg,
                                                        value, match):
        spec = make_family("bernoulli")
        alt = Alternative.from_means(spec, [0.5, 0.25])

        def no_draws(*args, **kwargs):
            raise AssertionError("drew data before checking the arguments")

        monkeypatch.setattr(sq, "spawn_keys", no_draws)
        kwargs = dict(kind="cond", alpha=0.05, policy="threshold", trials=10,
                      seed=0, max_blocks=5)
        kwargs[arg] = value
        with pytest.raises(ValueError, match=match):
            sq.simulate(spec, alt, **kwargs)

    def test_null_mean_refused_under_the_alternative(self, monkeypatch):
        # it was dropped without a word: truth="alt" draws at the alternative
        spec = make_family("bernoulli")
        alt = Alternative.from_means(spec, [0.5, 0.25])

        def no_draws(*args, **kwargs):
            raise AssertionError("drew data before checking the arguments")

        monkeypatch.setattr(sq, "spawn_keys", no_draws)
        with pytest.raises(ValueError, match=r"^null_mu=0\.3 applies to truth='null' only"):
            sq.simulate(spec, alt, "cond", 0.05, "threshold", trials=10, seed=0,
                        max_blocks=5, truth="alt", null_mu=0.3)

    @pytest.mark.parametrize("mixture", ["uncertified", "certified-without-expansion"])
    def test_mixture_refused_before_any_draw(self, monkeypatch, mixture):
        spec = make_family("exponential")
        alt = Alternative.from_means(spec, [0.5, 0.25])
        if mixture == "uncertified":
            mix = ripr.MixtureNull(((1.0, alt.mu0_star),))
        else:  # certified for (0.5, 0.25), used on blocks of (0.5, 0.5, 0.25)
            mix = hand_certified_mixture(spec, alt)
        draws = []
        sample = spec.sample
        monkeypatch.setattr(spec, "sample",
                            lambda *args: draws.append(args) or sample(*args))
        with pytest.raises(ripr.CertificationError):
            sq.simulate(spec, alt, "gro_m", 0.05, "threshold", 10000, seed=0,
                        multiplicities=[2, 1], mixture=mix)
        assert draws == []

    def test_multiplicities_in_simulation(self):
        spec = make_family("bernoulli")
        alt = Alternative.from_means(spec, [0.6, 0.3])
        s = sq.simulate(
            spec, alt, "gro_iid", 0.05, "threshold", 500, seed=7,
            max_blocks=60, multiplicities=[2, 1],
        )
        assert s.rejection_rate <= 0.05 + 3 * s.rejection_stderr
