"""Anytime-valid sequential testing over k asynchronous data streams.

Observations arrive in k separate streams at possibly different rates.  A
pre-declared multiplicity m_j per stream defines virtual blocks: a block
completes once every stream j has m_j unconsumed observations, and is scored
by one of the per-block e-values of ``evariables`` after flattening to
k' = sum_j m_j groups with the group means repeated accordingly.  The running
e-process is the product of completed-block e-values; incomplete buffers never
contribute.  Monitoring the product against 1/alpha is valid at every data-
dependent stopping time, so the test may stop or continue freely; the null is
rejected as soon as the product reaches 1/alpha (the boundary itself rejects,
the conservative-safe reading of "exceeds").

Multiplicities may be adapted between blocks; changing them while any
observation is buffered is refused, because it would redefine the block being
filled.

``simulate`` runs seeded campaigns (Type-I error or power, stopping times)
for the shipped stopping policies; policies are pure functions of the public
trace of per-block e-values and cannot peek ahead.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .expfam import Alternative, FamilySpec, _require_at_least, spawn_keys
from . import evariables as ev


class Decision(str, enum.Enum):
    CONTINUE_OR_STOP_FREELY = "continue_or_stop_freely"
    REJECT_NULL = "reject_null"


class BlockBoundaryError(RuntimeError):
    """Multiplicities were changed while a block was partially filled."""


def _checked_multiplicities(k: int, multiplicities) -> tuple[int, ...]:
    """The one check of multiplicities: ``None`` means one per group, and
    each of k given ones must pass ``_require_at_least(1, ...)``."""
    # numpy integers as plain ones, so that a refusal prints [2, 0]
    ms = [1] * k if multiplicities is None else [
        m.item() if isinstance(m, np.generic) else m for m in multiplicities]
    if len(ms) != k:
        raise ValueError(f"need one multiplicity per group ({k}), got {ms}")
    try:
        for m in ms:
            _require_at_least(1, multiplicity=m)
    except ValueError:
        raise ValueError(f"multiplicities must be positive integers, got {ms}") from None
    return tuple(int(m) for m in ms)


def expand_multiplicities(
    spec: FamilySpec, alt: Alternative, multiplicities: Sequence[int] | None
) -> Alternative:
    """Flatten a multiplicity block to sum(m_j) groups with repeated means,
    after ``_checked_multiplicities``."""
    ms = _checked_multiplicities(alt.k, multiplicities)
    return Alternative.from_means(
        spec, [mu for mu, m in zip(alt.mu, ms) for _ in range(m)])


POLICIES = ("threshold", "fixed", "budget")


def _check_alpha(alpha: float) -> float:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    return float(alpha)


class StreamState:
    """Single-writer state of one sequential k-sample test.

    Each completed block is scored by the statistic built once for the
    current multiplicities (``evariables._statistic``).  On a discrete
    support that statistic keeps a memo of single blocks keyed by the
    block's bytes, at most ``_CHUNK_ELEMENTS // k'`` of them, so a block
    seen before costs a lookup and returns the bits a fresh call would.
    """

    def __init__(
        self,
        spec: FamilySpec,
        alt: Alternative,
        kind,
        alpha: float,
        multiplicities: Sequence[int] | None = None,
        mixture=None,
    ):
        self.alpha = _check_alpha(alpha)
        self.spec = spec
        self.alt = alt
        self.kind = ev.EValueKind(kind)
        self.mixture = mixture
        self._buffers: list[list[float]] = [[] for _ in range(alt.k)]
        # fails at construction rather than at the first completed block
        self.set_multiplicities(multiplicities)
        self.blocks_completed = 0
        self.log_evalue = 0.0
        self.block_log_values: list[float] = []

    @property
    def k(self) -> int:
        return self.alt.k

    def _evaluate_block(self, block) -> float:
        """Log e-value of one completed block, whose values were checked as
        they were ingested."""
        return float(self._statistic(block))

    def ingest(self, group: int, value: float) -> "StreamState":
        """Append one observation to stream ``group`` (1-based).

        A group that is no integer in 1..k (a float such as 1.5 or 1.0, a
        bool, a string) and an out-of-support value are refused with a
        ``ValueError``, the state unchanged.
        Completes as many blocks as the buffers allow.  After a drain some
        buffer is short of its multiplicity, so a block can complete only
        when this value brings its own group's buffer to exactly its
        multiplicity.
        """
        try:
            buf = (self._buffers[group - 1]
                   if not isinstance(group, bool) and 1 <= group <= self.k else None)
        except TypeError:  # no order against 1 ("1") or no list index (1.5)
            buf = None
        if buf is None:
            shown = group.item() if isinstance(group, np.generic) else group
            raise ValueError(f"group must be an integer in 1..{self.k}, got {shown!r}")
        value = float(value)
        if not self.spec.support.contains_scalar(value):
            self.spec.check_support(value)  # raises the family's message
        buf.append(value)
        if len(buf) == self.multiplicities[group - 1]:
            self._drain()
        return self

    def ingest_block(self, block) -> "StreamState":
        """Ingest one fully formed block (m_j values per group, in order).

        A block of the wrong size or with an out-of-support value is rejected
        with the state unchanged.  Its values queue behind pending ones.
        """
        block = np.asarray(block, dtype=float).ravel()
        if block.size != sum(self.multiplicities):
            raise ValueError(
                f"block must carry {sum(self.multiplicities)} values"
            )
        self.spec.check_support(block)
        pos = 0
        for buf, m in zip(self._buffers, self.multiplicities):
            buf.extend(block[pos : pos + m].tolist())
            pos += m
        self._drain()
        return self

    def _drain(self) -> None:
        while all(
            len(buf) >= m for buf, m in zip(self._buffers, self.multiplicities)
        ):
            flat: list[float] = []
            for j, m in enumerate(self.multiplicities):
                flat.extend(self._buffers[j][:m])
                del self._buffers[j][:m]
            logv = self._evaluate_block(np.asarray(flat))
            self.block_log_values.append(logv)
            self.log_evalue += logv
            self.blocks_completed += 1

    def pending(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self._buffers)

    def decide(self) -> Decision:
        """Anytime-valid monitoring: reject once the e-process reaches 1/alpha."""
        if self.log_evalue >= -math.log(self.alpha):
            return Decision.REJECT_NULL
        return Decision.CONTINUE_OR_STOP_FREELY

    def set_multiplicities(self, new: Sequence[int] | None) -> "StreamState":
        """Adopt new multiplicities for future blocks; only at a boundary.

        ``None`` means one per group, as in the constructor, which calls this.
        The statistic of the expanded alternative (``expand_multiplicities``)
        is built once for every block until they change, so a certified
        mixture must have been certified for exactly that alternative."""
        if any(len(b) for b in self._buffers):
            raise BlockBoundaryError(
                f"multiplicity change refused: pending observations {self.pending()} "
                "belong to a partially filled block"
            )
        ms = _checked_multiplicities(self.k, new)
        flat = expand_multiplicities(self.spec, self.alt, ms)
        self._statistic = ev._statistic(self.spec, flat, self.kind, self.mixture)
        self.multiplicities = ms
        return self

    def validity_caveat(self) -> Optional[dict]:
        """For certified mixtures: the Type-I inflation bound accumulated so far.

        A per-block certificate c bounds each block's null expectation, so
        after B blocks the rejection probability is at most alpha * c^B.
        The factor c^B is inf once it leaves the double range.
        """
        if self.kind is not ev.EValueKind.GRO_M:
            return None
        c = self.mixture.require_certificate().sup_expectation
        try:
            factor = c**self.blocks_completed
        except OverflowError:
            factor = math.inf
        return {
            "certified_sup_expectation": c,
            "blocks": self.blocks_completed,
            "type1_bound_factor": factor,
        }


@dataclass(frozen=True)
class SimulationSummary:
    trials: int
    rejection_rate: float
    rejection_stderr: float
    mean_stop_time: float
    truth: str
    kind: str
    alpha: float
    policy: str
    seed: int
    stop_times: np.ndarray = field(repr=False)
    rejected: np.ndarray = field(repr=False)
    final_log_evalues: np.ndarray = field(repr=False)

    def to_json_dict(self) -> dict:
        """Every field but the per-trial arrays."""
        return {name: value for name, value in vars(self).items()
                if not isinstance(value, np.ndarray)}


def simulate(
    spec: FamilySpec,
    alt: Alternative,
    kind,
    alpha: float,
    policy,
    trials: int,
    seed: int,
    max_blocks: int = 200,
    truth: str = "null",
    null_mu: float | None = None,
    multiplicities: Sequence[int] | None = None,
    mixture=None,
) -> SimulationSummary:
    """Seeded campaign of sequential tests.

    ``truth`` is "null" (all streams i.i.d. at ``null_mu``, defaulting to the
    pooled mean of the alternative) or "alt" (streams follow the alternative).
    Per-block e-values use the declared alternative either way.  Trial t
    draws from its own counter-based substream, the stream of
    ``spawn_generator(seed, t)``, so campaigns are reproducible bit-for-bit
    and parallelizable across trials.  The Philox keys of all trials are
    derived at once (``spawn_keys``), and one Philox is reset to trial t's key
    with counter 0 before the trial draws.  Trials are drawn into one reused
    buffer and scored as many at a time as ``evariables._CHUNK_ELEMENTS``
    holds (one trial at least), so only the per-block log e-values of all
    trials are held at once.  Every block value depends on its own block
    alone, so the chunk size changes no output.

    ``policy`` is "threshold", "fixed" or "budget" (evaluated vectorized), or
    any object with ``should_stop(block_log_values, alpha)``, consulted after
    every completed block on the trace prefix only.  Every argument is
    checked before any trial is drawn; ``multiplicities`` (``None``: one per
    group) go through ``expand_multiplicities``.
    """
    kind = ev.EValueKind(kind)
    _check_alpha(alpha)
    if not (policy in POLICIES if isinstance(policy, str)
            else hasattr(policy, "should_stop")):
        raise ValueError(f"policy must be one of {', '.join(POLICIES)} or an "
                         f"object with should_stop, got {policy!r}")
    _require_at_least(1, trials=trials, max_blocks=max_blocks)
    _require_at_least(0, seed=seed)
    flat_alt = expand_multiplicities(spec, alt, multiplicities)
    # refuses a mixture that is missing, uncertified or certified for another
    # problem before any trial is drawn
    log_statistic = ev._statistic(spec, flat_alt, kind, mixture)
    kprime = flat_alt.k
    if truth == "null":
        draw_means = [alt.mu0_star if null_mu is None else null_mu] * kprime
    elif truth == "alt":
        if null_mu is not None:
            raise ValueError(f"null_mu={null_mu!r} applies to truth='null' only")
        draw_means = list(flat_alt.mu)
    else:
        raise ValueError("truth must be 'null' or 'alt'")
    draw_means = [spec.check_mean(m) for m in draw_means]

    log_thresh = -math.log(alpha)
    # trial t draws its data (and any policy budget) from one Philox reset to
    # t's key, counter 0 and an empty buffer: spawn_generator(seed, t)'s stream
    keys = spawn_keys(seed, trials)
    bit_generator = np.random.Philox(key=keys[0])
    rng = np.random.Generator(bit_generator)
    fresh = bit_generator.state
    chunk = min(trials, max(1, ev._CHUNK_ELEMENTS // (max_blocks * kprime)))
    blocks = np.empty((chunk, max_blocks, kprime))
    logs = np.empty((trials, max_blocks))
    budgets = np.zeros(trials, dtype=int)
    for start in range(0, trials, chunk):
        stop = min(start + chunk, trials)
        for t in range(start, stop):
            fresh["state"]["key"] = keys[t]
            bit_generator.state = fresh
            if policy == "budget":
                budgets[t] = int(rng.integers(1, max_blocks + 1))
            for j, m in enumerate(draw_means):
                blocks[t - start, :, j] = spec._draw(m, max_blocks, rng)
        logs[start:stop] = log_statistic(blocks[:stop - start])
    running = np.cumsum(logs, axis=1)

    if policy == "threshold":
        crossed = running >= log_thresh
        any_cross = crossed.any(axis=1)
        stop_times = np.where(
            any_cross, crossed.argmax(axis=1) + 1, max_blocks
        ).astype(int)
    elif policy == "fixed":
        stop_times = np.full(trials, max_blocks, dtype=int)
    elif policy == "budget":
        stop_times = budgets
    else:
        # custom policy objects: pure function of the trace prefix
        pol = policy
        stop_times = np.full(trials, max_blocks, dtype=int)
        for t in range(trials):
            for b in range(1, max_blocks + 1):
                if pol.should_stop(logs[t, :b], alpha):
                    stop_times[t] = b
                    break
    finals = running[np.arange(trials), stop_times - 1]
    rejected = finals >= log_thresh
    rate = float(rejected.mean())
    se = float(math.sqrt(max(rate * (1.0 - rate), 1e-12) / trials))
    return SimulationSummary(
        trials,
        rate,
        se,
        float(stop_times.mean()),
        truth,
        kind.value,
        float(alpha),
        policy if isinstance(policy, str) else getattr(policy, "name", "custom"),
        int(seed),
        stop_times,
        rejected,
        finals,
    )
