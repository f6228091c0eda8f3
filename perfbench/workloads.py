"""The three benchmark workloads.

Each workload has a set-up (what every ``ksev`` call of that kind pays: the
import, the cold Gauss-Legendre builds and any certified mixture it needs)
and a round of timed operations split into two stages.  A run repeats the
round; each operation's time is recorded on its own, so the launcher can
take its median over the run.  The harness makes all inputs from the seed;
the program only sees the generated values.

Every operation is checked after the round, outside the timed region, by
``checks.Checker``.  Sizes follow the paper's protocol where one operation
stays short enough to repeat within a run: the table rows, 1000-point
certification grids and 10^4-trial campaigns.  The heatmap grid is n = 20
rather than the paper's 50 (see ``HEATMAP_N``).  ``tiny`` shrinks every size
for the smoke test.
"""

from __future__ import annotations

import contextlib
import json
import signal
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import special

# (family, means, --beta-means): the four table rows and the beta row
LI_ROWS = [
    ("exponential", (0.5, 0.25), False),
    ("geometric", (10.0 / 3, 1.25), False),
    ("gaussian_variance", (0.5, 0.25), False),
    ("gaussian_variance", (10.0 / 3, 1.25), False),
    ("beta_fixed_alpha", (0.5, 0.25), True),
]
BRUTE2_ROWS = [
    ("geometric", (10.0 / 3, 1.25), False),
    ("gaussian_variance", (0.5, 0.25), False),
]
# (family, means, kind) for the seeded campaigns; each runs under both truths
CAMPAIGNS = [
    ("bernoulli", (0.6, 0.4), "cond"),
    ("poisson", (2.0, 1.0), "gro_iid"),
    ("exponential", (1.0, 0.5), "cond"),
]
GRO_M_ROW = ("exponential", (0.5, 0.25))
# the stream is timed in this many equal chunks of observations
INGEST_CHUNKS = 8
# One n = 50 heatmap takes 14-19 s, so a run could time it once or twice and
# the host's slow spells showed in full.  An n = 20 grid (190 cells) runs the
# same per-cell path, node rebuilds included, in about 2.5 s.
HEATMAP_N = 20


def mu_arg(means) -> str:
    return ",".join(repr(float(m)) for m in means)


REFERENCE_Q = np.linspace(0.005, 0.995, 30000)
REFERENCE_A = np.ones(2_000_000)  # 16 MB each: far larger than the caches
REFERENCE_B = np.empty_like(REFERENCE_A)


def reference_kernel() -> tuple[float, float]:
    """Wall times of a fixed piece of work that never calls the package.

    The host's speed drifts by a third in spells of 20-40 s and moves every
    kind of work, though not all by the same share.  Timed around and during
    each operation, this kernel follows that drift, so each operation's time
    is also given in units of it.  Its parts match the workloads' kinds of
    work: a loop of small numpy calls from the interpreter, as in
    per-observation ingest; and a vectorized special function plus passes
    over arrays larger than the caches, as in the quantile grids, the RIPr
    matrix products and the Monte Carlo draws.  Returns (loop part, vector
    part), about 15 and 40 ms.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(4000):
        acc += float(np.log1p(np.asarray([i * 1e-3, 1.0])).sum())
    t1 = time.perf_counter()
    special.gammaincinv(2.5, REFERENCE_Q)
    for _ in range(2):
        np.multiply(REFERENCE_A, 1.0001, out=REFERENCE_B)
        np.add(REFERENCE_B, 1.0, out=REFERENCE_A)
    return t1 - t0, time.perf_counter() - t1


@dataclass
class Round:
    """Timings and raw outputs of one round; checked after it ends."""

    # seconds between reference samples inside an operation; 0 turns them off
    sample_every: float = 1.0
    # (stage 0 or 1, operation, seconds, seconds over the mean time of the
    # kernel part it is measured against, just before, during and after it)
    ops: list = field(default_factory=list)
    reference_s: list = field(default_factory=list)  # (loop, vector) samples
    outputs: list = field(default_factory=list)  # (kind, label, payload)
    errors: list = field(default_factory=list)  # (label, message)
    attempted: int = 0
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        self.reference_s.append(reference_kernel())

    @contextlib.contextmanager
    def op(self, stage: int, name: str, loop: bool = False):
        """Time the body as one operation of ``stage``.

        An interval timer runs the reference kernel every ``sample_every``
        seconds inside the body; the time it takes is not counted.  A
        ``loop`` operation, a short piece of a per-observation loop, is
        measured against the kernel's loop part and takes no samples inside,
        where they would land in its per-call latencies; the others are
        measured against its vector part.
        """
        first = len(self.reference_s) - 1
        spent = 0.0

        def take_sample(signum, frame):
            nonlocal spent
            t = time.perf_counter()
            self.reference_s.append(reference_kernel())
            spent += time.perf_counter() - t

        timer = not loop and self.sample_every > 0
        if timer:
            previous = signal.signal(signal.SIGALRM, take_sample)
            signal.setitimer(signal.ITIMER_REAL, self.sample_every, self.sample_every)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            if timer:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            seconds = time.perf_counter() - t0 - spent
            self.reference_s.append(reference_kernel())
            part = 0 if loop else 1
            ref = float(np.mean([r[part] for r in self.reference_s[first:]]))
            self.ops.append((stage, name, seconds, seconds / ref))

    def stage_s(self, stage: int) -> float:
        return sum(op[2] for op in self.ops if op[0] == stage)


class Workload:
    """Shared plumbing: the package handle, an output directory, CLI calls."""

    name = ""
    node_sizes: tuple[int, ...] = ()
    stage_names: tuple[str, str] = ("", "")  # named metrics of the two stages

    def __init__(self, pkg, out_dir, seed: int, tiny: bool):
        self.pkg = pkg
        self.out = out_dir
        self.seed = int(seed)
        self.tiny = tiny
        self.bytes_written = 0  # files the CLI wrote, for cli.bytes_written
        self.sample_every = Round.sample_every  # the launcher sets 0 for traced runs

    def inputs(self):
        """A fresh generator: every round of a run repeats the same inputs."""
        self.rng = np.random.default_rng([self.seed, sum(map(ord, self.name))])

    def sub_seed(self) -> int:
        return int(self.rng.integers(0, 2**31 - 1))

    def setup(self) -> None:
        """Cold-build the quadrature nodes every call of this kind needs."""
        for n in self.node_sizes:
            self.pkg._quad._leggauss(n)

    def files(self) -> dict:
        return {p.name: (p.stat().st_size, p.stat().st_mtime_ns) for p in self.out.iterdir()}

    def cli(self, rnd: Round, stage: int, label: str, argv: list[str]) -> None:
        """Run one ``ksev`` command in-process as an operation of ``stage``."""
        rnd.attempted += 1
        before = self.files()
        code = None
        with rnd.op(stage, label):
            try:
                code = self.pkg.cli.main(["--out-dir", str(self.out)] + argv)
            except (Exception, SystemExit) as exc:  # a failed operation is data
                rnd.errors.append((label, f"{type(exc).__name__}: {exc}"))
        if code not in (0, None):
            rnd.errors.append((label, f"exit code {code}"))
        self.bytes_written += sum(size for name, (size, mtime) in self.files().items()
                                  if before.get(name, (0, 0))[1] != mtime)

    def read_json(self, name: str) -> dict:
        with open(self.out / name, "r", encoding="utf-8") as fh:
            return json.load(fh)

    def read_csv(self, name: str) -> np.ndarray:
        return np.loadtxt(self.out / name, delimiter=",", skiprows=1, ndmin=2)


class RiprProject(Workload):
    """``ksev project``: Li's greedy search and the two-component brute force."""

    name = "ripr_project"
    node_sizes = (3000,)
    stage_names = ("project_li_s", "project_brute2_s")

    def plan(self):
        li = [r for r in LI_ROWS if not self.tiny or r[0] == "geometric"]
        bf = [r for r in BRUTE2_ROWS if not self.tiny or r[0] == "geometric"]
        return ([li[i] for i in self.rng.permutation(len(li))],
                [bf[i] for i in self.rng.permutation(len(bf))])

    def run_round(self) -> Round:
        rnd = Round(sample_every=self.sample_every)
        self.inputs()
        li_rows, bf_rows = self.plan()
        for method, rows in (("li", li_rows), ("brute2", bf_rows)):
            for family, means, beta in rows:
                label = f"{method}.{family}({mu_arg(means)})"
                fname = f"mixture_{method}.json"
                argv = ["project", "--family", family, "--mu", mu_arg(means),
                        "--method", method, "--out", fname]
                if beta:
                    argv.append("--beta-means")
                if self.tiny and method == "li":
                    argv += ["--max-iters", "3"]
                self.cli(rnd, 0 if method == "li" else 1, label, argv)
                if (self.out / fname).exists():
                    rnd.outputs.append(("project", label, {
                        "method": method, "family": family, "means": means,
                        "beta_means": beta, "mixture": self.read_json(fname)}))
                    (self.out / fname).unlink()
        return rnd


class GrowthHeatmap(Workload):
    """``ksev heatmap`` grids and ``ksev growth --method mc``."""

    name = "growth_heatmap"
    node_sizes = (4096,)
    stage_names = ("heatmap_s", "growth_s")

    def plan(self):
        n_exp, n_beta = (4, 3) if self.tiny else (HEATMAP_N, 5)
        heatmaps = [
            ("exponential", None, n_exp),
            ("beta_fixed_alpha", {"alpha": 2.0}, n_beta),
        ]
        # fixed alternatives: Monte Carlo work per run must not depend on the seed
        growth = [
            ("exponential", (1.0, 0.5), self.sub_seed()),
            ("poisson", (2.0, 1.0), self.sub_seed()),
        ]
        return heatmaps, growth

    def run_round(self) -> Round:
        rnd = Round(sample_every=self.sample_every)
        self.inputs()
        heatmaps, growth = self.plan()
        for family, fixed, n in heatmaps:
            label = f"heatmap.{family}.n{n}"
            fname = f"heatmap_{family}.csv"
            argv = ["heatmap", "--family", family, "--kinds", "groiid,cond",
                    "--n", str(n), "--out", fname]
            if fixed:
                argv += ["--fixed", json.dumps(fixed)]
            self.cli(rnd, 0, label, argv)
            rnd.attempted += n * (n - 1) // 2 - 1  # one operation per cell
            if (self.out / fname).exists():
                rnd.outputs.append(("heatmap", label, {
                    "family": family, "fixed": fixed or {}, "n": n,
                    "rows": self.read_csv(fname)}))
                (self.out / fname).unlink()
        mc_n = ["--mc-n", "20000"] if self.tiny else []
        for family, means, seed in growth:
            label = f"growth.{family}"
            fname = f"growth_{family}.json"
            argv = ["growth", "--family", family, "--mu", mu_arg(means),
                    "--kinds", "pseudo,gro_iid,cond", "--method", "mc",
                    "--seed", str(seed), "--out", fname] + mc_n
            self.cli(rnd, 1, label, argv)
            if (self.out / fname).exists():
                rnd.outputs.append(("growth", label, {
                    "family": family, "means": means,
                    "report": self.read_json(fname)}))
                (self.out / fname).unlink()
        return rnd


@dataclass
class StreamSpec:
    family: str
    means: tuple
    kind: str
    multiplicities: tuple | None
    rates: tuple  # relative arrival rate of each group


STREAMS = [
    StreamSpec("bernoulli", (0.6, 0.4), "cond", None, (1.0, 0.6)),
    StreamSpec("poisson", (2.0, 1.0), "gro_iid", None, (1.0, 0.7)),
    StreamSpec("exponential", (1.0, 0.5), "cond", None, (0.6, 1.0)),
    # the expanded means repeat 1.0, so the rates tie and the k=4 sum density
    # takes the per-value matrix-exponential branch
    StreamSpec("exponential", (1.0, 0.7, 0.5), "cond", (2, 1, 1), (1.0, 0.7, 0.5)),
    StreamSpec("gaussian_mean", (0.3, -0.3), "pseudo", None, (1.0, 0.8)),
    StreamSpec("exponential", GRO_M_ROW[1], "gro_m", None, (0.8, 1.0)),
]


def draw(rng, family: str, mu: float, size: int) -> np.ndarray:
    """Observations drawn by the harness, independently of the package."""
    if family == "bernoulli":
        return (rng.random(size) < mu).astype(float)
    if family == "poisson":
        return rng.poisson(mu, size).astype(float)
    if family == "exponential":
        return rng.exponential(mu, size)
    if family == "gaussian_mean":
        return rng.normal(mu, 1.0, size)
    raise ValueError(family)


class StreamEprocess(Workload):
    """One client feeding ``StreamState`` one observation at a time, then
    ``ksev simulate`` campaigns."""

    name = "stream_eprocess"
    node_sizes = (3000,)
    stage_names = ("ingest_s", "simulate_s")

    def setup(self) -> None:
        super().setup()
        family, means = GRO_M_ROW
        argv = ["--out-dir", str(self.out), "project", "--family", family,
                "--mu", mu_arg(means), "--method", "li", "--out", "gro_m.json"]
        if self.tiny:
            argv += ["--max-iters", "3"]
        self.pkg.cli.main(argv)
        self.mixture = self.pkg.ripr.MixtureNull.from_json_dict(
            self.read_json("gro_m.json"))

    def events(self):
        """The interleaved stream: (stream, group, value), fixed by the seed."""
        n = 600 if self.tiny else 24000
        which = self.rng.integers(0, len(STREAMS), n)
        groups = np.empty(n, dtype=int)
        values = np.empty(n)
        for s, spec in enumerate(STREAMS):
            idx = np.flatnonzero(which == s)
            p = np.asarray(spec.rates) / sum(spec.rates)
            g = self.rng.choice(len(p), size=idx.size, p=p)
            groups[idx] = g + 1
            for j, mu in enumerate(spec.means):
                sel = idx[g == j]
                values[sel] = draw(self.rng, spec.family, mu, sel.size)
        return list(zip(which.tolist(), groups.tolist(), values.tolist()))

    def make_states(self):
        sq, pkg = self.pkg.sequential, self.pkg
        states = []
        for spec in STREAMS:
            fam = pkg.make_family(spec.family)
            alt = pkg.Alternative.from_means(fam, list(spec.means))
            states.append(sq.StreamState(
                fam, alt, spec.kind, alpha=0.05,
                multiplicities=spec.multiplicities,
                mixture=self.mixture if spec.kind == "gro_m" else None))
        return states

    def run_round(self) -> Round:
        rnd = Round(sample_every=self.sample_every)
        self.inputs()
        events = self.events()
        states = self.make_states()
        block_ns = []
        clock = time.perf_counter_ns
        chunk = len(events) // INGEST_CHUNKS
        for c in range(INGEST_CHUNKS):
            with rnd.op(0, "ingest.chunk", loop=True):
                for s, g, v in events[c * chunk:(c + 1) * chunk]:
                    st = states[s]
                    before = st.blocks_completed
                    t = clock()
                    try:
                        st.ingest(g, v)
                    except Exception as exc:  # a failed operation is data
                        rnd.errors.append((f"ingest.{s}", f"{type(exc).__name__}: {exc}"))
                        continue
                    dt = clock() - t
                    if st.blocks_completed > before:
                        block_ns.append(dt)
        rnd.attempted += len(events)
        rnd.extra["block_us"] = np.asarray(block_ns, dtype=float) / 1e3
        rnd.extra["observations"] = len(events)
        for s, (spec, st) in enumerate(zip(STREAMS, states)):
            rnd.outputs.append(("stream", f"stream.{s}.{spec.family}.{spec.kind}", {
                "spec": spec, "state": st, "mixture": self.mixture,
                "events": [(g, v) for w, g, v in events if w == s]}))

        trials = 200 if self.tiny else 10000
        seeds = {c: self.sub_seed() for c in range(len(CAMPAIGNS))}
        for c, (family, means, kind) in enumerate(CAMPAIGNS):
            for truth in ("alt", "null"):
                label = f"simulate.{family}.{kind}.{truth}"
                fname = f"sim_{c}_{truth}.json"
                argv = ["simulate", "--family", family, "--mu", mu_arg(means),
                        "--kind", kind, "--trials", str(trials), "--truth", truth,
                        "--seed", str(seeds[c]), "--out", fname]
                self.cli(rnd, 1, label, argv)
                if (self.out / fname).exists():
                    rnd.outputs.append(("simulate", label, self.read_json(fname)))
                    (self.out / fname).unlink()
        rnd.extra["trials"] = trials * 2 * len(CAMPAIGNS)
        return rnd


WORKLOADS = {w.name: w for w in (RiprProject, GrowthHeatmap, StreamEprocess)}
