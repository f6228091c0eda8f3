"""Command-line interface: evaluate / project / growth / heatmap / simulate.

Every subcommand is driven by a run configuration (flags or a JSON config
file) and emits JSON reports that embed the full configuration for
provenance.  The ones that draw (growth by Monte Carlo, heatmap, simulate)
honor --seed for bit-reproducible output; evaluate and project draw nothing.
CSV output uses header rows, UTF-8 and '.' as the decimal separator.  The default output
directory is taken from $KSEV_OUTPUT_DIR (falling back to the working
directory).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

from . import evariables as ev
from . import growth as gr
from . import ripr
from . import sequential as sq
from .expfam import (
    Alternative, ComputationError, family_from_config, problem_from_config,
)


def canonical_json(obj) -> str:
    """Stable serialization: reparsing and re-emitting is byte-identical."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _out_dir(args) -> Path:
    d = args.out_dir or os.environ.get("KSEV_OUTPUT_DIR") or "."
    p = Path(d)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _parse_floats(what: str, text: str) -> list[float]:
    """Comma- or space-separated numbers for ``what`` (a flag, or a block
    of a data file), refused by name otherwise."""
    try:
        return [float(t) for t in text.replace(",", " ").split()]
    except ValueError:
        raise ValueError(f"{what} must be comma- or space-separated numbers, "
                         f"got {text!r}") from None


def _json_object(what: str, text: str) -> dict:
    """Parse ``text`` as JSON, refusing anything but an object by name."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {obj!r}")
    return obj


def _load_config(args) -> dict:
    cfg: dict = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = _json_object(f"--config {args.config}", fh.read())
    if getattr(args, "family", None):
        cfg["family"] = args.family
    if getattr(args, "fixed", None):
        fixed = _json_object("--fixed", args.fixed)
        merged = cfg.setdefault("fixed_params", {})
        if isinstance(merged, dict):  # anything else is refused with the family
            merged.update(fixed)
    if getattr(args, "mu", None):
        cfg["mean_params"] = _parse_floats("--mu", args.mu)
    if getattr(args, "beta_means", False):
        cfg["beta_means"] = True
    return cfg


def _spec_alt(cfg):
    spec, means = problem_from_config(cfg)
    return spec, Alternative.from_means(spec, means)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _report(args, payload: dict, cfg: dict) -> None:
    payload = dict(payload)
    payload["config"] = cfg
    text = canonical_json(payload)
    if getattr(args, "out", None):
        path = _out_dir(args) / args.out
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _evalue(log_evalue: float) -> float | None:
    """e^log_evalue for a JSON report, as ``EValueResult.evalue``, or None
    (null) where it overflows a double: JSON has no infinity."""
    value = ev._exp(log_evalue)
    return None if math.isinf(value) else value


_KIND_ALIASES = {"groiid": "gro_iid", "grom": "gro_m"}


def _parse_kinds(text: str) -> list[ev.EValueKind]:
    """Comma-separated statistic names for --kinds; groiid and grom are
    aliases of gro_iid and gro_m."""
    kinds = []
    for name in (t.strip() for t in text.split(",")):
        try:
            kinds.append(ev.EValueKind(_KIND_ALIASES.get(name, name)))
        except ValueError:
            valid = ", ".join([k.value for k in ev.EValueKind] + list(_KIND_ALIASES))
            raise SystemExit(f"--kinds: unknown statistic {name!r}; choose from {valid}")
    return kinds


def _parse_ints(flag: str, text: str) -> list[int]:
    """Comma-separated integers for ``flag``, refused by name otherwise."""
    try:
        return [int(t) for t in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated integers, got {text!r}") from None


def _multiplicities(args) -> list[int] | None:
    if not args.multiplicities:
        return None
    return _parse_ints("--multiplicities", args.multiplicities)


def _load_mixture(path: str) -> ripr.MixtureNull:
    """Read a mixture file, naming it in a refusal.  The statistic refuses it
    unless its problem is the run's (``evariables._check_mixture``), means
    compared after the --beta-means conversion and any multiplicity expansion."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    try:
        return ripr.MixtureNull.from_json_dict(payload)
    except ValueError as exc:
        raise SystemExit(f"{path}: {exc}")


def cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    spec, alt = _spec_alt(cfg)
    kind = ev.EValueKind(args.kind)
    mixture = _load_mixture(args.mixture) if args.mixture else None
    if args.stream:
        return _evaluate_stream(args, cfg, spec, alt, kind, mixture)
    blocks = []
    if args.block:
        blocks.append(("--block", _parse_floats("--block", args.block)))
    if args.data:
        with open(args.data, "r", encoding="utf-8") as fh:
            for ln, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                where = f"{args.data}:{ln}"
                try:
                    blocks.append((where, _parse_floats("a block", line)))
                except ValueError as exc:
                    raise SystemExit(f"{where}: {exc}")
    if not blocks:
        raise SystemExit("nothing to evaluate: give --block, --data or --stream")
    log_statistic = ev._statistic(spec, alt, kind, mixture)
    cert = mixture.certificate_dict() if kind is ev.EValueKind.GRO_M else None
    results = []
    total = 0.0
    for where, blk in blocks:
        try:
            log_evalue = float(log_statistic(ev._as_block(spec, alt, blk)))
        except (ValueError, ComputationError) as exc:
            raise SystemExit(f"{where}: {exc}")
        total += log_evalue
        row = {"block": blk, "kind": kind.value, "log_evalue": log_evalue,
               "evalue": _evalue(log_evalue)}
        if cert is not None:
            row["certificate"] = cert
        results.append(row)
    _report(args, {"results": results, "total_log_evalue": total}, cfg)
    return 0


def _evaluate_stream(args, cfg, spec, alt, kind, mixture) -> int:
    """Ingest 'group,value' lines into a sequential state and report it."""
    state = sq.StreamState(
        spec, alt, kind, alpha=args.alpha, multiplicities=_multiplicities(args),
        mixture=mixture,
    )
    with open(args.stream, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#") or line.lower().startswith("group"):
                continue
            try:
                group_txt, value_txt = line.split(",", 1)
                state.ingest(int(group_txt), float(value_txt))
            except (ValueError, ComputationError) as exc:
                raise SystemExit(f"{args.stream}:{ln}: {exc}")
    payload = {
        "blocks_completed": state.blocks_completed,
        "log_evalue": state.log_evalue,
        "evalue": _evalue(state.log_evalue),
        "decision": state.decide().value,
        "pending": list(state.pending()),
        "kind": kind.value,
        "alpha": state.alpha,
    }
    caveat = state.validity_caveat()
    if caveat is not None:
        # null where c^B overflows, as for the e-value: JSON has no infinity
        factor = caveat["type1_bound_factor"]
        payload["validity_caveat"] = {
            **caveat, "type1_bound_factor": None if math.isinf(factor) else factor}
    _report(args, payload, cfg)
    return 0


def cmd_project(args) -> int:
    cfg = _load_config(args)
    spec, alt = _spec_alt(cfg)
    if args.method == "li":
        mixture, trace = ripr.li_approximate(
            spec, alt, max_iters=args.max_iters, mu_lo=args.mu_lo, mu_hi=args.mu_hi
        )
    else:
        mixture, trace = ripr.brute_force_two_component(
            spec, alt, mu_lo=args.mu_lo, mu_hi=args.mu_hi
        )
    _report(args, mixture.to_json_dict(), cfg)
    if args.trace:
        path, fields = _out_dir(args) / args.trace, ["iter", "kl", "sup_expectation"]
        _write_csv(path, fields, [[t[f] for f in fields] for t in trace])
        print(f"wrote {path}", file=sys.stderr)
    return 0


def cmd_growth(args) -> int:
    cfg = _load_config(args)
    spec, alt = _spec_alt(cfg)
    kinds = _parse_kinds(args.kinds)
    mixture = _load_mixture(args.mixture) if args.mixture else None
    report = gr.growth_report(
        spec,
        alt,
        kinds,
        method=args.method,
        mixture=mixture,
        mc_n=args.mc_n,
        seed=args.seed,
    )
    entries = {
        k.value: {"rate": e.rate, "stderr": e.stderr}
        for k, e in report.entries.items()
    }
    gaps = {}
    for i, a in enumerate(kinds):
        for b in kinds[i + 1 :]:
            gaps[f"{a.value}-{b.value}"] = report.gap(a, b)
    _report(args, {"growth": entries, "gaps": gaps, "method": args.method}, cfg)
    return 0


def cmd_heatmap(args) -> int:
    spec = family_from_config(_load_config(args))
    offsets = _parse_ints("--slice-offsets", args.slice_offsets) if args.slices else []
    result = gr.heatmap(
        spec,
        _parse_kinds(args.kinds),
        n=args.n,
        std_lo=args.std_lo,
        std_hi=args.std_hi,
        method=args.method,
        mc_n=args.mc_n,
        seed=args.seed,
    )
    out = _out_dir(args)
    path = out / (args.out or f"heatmap_{args.family}.csv")
    _write_csv(path, ["mu1", "mu2", "gap", "gap_fourth_root"], result.rows())
    print(f"wrote {path} ({args.n * args.n} cells, {len(result.failures)} failures)",
          file=sys.stderr)
    for off in offsets:
        deltas, vals = result.slice(off)
        spath = out / (args.slices if len(offsets) == 1
                       else f"{off}_{args.slices}")
        _write_csv(spath, ["delta", "signed_fourth_root"],
                   list(zip(deltas, vals)))
        print(f"wrote {spath}", file=sys.stderr)
    if result.failures:
        for fail in result.failures:
            print(f"cell ({fail['mu1']:.4g}, {fail['mu2']:.4g}): {fail['error']}",
                  file=sys.stderr)
        if args.strict:
            return 1
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    spec, alt = _spec_alt(cfg)
    mult = _multiplicities(args)
    mixture = _load_mixture(args.mixture) if args.mixture else None
    summary = sq.simulate(
        spec,
        alt,
        args.kind,
        alpha=args.alpha,
        policy=args.policy,
        trials=args.trials,
        seed=args.seed,
        max_blocks=args.max_blocks,
        truth=args.truth,
        null_mu=args.null_mu,
        multiplicities=mult,
        mixture=mixture,
    )
    payload = summary.to_json_dict()
    if args.trace:
        path = _out_dir(args) / args.trace
        _write_csv(
            path,
            ["trial", "stopped_at", "rejected", "final_log_evalue"],
            [
                (t, int(summary.stop_times[t]), int(summary.rejected[t]),
                 summary.final_log_evalues[t])
                for t in range(summary.trials)
            ],
        )
        print(f"wrote {path}", file=sys.stderr)
    _report(args, payload, cfg)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ksev",
        description=(
            "Anytime-valid k-sample tests with e-values for one-parameter "
            "exponential families"
        ),
    )
    p.add_argument("--out-dir", default=None, help="output directory "
                   "(default: $KSEV_OUTPUT_DIR or '.')")
    sub = p.add_subparsers(dest="command", required=True)

    def add_model_flags(sp, with_kind=True):
        sp.add_argument("--config", help="JSON run configuration")
        sp.add_argument("--family", help="family id (bernoulli, gaussian_mean, "
                        "gaussian_variance, poisson, exponential, geometric, "
                        "beta_fixed_alpha)")
        sp.add_argument("--fixed", help="fixed parameters as JSON, e.g. "
                        "'{\"sigma2\": 2.0}'")
        sp.add_argument("--mu", help="comma-separated group means")
        sp.add_argument("--beta-means", action="store_true", dest="beta_means",
                        help="interpret --mu as beta-observation means E[U]")
        sp.add_argument("--seed", type=int, default=0)
        if with_kind:
            sp.add_argument("--kind", default="cond",
                            choices=[k.value for k in ev.EValueKind])

    sp = sub.add_parser("evaluate", help="e-value of blocks or a stream")
    add_model_flags(sp)
    sp.add_argument("--block", help="one block, comma-separated, one value per group")
    sp.add_argument("--data", help="CSV file, one block per line")
    sp.add_argument("--stream", help="CSV file of 'group,value' lines, ingested "
                    "sequentially into an anytime-valid e-process")
    sp.add_argument("--alpha", type=float, default=0.05,
                    help="significance level for --stream mode")
    sp.add_argument("--multiplicities",
                    help="comma-separated m_j per stream (--stream mode)")
    sp.add_argument("--mixture", help="certified mixture JSON (for kind gro_m)")
    sp.add_argument("--out", help="write the JSON report here")
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("project", help="approximate the reverse information "
                        "projection and certify it")
    add_model_flags(sp, with_kind=False)
    sp.add_argument("--method", choices=["li", "brute2"], default="li")
    sp.add_argument("--max-iters", type=int, default=15)
    sp.add_argument("--mu-lo", type=float, default=None)
    sp.add_argument("--mu-hi", type=float, default=None)
    sp.add_argument("--out", default="mixture.json",
                    help="mixture JSON filename (default mixture.json)")
    sp.add_argument("--trace", help="per-iteration CSV trace filename")
    sp.set_defaults(func=cmd_project)

    sp = sub.add_parser("growth", help="growth rates and pairwise gaps")
    add_model_flags(sp, with_kind=False)
    sp.add_argument("--kinds", default="pseudo,gro_iid,cond")
    sp.add_argument("--method", choices=["quadrature", "mc"], default="quadrature")
    sp.add_argument("--mc-n", type=int, default=10**6)
    sp.add_argument("--mixture", help="certified mixture JSON (for gro_m)")
    sp.add_argument("--out", help="write the JSON report here")
    sp.set_defaults(func=cmd_growth)

    sp = sub.add_parser("heatmap", help="growth-gap grid over two-group "
                        "alternatives")
    sp.add_argument("--family", required=True)
    sp.add_argument("--fixed", help="fixed parameters as JSON")
    sp.add_argument("--kinds", required=True, help="two statistics, e.g. groiid,cond")
    sp.add_argument("--n", type=int, default=50)
    sp.add_argument("--std-lo", type=float, default=None,
                    help="grid start in the standard parameterization")
    sp.add_argument("--std-hi", type=float, default=None)
    sp.add_argument("--method", choices=["quadrature", "mc"], default="quadrature")
    sp.add_argument("--mc-n", type=int, default=10**5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", help="CSV filename")
    sp.add_argument("--slices", help="also write diagonal slices to this CSV")
    sp.add_argument("--slice-offsets", default="0", dest="slice_offsets",
                    help="anti-diagonal offsets to extract (comma-separated)")
    sp.add_argument("--strict", action="store_true",
                    help="nonzero exit if any cell fails")
    sp.set_defaults(func=cmd_heatmap)

    sp = sub.add_parser("simulate", help="seeded sequential-testing campaign")
    add_model_flags(sp)
    sp.add_argument("--alpha", type=float, default=0.05)
    sp.add_argument("--policy", default="threshold",
                    choices=sq.POLICIES)
    sp.add_argument("--trials", type=int, default=1000)
    sp.add_argument("--max-blocks", type=int, default=200)
    sp.add_argument("--truth", choices=["null", "alt"], default="null")
    sp.add_argument("--null-mu", type=float, default=None)
    sp.add_argument("--multiplicities", help="comma-separated m_j per stream")
    sp.add_argument("--mixture", help="certified mixture JSON (for gro_m)")
    sp.add_argument("--trace", help="per-trial CSV filename")
    sp.add_argument("--out", help="write the JSON summary here")
    sp.set_defaults(func=cmd_simulate)
    return p


def main(argv=None) -> int:
    """Run one subcommand.  An input it refuses (a ``ValueError``, which
    includes ``MeanDomainError``, ``SupportError`` and ``CertificationError``),
    a file it cannot read or write (``OSError``) or a computation that fails
    on it (``ComputationError``) exits nonzero with one line naming the
    subcommand and the reason."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ComputationError, OSError) as exc:
        raise SystemExit(f"ksev {args.command}: {exc}") from None


if __name__ == "__main__":
    raise SystemExit(main())
