"""Command-line interface: evaluate / project / growth / heatmap / simulate.

One table, ``_COMMANDS``, states the flags each mode of a subcommand reads;
a flag given to a mode that does not read it is refused, and --seed makes
every draw bit-reproducible.  JSON reports embed the run configuration for
provenance.  CSV output uses header rows, UTF-8 and '.' as the decimal
separator.  The default output directory is taken from $KSEV_OUTPUT_DIR
(falling back to the working directory).
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
    """Parse ``text`` as JSON, refusing text that is no JSON and anything but
    an object by name."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what}: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {obj!r}")
    return obj


def _load_config(args) -> dict:
    cfg: dict = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise ValueError(f"--config {args.config}: {exc}") from None
        cfg = _json_object(f"--config {args.config}", text)
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


def _problem(args, kinds):
    """The run's configuration, family, alternative and ``--mixture``.

    A ``--mixture`` file is refused by name, unopened, unless one of
    ``kinds`` is ``gro_m``, and otherwise read naming its path in a refusal,
    text that is no JSON included.
    The statistic refuses it unless its problem is the run's
    (``evariables._check_mixture``), means compared after the --beta-means
    conversion and any multiplicity expansion."""
    path = getattr(args, "mixture", None)
    if path and ev.EValueKind.GRO_M not in kinds:
        raise ValueError(f"--mixture {path} is read by kind gro_m only, not by "
                         f"{', '.join(k.value for k in kinds)}")
    cfg = _load_config(args)
    spec, means = problem_from_config(cfg)
    mixture = None
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                mixture = ripr.MixtureNull.from_json_dict(json.load(fh))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return cfg, spec, Alternative.from_means(spec, means), mixture


def _lines(flag: str, path: str):
    """("path:line", text) for each line of the file at ``path``, given by
    ``flag``, that is neither blank nor a '#' comment, stripped; a file that
    is not UTF-8 is refused naming both."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for ln, line in enumerate(fh, start=1):
                line = line.strip()
                if line and not line.startswith("#"):
                    yield f"{path}:{ln}", line
        except UnicodeDecodeError as exc:
            raise ValueError(f"{flag} {path}: {exc}") from None


def _stream_line(line: str) -> tuple[int, float]:
    """The group and value of a 'group,value' line, refused by name otherwise."""
    try:
        group_txt, value_txt = line.split(",", 1)
        return int(group_txt), float(value_txt)
    except ValueError:
        raise ValueError("a stream line must be 'group,value' with an integer group "
                         f"and a number, got {line!r}") from None


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


def _json_float(value: float) -> float | None:
    """``value`` for a JSON report, or None (null) where it is infinite: JSON
    has no infinity.  An e-value e^log_evalue (``evariables._exp``) or a
    Type-I bound factor c^B is inf once it leaves the double range."""
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
            raise ValueError(
                f"--kinds: unknown statistic {name!r}; choose from {valid}") from None
    return kinds


def _parse_ints(flag: str, text: str | None) -> list[int] | None:
    """Comma-separated integers for ``flag``, refused by name otherwise, and
    None for an omitted flag."""
    if text is None:
        return None
    try:
        return [int(t) for t in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated integers, got {text!r}") from None


def cmd_evaluate(args) -> int:
    kind = ev.EValueKind(args.kind)
    cfg, spec, alt, mixture = _problem(args, [kind])
    if args.stream:
        return _evaluate_stream(args, cfg, spec, alt, kind, mixture)
    blocks = []
    if args.block:
        blocks.append(("--block", _parse_floats("--block", args.block)))
    if args.data:
        for where, line in _lines("--data", args.data):
            try:
                blocks.append((where, _parse_floats("a block", line)))
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
    if not blocks:
        raise ValueError("nothing to evaluate: give --block, --data or --stream")
    stat = ev._statistic(spec, alt, kind, mixture)
    results = []
    total = 0.0
    for where, blk in blocks:
        try:
            log_evalue = float(stat(ev._as_block(spec, alt, blk)))
        except (ValueError, ComputationError) as exc:
            raise ValueError(f"{where}: {exc}") from None
        total += log_evalue
        row = {"block": blk, "kind": kind.value, "log_evalue": log_evalue,
               "evalue": _json_float(ev._exp(log_evalue))}
        if stat.certificate is not None:
            row["certificate"] = stat.certificate.to_dict()
        results.append(row)
    _report(args, {"results": results, "total_log_evalue": total}, cfg)
    return 0


def _evaluate_stream(args, cfg, spec, alt, kind, mixture) -> int:
    """Ingest 'group,value' lines into a sequential state and report it."""
    state = sq.StreamState(
        spec, alt, kind, alpha=args.alpha,
        multiplicities=_parse_ints("--multiplicities", args.multiplicities),
        mixture=mixture,
    )
    for where, line in _lines("--stream", args.stream):
        if line.lower().startswith("group"):  # a header
            continue
        try:
            state.ingest(*_stream_line(line))
        except (ValueError, ComputationError) as exc:
            raise ValueError(f"{where}: {exc}") from None
    payload = {
        "blocks_completed": state.blocks_completed,
        "log_evalue": state.log_evalue,
        "evalue": _json_float(ev._exp(state.log_evalue)),
        "decision": state.decide().value,
        "pending": list(state.pending()),
        "kind": kind.value,
        "alpha": state.alpha,
    }
    caveat = state.validity_caveat()
    if caveat is not None:
        payload["validity_caveat"] = {
            **caveat, "type1_bound_factor": _json_float(caveat["type1_bound_factor"])}
    _report(args, payload, cfg)
    return 0


def cmd_project(args) -> int:
    cfg, spec, alt, _ = _problem(args, [])
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
    kinds = _parse_kinds(args.kinds)
    cfg, spec, alt, mixture = _problem(args, kinds)
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
    if not args.slices and args.slice_offsets is not None:
        raise ValueError("--slice-offsets is not read without --slices")
    offsets = (_parse_ints("--slice-offsets", args.slice_offsets) or [0]
               if args.slices else [])
    for i, off in enumerate(offsets):
        if abs(off) >= args.n:
            raise ValueError(f"--slice-offsets {off}: no cell on an n={args.n} grid")
        if off in offsets[:i]:
            raise ValueError(f"--slice-offsets {off} is given twice")
    spec = family_from_config(_load_config(args))
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
    cfg, spec, alt, mixture = _problem(args, [ev.EValueKind(args.kind)])
    mult = _parse_ints("--multiplicities", args.multiplicities)
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


# argparse keywords of every flag, written once; a flag's defaults are in _COMMANDS
_FLAGS = {
    "--config": dict(help="JSON run configuration"),
    "--family": dict(help="family id (bernoulli, gaussian_mean, gaussian_variance, "
                     "poisson, exponential, geometric, beta_fixed_alpha)"),
    "--fixed": dict(help="fixed parameters as JSON, e.g. '{\"sigma2\": 2.0}'"),
    "--mu": dict(help="comma-separated group means"),
    "--beta-means": dict(action="store_true", help="--mu gives beta means E[U]"),
    "--kind": dict(choices=[k.value for k in ev.EValueKind]),
    "--block": dict(help="one block, comma-separated, one value per group"),
    "--data": dict(help="CSV file, one block per line"),
    "--stream": dict(help="CSV file of 'group,value' lines for a sequential e-process"),
    "--alpha": dict(type=float, help="significance level"),
    "--multiplicities": dict(help="comma-separated m_j per stream"),
    "--mixture": dict(help="certified mixture JSON (for kind gro_m)"),
    "--out": dict(help="output filename"),
    "--trace": dict(help="per-iteration or per-trial CSV trace filename"),
    "--kinds": dict(help="comma-separated statistics, e.g. groiid,cond"),
    "--std-lo": dict(type=float, help="grid start in the standard parameterization"),
    "--slices": dict(help="also write diagonal slices to this CSV"),
    "--slice-offsets": dict(help="comma-separated offsets of --slices (default 0)"),
    "--strict": dict(action="store_true", help="nonzero exit if any cell fails"),
    "--policy": dict(choices=sq.POLICIES),
    "--truth": dict(choices=["null", "alt"]),
    **dict.fromkeys("--seed --max-iters --mc-n --n --trials --max-blocks".split(),
                    dict(type=int)),
    **dict.fromkeys("--mu-lo --mu-hi --std-hi --null-mu".split(), dict(type=float)),
}

# subcommand: (function, help, mode selector, flags every mode reads (_SHARED in
# all but heatmap), flags no mode reads, {mode: the flags it reads besides}), each
# flag with its value when omitted (... if required); the first mode is the default.
_SHARED = dict.fromkeys("--config --family --fixed --mu --beta-means --out".split())
_COMMANDS = {
    "evaluate": (cmd_evaluate, "e-value of blocks or a stream", "--stream",
                 {**_SHARED, "--kind": "cond", "--mixture": None}, ("--seed",),
                 {"--block/--data": {"--block": None, "--data": None}, "--stream": {
                     "--stream": None, "--alpha": 0.05, "--multiplicities": None}}),
    "project": (cmd_project, "approximate the reverse information projection and "
                "certify it", "--method", {**_SHARED, "--mu-lo": None, "--mu-hi": None,
                                           "--out": "mixture.json", "--trace": None},
                ("--seed",), {"li": {"--max-iters": 15}, "brute2": {}}),
    "growth": (cmd_growth, "growth rates and pairwise gaps", "--method",
               {**_SHARED, "--kinds": "pseudo,gro_iid,cond", "--mixture": None}, (),
               {"quadrature": {}, "mc": {"--mc-n": 10**6, "--seed": 0}}),
    "heatmap": (cmd_heatmap, "growth-gap grid over two-group alternatives", "--method",
                {"--family": ..., "--fixed": None, "--kinds": ..., "--n": 50,
                 "--std-lo": None, "--std-hi": None, "--out": None, "--slices": None,
                 "--slice-offsets": None, "--strict": None}, (),
                {"quadrature": {}, "mc": {"--mc-n": 10**5, "--seed": 0}}),
    "simulate": (cmd_simulate, "seeded sequential-testing campaign", None,
                 {**_SHARED, "--kind": "cond", "--seed": 0, "--alpha": 0.05,
                  "--policy": "threshold", "--trials": 1000, "--max-blocks": 200,
                  "--truth": "null", "--null-mu": None, "--multiplicities": None,
                  "--mixture": None, "--trace": None}, (), {"simulate": {}}),
}


def build_parser() -> argparse.ArgumentParser:
    """The ``ksev`` parser of ``_COMMANDS``, where an omitted flag reads None."""
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
    for command, (run, text, selector, common, unread, modes) in _COMMANDS.items():
        sp = sub.add_parser(command, help=text)
        sp.set_defaults(func=run)
        if selector == "--method":
            sp.add_argument("--method", choices=list(modes))
        for flag, default in {**common, **dict.fromkeys(unread), **{
                f: d for reads in modes.values() for f, d in reads.items()}}.items():
            sp.add_argument(flag, default=None, required=default is ..., **_FLAGS[flag])
    return p


def _read_flags(args) -> None:
    """Select the mode (--method by name, --stream when given), refuse a flag it
    does not read, naming both, and fill each flag it reads from ``_COMMANDS``."""
    _, _, selector, common, unread, modes = _COMMANDS[args.command]
    given = {"--" + dest.replace("_", "-"): value for dest, value in vars(args).items()}
    mode = name = next(iter(modes))
    if selector == "--method":
        mode = args.method = args.method or mode
        name = f"--method {mode}"
    elif selector and given[selector] is not None:
        mode = name = selector
    reads = {**common, **modes[mode]}
    for flag in [*unread, *(f for other in modes.values() for f in other)]:
        if flag not in reads and given[flag] is not None:
            raise ValueError(f"{flag} is not read in {name} mode")
    for flag, default in reads.items():
        if given[flag] is None:
            setattr(args, flag[2:].replace("-", "_"), default)


def main(argv=None) -> int:
    """Run one subcommand.  A flag its mode does not read, an input it refuses
    (a ``ValueError``, which includes ``MeanDomainError``, ``SupportError`` and
    ``CertificationError``), a file it cannot read or write (``OSError``) or a
    computation that fails on it (``ComputationError``) exits nonzero with one
    line naming the subcommand and the reason."""
    args = build_parser().parse_args(argv)
    try:
        _read_flags(args)
        return args.func(args)
    except (ValueError, ComputationError, OSError) as exc:
        raise SystemExit(f"ksev {args.command}: {exc}") from None


if __name__ == "__main__":
    raise SystemExit(main())
