import json
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ksample_evalues import Alternative, make_family
from ksample_evalues import evariables as ev
from ksample_evalues import growth as gr
from ksample_evalues import ripr
from ksample_evalues import sequential as sq
from ksample_evalues.cli import canonical_json, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEvaluate:
    def test_nothing_to_evaluate_refused(self):
        with pytest.raises(SystemExit, match="^nothing to evaluate: give --block, "
                           "--data or --stream$"):
            main(["evaluate", "--family", "exponential", "--mu", "0.5,0.25"])

    def test_single_block_matches_library(self, capsys):
        code, out, _ = run(
            capsys,
            "evaluate", "--family", "bernoulli", "--mu", "0.5,0.25",
            "--kind", "cond", "--block", "1,0",
        )
        assert code == 0
        payload = json.loads(out)
        spec = make_family("bernoulli")
        alt = Alternative.from_means(spec, [0.5, 0.25])
        expect = float(ev.log_s_cond(spec, alt, [1, 0]))
        assert payload["results"][0]["log_evalue"] == pytest.approx(expect)
        assert payload["config"]["mean_params"] == [0.5, 0.25]

    def test_degenerate_pseudo_is_one(self, capsys):
        code, out, _ = run(
            capsys,
            "evaluate", "--family", "poisson", "--mu", "2,2",
            "--kind", "pseudo", "--block", "1,4",
        )
        payload = json.loads(out)
        assert payload["results"][0]["evalue"] == 1.0

    def test_data_file_with_line_numbers(self, capsys, tmp_path):
        data = tmp_path / "blocks.csv"
        data.write_text("1,0\n0,1\nbad,line\n", encoding="utf-8")
        with pytest.raises(SystemExit, match=":3"):
            main([
                "evaluate", "--family", "bernoulli", "--mu", "0.5,0.25",
                "--data", str(data),
            ])

    def test_block_refusals_name_their_source(self, tmp_path):
        with pytest.raises(SystemExit, match="^--block: block has 3 entries"):
            main(["evaluate", *EXPO, "--block", "0.7,0.4,0.1"])
        data = tmp_path / "blocks.csv"
        data.write_text("0.7,0.4\n\n0.1,-1.5\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", *EXPO, "--data", str(data)])
        msg = str(exc.value)
        assert msg.startswith(f"{data}:3: ") and "[-1.5] outside support" in msg

    def test_data_file_scored_with_one_statistic(self, capsys, tmp_path, monkeypatch):
        data = tmp_path / "blocks.csv"
        data.write_text("0.7,0.4\n# skipped\n0.1,1.5\n2.5,0.01\n", encoding="utf-8")
        builds = []
        build = ev._statistic
        monkeypatch.setattr(ev, "_statistic",
                            lambda *args, **kw: builds.append(args) or build(*args, **kw))
        code, out, _ = run(capsys, "evaluate", *EXPO, "--data", str(data))
        assert code == 0 and len(builds) == 1
        spec = make_family("exponential")
        alt = Alternative.from_means(spec, [0.5, 0.25])
        blocks = [[0.7, 0.4], [0.1, 1.5], [2.5, 0.01]]
        rows = json.loads(out)["results"]
        assert [row["block"] for row in rows] == blocks
        for row, blk in zip(rows, blocks):
            res = ev.log_evalue(spec, alt, blk, "cond")
            assert (row["log_evalue"], row["evalue"]) == (res.log_evalue, res.evalue)

    @pytest.mark.parametrize("kind", ["pseudo", "gro_iid", "cond", "gro_m"])
    def test_data_rows_are_the_statistic_and_its_certificate(self, capsys, tmp_path,
                                                             kind):
        # equal values, a repeat and a near-integer among lattice blocks
        data = tmp_path / "blocks.csv"
        data.write_text("1,0,1\n1,1,1\n0,0,0\n1,0,1\n1.0000000001,0,0\n0,1,1\n",
                        encoding="utf-8")
        spec = make_family("bernoulli")
        alt = Alternative.from_means(spec, [0.6, 0.4, 0.3])
        mix = write_mixture(tmp_path / "mix.json", "bernoulli", [0.6, 0.4, 0.3])
        extra = ["--mixture", mix] if kind == "gro_m" else []
        code, out, _ = run(capsys, "evaluate", "--family", "bernoulli", "--mu",
                           "0.6,0.4,0.3", "--kind", kind, "--data", str(data), *extra)
        payload = json.loads(out)
        mixture = ripr.MixtureNull.from_json_dict(json.loads(Path(mix).read_text()))
        total = 0.0
        for row in payload["results"]:
            res = ev.log_evalue(spec, alt, row["block"], kind,
                                mixture if kind == "gro_m" else None)
            assert (row["log_evalue"], row["evalue"]) == (res.log_evalue, res.evalue)
            assert row.get("certificate") == res.certificate
            total += res.log_evalue
        assert code == 0 and payload["total_log_evalue"] == total
        assert len(payload["results"]) == 6

    def test_gro_m_without_mixture_points_to_project(self, capsys):
        with pytest.raises(SystemExit, match="project"):
            main([
                "evaluate", "--family", "exponential", "--mu", "0.5,0.25",
                "--kind", "gro_m", "--block", "0.7,0.4",
            ])

    def test_missing_fields_listed(self):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--block", "1,0"])
        msg = str(exc.value)
        assert "family" in msg and "mean_params" in msg

    def test_stream_mode(self, capsys, tmp_path):
        stream = tmp_path / "stream.csv"
        stream.write_text("group,value\n1,1\n2,0\n1,0\n2,0\n1,1\n", encoding="utf-8")
        code, out, _ = run(
            capsys,
            "evaluate", "--family", "bernoulli", "--mu", "0.5,0.25",
            "--kind", "cond", "--stream", str(stream), "--alpha", "0.05",
        )
        payload = json.loads(out)
        assert payload["blocks_completed"] == 2
        assert payload["pending"] == [1, 0]
        spec = make_family("bernoulli")
        alt = Alternative.from_means(spec, [0.5, 0.25])
        expect = float(
            ev.log_s_cond(spec, alt, [1, 0]) + ev.log_s_cond(spec, alt, [0, 0])
        )
        assert payload["log_evalue"] == pytest.approx(expect)
        assert payload["decision"] == "continue_or_stop_freely"

    @pytest.mark.parametrize("mode", ["block", "stream"])
    def test_programming_error_propagates(self, tmp_path, monkeypatch, mode):
        # only refusals of the input become one line naming the block or line
        def broken(*args, **kwargs):
            raise TypeError("broken")

        if mode == "block":
            monkeypatch.setattr(ev, "_statistic", lambda spec, alt, kind, *args:
                                ev.Statistic(kind, alt, None, broken))
            argv = ["--block", "0.7,0.4"]
        else:
            monkeypatch.setattr(sq.StreamState, "ingest", broken)
            argv = ["--stream", write_stream(tmp_path / "s.csv")]
        with pytest.raises(TypeError, match="^broken$"):
            main(["evaluate", *EXPO, *argv])

    @pytest.mark.parametrize("mode", ["block", "stream"])
    def test_overflowing_evalue_is_null(self, capsys, tmp_path, mode):
        # e^log_evalue past ~709.78 is no double; JSON has no infinity
        if mode == "block":
            argv = ["--family", "poisson", "--mu", "3000,1", "--kind", "pseudo",
                    "--block", "3000,1"]
        else:
            rng = np.random.default_rng(3)
            draws = rng.exponential([0.5, 0.25], size=(7000, 2))
            stream = tmp_path / "stream.csv"
            stream.write_text("".join(f"1,{a!r}\n2,{b!r}\n" for a, b in draws.tolist()),
                              encoding="utf-8")
            argv = [*EXPO, "--stream", str(stream)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(capsys, "evaluate", *argv)

        def refuse(name):
            raise ValueError(f"not JSON: {name}")

        payload = json.loads(out, parse_constant=refuse)
        row = payload["results"][0] if mode == "block" else payload
        assert code == 0 and row["evalue"] is None
        if mode == "block":
            assert row["log_evalue"] == pytest.approx(2071.1, abs=0.05)
        else:
            assert row["log_evalue"] > 710

    def test_stream_mode_bad_line(self, tmp_path):
        stream = tmp_path / "stream.csv"
        stream.write_text("1,1\n5,0\n", encoding="utf-8")
        with pytest.raises(SystemExit, match=":2"):
            main([
                "evaluate", "--family", "bernoulli", "--mu", "0.5,0.25",
                "--stream", str(stream),
            ])

    @pytest.mark.parametrize("line", ["2", "1.0,0.5", "1,x"],
                             ids=["no-value", "float-group", "word-value"])
    def test_malformed_stream_line_named_by_path_and_line(self, tmp_path, line):
        # once Python's own text: "not enough values to unpack (expected 2,
        # got 1)", "invalid literal for int() with base 10: '1.0'" and
        # "could not convert string to float: 'x'"
        stream = tmp_path / "s.csv"
        stream.write_text(f"group,value\n1,0.7\n{line}\n", encoding="utf-8")
        reason = (f"{stream}:3: a stream line must be 'group,value' with an integer "
                  f"group and a number, got {line!r}")
        with pytest.raises(SystemExit, match=f"^{re.escape(reason)}$"):
            main(["evaluate", *EXPO, "--stream", str(stream)])


class TestProject:
    def test_li_writes_mixture_and_trace(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "--out-dir", str(tmp_path),
            "project", "--family", "gaussian_mean", "--mu", "0.3,-0.4",
            "--method", "li", "--out", "mix.json", "--trace", "trace.csv",
        )
        assert code == 0
        mix_payload = json.loads((tmp_path / "mix.json").read_text())
        mix = ripr.MixtureNull.from_json_dict(mix_payload)
        assert mix.certificate.sup_expectation <= 1.0 + 1e-6
        lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
        assert lines[0] == "iter,kl,sup_expectation"
        assert len(lines) >= 2

    def test_degenerate_alternative_single_component(self, capsys, tmp_path):
        run(
            capsys,
            "--out-dir", str(tmp_path),
            "project", "--family", "exponential", "--mu", "0.4,0.4",
            "--out", "mix.json",
        )
        payload = json.loads((tmp_path / "mix.json").read_text())
        assert payload["components"] == [{"w": 1.0, "mu0": 0.4}]

    @pytest.mark.parametrize("family, mu, grids", [
        ("exponential", "0.5,0.25", 2), ("geometric", "3.3333333333333335,1.25", 1)])
    @pytest.mark.parametrize("method", ["li", "brute2"])
    def test_search_builds_only_its_own_grids(self, capsys, tmp_path, monkeypatch,
                                              family, mu, grids, method):
        # brute2's trace row once came from a third grid, built by
        # kl_to_mixture; both searches now return their trace
        built = []
        init = ripr._SumGrid.__init__

        def counted(grid, *args, **kwargs):
            built.append(args)
            init(grid, *args, **kwargs)

        monkeypatch.setattr(ripr._SumGrid, "__init__", counted)
        monkeypatch.setattr(ripr, "kl_to_mixture",
                            lambda *a: pytest.fail("kl_to_mixture called"))
        code, _, _ = run(capsys, "--out-dir", str(tmp_path), "project",
                         "--family", family, "--mu", mu, "--method", method,
                         "--max-iters", "2", "--out", "mix.json", "--trace", "t.csv")
        assert code == 0 and len(built) == grids
        rows = (tmp_path / "t.csv").read_text().splitlines()
        assert rows[0] == "iter,kl,sup_expectation" and len(rows) >= 2

    @pytest.mark.parametrize("family, mu", [
        ("exponential", "0.5,0.25"), ("geometric", "3.3333333333333335,1.25"),
        ("gaussian_variance", "3.3333333333333335,1.25")])
    @pytest.mark.parametrize("method", ["li", "brute2"])
    def test_last_trace_row_is_the_certificate(self, capsys, tmp_path, family, mu,
                                               method):
        # Li's last row once came from its running density and read
        # 1.0017614012011868 on exponential (0.5, 0.25), against the
        # certificate's 1.001761401201187
        run(capsys, "--out-dir", str(tmp_path), "project", "--family", family,
            "--mu", mu, "--method", method, "--out", "mix.json", "--trace", "t.csv")
        cert = json.loads((tmp_path / "mix.json").read_text())["certificate"]
        last = (tmp_path / "t.csv").read_text().splitlines()[-1].split(",")
        assert float(last[2]) == cert["sup_expectation"]

    def test_evaluate_with_projected_mixture(self, capsys, tmp_path):
        run(
            capsys,
            "--out-dir", str(tmp_path),
            "project", "--family", "gaussian_variance", "--mu", "0.5,0.25",
            "--method", "brute2", "--mu-lo", "0.15", "--mu-hi", "0.9",
            "--out", "mix.json",
        )
        code, out, _ = run(
            capsys,
            "evaluate", "--family", "gaussian_variance", "--mu", "0.5,0.25",
            "--kind", "gro_m", "--mixture", str(tmp_path / "mix.json"),
            "--block", "0.7,0.2",
        )
        payload = json.loads(out)
        assert "certificate" in payload["results"][0]


def write_mixture(path, family, means, fixed=None, beta_means=False, config=True):
    """A one-component mixture file as 'ksev project' lays it out (with
    ``config=False``, without its config)."""
    spec = make_family(family, **(fixed or {}))
    mus = [spec.mean_from_beta_mean(m) for m in means] if beta_means else means
    alt = Alternative.from_means(spec, mus)
    cert = ripr.Certificate(1.0, 1000, min(mus), max(mus), "point", alt.mu0_star)
    payload = {"components": [{"w": 1.0, "mu0": alt.mu0_star}],
               "certificate": cert.to_dict()}
    if config:
        payload["config"] = {"family": family, "fixed_params": fixed or {},
                             "mean_params": list(means)}
        if beta_means:
            payload["config"]["beta_means"] = True
    path.write_text(canonical_json(payload), encoding="utf-8")
    return str(path)


class TestMixtureConfig:
    @pytest.mark.parametrize("argv, kinds", [
        (["evaluate", "--block", "0.7,0.4"], "cond"),
        (["evaluate", "--kind", "pseudo", "--data", "DATA"], "pseudo"),
        (["evaluate", "--kind", "gro_iid", "--stream", "STREAM"], "gro_iid"),
        (["growth"], "pseudo, gro_iid, cond"),
        (["simulate", "--kind", "cond", "--trials", "10"], "cond"),
    ], ids=["block", "data", "stream", "growth", "simulate"])
    @pytest.mark.parametrize("exists", [True, False])
    def test_mixture_without_gro_m_refused(self, tmp_path, monkeypatch, argv, kinds,
                                           exists):
        # the file was read and then ignored, or failed with [Errno 2]
        # when missing, whatever problem it named
        path = tmp_path / "mix.json"
        if exists:
            write_mixture(path, "poisson", [5.0, 0.1])
        files = {"DATA": tmp_path / "d.csv", "STREAM": tmp_path / "s.csv"}
        files["DATA"].write_text("0.7,0.4\n", encoding="utf-8")
        write_stream(files["STREAM"])
        argv = [str(files.get(a, a)) for a in argv]
        monkeypatch.setattr(ripr.MixtureNull, "from_json_dict",
                            lambda d: pytest.fail("mixture file read"))
        reason = (f"ksev {argv[0]}: --mixture {path} is read by kind gro_m only, "
                  f"not by {kinds}")
        with pytest.raises(SystemExit, match=f"^{re.escape(reason)}$"):
            main(["--out-dir", str(tmp_path), *argv, *EXPO, "--mixture", str(path)])
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["d.csv", "s.csv"] + ["mix.json"] * exists)

    def test_mixture_read_when_a_kind_is_gro_m(self, capsys, tmp_path):
        mix = write_mixture(tmp_path / "mix.json", "exponential", [0.5, 0.25])
        code, out, _ = run(capsys, "growth", *EXPO, "--kinds", "pseudo,gro_m",
                           "--mixture", mix)
        assert code == 0 and set(json.loads(out)["growth"]) == {"pseudo", "gro_m"}

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--kind", "gro_m", "--block", "3,0"],
        ["growth", "--kinds", "gro_m", "--method", "mc", "--mc-n", "1000"],
        ["growth", "--kinds", "gro_m"],
        ["simulate", "--kind", "gro_m", "--trials", "10", "--max-blocks", "5"],
    ])
    def test_foreign_mixture_refused(self, tmp_path, argv):
        mix = write_mixture(tmp_path / "mix.json", "exponential", [0.5, 0.25])
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--family", "poisson", "--mu", "5,0.1", "--mixture", mix])
        msg = str(exc.value)
        assert "exponential" in msg and "[0.5, 0.25]" in msg
        assert "poisson" in msg and "[5.0, 0.1]" in msg

    @pytest.mark.parametrize("run_args", [
        ["--family", "gaussian_mean", "--mu", "0.3,-0.5"],
        ["--family", "gaussian_mean", "--mu=-0.4,0.3"],
        ["--family", "gaussian_mean", "--mu", "0.3,-0.4", "--fixed", '{"sigma2": 1.0}'],
    ])
    def test_mean_or_fixed_mismatch_refused(self, tmp_path, run_args):
        mix = write_mixture(tmp_path / "mix.json", "gaussian_mean", [0.3, -0.4],
                            fixed={"sigma2": 2.0})
        with pytest.raises(SystemExit, match="certified for"):
            main(["evaluate", "--kind", "gro_m", "--block", "0.1,0.2",
                  "--mixture", mix] + run_args)

    @pytest.mark.parametrize("config", [None, {"family": "exponential"}])
    def test_file_without_config_refused(self, tmp_path, config):
        # the library's refusal, the one message for a certificate without
        # its problem, with the file's path
        mix = write_mixture(tmp_path / "mix.json", "exponential", [0.5, 0.25],
                            config=False)
        payload = json.loads((tmp_path / "mix.json").read_text())
        if config is not None:
            payload["config"] = config
            (tmp_path / "mix.json").write_text(json.dumps(payload))
        with pytest.raises(ValueError) as library:
            ripr.MixtureNull.from_json_dict(payload)
        if config is None:
            cert = ripr.Certificate(**payload["certificate"])
            with pytest.raises(ripr.CertificationError) as built:
                ripr.MixtureNull(((1.0, 0.375),), cert)
            assert str(built.value) == str(library.value)
            assert "config=spec.to_config(means)" in str(library.value)
        else:
            assert "needs 'family' and 'mean_params'" in str(library.value)
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--family", "exponential", "--mu", "0.5,0.25",
                  "--kind", "gro_m", "--block", "0.7,0.4", "--mixture", mix])
        assert str(exc.value) == f"{mix}: {library.value}"

    @pytest.mark.parametrize("edit, reason", [
        (lambda p: p.pop("components"), "mixture is missing 'components'"),
        (lambda p: p.update(certificate={"sup_expectation": 1.0}),
         "mixture certificate is missing 'mu0_grid_size', 'mu0_lo', 'mu0_hi', "
         "'method', 'argmax_mu0'"),
        (lambda p: p["components"][0].update(w="x"), "w must be a number, got 'x'"),
        (lambda p: p["certificate"].update(sup_expectation="1"),
         "sup_expectation must be a number, got '1'"),
        (lambda p: p["certificate"].update(mu0_grid_size="x"),
         "mu0_grid_size must be an integer, got 'x'"),
        (lambda p: p["config"].update(family=3), "family must be a string, got 3"),
    ], ids=["no-components", "partial-certificate", "weight-string", "sup-string",
            "grid-size-string", "family-number"])
    def test_malformed_file_exits_with_one_line(self, tmp_path, edit, reason):
        # these files once ended in a KeyError, AttributeError or TypeError
        # traceback, or (a string grid size) were accepted
        mix = tmp_path / "mix.json"
        write_mixture(mix, "exponential", [0.5, 0.25])
        payload = json.loads(mix.read_text())
        edit(payload)
        mix.write_text(json.dumps(payload))
        argv = ["evaluate", *EXPO, "--kind", "gro_m", "--block", "0.7,0.4",
                "--mixture", str(mix)]
        with pytest.raises(SystemExit, match=f"^{re.escape(f'{mix}: {reason}')}$"):
            main(argv)
        src = str(Path(ripr.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-m", "ksample_evalues.cli", *argv],
                              cwd=src, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == f"{mix}: {reason}\n"

    @pytest.mark.parametrize("text, reason", [
        ('[{"components": []}]', """mixture must be a JSON object, got [{'components': []}]"""),
        ('{"components": [{"w": 1.0, "mu0": 0.3}], "config": 5}',
         "config must be a JSON object, got 5")], ids=["file", "config"])
    def test_file_without_config_object_refused(self, tmp_path, text, reason):
        # these once ended in an AttributeError and a TypeError traceback
        mix = tmp_path / "mix.json"
        mix.write_text(text)
        with pytest.raises(SystemExit, match=f"^{re.escape(f'{mix}: {reason}')}$"):
            main(["evaluate", *EXPO, "--kind", "gro_m", "--block", "0.7,0.4",
                  "--mixture", str(mix)])

    def test_means_compared_after_beta_conversion(self, capsys, tmp_path):
        mix = write_mixture(tmp_path / "mix.json", "beta", [0.5, 0.25],
                            fixed={"alpha": 2.0}, beta_means=True)
        spec = make_family("beta", alpha=2.0)
        mus = ",".join(repr(spec.mean_from_beta_mean(m)) for m in (0.5, 0.25))
        code, out, _ = run(
            capsys,
            "evaluate", "--family", "beta", "--fixed", '{"alpha": 2.0}',
            f"--mu={mus}", "--kind", "gro_m", "--block=-0.7,-0.4",
            "--mixture", mix,
        )
        assert code == 0
        assert "certificate" in json.loads(out)["results"][0]

    def test_beta_means_on_another_family_refused(self, tmp_path):
        # the mixture file's config once raised AttributeError
        # ('Exponential' object has no attribute 'mean_from_beta_mean')
        mix = tmp_path / "mix.json"
        write_mixture(mix, "exponential", [0.5, 0.25])
        payload = json.loads(mix.read_text())
        payload["config"]["beta_means"] = True
        mix.write_text(json.dumps(payload))
        run_args = ["evaluate", "--family", "exponential", "--mu", "0.5,0.25",
                    "--kind", "gro_m", "--block", "0.7,0.4"]
        with pytest.raises(SystemExit) as exc:
            main(run_args + ["--mixture", str(mix)])
        msg = str(exc.value)
        assert msg.startswith(str(mix)) and "beta_means" in msg and "exponential" in msg
        with pytest.raises(SystemExit) as exc:
            main(run_args + ["--beta-means"])
        msg = str(exc.value)
        assert "beta_means" in msg and "exponential" in msg

    def test_stream_compares_expanded_means(self, capsys, tmp_path):
        stream = tmp_path / "stream.csv"
        stream.write_text("1,0.7\n1,0.2\n2,0.4\n", encoding="utf-8")
        argv = ["evaluate", "--family", "exponential", "--mu", "0.5,0.25",
                "--kind", "gro_m", "--stream", str(stream),
                "--multiplicities", "2,1"]
        flat = write_mixture(tmp_path / "flat.json", "exponential", [0.5, 0.5, 0.25])
        code, out, _ = run(capsys, *argv, "--mixture", flat)
        assert code == 0
        assert json.loads(out)["blocks_completed"] == 1
        short = write_mixture(tmp_path / "short.json", "exponential", [0.5, 0.25])
        with pytest.raises(SystemExit, match=r"\[0\.5, 0\.5, 0\.25\]"):
            main(argv + ["--mixture", short])

    def test_stream_caveat_past_the_double_range_is_null(self, capsys, tmp_path):
        # Li certifies c = 3.0164 on this row, so c^700 overflows; the report
        # once ended in OverflowError after reading the whole stream
        problem = ["--family", "beta", "--fixed", '{"alpha": 1.0}',
                   "--mu=-4.28,-8.51,-0.076"]
        run(capsys, "--out-dir", str(tmp_path), "project", *problem,
            "--method", "li", "--out", "mix.json")
        spec = make_family("beta", alpha=1.0)
        rng = np.random.default_rng(6)
        blocks = np.stack([spec.sample(m, 700, rng) for m in (-4.28, -8.51, -0.076)],
                          axis=-1)
        stream = tmp_path / "stream.csv"
        stream.write_text("".join(f"{g},{v!r}\n" for b in blocks
                                  for g, v in enumerate(b.tolist(), start=1)),
                          encoding="utf-8")
        code, out, _ = run(capsys, "evaluate", *problem, "--kind", "gro_m",
                           "--mixture", str(tmp_path / "mix.json"),
                           "--stream", str(stream))
        payload = json.loads(out, parse_constant=lambda name: pytest.fail(name))
        caveat = payload["validity_caveat"]
        assert code == 0 and payload["blocks_completed"] == caveat["blocks"] == 700
        assert caveat["certified_sup_expectation"] == pytest.approx(3.0164, abs=1e-4)
        assert caveat["type1_bound_factor"] is None


class TestGrowth:
    def test_poisson_pseudo_cond_gap_zero(self, capsys):
        code, out, _ = run(
            capsys,
            "growth", "--family", "poisson", "--mu", "1,2",
            "--kinds", "pseudo,cond",
        )
        payload = json.loads(out)
        assert payload["gaps"]["pseudo-cond"] == pytest.approx(0.0, abs=1e-9)

    def test_seeded_mc(self, capsys):
        code, out1, _ = run(
            capsys,
            "growth", "--family", "exponential", "--mu", "0.5,0.25",
            "--kinds", "pseudo", "--method", "mc", "--mc-n", "20000",
            "--seed", "5",
        )
        code, out2, _ = run(
            capsys,
            "growth", "--family", "exponential", "--mu", "0.5,0.25",
            "--kinds", "pseudo", "--method", "mc", "--mc-n", "20000",
            "--seed", "5",
        )
        assert out1 == out2


class TestHeatmap:
    @pytest.mark.parametrize("offsets, slices", [
        ("0", ["slices.csv"]), ("0,1", ["0_slices.csv", "1_slices.csv"])])
    def test_cell_count(self, capsys, tmp_path, offsets, slices):
        code, out, _ = run(
            capsys,
            "--out-dir", str(tmp_path),
            "heatmap", "--family", "beta", "--kinds", "groiid,cond",
            "--n", "5", "--out", "heat.csv", "--slices", "slices.csv",
            "--slice-offsets", offsets,
        )
        assert code == 0
        lines = (tmp_path / "heat.csv").read_text().strip().splitlines()
        assert lines[0] == "mu1,mu2,gap,gap_fourth_root"
        assert len(lines) == 26  # header + 25 cells
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["heat.csv", *slices])

    def test_strict_mode_fails_on_cell_errors(self, capsys, tmp_path):
        code, out, err = run(
            capsys,
            "--out-dir", str(tmp_path),
            "heatmap", "--family", "geometric", "--kinds", "groiid,cond",
            "--n", "4", "--std-lo", "-0.2", "--std-hi", "0.5",
            "--out", "heat.csv", "--strict",
        )
        assert code == 1
        assert "outside mean space" in err

    def test_non_strict_tolerates_cell_errors(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            "--out-dir", str(tmp_path),
            "heatmap", "--family", "geometric", "--kinds", "groiid,cond",
            "--n", "4", "--std-lo", "-0.2", "--std-hi", "0.5",
            "--out", "heat.csv",
        )
        assert code == 0

    @pytest.mark.parametrize("command", [
        ["heatmap", "--family", "exponential", "--n", "3"],
        ["growth", "--family", "exponential", "--mu", "0.5,0.25"],
    ])
    def test_kinds_share_one_parser(self, capsys, tmp_path, command):
        # growth once died with a ValueError on the alias heatmap accepts
        code, _, _ = run(capsys, "--out-dir", str(tmp_path), *command,
                         "--kinds", "groiid,cond", "--out", "out.txt")
        assert code == 0
        with pytest.raises(SystemExit) as exc:
            run(capsys, "--out-dir", str(tmp_path), *command,
                "--kinds", "groid,cond")
        msg = str(exc.value)
        assert "'groid'" in msg and "gro_iid" in msg and "groiid" in msg

    @pytest.mark.parametrize("kinds", ["grom,cond", "cond,gro_m"])
    def test_gro_m_refused_before_any_cell(self, capsys, tmp_path, monkeypatch, kinds):
        cells = []
        monkeypatch.setattr(gr.Alternative, "from_means",
                            classmethod(lambda cls, spec, mus: cells.append(mus)))
        with pytest.raises(SystemExit, match="bound to one alternative"):
            run(capsys, "--out-dir", str(tmp_path), "heatmap", "--family",
                "exponential", "--kinds", kinds, "--n", "3")
        assert not cells
        assert not list(tmp_path.iterdir())


def write_stream(path):
    path.write_text("1,0.7\n2,0.4\n", encoding="utf-8")
    return str(path)


EXPO = ["--family", "exponential", "--mu", "0.5,0.25"]


@pytest.mark.parametrize("argv, names", [
    (["heatmap", "--family", "foo", "--kinds", "pseudo,cond"], "'foo'"),
    (["evaluate", "--family", "poisson", "--mu", "2,-1", "--block", "1,2"], "-1.0"),
    (["evaluate", *EXPO, "--fixed", '{"bogus": 1}', "--block", "1,2"], "'bogus'"),
    (["project", *EXPO, "--fixed", '{"bogus": 1}'], "'bogus'"),
    (["growth", "--family", "exponential", "--fixed", '{"bogus": 1}', "--mu", "1,2"],
     "'bogus'"),
    (["heatmap", "--family", "exponential", "--fixed", '{"bogus": 1}',
      "--kinds", "pseudo,cond"], "'bogus'"),
    (["simulate", *EXPO, "--fixed", '{"bogus": 1}'], "'bogus'"),
    # a NaN sigma2 was accepted, and the pseudo log e-value was NaN
    (["evaluate", "--family", "gaussian_mean", "--mu", "0.5,0.25", "--fixed",
      '{"sigma2": NaN}', "--block", "1,2"], "sigma2 must be positive and finite, got nan"),
    (["simulate", *EXPO, "--trials", "0"], "trials must be at least 1, got 0"),
    (["simulate", *EXPO, "--alpha", "2"], "got 2.0"),
    (["simulate", *EXPO, "--multiplicities", "0,1"], "got [0, 1]"),
    (["evaluate", *EXPO, "--stream", "STREAM", "--alpha", "2"], "got 2.0"),
    (["project", *EXPO, "--mu-lo", "-1"], "lo=-1.0"),
    (["project", *EXPO, "--max-iters", "0"], "max_iters must be at least 1, got 0"),
    (["heatmap", "--family", "exponential", "--kinds", "pseudo,cond", "--n", "0"],
     "n must be at least 2, got 0"),
    # bare NaN tokens in the JSON, exit 0, once
    (["growth", *EXPO, "--method", "mc", "--mc-n", "0"], "mc_n must be at least 2, got 0"),
    # a ComputationError: the certificate's quadrature fails at the grid's end
    (["project", "--family", "gaussian_variance", "--mu", "3.3333333333333335,1.25",
      "--max-iters", "2"], "not converged at mu0=6.666666666666667"),
    # refused when the statistic is built, before the block is read
    (["evaluate", "--family", "beta", "--fixed", '{"alpha": 2.5}',
      "--mu=-1,-0.5,-0.7", "--kind", "cond", "--block=-1,-0.5,-0.7"],
     "non-integer alpha=2.5 is only available for k = 2, not k = 3"),
    # the library refuses kinds other than two, naming them
    (["heatmap", "--family", "exponential", "--kinds", "pseudo"], "got ['pseudo']"),
    (["simulate", *EXPO, "--truth", "alt", "--null-mu", "0.3"],
     "null_mu=0.3 applies to truth='null' only"),
    # unreadable files once ended in a FileNotFoundError traceback
    (["evaluate", "--config", "MISSING", "--block", "1,2"], "No such file or directory"),
    (["evaluate", *EXPO, "--data", "MISSING"], "No such file or directory"),
    (["evaluate", *EXPO, "--stream", "MISSING"], "No such file or directory"),
    (["evaluate", *EXPO, "--kind", "gro_m", "--mixture", "MISSING", "--block", "1,2"],
     "No such file or directory"),
], ids=["unknown-family", "mean-outside", "fixed-evaluate", "fixed-project",
        "fixed-growth", "fixed-heatmap", "fixed-simulate", "fixed-nan-sigma2",
        "trials-0", "alpha-2", "multiplicity-0", "stream-alpha-2", "mu-lo-outside",
        "max-iters-0", "heatmap-n-0", "growth-mc-n-0", "quadrature-not-converged", "beta-cond-k3",
        "heatmap-one-kind", "null-mu-under-alt", "missing-config", "missing-data", "missing-stream",
        "missing-mixture"])
def test_input_errors_exit_with_one_line(tmp_path, argv, names):
    files = {"STREAM": lambda: write_stream(tmp_path / "s.csv"),
             "MISSING": lambda: str(tmp_path / "missing.csv")}
    argv = [files[a]() if a in files else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(["--out-dir", str(tmp_path)] + argv)
    msg = str(exc.value)
    assert msg.startswith(f"ksev {argv[0]}: ")
    assert names in msg and "\n" not in msg


CONFIG = {"family": "exponential", "mean_params": [0.5, 0.25]}
GAUSS = {"family": "gaussian_mean", "mean_params": [0.5, 0.25]}
HEATMAP = ["heatmap", "--family", "exponential", "--kinds", "pseudo,cond", "--n", "2"]


@pytest.mark.parametrize("config, argv, reason", [
    ({**CONFIG, "family": 3}, [], "family must be a string, got 3"),
    ({**CONFIG, "fixed_params": [1]}, [], "fixed_params must be a JSON object, got [1]"),
    ({**CONFIG, "fixed_params": [1]}, ["--fixed", "{}"],
     "fixed_params must be a JSON object, got [1]"),
    (CONFIG, ["--fixed", "[1]"], "--fixed must be a JSON object, got [1]"),
    (CONFIG, ["--fixed", "5"], "--fixed must be a JSON object, got 5"),
    (None, [*HEATMAP, "--fixed", "[1]"], "--fixed must be a JSON object, got [1]"),
    (None, [*HEATMAP, "--fixed", "5"], "--fixed must be a JSON object, got 5"),
    (GAUSS, ["--fixed", '{"sigma2": [1]}'], "sigma2 must be a number, got [1]"),
    (GAUSS, ["--fixed", '{"sigma2": "2"}'], "sigma2 must be a number, got '2'"),
    (None, ["heatmap", "--family", "gaussian_mean", "--kinds", "pseudo,cond",
            "--fixed", '{"sigma2": "2"}'], "sigma2 must be a number, got '2'"),
    ({**CONFIG, "mean_params": 5}, [], "mean_params must be a list of numbers, got 5"),
    ({**CONFIG, "mean_params": [0.5, [1]]}, [], "mean_params[1] must be a number, got [1]"),
    ({**CONFIG, "mean_params": "0.5"}, [],
     "mean_params must be a list of numbers, got '0.5'"),
    ({**CONFIG, "beta_means": 1}, [], "beta_means must be true or false, got 1"),
    ([CONFIG], ["--family", "exponential"],
     "--config CONFIG must be a JSON object, got [{'family': 'exponential', "
     "'mean_params': [0.5, 0.25]}]"),
], ids=["family-number", "fixed-list", "fixed-list-and-flag", "fixed-flag-list",
        "fixed-flag-number", "heatmap-fixed-list", "heatmap-fixed-number",
        "fixed-value-list", "fixed-value-string", "heatmap-fixed-value-string",
        "means-number", "means-nested", "means-string", "beta-means-number",
        "config-array"])
def test_config_of_wrong_type_exits_with_one_line(tmp_path, config, argv, reason):
    # these once ended in an AttributeError or TypeError traceback, or (a
    # string fixed value) were accepted
    path = tmp_path / "run.json"
    if config is not None:
        path.write_text(json.dumps(config), encoding="utf-8")
        argv = ["evaluate", "--config", str(path), "--block", "0.7,0.4", *argv]
    reason = reason.replace("CONFIG", str(path))
    with pytest.raises(SystemExit, match=f"^{re.escape(f'ksev {argv[0]}: {reason}')}$"):
        main(["--out-dir", str(tmp_path)] + argv)
    assert not path.with_name("heatmap_exponential.csv").exists()


def test_config_of_wrong_type_exits_with_one_line_in_a_subprocess(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**CONFIG, "family": 3}), encoding="utf-8")
    src = str(Path(ripr.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "ksample_evalues.cli", "evaluate",
                           "--config", str(path), "--block", "0.7,0.4"],
                          cwd=src, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "ksev evaluate: family must be a string, got 3\n"


def run_ksev(*argv):
    src = str(Path(ripr.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "ksample_evalues.cli", *argv],
                          cwd=src, capture_output=True, text=True, timeout=120)


def test_unknown_config_key_exits_with_one_line(tmp_path):
    # alpha belongs under fixed_params: the run once went ahead at alpha = 1
    # and reported "alpha": 2.0 in its config
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"family": "beta_fixed_alpha", "alpha": 2.0,
                                "mean_params": [-1.0, -0.5]}), encoding="utf-8")
    proc = run_ksev("growth", "--config", str(path), "--kinds", "pseudo")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "ksev growth: config has unknown key(s) 'alpha'\n"


@pytest.mark.parametrize("argv, stderr", [
    (["evaluate", "--block", "1,0"], "ksev evaluate: config needs 'family' and "
     "'mean_params', missing 'family' and 'mean_params'\n"),
    (["evaluate", *EXPO[:2], "--mu", "1", "--block", "1,0"],
     "ksev evaluate: mean_params needs at least two group means, got [1.0]\n"),
], ids=["no-family", "one-mean"])
def test_incomplete_config_exits_with_one_line(argv, stderr):
    # once a three-line "invalid configuration:" block with no ksev prefix
    proc = run_ksev(*argv)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == stderr


@pytest.mark.parametrize("argv, flag, text", [
    (["simulate", *EXPO, "--multiplicities", "1.5,1"], "--multiplicities", "1.5,1"),
    (["simulate", *EXPO, "--multiplicities", "2,x"], "--multiplicities", "2,x"),
    (["evaluate", *EXPO, "--stream", "STREAM", "--multiplicities", "1,"],
     "--multiplicities", "1,"),
    ([*HEATMAP, "--slices", "s.csv", "--slice-offsets", "0,0.5"],
     "--slice-offsets", "0,0.5"),
], ids=["multiplicity-float", "multiplicity-word", "stream-multiplicity-empty",
        "slice-offset-float"])
def test_integer_list_flag_named(tmp_path, argv, flag, text):
    # once "invalid literal for int() with base 10: '1.5'", naming no flag
    argv = [write_stream(tmp_path / "s.csv") if a == "STREAM" else a for a in argv]
    reason = f"ksev {argv[0]}: {flag} must be comma-separated integers, got {text!r}"
    with pytest.raises(SystemExit, match=f"^{re.escape(reason)}$"):
        main(["--out-dir", str(tmp_path)] + argv)
    assert not (tmp_path / "heatmap_exponential.csv").exists()


@pytest.mark.parametrize("argv, flag, text", [
    (["evaluate", "--family", "poisson", "--mu", "1,x", "--block", "1,2"],
     "--mu", "1,x"),
    (["evaluate", "--family", "poisson", "--mu", "1,2", "--block", "1,y"],
     "--block", "1,y"),
    (["simulate", *EXPO[:3], "0.5;0.25", "--trials", "1"], "--mu", "0.5;0.25"),
], ids=["mu-word", "block-word", "simulate-mu-semicolon"])
def test_float_list_flag_named(tmp_path, argv, flag, text):
    # once "could not convert string to float: 'x'", naming no flag
    reason = f"ksev {argv[0]}: {flag} must be comma- or space-separated numbers, got {text!r}"
    with pytest.raises(SystemExit, match=f"^{re.escape(reason)}$"):
        main(["--out-dir", str(tmp_path)] + argv)
    proc = run_ksev("--out-dir", str(tmp_path), *argv)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == reason + "\n"


def test_unparseable_data_line_named_by_path_and_line(tmp_path):
    data = tmp_path / "blocks.csv"
    data.write_text("0.7,0.4\n0.1,x\n", encoding="utf-8")
    reason = f"{data}:2: a block must be comma- or space-separated numbers, got '0.1,x'"
    with pytest.raises(SystemExit, match=f"^{re.escape(reason)}$"):
        main(["evaluate", *EXPO, "--data", str(data)])


@pytest.mark.parametrize("argv, reason", [
    (["--stream", "STREAM", "--block", "9,9"], "--block is not read in --stream mode"),
    (["--stream", "STREAM", "--data", "MISSING"], "--data is not read in --stream mode"),
    (["--block", "0.7,0.4", "--multiplicities", "2,1"],
     "--multiplicities is read in --stream mode only"),
    (["--data", "MISSING", "--multiplicities", "2,1"],
     "--multiplicities is read in --stream mode only"),
], ids=["block-with-stream", "data-with-stream", "multiplicities-with-block",
        "multiplicities-with-data"])
def test_evaluate_refuses_flags_of_the_other_mode(tmp_path, argv, reason):
    # the stream alone was reported, or the multiplicities went unused, exit 0
    files = {"STREAM": lambda: write_stream(tmp_path / "s.csv"),
             "MISSING": lambda: str(tmp_path / "missing.csv")}
    argv = [files[a]() if a in files else a for a in argv]
    with pytest.raises(SystemExit, match=f"^{re.escape(f'ksev evaluate: {reason}')}$"):
        main(["--out-dir", str(tmp_path), "evaluate", *EXPO, *argv])


@pytest.mark.parametrize("flag", ["--config", "--mixture"])
def test_file_that_is_no_json_named(tmp_path, flag):
    # both once ended in "ksev evaluate: Expecting value: line 1 column 1
    # (char 0)", naming no file
    bad = tmp_path / "bad.json"
    bad.write_text("not json", encoding="utf-8")
    decode = "Expecting value: line 1 column 1 (char 0)"
    reason = (f"ksev evaluate: --config {bad}: {decode}" if flag == "--config"
              else f"{bad}: {decode}")
    with pytest.raises(SystemExit, match=f"^{re.escape(reason)}$"):
        main(["evaluate", *EXPO, "--kind", "gro_m", "--block", "0.7,0.4", flag, str(bad)])


@pytest.mark.parametrize("argv", [["--data"], ["--stream"],
                                  ["--block", "0.7,0.4", "--config"]],
                         ids=["data", "stream", "config"])
def test_file_that_is_no_utf8_named(tmp_path, argv):
    # each once ended in "ksev evaluate: 'utf-8' codec can't decode byte
    # 0xff ...", naming neither the flag nor the file
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\xff\xfe0.7,0.4\n")
    decode = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    reason = f"ksev evaluate: {argv[-1]} {bad}: {decode}"
    with pytest.raises(SystemExit, match=f"^{re.escape(reason)}$"):
        main(["evaluate", *EXPO, *argv, str(bad)])


def test_hand_built_certificate_reaches_every_consumer(capsys, tmp_path):
    # a certificate c = 1.25 that no search gives, so each consumer shows
    # the statistic's own certificate
    spec = make_family("exponential")
    alt = Alternative.from_means(spec, [0.5, 0.25])
    cert = ripr.Certificate(1.25, 1, 0.375, 0.375, "by hand", 0.375)
    mix = ripr.MixtureNull(((1.0, 0.375),), cert, spec.to_config(alt.mu))
    want = cert.to_dict()
    assert ev.log_evalue(spec, alt, [0.7, 0.4], "gro_m", mix).certificate == want
    path = tmp_path / "mix.json"
    path.write_text(canonical_json(mix.to_json_dict()), encoding="utf-8")
    data = tmp_path / "blocks.csv"
    data.write_text("0.7,0.4\n0.1,1.5\n2.5,0.01\n", encoding="utf-8")
    code, out, _ = run(capsys, "evaluate", *EXPO, "--kind", "gro_m", "--data",
                       str(data), "--mixture", str(path))
    rows = json.loads(out)["results"]
    assert code == 0 and [row["certificate"] for row in rows] == [want] * 3
    caveat = {"certified_sup_expectation": 1.25, "blocks": 2,
              "type1_bound_factor": 1.5625}
    st = sq.StreamState(spec, alt, "gro_m", 0.05, mixture=mix)
    st.ingest_block([0.7, 0.4]).ingest_block([0.1, 1.5])
    assert st.validity_caveat() == caveat
    stream = tmp_path / "s.csv"
    stream.write_text("1,0.7\n2,0.4\n1,0.1\n2,1.5\n", encoding="utf-8")
    code, out, _ = run(capsys, "evaluate", *EXPO, "--kind", "gro_m", "--stream",
                       str(stream), "--mixture", str(path))
    assert code == 0 and json.loads(out)["validity_caveat"] == caveat
    # a statistic of another kind drops the mixture, and its certificate
    cond = sq.StreamState(spec, alt, "cond", 0.05, mixture=mix)
    assert cond.ingest_block([0.7, 0.4]).validity_caveat() is None
    assert ev.log_evalue(spec, alt, [0.7, 0.4], "cond", mix).certificate is None


class TestSimulate:
    def test_summary_and_trace(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "--out-dir", str(tmp_path),
            "simulate", "--family", "bernoulli", "--mu", "0.5,0.25",
            "--kind", "cond", "--alpha", "0.05", "--policy", "threshold",
            "--trials", "200", "--seed", "7", "--max-blocks", "40",
            "--trace", "trace.csv",
        )
        payload = json.loads(out)
        assert payload["trials"] == 200
        assert payload["rejection_rate"] <= 0.05 + 3 * payload["rejection_stderr"]
        lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
        assert lines[0] == "trial,stopped_at,rejected,final_log_evalue"
        assert len(lines) == 201

    def test_seed_reproducibility_byte_identical(self, capsys):
        argv = [
            "simulate", "--family", "gaussian_mean", "--mu", "0.4,-0.4",
            "--kind", "gro_iid", "--trials", "100", "--seed", "3",
            "--max-blocks", "30",
        ]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2


class TestConfigRoundTrip:
    def test_canonical_json_fixed_point(self):
        cfg = {
            "family": "gaussian_mean",
            "fixed_params": {"sigma2": 2.0},
            "mean_params": [0.5, -0.25],
        }
        emitted = canonical_json(cfg)
        reparsed = canonical_json(json.loads(emitted))
        assert emitted == reparsed
        assert canonical_json(json.loads(reparsed)) == reparsed

    def test_report_config_roundtrip(self, capsys, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(
            canonical_json(
                {"family": "exponential", "mean_params": [0.5, 0.25]}
            ),
            encoding="utf-8",
        )
        code, out, _ = run(
            capsys,
            "evaluate", "--config", str(cfg_path), "--kind", "pseudo",
            "--block", "0.7,0.4",
        )
        payload = json.loads(out)
        assert canonical_json(payload["config"]) == cfg_path.read_text()
