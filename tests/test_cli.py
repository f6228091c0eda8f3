import json

import pytest

from ksample_evalues import Alternative, make_family
from ksample_evalues import evariables as ev
from ksample_evalues import growth as gr
from ksample_evalues import ripr
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

    def test_stream_mode_bad_line(self, tmp_path):
        stream = tmp_path / "stream.csv"
        stream.write_text("1,1\n5,0\n", encoding="utf-8")
        with pytest.raises(SystemExit, match=":2"):
            main([
                "evaluate", "--family", "bernoulli", "--mu", "0.5,0.25",
                "--stream", str(stream),
            ])


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
    """A one-component mixture file as 'ksev project' lays it out."""
    spec = make_family(family, **(fixed or {}))
    mus = [spec.mean_from_beta_mean(m) for m in means] if beta_means else means
    alt = Alternative.from_means(spec, mus)
    cert = ripr.Certificate(1.0, 1000, min(mus), max(mus), "point", alt.mu0_star)
    payload = ripr.MixtureNull(((1.0, alt.mu0_star),), cert).to_json_dict()
    if config:
        payload["config"] = {"family": family, "fixed_params": fixed or {},
                             "mean_params": list(means)}
        if beta_means:
            payload["config"]["beta_means"] = True
    path.write_text(canonical_json(payload), encoding="utf-8")
    return str(path)


class TestMixtureConfig:
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
        mix = write_mixture(tmp_path / "mix.json", "exponential", [0.5, 0.25],
                            config=False)
        if config is not None:
            payload = json.loads((tmp_path / "mix.json").read_text())
            payload["config"] = config
            (tmp_path / "mix.json").write_text(json.dumps(payload))
        with pytest.raises(SystemExit, match="no 'config'"):
            main(["evaluate", "--family", "exponential", "--mu", "0.5,0.25",
                  "--kind", "gro_m", "--block", "0.7,0.4", "--mixture", mix])

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
    def test_cell_count(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "--out-dir", str(tmp_path),
            "heatmap", "--family", "beta", "--kinds", "groiid,cond",
            "--n", "5", "--out", "heat.csv", "--slices", "slices.csv",
        )
        assert code == 0
        lines = (tmp_path / "heat.csv").read_text().strip().splitlines()
        assert lines[0] == "mu1,mu2,gap,gap_fourth_root"
        assert len(lines) == 26  # header + 25 cells
        assert (tmp_path / "slices.csv").exists()

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
        "heatmap-one-kind", "missing-config", "missing-data", "missing-stream",
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
