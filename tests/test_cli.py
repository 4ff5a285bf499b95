import os
import re
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dpsynth
from dpsynth import Dataset, ProductDistribution, core, optimize
from dpsynth.cli import EXIT_GATE, EXIT_OK, EXIT_USAGE, build_parser, main


@pytest.fixture
def data_file(tmp_path):
    rng = np.random.default_rng(123)
    data = Dataset((2,) * 5, rng.integers(0, 2, size=(300, 5)))
    path = tmp_path / "data.txt"
    path.write_bytes(data.to_text())
    return path


@pytest.fixture
def two_point_nu_file(tmp_path):
    path = tmp_path / "nu.txt"
    path.write_text("explicit 2\n0;0.75\n1;0.25\n")
    return path


def generate_argv(data, out, report, seed="7"):
    return [
        "generate",
        "--data", str(data),
        "--queries", "marginals monotone d=1",
        "--mu", "uniform",
        "--delta", "0.25",
        "--gamma", "0.1",
        "--k", "120",
        "--m", "100",
        "--seed", seed,
        "--out", str(out),
        "--report", str(report),
    ]


def run_generate(data_file, tmp_path, extra=(), seed="7"):
    out = tmp_path / "synthetic.txt"
    report = tmp_path / "report.txt"
    code = main([*generate_argv(data_file, out, report, seed), *extra])
    return code, out, report


def run_in_child(argv, **kwargs):
    """``python -m dpsynth.cli`` on argv in a child process, importing this package."""
    env = {**os.environ, "PYTHONPATH": str(Path(dpsynth.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "dpsynth.cli", *argv], env=env, capture_output=True, **kwargs
    )


class TestGenerateCommand:
    def test_end_to_end(self, data_file, tmp_path):
        code, out, report = run_generate(data_file, tmp_path)
        assert code == EXIT_OK
        synthetic = Dataset.from_text(out.read_bytes())
        assert synthetic.schema == (2,) * 5
        assert len(synthetic) == 120
        text = report.read_text()
        assert "config_seed = 7" in text
        assert "sigma = " in text
        assert "lp_status = optimal" in text

    def test_reruns_are_byte_identical(self, data_file, tmp_path):
        _, out1, report1 = run_generate(data_file, tmp_path)
        first = (out1.read_bytes(), report1.read_bytes())
        _, out2, report2 = run_generate(data_file, tmp_path)
        assert (out2.read_bytes(), report2.read_bytes()) == first

    def test_seed_changes_the_output(self, data_file, tmp_path):
        _, out1, _ = run_generate(data_file, tmp_path, seed="7")
        first = out1.read_bytes()
        _, out2, _ = run_generate(data_file, tmp_path, seed="8")
        assert out2.read_bytes() != first

    def test_epsilon_gate_exit_code(self, data_file, tmp_path, capsys):
        code, _, _ = run_generate(data_file, tmp_path, extra=["--epsilon", "0.05"])
        assert code == EXIT_GATE
        assert "needs n >=" in capsys.readouterr().err

    def test_iteration_limit_exit_code(self, data_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(optimize, "MAX_ITERATIONS", 0)
        code, out, _ = run_generate(data_file, tmp_path)
        assert code == EXIT_GATE
        err = capsys.readouterr().err
        assert err == "error: min-max fit stopped: iteration-limit after 0 iterations\n"
        assert not out.exists()

    def test_singular_normal_matrix_exit_code(self, data_file, tmp_path, capsys, monkeypatch):
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        code, out, _ = run_generate(data_file, tmp_path)
        assert code == EXIT_GATE
        err = capsys.readouterr().err
        assert err == "error: normal matrix is singular; inputs are malformed\n"
        assert not out.exists()

    def test_allow_privacy_failure_overrides_gate(self, data_file, tmp_path):
        code, out, report = run_generate(
            data_file, tmp_path,
            extra=["--epsilon", "0.05", "--allow-privacy-failure"],
        )
        assert code == EXIT_OK
        assert "privacy_passed = false" in report.read_text()
        assert len(Dataset.from_text(out.read_bytes())) == 120

    def test_missing_required_flag(self, tmp_path, capsys):
        code = main(["generate", "--queries", "marginals monotone d=1"])
        assert code == EXIT_USAGE
        assert "usage" in capsys.readouterr().err

    def test_nonexistent_data_file(self, tmp_path, capsys):
        code, _, _ = run_generate(tmp_path / "missing.txt", tmp_path)
        assert code == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_lone_carriage_return_is_rejected_as_in_the_library(self, tmp_path, capsys):
        data = tmp_path / "lone_cr.txt"
        data.write_bytes(b"2,2\n0,1\r1,0\n1,1\n")
        code, _, _ = run_generate(data, tmp_path)
        assert code == EXIT_USAGE
        assert "line 2:" in capsys.readouterr().err

    def test_undecodable_byte_is_one_error_line(self, tmp_path, capsys):
        data = tmp_path / "ff.txt"
        data.write_bytes(b"2,2\n0,1\n\xff,0\n")
        code, out, _ = run_generate(data, tmp_path)
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err == "error: line 3: expected comma-separated category indices\n"
        assert not out.exists()

    def test_crlf_data_file_is_accepted(self, data_file, tmp_path):
        crlf = tmp_path / "crlf.txt"
        crlf.write_bytes(data_file.read_bytes().replace(b"\n", b"\r\n"))
        code, out, _ = run_generate(crlf, tmp_path)
        assert code == EXIT_OK
        assert len(Dataset.from_text(out.read_bytes())) == 120

    def test_data_may_be_a_pipe(self, data_file, tmp_path):
        code, out, _ = run_generate(data_file, tmp_path)
        argv = generate_argv("/dev/stdin", tmp_path / "piped.txt", tmp_path / "report.txt")
        done = run_in_child(argv, input=data_file.read_bytes())
        assert (code, done.returncode, done.stderr) == (EXIT_OK, EXIT_OK, b"")
        assert (tmp_path / "piped.txt").read_bytes() == out.read_bytes()

    def test_empty_data_file_is_one_error_line(self, tmp_path):
        data = tmp_path / "empty.txt"
        data.write_bytes(b"")
        done = run_in_child(generate_argv(data, tmp_path / "out.txt", tmp_path / "report.txt"))
        assert done.returncode == EXIT_USAGE
        assert done.stderr == b"error: line 1: expected comma-separated arities\n"
        assert not (tmp_path / "out.txt").exists()

    def test_bad_cell_in_a_late_block_names_its_line(self, tmp_path, capsys):
        rows = np.random.default_rng(5).integers(0, 2, size=(150_000, 5))
        text = bytearray(Dataset((2,) * 5, rows).to_text())  # 1.5 MB: two parse blocks
        text[10 + 140_000 * 10 + 4] = ord("x")  # in the second: line 140,002, third cell
        data = tmp_path / "late.txt"
        data.write_bytes(text)
        code, out, _ = run_generate(data, tmp_path)
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: line 140002: expected comma-separated category indices\n"
        )
        assert not out.exists()

    def test_out_may_name_the_data_file(self, data_file, tmp_path):
        code, out, _ = run_generate(data_file, tmp_path)
        same = tmp_path / "same.txt"
        same.write_bytes(data_file.read_bytes())
        argv = generate_argv(same, same, tmp_path / "report.txt")
        assert (code, main(argv)) == (EXIT_OK, EXIT_OK)
        assert same.read_bytes() == out.read_bytes()

    def test_bad_query_spec(self, data_file, tmp_path, capsys):
        out = tmp_path / "o.txt"
        code = main([
            "generate", "--data", str(data_file), "--queries", "margnals d=1",
            "--mu", "uniform", "--delta", "0.2", "--gamma", "0.1",
            "--k", "10", "--m", "10", "--seed", "1", "--out", str(out),
        ])
        assert code == EXIT_USAGE
        assert "line 1" in capsys.readouterr().err

    def test_report_defaults_to_stdout(self, data_file, tmp_path, capsys):
        out = tmp_path / "synthetic.txt"
        code = main([
            "generate", "--data", str(data_file),
            "--queries", "marginals monotone d=1", "--mu", "uniform",
            "--delta", "0.25", "--gamma", "0.1", "--k", "50", "--m", "80",
            "--seed", "3", "--out", str(out),
        ])
        assert code == EXIT_OK
        captured = capsys.readouterr().out
        assert "config_data = " in captured
        assert "lp_objective = " in captured


JUNK = b"#" * (1 << 20)


@pytest.fixture
def release(data_file, tmp_path):
    """The --out bytes of a run into a file that did not exist."""
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    code, out, _ = run_generate(data_file, fresh)
    assert code == EXIT_OK
    return out.read_bytes()


class TestOutputFilesAreRewrittenInPlace:
    def test_longer_old_files_are_cut_to_the_new_bytes(self, data_file, tmp_path):
        _, out, report = run_generate(data_file, tmp_path)
        first = (out.read_bytes(), report.read_bytes())
        for path, text in zip((out, report), first):
            path.write_bytes(text + JUNK)
        assert run_generate(data_file, tmp_path)[0] == EXIT_OK
        assert (out.read_bytes(), report.read_bytes()) == first

    def test_symlinked_out_is_written_through(self, data_file, tmp_path, release):
        target, link = tmp_path / "target.txt", tmp_path / "link.txt"
        target.write_bytes(JUNK)
        link.symlink_to(target)
        assert main(generate_argv(data_file, link, tmp_path / "report.txt")) == EXIT_OK
        assert link.is_symlink()
        assert target.read_bytes() == release

    def test_hard_link_to_out_sees_the_release(self, data_file, tmp_path, release):
        out, other = tmp_path / "synthetic.txt", tmp_path / "other.txt"
        out.write_bytes(JUNK)
        os.link(out, other)
        assert main(generate_argv(data_file, out, tmp_path / "report.txt")) == EXIT_OK
        assert other.read_bytes() == release

    def test_out_keeps_its_mode(self, data_file, tmp_path):
        out = tmp_path / "synthetic.txt"
        out.write_bytes(JUNK)
        out.chmod(0o640)
        assert main(generate_argv(data_file, out, tmp_path / "report.txt")) == EXIT_OK
        assert out.stat().st_mode & 0o777 == 0o640

    def test_out_may_be_a_device(self, data_file, tmp_path):
        report = tmp_path / "report.txt"
        assert main(generate_argv(data_file, "/dev/null", report)) == EXIT_OK
        assert "config_out = /dev/null\n" in report.read_text()

    def test_out_that_is_a_directory_is_one_error_line(self, data_file, tmp_path, capsys):
        out, report = tmp_path / "adir", tmp_path / "report.txt"
        out.mkdir()
        assert main(generate_argv(data_file, out, report)) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{out}'\n"
        assert not report.exists()

    def test_failed_write_leaves_only_the_prefix_handed_over(
        self, data_file, tmp_path, capsys, monkeypatch, release
    ):
        handed = []
        text_blocks = Dataset._text_blocks

        def fail_after_one_block(self):
            blocks = text_blocks(self)
            for piece in (next(blocks), next(blocks)):  # the arity line, then 10 rows
                handed.append(bytes(piece))
                yield piece
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(core, "_TEXT_BLOCK", 50)
        monkeypatch.setattr(Dataset, "_text_blocks", fail_after_one_block)
        out, report = tmp_path / "synthetic.txt", tmp_path / "report.txt"
        out.write_bytes(JUNK)
        assert main(generate_argv(data_file, out, report)) == EXIT_USAGE
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
        assert out.read_bytes() == b"".join(handed)
        assert len(out.read_bytes()) < len(release)
        assert not report.exists()

    def test_write_the_system_refuses_leaves_only_the_prefix_written(
        self, data_file, tmp_path, release
    ):
        """A file size limit of 600 bytes makes the write itself fail part-way."""
        out, report = tmp_path / "synthetic.txt", tmp_path / "report.txt"
        out.write_bytes(JUNK)
        done = run_in_child(
            generate_argv(data_file, out, report),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (600, 600)),
        )
        assert done.returncode == EXIT_USAGE
        assert done.stderr == b"error: [Errno 27] File too large\n"
        assert out.read_bytes() == release[:600]
        assert not report.exists()


class TestAuditCommands:
    def test_lemma3_passes_at_threshold(self, tmp_path):
        report = tmp_path / "lemma3.txt"
        code = main([
            "audit", "lemma3", "--nu", "uniform 2,2,2,2",
            "--queries", "marginals monotone d=1", "--n", "98",
            "--delta", "0.2", "--gamma", "0.1", "--trials", "200",
            "--seed", "11", "--report", str(report),
        ])
        assert code == EXIT_OK
        text = report.read_text()
        assert "lemma3_passed = true" in text
        assert "lemma3_threshold_n = " in text
        assert "config_n = 98" in text

    def test_lemma3_below_threshold_still_reports(self, tmp_path, capsys):
        # advisory contract: the check runs and reports even when n is far too
        # small for the bound; the exit code then signals the gate outcome
        code = main([
            "audit", "lemma3", "--nu", "uniform 2,2,2,2",
            "--queries", "marginals monotone d=1", "--n", "4",
            "--delta", "0.2", "--gamma", "0.1", "--trials", "100",
            "--seed", "12",
        ])
        captured = capsys.readouterr().out
        assert code in (EXIT_OK, EXIT_GATE)
        assert "lemma3_threshold_n = " in captured

    def test_lemma4_two_point_example(self, tmp_path, two_point_nu_file):
        report = tmp_path / "lemma4.txt"
        code = main([
            "audit", "lemma4", "--nu", str(two_point_nu_file),
            "--mu", "uniform 2",
            "--queries", "indicator S=1 values=0", "--m", "625",
            "--delta", "0.2", "--gamma", "0.1", "--trials", "150",
            "--seed", "13", "--report", str(report),
        ])
        assert code == EXIT_OK
        text = report.read_text()
        assert "lemma4_passed = true" in text
        assert "mean_r = " in text

    def test_lemma4_takes_uniform_from_the_population(self, two_point_nu_file, capsys):
        reports = []
        for mu in ("uniform", "uniform 2"):
            code = main([
                "audit", "lemma4", "--nu", str(two_point_nu_file), "--mu", mu,
                "--queries", "indicator S=1 values=0", "--m", "100",
                "--delta", "0.2", "--gamma", "0.1", "--trials", "20", "--seed", "13",
            ])
            captured = capsys.readouterr()
            assert (code, captured.err) == (EXIT_OK, "")
            reports.append([ln for ln in captured.out.splitlines() if not ln.startswith("config_")])
        assert reports[0] == reports[1]
        assert "lemma4_passed = true" in reports[0]

    def test_dp_same_dataset(self, tmp_path, capsys):
        d1 = tmp_path / "d1.txt"
        d1.write_text("2\n0\n0\n0\n0\n0\n1\n1\n1\n1\n1\n")
        # the CLI auto-adds the constant, so the histogram is 2-dimensional;
        # keep the per-cell counts high enough for a quiet ratio estimate
        code = main([
            "audit", "dp", "--queries", "indicator S=1 values=1",
            "--sigma", "0.2", "--d1", str(d1), "--d2", str(d1),
            "--trials", "200000", "--bins", "4", "--seed", "14",
        ])
        assert code == EXIT_OK
        captured = capsys.readouterr().out
        assert "dp_passed = true" in captured

    def test_dp_rejects_non_neighbors(self, tmp_path, capsys):
        d1 = tmp_path / "d1.txt"
        d1.write_text("2\n0\n0\n")
        d2 = tmp_path / "d2.txt"
        d2.write_text("2\n1\n1\n1\n1\n")
        code = main([
            "audit", "dp", "--queries", "indicator S=1 values=1",
            "--sigma", "0.2", "--d1", str(d1), "--d2", str(d2),
            "--trials", "100", "--bins", "4", "--seed", "15",
        ])
        assert code == EXIT_USAGE
        assert "not add-one neighbors" in capsys.readouterr().err

    def test_dp_rejects_more_cells_than_observations(self, tmp_path, capsys):
        d1 = tmp_path / "d1.txt"
        d1.write_text("2,2\n0,1\n1,0\n")
        # |F| = 3 with the constant: 3e6**3 cells for 2,000 observations
        code = main([
            "audit", "dp", "--queries", "indicator S=1 values=1\nindicator S=2 values=1",
            "--sigma", "0.2", "--d1", str(d1), "--d2", str(d1),
            "--trials", "1000", "--bins", "3000000", "--seed", "15",
        ])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "bins**|F| <= 2*trials" in err

    def test_dp_rejects_noise_that_overflows(self, tmp_path, capsys):
        d1 = tmp_path / "d1.txt"
        d1.write_text("2\n0\n0\n0\n")
        d2 = tmp_path / "d2.txt"
        d2.write_text("2\n0\n0\n0\n1\n")
        # Draws past float max leave bin edges that are infinite or NaN.
        with np.errstate(over="ignore", invalid="ignore"):
            code = main([
                "audit", "dp", "--queries", "indicator S=1 values=1",
                "--sigma", "1.7e308", "--d1", str(d1), "--d2", str(d2),
                "--trials", "100000", "--bins", "40", "--seed", "3",
            ])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err == "error: sigma is too large: the noisy statistics overflow to infinity\n"

    def test_dp_rejects_a_lone_carriage_return(self, tmp_path, capsys):
        d1 = tmp_path / "d1.txt"
        d1.write_bytes(b"2\n0\r0\n")
        code = main([
            "audit", "dp", "--queries", "indicator S=1 values=1",
            "--sigma", "0.2", "--d1", str(d1), "--d2", str(d1),
            "--trials", "100", "--bins", "4", "--seed", "15",
        ])
        assert code == EXIT_USAGE
        assert "line 2:" in capsys.readouterr().err

    def test_corollary_small(self, tmp_path):
        report = tmp_path / "corollary.txt"
        code = main([
            "audit", "corollary", "--p", "4", "--d", "1", "--n", "120",
            "--k", "120", "--m", "150", "--delta", "0.25", "--gamma", "0.1",
            "--trials", "3", "--seed", "16", "--report", str(report),
        ])
        assert code == EXIT_OK
        text = report.read_text()
        assert "corollary_pass = true" in text
        assert "errors = " in text

    def test_unknown_subcommand(self, capsys):
        assert main(["audit", "everything"]) == EXIT_USAGE


class TestKappaCommand:
    def test_identical_distributions(self, capsys):
        code = main(["kappa", "--nu", "uniform 2,2", "--mu", "uniform 2,2"])
        assert code == EXIT_OK
        assert capsys.readouterr().out == "1.000000000\n"

    def test_two_point_example(self, capsys, two_point_nu_file):
        code = main(["kappa", "--nu", str(two_point_nu_file), "--mu", "uniform 2"])
        assert code == EXIT_OK
        assert capsys.readouterr().out == "1.250000000\n"

    def test_mc_and_seed_are_unrecognized(self, capsys, two_point_nu_file):
        code = main([
            "kappa", "--nu", str(two_point_nu_file), "--mu", "uniform 2",
            "--mc", "100", "--seed", "1",
        ])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_USAGE, "")
        assert captured.err.endswith("error: unrecognized arguments: --mc 100 --seed 1\n")

    @pytest.mark.parametrize("nu, mu", [("uniform 2,2,2", "uniform 2,2"),
                                        ("uniform 2,2", "uniform 2,2,2")])
    def test_monte_carlo_schema_mismatch(self, nu, mu, capsys):
        code = main(["kappa", "--nu", nu, "--mu", mu])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err == "error: distributions must share a schema\n"

    def test_bare_uniform_needs_a_schema(self, capsys):
        # kappa reads no dataset, so a bare 'uniform' --nu has nothing to copy a schema from
        code = main(["kappa", "--nu", "uniform", "--mu", "uniform 2"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_USAGE, "")
        assert captured.err == "error: 'uniform' needs a dataset to take its schema from\n"

    @pytest.mark.parametrize(
        "nu, message",
        [
            ("uniform 0", "coordinate arities must be >= 1"),
            # A sign is not part of the dataset's cell grammar.
            ("uniform -1", "arities must be comma-separated integers"),
            ("uniform 2,0", "coordinate arities must be >= 1"),
        ],
        ids=["uniform 0", "uniform -1", "uniform 2,0"],
    )
    def test_arities_below_one_are_one_error_line(self, nu, message, capsys):
        code = main(["kappa", "--nu", nu, "--mu", "uniform 2"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err == f"error: line 1: {message}\n"

    def test_domination_failure(self, capsys, tmp_path):
        nu = tmp_path / "nu.txt"
        nu.write_text("explicit 2\n0;0.5\n1;0.5\n")
        mu = tmp_path / "mu.txt"
        mu.write_text("explicit 2\n0;1.0\n")
        code = main(["kappa", "--nu", str(nu), "--mu", str(mu)])
        assert code == EXIT_USAGE
        assert "nu not dominated by mu" in capsys.readouterr().err


    @pytest.fixture
    def wide_pair(self, tmp_path):
        """A 24-coordinate product nu whose support is the eight points on
        its last three coordinates, and the uniform explicit mu on them."""
        nu = tmp_path / "nu.txt"
        nu.write_text("product\n" + "1,0\n" * 21 + "0.5,0.5\n" * 3)
        points = ["0," * 21 + f"{i >> 2},{i >> 1 & 1},{i & 1};0.125\n" for i in range(8)]
        mu = tmp_path / "mu.txt"
        mu.write_text("explicit " + ",".join(["2"] * 24) + "\n" + "".join(points))
        return str(nu), str(mu)

    def test_wide_product_against_explicit(self, wide_pair, capsys):
        nu, mu = wide_pair
        code = main(["kappa", "--nu", nu, "--mu", mu])
        assert (code, capsys.readouterr()) == (EXIT_OK, ("1.000000000\n", ""))
        code = main([
            "audit", "lemma4", "--nu", nu, "--mu", mu,
            "--queries", "indicator S=24 values=1", "--m", "625",
            "--delta", "0.2", "--gamma", "0.1", "--trials", "20", "--seed", "13",
        ])
        captured = capsys.readouterr()
        assert (code, captured.err) == (EXIT_OK, "")
        assert "lemma4_passed = true" in captured.out

    def test_spec_file_lines_end_as_inline_lines(self, tmp_path, capsys):
        text = "explicit 2\r0;1\n"
        nu = tmp_path / "nu.txt"
        nu.write_bytes(text.encode())
        errors = []
        for source in (text, str(nu)):
            assert main(["kappa", "--nu", source, "--mu", "uniform 2"]) == EXIT_USAGE
            errors.append(capsys.readouterr().err)
        assert errors == ["error: line 1: arities must be comma-separated integers\n"] * 2

    def test_spec_file_is_read_as_utf8_under_any_locale(self, tmp_path):
        nu = tmp_path / "nu.txt"
        nu.write_bytes("uniform 2  # caf\u00e9\n".encode())
        env = {**os.environ, "LC_ALL": "C", "PYTHONPATH": str(Path(dpsynth.__file__).parents[1])}
        argv = ["kappa", "--nu", str(nu), "--mu", "uniform"]
        done = subprocess.run(
            [sys.executable, "-X", "utf8=0", "-m", "dpsynth.cli", *argv],
            env=env, capture_output=True, text=True,
        )
        assert (done.returncode, done.stdout, done.stderr) == (EXIT_OK, "1.000000000\n", "")

    def test_spec_file_that_is_not_utf8_names_its_line(self, tmp_path, capsys):
        nu = tmp_path / "nu.txt"
        nu.write_bytes(b"uniform 2\n# \xff\n")
        assert main(["kappa", "--nu", str(nu), "--mu", "uniform 2"]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: line 2: spec files must be UTF-8 text\n"


class TestTopLevel:
    def test_no_arguments(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_readme_commands_parse(self):
        """Every ``dpsynth`` command in the README's sh blocks names only
        options that its subcommand declares."""
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
        commands = [
            shlex.split(command, comments=True)
            for block in blocks
            for command in block.replace("\\\n", " ").splitlines()
            if command.startswith("dpsynth ")
        ]
        parser = build_parser()
        handlers = {parser.parse_args(argv[1:]).func for argv in commands}
        assert len(handlers) == 6  # one example at least for each subcommand

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE


NON_FINITE_BASE = {
    "generate": [
        "generate", "--data", "{data}", "--queries", "marginals monotone d=1",
        "--mu", "uniform", "--delta", "0.25", "--gamma", "0.1", "--k", "120",
        "--m", "100", "--seed", "7", "--out", "{out}",
    ],
    "lemma3": [
        "audit", "lemma3", "--nu", "uniform 2,2,2,2", "--queries", "marginals monotone d=1",
        "--n", "98", "--delta", "0.2", "--gamma", "0.1", "--trials", "20", "--seed", "11",
    ],
    "lemma4": [
        "audit", "lemma4", "--nu", "uniform 2", "--mu", "uniform 2",
        "--queries", "indicator S=1 values=0", "--m", "50", "--delta", "0.2",
        "--gamma", "0.1", "--trials", "20", "--seed", "13",
    ],
    "dp": [
        "audit", "dp", "--queries", "indicator S=1 values=1", "--sigma", "0.2",
        "--d1", "{data}", "--d2", "{data}", "--trials", "100", "--bins", "4", "--seed", "14",
    ],
    "kappa": ["kappa", "--nu", "uniform 2", "--mu", "uniform 2"],
}


@pytest.mark.parametrize(
    "command, extra, message",
    [
        ("generate", ["--kappa-bound", "nan"], "kappa_bound must be >= 1"),
        ("generate", ["--epsilon", "nan"], "epsilon must be positive"),
        ("generate", ["--delta", "nan"], "delta_target must be positive"),
        ("generate", ["--delta", "inf"], "delta_target must be positive and finite"),
        ("generate", ["--delta", "1e300"], "delta^2 overflows"),
        ("generate", ["--delta", "1e-200"], "delta^2 underflows to 0"),
        ("generate", ["--delta", "1e-200", "--epsilon", "1e-200"], "underflows to 0"),
        ("generate", ["--kappa-bound", "inf"], "kappa_bound must be >= 1 and finite"),
        ("generate", ["--epsilon", "inf"], "epsilon must be positive and finite"),
        ("lemma3", ["--delta", "1e300"], "delta^2 overflows"),
        ("lemma3", ["--delta", "1e-200"], "delta^2 underflows to 0"),
        ("lemma3", ["--delta", "nan"], "delta_target must be positive and finite"),
        ("lemma3", ["--gamma", "nan"], "gamma must lie in (0, 1)"),
        ("lemma3", ["--gamma", "5e-324"], "gamma * delta^2 underflows to 0"),
        ("lemma4", ["--delta", "nan"], "delta_target must be positive and finite"),
        ("dp", ["--sigma", "nan"], "sigma must be positive"),
        ("dp", ["--sigma", "inf"], "sigma must be positive and finite"),
        ("lemma3", ["--nu", "product\nnan,nan\nnan,nan\n"], "probabilities must be nonnegative"),
        ("kappa", ["--nu", "explicit 2\n0;nan\n1;nan\n"], "masses must be nonnegative"),
    ],
    ids=[
        "generate-kappa-nan", "generate-epsilon-nan", "generate-delta-nan",
        "generate-delta-inf", "generate-delta-overflow", "generate-delta-underflow",
        "generate-ledger-underflow", "generate-kappa-inf",
        "generate-epsilon-inf", "lemma3-delta-overflow", "lemma3-delta-underflow",
        "lemma3-delta-nan",
        "lemma3-gamma-nan", "lemma3-gamma-underflow", "lemma4-delta-nan", "dp-sigma-nan", "dp-sigma-inf",
        "lemma3-nan-probabilities", "kappa-nan-masses",
    ],
)
def test_non_finite_parameters_exit_with_one_error_line(
    command, extra, message, data_file, tmp_path, capsys
):
    fill = {"data": str(data_file), "out": str(tmp_path / "synthetic.txt")}
    argv = [arg.format(**fill) for arg in NON_FINITE_BASE[command]] + extra
    code = main(argv)
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not (tmp_path / "synthetic.txt").exists()


PINNED_REPORTS = Path(__file__).parent / "pinned_reports"
PINNED_RUNS = {
    "generate": [
        "generate", "--data", "{data}", "--queries", "marginals monotone d=1",
        "--mu", "uniform", "--delta", "0.25", "--gamma", "0.1", "--k", "120",
        "--m", "100", "--seed", "7", "--out", "{out}",
    ],
    "generate-epsilon": [
        "generate", "--data", "{data}", "--queries", "marginals monotone d=1",
        "--mu", "uniform", "--delta", "0.25", "--gamma", "0.1", "--k", "120",
        "--m", "100", "--seed", "7", "--out", "{out}", "--epsilon", "0.05",
        "--allow-privacy-failure", "--kappa-bound", "1.5",
    ],
    "generate-noisy-targets": [
        "generate", "--data", "{data}", "--queries", "indicator S=2,4 values=1,0",
        "--mu", "uniform", "--delta", "0.25", "--gamma", "0.1", "--k", "50",
        "--m", "80", "--seed", "3", "--out", "{out}", "--export-noisy-targets",
    ],
    "lemma3": [
        "audit", "lemma3", "--nu", "uniform 2,2,2,2", "--queries", "marginals monotone d=1",
        "--n", "98", "--delta", "0.2", "--gamma", "0.1", "--trials", "50", "--seed", "11",
    ],
    "lemma4": [
        "audit", "lemma4", "--nu", "{nu}", "--mu", "uniform 2",
        "--queries", "indicator S=1 values=0", "--m", "625", "--delta", "0.2",
        "--gamma", "0.1", "--trials", "50", "--seed", "13",
    ],
    "dp": [
        "audit", "dp", "--queries", "indicator S=1 values=1", "--sigma", "0.2",
        "--d1", "{data}", "--d2", "{data}", "--trials", "2000", "--bins", "4", "--seed", "14",
    ],
    "corollary": [
        "audit", "corollary", "--p", "4", "--d", "1", "--n", "120", "--k", "120",
        "--m", "150", "--delta", "0.25", "--gamma", "0.1", "--trials", "3", "--seed", "16",
    ],
}


@pytest.mark.parametrize("run", sorted(PINNED_RUNS))
def test_full_report_bytes_are_pinned(run, data_file, two_point_nu_file, tmp_path, capsys):
    """The exit code and the whole stdout report, config echo included, with
    the temporary directory written as <tmp>. The dp run is too short for its
    gate, so it also pins a failed gate's report and exit code."""
    fill = {"data": data_file, "nu": two_point_nu_file, "out": tmp_path / "synthetic.txt"}
    code = main([arg.format(**fill) for arg in PINNED_RUNS[run]])
    captured = capsys.readouterr()
    assert (code, captured.err) == (EXIT_GATE if run == "dp" else EXIT_OK, "")
    report = captured.out.replace(str(tmp_path), "<tmp>")
    assert report == (PINNED_REPORTS / f"{run}.txt").read_text()


# Runs pinned from the one-trial-at-a-time loops: lemma3 draws 30 trials of
# 100 rows at p = 24 in one block of up to 109 (any block size gives these
# bytes), lemma4 1,000 trials of 625 draws in blocks of 209, and dp bins two
# statistics of two neighbouring datasets, so its cells are two-dimensional.
# Each run's exit code comes first; the two deviation runs fail in about a
# third of trials.
MULTI_BLOCK_RUNS = {
    "lemma3-blocks": (EXIT_GATE, [
        "audit", "lemma3", "--nu", "uniform " + ",".join(["2"] * 24),
        "--queries", "marginals monotone d=2", "--n", "100", "--delta", "0.14",
        "--gamma", "0.1", "--trials", "30", "--seed", "21",
    ]),
    "lemma4-blocks": (EXIT_GATE, [
        "audit", "lemma4", "--nu", "{nu}", "--mu", "uniform 2",
        "--queries", "indicator S=1 values=0", "--m", "625", "--delta", "0.03",
        "--gamma", "0.1", "--trials", "1000", "--seed", "22",
    ]),
    "dp-neighbors": (EXIT_OK, [
        "audit", "dp", "--queries", "indicator S=1 values=1", "--sigma", "0.5",
        "--d1", "{data}", "--d2", "{neighbor}", "--trials", "20000", "--bins", "4",
        "--seed", "23",
    ]),
}


@pytest.mark.parametrize("run", sorted(MULTI_BLOCK_RUNS))
def test_multi_block_report_bytes_are_pinned(
    run, data_file, two_point_nu_file, tmp_path, capsys
):
    neighbor = tmp_path / "neighbor.txt"
    neighbor.write_bytes(data_file.read_bytes() + b"1,0,1,0,1\n")
    fill = {"data": data_file, "nu": two_point_nu_file, "neighbor": neighbor}
    expected_code, argv = MULTI_BLOCK_RUNS[run]
    code = main([arg.format(**fill) for arg in argv])
    captured = capsys.readouterr()
    assert (code, captured.err) == (expected_code, "")
    report = captured.out.replace(str(tmp_path), "<tmp>")
    assert report == (PINNED_REPORTS / f"{run}.txt").read_text()


def test_query_file_that_is_not_utf8_names_its_line(tmp_path, capsys):
    queries = tmp_path / "queries.txt"
    queries.write_bytes(b"marginals monotone d=1\n\n# caf\xe9\n")
    argv = [arg.replace("marginals monotone d=1", str(queries)) for arg in PINNED_RUNS["lemma3"]]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == "error: line 3: spec files must be UTF-8 text\n"


@pytest.mark.parametrize("run", ["corollary", "dp", "generate", "lemma3", "lemma4"])
def test_negative_seed_is_a_usage_error(run, data_file, two_point_nu_file, tmp_path, capsys):
    fill = {"data": data_file, "nu": two_point_nu_file, "out": tmp_path / "synthetic.txt"}
    argv = [arg.format(**fill) for arg in PINNED_RUNS[run]]
    argv[argv.index("--seed") + 1] = "-1"
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.endswith("error: argument --seed: must be a non-negative integer\n")
    assert not (tmp_path / "synthetic.txt").exists()


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("k", "\u0661\u0660", "must be a non-negative integer"),
        ("k", "1_0", "must be a non-negative integer"),
        ("delta", "\u0660.\u0662", "must be a number"),
        ("delta", "0.2_5", "must be a number"),
    ],
)
def test_option_numbers_take_ascii_digits_only(option, value, message, data_file, tmp_path, capsys):
    """As in spec numbers and dataset cells: no other script's digits, no underscores."""
    fill = {"data": data_file, "out": tmp_path / "synthetic.txt"}
    argv = [arg.format(**fill) for arg in PINNED_RUNS["generate"]]
    argv[argv.index(f"--{option}") + 1] = value
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.endswith(f"error: argument --{option}: {message}\n")
    assert not (tmp_path / "synthetic.txt").exists()


def test_spec_file_that_cannot_be_read_exits_with_the_read_error(tmp_path, capsys, monkeypatch):
    queries = tmp_path / "queries.txt"
    queries.write_text("marginals monotone d=1\n")

    def refuse(path):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(Path, "read_bytes", refuse)
    argv = [arg.replace("marginals monotone d=1", str(queries)) for arg in PINNED_RUNS["lemma3"]]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: [Errno 13] Permission denied: '{queries}'\n"


def test_inline_spec_too_long_to_be_a_file_name_is_read_as_text(capsys):
    spec = "marginals monotone d=1  # " + "x" * 300  # one line, over 255 bytes
    argv = [arg.replace("marginals monotone d=1", spec) for arg in PINNED_RUNS["lemma3"]]
    assert main(argv) == EXIT_OK
    pinned = (PINNED_REPORTS / "lemma3.txt").read_text()
    assert capsys.readouterr().out == pinned.replace("d=1\n", f"d=1  # {'x' * 300}\n", 1)
