"""The qbc executable: outputs, formats, exit codes, reproducibility."""

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import signal
import stat
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbc import cli, reports, verify
from qbc.cli import main

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PI_2 = "1.5707963267948966"


def run_qbc(*args, **kwargs):
    env = os.environ.copy()
    env.setdefault("PYTHONPATH", os.path.join(PKG_ROOT, "src"))
    return subprocess.run(
        [sys.executable, "-m", "qbc", *args],
        capture_output=True,
        text=True,
        env=env,
        **kwargs,
    )


def refuse_huge_run(*args, **kwargs):
    raise AssertionError("the count cap must stop this call before it runs")


class TestDiscriminate:
    def test_orthogonal(self):
        out = run_qbc("discriminate", "--theta", PI_2)
        assert out.returncode == 0
        rep = json.loads(out.stdout)
        assert abs(rep["p_e"]) < 1e-12
        assert abs(rep["min_eigenvalue"] + 1.0) < 1e-12

    def test_identical(self):
        rep = json.loads(run_qbc("discriminate", "--theta", "0").stdout)
        assert rep["p_e"] == 0.5

    def test_pi_over_6(self):
        rep = json.loads(run_qbc("discriminate", "--theta", "0.5235987755982988").stdout)
        assert abs(rep["p_e"] - 0.25) < 1e-12

    def test_tiny_theta_keeps_relative_accuracy(self):
        # the eigenvalues are about +-1e-15: an absolute skip threshold in
        # the 2x2 eigensolver would return p_e = 0.5 and -1e-30
        rep = json.loads(run_qbc("discriminate", "--theta", "1e-15").stdout)
        assert rep["p_e"] == rep["p_e_closed_form"] == 0.4999999999999995
        assert rep["min_eigenvalue"] == pytest.approx(-1e-15, rel=1e-14)

    def test_theta_deg(self):
        rep = json.loads(run_qbc("discriminate", "--theta-deg", "30").stdout)
        assert abs(rep["p_e"] - 0.25) < 1e-12

    def test_out_of_range_is_usage_error(self):
        out = run_qbc("discriminate", "--theta", "3.0")
        assert out.returncode == 2
        assert out.stderr != ""

    def test_missing_theta_is_usage_error(self):
        assert run_qbc("discriminate").returncode == 2


class TestClone:
    def test_orthogonal_point(self):
        rep = json.loads(run_qbc("clone", "--theta", PI_2, "--phi", "0").stdout)
        assert abs(rep["params"]["a0"] - 1.0) < 1e-12
        assert abs(rep["params"]["d1"] + 1.0) < 1e-12
        assert abs(rep["entanglement"]) < 1e-12

    def test_identical_inputs(self):
        rep = json.loads(run_qbc("clone", "--theta", "0", "--phi", "1.0").stdout)
        assert abs(rep["entanglement"] - math.log(2)) < 1e-12
        assert abs(rep["lambda"]) < 1e-12

    def test_residuals_small(self):
        rep = json.loads(run_qbc("clone", "--theta", "0.8", "--phi", "2.2").stdout)
        assert max(abs(r) for r in rep["constraint_residuals"]) < 1e-12


class TestOptimize:
    def test_recovers_reference(self):
        rep = json.loads(
            run_qbc("optimize", "--theta", "1.0471975511965976", "--seed", "7").stdout
        )
        assert rep["gap"] < 1e-6
        assert abs(rep["reference"] - 0.75) < 1e-12

    def test_small_angle_relative_gap(self):
        out = run_qbc("optimize", "--theta", "0.001", "--n-starts", "8")
        assert out.returncode == 0, out.stderr
        rep = json.loads(out.stdout)
        assert rep["relative_gap"] <= 1e-9
        assert rep["starts_converged"] == 8

    def test_identical_inputs_have_no_relative_gap(self):
        rep = json.loads(run_qbc("optimize", "--theta", "0", "--n-starts", "4").stdout)
        assert rep["reference"] == 0.0
        assert rep["relative_gap"] is None

    def test_same_seed_identical_bytes(self):
        a = run_qbc("optimize", "--theta", "0.9", "--seed", "3")
        b = run_qbc("optimize", "--theta", "0.9", "--seed", "3")
        assert a.stdout == b.stdout
        assert a.returncode == b.returncode == 0

    def test_report_fields(self, capsys):
        assert main(["optimize", "--theta", "0.8", "--n-starts", "4", "--seed", "5"]) == 0
        assert list(json.loads(capsys.readouterr().out)) == [
            "theta", "lambda_max", "reference", "gap", "relative_gap", "starts_converged",
            "residual_max", "best_params", "n_starts", "seed",
        ]

    def test_n_starts_cap(self, monkeypatch, capsys):
        # in-process, with the report stubbed out: a missing cap fails fast
        monkeypatch.setattr(reports, "report_optimize", refuse_huge_run)
        assert main(["optimize", "--theta", "0.5", "--n-starts", "1000001"]) == 2
        assert capsys.readouterr().err == "qbc optimize: --n-starts must be at most 1000000, got 1000001\n"


class TestRates:
    def test_noiseless_endpoint(self):
        rep = json.loads(run_qbc("rates", "--theta", PI_2, "--epsilon", "0").stdout)
        assert abs(rep["r1"]) < 1e-12
        assert abs(rep["r2"] - math.log(2)) < 1e-12

    def test_other_endpoint(self):
        rep = json.loads(run_qbc("rates", "--theta", PI_2, "--epsilon", "0.5").stdout)
        assert abs(rep["r1"] - math.log(2)) < 1e-12
        assert abs(rep["r2"]) < 1e-12

    def test_oracle_agreement_reported(self):
        rep = json.loads(
            run_qbc("rates", "--theta", "0.5235987755982988", "--epsilon", "0.1").stdout
        )
        assert rep["oracle_max_deviation"] < 1e-12

    def test_epsilon_out_of_range(self):
        assert run_qbc("rates", "--theta", "0.4", "--epsilon", "0.9").returncode == 2


class TestSweep:
    def test_csv_schema_and_rows(self, tmp_path):
        path = tmp_path / "sweep.csv"
        out = run_qbc(
            "sweep", "--theta-grid", f"0:{PI_2}:25", "--epsilon", "0.1",
            "--format", "csv", "--out", str(path),
        )
        assert out.returncode == 0
        text = path.read_text(encoding="utf-8")
        lines = text.split("\n")
        assert lines[0] == "theta,phi,epsilon,p_e,lambda_max,entanglement,r1,r2,seed"
        assert len([ln for ln in lines[1:] if ln]) == 25
        assert "\r" not in text

    def test_pe_column_monotone_nonincreasing(self, tmp_path):
        path = tmp_path / "sweep.csv"
        run_qbc("sweep", "--theta-grid", f"0:{PI_2}:40", "--format", "csv", "--out", str(path))
        rows = path.read_text().strip().split("\n")[1:]
        pes = [float(r.split(",")[3]) for r in rows]
        assert all(b <= a for a, b in zip(pes, pes[1:]))

    def test_two_step_endpoints(self):
        out = run_qbc("sweep", "--theta-grid", f"0:{PI_2}:2", "--format", "csv")
        rows = out.stdout.strip().split("\n")[1:]
        assert float(rows[0].split(",")[3]) == 0.5
        assert float(rows[1].split(",")[3]) == pytest.approx(9.37349864163661e-34, rel=2**-50, abs=0.0)

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("sweep", "--theta-grid", "0.1:1.3:7", "--phi", "0.4", "--format", "csv")
        run_qbc(*args, "--out", str(a))
        run_qbc(*args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_json_records(self):
        out = run_qbc("sweep", "--theta-grid", "0:1:3")
        rep = json.loads(out.stdout)
        assert len(rep["records"]) == 3
        assert set(rep["records"][0]) == {
            "theta", "phi", "epsilon", "p_e", "lambda_max", "entanglement", "r1", "r2", "seed",
        }

    def test_unwritable_path(self, tmp_path):
        out = run_qbc("sweep", "--theta-grid", "0:1:3", "--out", str(tmp_path / "no" / "dir.csv"))
        assert out.returncode == 1

    @pytest.mark.parametrize("via_link", [False, True])
    def test_failed_write_keeps_the_old_file(self, tmp_path, via_link):
        """A write cut off by the file-size limit leaves the old bytes and no stray file."""
        target = tmp_path / "out.json"
        old = b'{"records": []}\n'
        target.write_bytes(old)
        out_path = target
        if via_link:
            out_path = tmp_path / "link.json"
            out_path.symlink_to(target)

        def limit_file_size():
            # the write then fails with EFBIG instead of the process being killed
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
            resource.setrlimit(resource.RLIMIT_FSIZE, (4096, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))

        out = run_qbc("sweep", "--theta-grid", "0:1:100", "--out", str(out_path), preexec_fn=limit_file_size)
        assert out.returncode == 1
        assert out.stderr.startswith(f"qbc sweep: cannot write {out_path}: ")
        assert out.stderr.endswith("File too large\n") and out.stderr.count("\n") == 1
        assert target.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == (["link.json", "out.json"] if via_link else ["out.json"])
        if via_link:
            assert os.readlink(out_path) == str(target)

    @pytest.mark.parametrize("mode", [0o600, 0o666], ids=oct)
    def test_write_through_a_link_keeps_the_target_and_its_mode(self, tmp_path, mode):
        target, link = tmp_path / "out.csv", tmp_path / "link.csv"
        target.write_text("old\n")
        link.symlink_to(target)
        os.chmod(target, mode)
        args = ("sweep", "--theta-grid", "0:1:3", "--format", "csv")
        assert run_qbc(*args, "--out", str(link)).returncode == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text() == run_qbc(*args).stdout
        # the old mode, not the umask's
        assert stat.S_IMODE(target.stat().st_mode) == mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "out.csv"]

    def test_new_file_mode_follows_the_umask(self, tmp_path):
        out = tmp_path / "out.csv"
        assert run_qbc("sweep", "--theta-grid", "0:1:3", "--out", str(out)).returncode == 0
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        args = ("sweep", "--theta-grid", "0:1:3", "--format", "csv")
        # held open for reading and writing, the FIFO never blocks the child's open
        fd = os.open(fifo, os.O_RDWR | os.O_NONBLOCK)
        try:
            assert run_qbc(*args, "--out", str(fifo), timeout=60).returncode == 0
            text = os.read(fd, 1 << 16).decode()
        finally:
            os.close(fd)
        assert text == run_qbc(*args).stdout
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["out.fifo"]

    def test_bad_grid_is_usage_error(self):
        assert run_qbc("sweep", "--theta-grid", "1:0:5").returncode == 2
        assert run_qbc("sweep", "--theta-grid", "0:1").returncode == 2

    def test_steps_cap(self, monkeypatch, capsys):
        monkeypatch.setattr(reports, "sweep_records", refuse_huge_run)
        assert main(["sweep", "--theta-grid", "0:1:1000001"]) == 2
        assert capsys.readouterr().err == "qbc sweep: STEPS must be at most 1000000, got 1000001\n"

    def test_grid_ends_checked_before_any_record(self, monkeypatch, capsys):
        def refuse_record(theta):
            raise AssertionError("a record was computed before the grid ends were checked")

        monkeypatch.setattr(reports, "pure_pair_error", refuse_record)
        assert main(["sweep", "--theta-grid", "0:1.6:20000"]) == 2
        assert capsys.readouterr().err == "qbc sweep: theta must lie in [0, pi/2], got 1.6\n"
        with pytest.raises(ValueError, match="got -0.1"):
            reports.sweep_records(-0.1, 1.0, 5, 0.4, 0.1, 0)


class TestVerifyHook:
    def test_nan_deviation_fails(self):
        # max(0.0, nan) is 0.0 and nan > tolerance is False: neither may hide a NaN
        for deviations, nan_case in (([1e-10, math.nan, 2e-10], 1), ([math.nan, 2e-10], 0)):
            check = verify.CheckResult("suite", "row", 1e-9)
            for k, deviation in enumerate(deviations):
                check.add(deviation, f"case {k}")
            assert check.count == len(deviations)
            assert not check.passed
            assert check.first_failure.startswith(f"case {nan_case}: deviation nan")
            assert math.isnan(check.max_deviation)

    def test_corrupted_tolerance_fails(self, monkeypatch, capsys):
        # negative control on the gate: with every tolerance at -1, every check must fail
        add = verify.CheckResult.add

        def add_with_negative_tolerance(check, deviation, context):
            check.tolerance = -1.0
            add(check, deviation, context)

        monkeypatch.setattr(verify.CheckResult, "add", add_with_negative_tolerance)
        assert main(["verify", "--seed", "1"]) == 1
        lines = capsys.readouterr().out.splitlines()
        statuses = [line.split()[-1] for line in lines if line.split()[-1:] in (["PASS"], ["FAIL"])]
        assert f"0/6 suites passed ({len(statuses)} checks)" in lines
        assert statuses and set(statuses) == {"FAIL"}

    def test_unknown_command_usage_error(self):
        assert run_qbc("frobnicate").returncode == 2


class TestUsageErrors:
    @pytest.mark.parametrize(
        "args, prefix",
        [
            (("optimize", "--theta", "0.5", "--n-starts", "1.5"), "qbc optimize: "),
            (("discriminate",), "qbc discriminate: "),
            (("rates", "--theta", "0.4", "--epsilon", "x"), "qbc rates: "),
            (("clone", "--theta", "0.4", "--theta-deg", "3"), "qbc clone: "),
            (("frobnicate",), "qbc: "),
            ((), "qbc: "),
        ],
    )
    def test_one_line_on_stderr(self, args, prefix):
        out = run_qbc(*args)
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr.startswith(prefix)
        assert out.stderr.count("\n") == 1 and out.stderr.endswith("\n")


class TestClosedStdout:
    @pytest.mark.parametrize(
        "args",
        [
            ("discriminate", "--theta", "0.5"),
            ("verify", "--seed", "1"),
            ("sweep", "--theta-grid", "0:1:3"),
        ],
    )
    def test_one_line_on_stderr(self, args):
        # the child starts with file descriptor 1 closed, as after `>&-` in a shell
        out = run_qbc(*args, preexec_fn=lambda: os.close(1))
        assert out.returncode == 1
        assert out.stderr == f"qbc {args[0]}: cannot write to stdout: it is closed\n"


class TestGoldenBytes:
    """sha1 prefixes of stdout for commands that run no LAPACK, so no BLAS build moves their bytes.

    Any change to this table is a change to the printed output and is to be
    recorded in CHANGES.md. Each test's id is its argv alone, so recording a
    new digest renames no test.
    """

    CASES = [
        ("discriminate --theta 0", "21d413ad49bd"),
        ("discriminate --theta 1e-6", "1d17d1f6f80a"),
        ("discriminate --theta 0.5235987755982988", "979f4848d8bf"),
        (f"discriminate --theta {PI_2}", "848ac833a38c"),
        ("discriminate --theta 1e-15", "14fe298af190"),
        ("clone --theta 0.9 --phi 3.141592653589793", "4879db560702"),
        ("rates --theta 1e-7 --epsilon 0.5", "0115e44210d0"),
        ("rates --theta 1.2 --epsilon 0.1", "4d2b456a10de"),
        (f"sweep --theta-grid 0:{PI_2}:41 --phi 0.4 --epsilon 0.1", "081aa4aebab1"),
        ("optimize --theta 0.8 --n-starts 8 --seed 5", "423ca4087ee0"),
        ("optimize --theta 1e-6 --seed 5", "badfdb20a72a"),
        (f"optimize --theta {PI_2} --seed 5", "4d009b58b553"),
    ]

    @pytest.mark.parametrize("argv, digest", CASES, ids=[argv for argv, _ in CASES])
    def test_stdout_digest(self, argv, digest, capsys):
        assert main(argv.split()) == 0
        assert hashlib.sha1(capsys.readouterr().out.encode()).hexdigest()[:12] == digest


class TestJsonRoundTrip:
    def test_doubles_survive(self):
        out = run_qbc("clone", "--theta", "0.77", "--phi", "1.9")
        rep = json.loads(out.stdout)
        redumped = json.loads(json.dumps(rep))
        assert redumped == rep


# --- fuzz: every bad value of every numeric flag is one usage-error line ---

FUZZ_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)
SMALL_COUNT = 16


def outside(lo, hi, hi_open=False):
    """Floats, NaN and +-inf among them, that fail lo <= x <= hi (or x < hi)."""
    inside = (lambda x: lo <= x < hi) if hi_open else (lambda x: lo <= x <= hi)
    return st.floats().filter(lambda x: not inside(x)).map(repr)


# counts either small or above the cap: a larger valid count would run for real
COUNTS = st.integers(max_value=1) | st.integers(min_value=cli.MAX_COUNT + 1)
GARBAGE = st.sampled_from(("", " ", "nan", "-inf", "1,5", "0x1p-2", "pi", "--seed", "-x"))
NOT_AN_INT = GARBAGE | st.sampled_from(("1.5", "1e3", "inf"))
BAD_GRID = st.one_of(
    st.sampled_from(("", "0:1", "0:1:3:4", "a:1:3", "0:1:3.5", ":1:3", "0::3", "0:1:")),
    st.tuples(st.floats(), st.floats(), COUNTS | st.integers(2, SMALL_COUNT))
    .filter(lambda g: not (0.0 <= g[0] < g[1] <= math.pi / 2 and 2 <= g[2] <= SMALL_COUNT))
    .map(lambda g: f"{g[0]!r}:{g[1]!r}:{g[2]}"),
)
BAD_VALUES = {
    "--theta": outside(0.0, math.pi / 2) | GARBAGE,
    "--theta-deg": st.floats().filter(lambda x: not 0.0 <= math.radians(x) <= math.pi / 2).map(repr) | GARBAGE,
    "--phi": outside(0.0, 2.0 * math.pi, hi_open=True) | GARBAGE,
    "--epsilon": outside(0.0, 0.5) | GARBAGE,
    "--n-starts": COUNTS.filter(lambda n: n < 1 or n > cli.MAX_COUNT).map(str) | NOT_AN_INT,
    "--seed": NOT_AN_INT,
    "--theta-grid": BAD_GRID | GARBAGE,
}
# a valid command line per subcommand, and the flags whose values are fuzzed
BASE_ARGV = {
    "discriminate": (["--theta", "0.5"], ["--theta", "--theta-deg", "--seed"]),
    "clone": (["--theta", "0.5", "--phi", "1.0"], ["--theta", "--theta-deg", "--phi", "--seed"]),
    "optimize": (["--theta", "0.5", "--n-starts", "2"], ["--theta", "--theta-deg", "--n-starts", "--seed"]),
    "rates": (["--theta", "0.5", "--epsilon", "0.1"], ["--theta", "--theta-deg", "--epsilon", "--seed"]),
    "sweep": (["--theta-grid", "0:1:3"], ["--theta-grid", "--phi", "--epsilon", "--seed"]),
    "verify": ([], ["--seed"]),
}


@st.composite
def bad_argv(draw):
    command = draw(st.sampled_from(sorted(BASE_ARGV)))
    base, flags = BASE_ARGV[command]
    flag = draw(st.sampled_from(flags))
    args = list(base)
    if flag == "--theta-deg":
        args[args.index("--theta")] = flag
    if flag not in args:
        args += [flag, ""]
    args[args.index(flag) + 1] = draw(BAD_VALUES[flag])
    return [command, *args]


def small_counts_only(fn, index):
    """fn, refusing any count above SMALL_COUNT in its positional argument index."""

    def guarded(*args):
        assert args[index] <= SMALL_COUNT, "a count above the cap reached the report"
        return fn(*args)

    return guarded


@FUZZ_SETTINGS
@given(bad_argv())
def test_fuzzed_flags_give_one_line_usage_errors(argv):
    out, err = io.StringIO(), io.StringIO()
    with (
        mock.patch.object(reports, "report_optimize", small_counts_only(reports.report_optimize, 1)),
        mock.patch.object(reports, "sweep_records", small_counts_only(reports.sweep_records, 2)),
        mock.patch.object(verify, "run_all", refuse_huge_run),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code == 2, (argv, code, err.getvalue())
    assert out.getvalue() == ""
    assert err.getvalue().startswith(f"qbc {argv[0]}: ")
    assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
