"""End-to-end CLI checks: every subcommand against a golden fixture,
byte-determinism of repeated invocations, and the exit-status contract."""

import csv
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import clusterline
from clusterline import ModelParams, mean_cluster_length
from clusterline.cli import GRID_MAX_POINTS, _linspace, _parse_grid, main
from oracles import cycle_sum_density_by_digits, span_density_by_digits

GOLDEN_DIR = Path(__file__).parent / "goldens"

GOLDEN_CASES = {
    "pmf.csv": "pmf --lambda 1 --epsilon 1 --length 4",
    "incomplete.csv": "incomplete --lambda 1 --epsilon 1 --length 4",
    "circle.csv": "circle --lambda 1 --epsilon 1 --length 4",
    "moments.csv": "moments --lambda 1 --epsilon 1 --length 4 --m 4",
    "coverage.csv": "coverage --lambda 1 --epsilon 1 --length 2",
    "density_b.csv": "density --law B --lambda 1 --epsilon 1 --points 12",
    "density_u2.csv": "density --law U --n 2 --lambda 1 --epsilon 1 --points 12",
    "laplace_check.csv": "laplace-check --lambda 1 --epsilon 1",
    "simulate_complete.csv": "simulate --scenario complete --lambda 1 --epsilon 1 --length 4 --samples 2000 --seed 7",
    "simulate_blaw.csv": "simulate --scenario b-law --lambda 1 --epsilon 1 --length 1 --samples 50 --seed 3",
    "compare_circle.json": "compare --scenario circle --lambda 1 --epsilon 1 --length 4 --samples 2000 --seed 7 --format json",
    "compare_coverage.csv": "compare --scenario coverage --lambda 1 --epsilon 1 --length 2 --samples 2000 --seed 5",
    "compare_blaw.csv": "compare --scenario b-law --lambda 1 --epsilon 1 --length 1 --samples 2000 --seed 3",
    "compare_ulaw2.csv": "compare --scenario u-law --n 2 --lambda 1 --epsilon 1 --length 1 --samples 2000 --seed 4",
    "sweep_mean.csv": "sweep --curve mean --lambda 0.25:5:0.25 --epsilon 1 --length 4",
    "sweep_var.csv": "sweep --curve var --lambda 0.5:2:0.5 --epsilon 1 --length 4",
    "sweep_pmf.json": "sweep --curve pmf --lambda 0.5:2:0.5 --epsilon 1 --length 4 --n 0,1 --format json",
}


def run_to_file(argv: str, path: Path) -> int:
    return main(argv.split() + ["--out", str(path)])


@pytest.mark.parametrize("name,argv", sorted(GOLDEN_CASES.items()))
def test_golden_fixture(tmp_path, name, argv):
    out = tmp_path / name
    assert run_to_file(argv, out) == 0
    assert out.read_bytes() == (GOLDEN_DIR / name).read_bytes()


def test_density_b_golden_prints_true_digits():
    # each density row is the 80-digit renewal value rounded to 9 digits
    p = ModelParams(1.0, 1.0)
    xs = np.linspace(p.radius, p.radius + 10.0 * mean_cluster_length(p), 12)
    with open(GOLDEN_DIR / "density_b.csv", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row[0] == "density"]
    assert [row[1] for row in rows] == [format(x, ".9g") for x in xs]
    assert [row[2] for row in rows] == [format(float(span_density_by_digits(p, x)), ".9g") for x in xs]


def test_density_u2_golden_prints_true_digits():
    # each row is e^{-1} p_1(x - 1), the 120-digit alternating sum, rounded to 9 digits
    p = ModelParams(1.0, 1.0)
    xs = np.linspace(p.radius, p.radius + 20.0 * (mean_cluster_length(p) + 1.0), 12)
    with open(GOLDEN_DIR / "density_u2.csv", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row[0] == "density"]
    assert [row[1] for row in rows] == [format(x, ".9g") for x in xs]
    assert [row[2] for row in rows] == [format(float(cycle_sum_density_by_digits(p, x, 2, dps=120)), ".9g") for x in xs]


def test_density_past_the_step_budget_exits_one_promptly(capsys):
    # lam eps = 20: the kernel cannot reach the grid's end within its budget
    # and raises before it builds a step (2^19 steps take about 1 s)
    start = time.perf_counter()
    assert main("density --law B --lambda 1 --epsilon 20".split()) == 1
    assert time.perf_counter() - start < 1.0
    assert "STEP_TABLE_BUDGET" in capsys.readouterr().err


@pytest.mark.parametrize("law", ["B", "U"])
def test_density_past_the_exponent_range_exits_one_before_building(capsys, law):
    # lam eps = 800: the mean span e^{lam eps} overflows, and the grid with it
    start = time.perf_counter()
    assert main(f"density --law {law} --lambda 1 --epsilon 800".split()) == 1
    assert time.perf_counter() - start < 1.0
    assert "STEP_TABLE_BUDGET" in capsys.readouterr().err


def test_incomplete_past_the_support_budget_exits_one_promptly(capsys):
    # support 10001: the table's cost is quadratic in it, so it is refused up front
    start = time.perf_counter()
    assert main("incomplete --lambda 1 --epsilon 1e-4 --length 1".split()) == 1
    assert time.perf_counter() - start < 1.0
    assert "INCOMPLETE_SUPPORT_BUDGET" in capsys.readouterr().err


def _openblas_dynamic_arch() -> bool:
    """True when numpy links an OpenBLAS that picks its kernel per CPU."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 2 has no dict mode
        return False
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return "openblas" in str(blas.get("name", "")).lower() and "DYNAMIC_ARCH" in str(
        blas.get("openblas configuration", "")
    )


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64") or not _openblas_dynamic_arch(),
    reason="needs an x86-64 OpenBLAS built with DYNAMIC_ARCH, whose kernel OPENBLAS_CORETYPE selects",
)
def test_laplace_check_bytes_independent_of_blas_kernel():
    # OPENBLAS_CORETYPE forces the oldest x86-64 kernel in the child only;
    # the residuals' rounding differs between kernels, the output must not
    src = str(Path(clusterline.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    argv = [sys.executable, "-m", "clusterline.cli", "laplace-check", "--lambda", "1", "--epsilon", "1"]
    default = subprocess.run(argv, env=env, capture_output=True, check=True).stdout
    prescott = subprocess.run(
        argv, env={**env, "OPENBLAS_CORETYPE": "Prescott"}, capture_output=True, check=True
    ).stdout
    assert default == prescott


# the golden of every subcommand that runs on the pure-Python kernels
NUMPY_FREE_GOLDENS = [
    "circle.csv",
    "coverage.csv",
    "density_u2.csv",
    "incomplete.csv",
    "moments.csv",
    "pmf.csv",
    "sweep_mean.csv",
    "sweep_pmf.json",
    "sweep_var.csv",
]
# runs cli.main on its argv, then reports on stderr whether mpmath and numpy were imported
IMPORT_PROBE = """
import sys
from clusterline.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
sys.stdout.flush()
sys.stderr.write(f"mpmath imported: {'mpmath' in sys.modules}\\n")
sys.stderr.write(f"numpy imported: {'numpy' in sys.modules}\\n")
sys.exit(code)
"""


def _run_fresh(argv: list[str]) -> subprocess.CompletedProcess:
    src = str(Path(clusterline.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", IMPORT_PROBE, *argv], env=env, capture_output=True)


@pytest.mark.parametrize(
    "argv,code,golden",
    [(GOLDEN_CASES[name], 0, name) for name in NUMPY_FREE_GOLDENS]
    + [
        ("--help", 0, None),
        ("moments --lambda 1 --epsilon 1 --length 4 --m 0", 2, None),
        ("simulate --scenario bogus --lambda 1 --epsilon 1 --length 4", 2, None),
    ],
)
def test_analytic_subcommands_run_without_numpy(argv, code, golden):
    proc = _run_fresh(argv.split())
    assert proc.returncode == code, proc.stderr.decode()
    assert proc.stderr.decode().endswith("numpy imported: False\n")
    if golden is not None:
        assert proc.stdout == (GOLDEN_DIR / golden).read_bytes()


def test_incomplete_tail_rows_print_true_digits_without_mpmath():
    # inside the documented regime; the partial-exponential series printed
    # 25,0 and 30,7.00473971e-27 here, and imported mpmath for its digit passes
    proc = _run_fresh("incomplete --lambda 0.05 --epsilon 1 --length 40".split())
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr.decode() == "mpmath imported: False\nnumpy imported: False\n"
    rows = proc.stdout.decode().splitlines()
    assert "25,6.1921063e-29" in rows and "30,1.37502635e-41" in rows


def test_linspace_matches_numpy_bit_for_bit():
    p = ModelParams(1.0, 1.0)
    mean = mean_cluster_length(p)
    rng = np.random.default_rng(20)
    grids = [(0.0, 1.0, count) for count in (1, 2, 12, 200, 100_000)]
    grids += [(2.5, 2.5, 1), (2.5, 2.5, 7)]
    # the density defaults: --law B and --law U --n 1 at 200 points
    grids += [(p.radius, p.radius + 10.0 * mean, 200), (p.radius, p.radius + 10.0 * (mean + 1.0 / p.intensity), 200)]
    los, spans, counts = rng.uniform(0.0, 5.0, 200), rng.exponential(20.0, 200), rng.integers(1, 2000, 200)
    grids += [(float(lo), float(lo + span), int(count)) for lo, span, count in zip(los, spans, counts)]
    for lo, hi, count in grids:
        ours = [x.hex() for x in _linspace(lo, hi, count)]
        assert ours == [x.hex() for x in np.linspace(lo, hi, count).tolist()], (lo, hi, count)


def test_repeat_invocations_byte_identical(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    argv = "compare --scenario complete --lambda 1 --epsilon 1 --length 4 --samples 5000 --seed 42"
    assert run_to_file(argv, first) == 0
    assert run_to_file(argv, second) == 0
    assert first.read_bytes() == second.read_bytes()


def test_stdout_csv_has_header(capsys):
    assert main("pmf --lambda 1 --epsilon 1 --length 4".split()) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "n,probability"


def test_json_carries_schema_version(capsys):
    assert main("pmf --lambda 1 --epsilon 1 --length 4 --format json".split()) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == "1"
    assert doc["rows"][0] == {"n": 0, "probability": 0.158734398}


def test_computation_error_exits_one(capsys):
    assert main("moments --lambda 1 --epsilon 1 --length 4 --m 65".split()) == 1
    assert "error" in capsys.readouterr().err

    assert main("pmf --lambda -1 --epsilon 1 --length 4".split()) == 1


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["pmf", "--lambda", "1"])  # missing required flags
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["not-a-command"])
    assert info.value.code == 2
    for points in ("-3", "0"):
        with pytest.raises(SystemExit) as info:
            main(["density", "--law", "B", "--lambda", "1", "--epsilon", "1", "--points", points])
        assert info.value.code == 2
    # integer flags and choices are parsed by argparse, so a bad value is a
    # usage error before anything is computed
    for argv in (
        "moments --lambda 1 --epsilon 1 --length 4 --m 0",
        "moments --lambda 1 --epsilon 1 --length 4 --m=-2",
        "density --law U --lambda 1 --epsilon 1 --n abc",
        "density --law U --lambda 1 --epsilon 1 --n 0",
        "density --law b --lambda 1 --epsilon 1",
        f"density --law B --lambda 1 --epsilon 1 --points {GRID_MAX_POINTS + 1}",
        "simulate --scenario u-law --lambda 1 --epsilon 1 --length 4 --n x",
        "simulate --scenario complete --lambda 1 --epsilon 1 --length 4 --samples 0",
        "simulate --scenario complete --lambda 1 --epsilon 1 --length 4 --jobs 1",
        "compare --scenario complete --lambda 1 --epsilon 1 --length 4 --jobs 1",
        "sweep --curve pmf --lambda 1 --epsilon 1 --length 4.5 --n=-1,4",
        "sweep --curve pmf --lambda 1 --epsilon 1 --length 4.5 --n 1,x",
        "simulate --scenario bogus --lambda 1 --epsilon 1 --length 4",
        "compare --scenario bogus --lambda 1 --epsilon 1 --length 4",
    ):
        with pytest.raises(SystemExit) as info:
            main(argv.split())
        assert info.value.code == 2, argv


def test_coverage_never_prints_nan(capsys):
    # the experimental series is not finite here; the renewal value is
    assert main("coverage --lambda 3 --epsilon 1 --length 400".split()) == 0
    out = capsys.readouterr().out
    assert "nan" not in out.lower() and "inf" not in out.lower()
    row = out.splitlines()[1].split(",")
    assert 0.0 <= float(row[0]) <= 1.0
    assert row[1:] == ["", "1"]


def test_simulate_rejects_infinite_length(capsys):
    argv = "simulate --scenario complete --lambda 1 --epsilon 1 --length inf --samples 10"
    assert main(argv.split()) == 1
    assert "length" in capsys.readouterr().err


def test_simulate_span_law_capacity_exits_one(capsys):
    argv = "simulate --scenario b-law --lambda 800 --epsilon 1 --length 1 --samples 10"
    assert main(argv.split()) == 1
    assert "gap draws per replication" in capsys.readouterr().err


def test_sweep_grid_point_cap(capsys):
    # one point over the cap is refused before any point is built
    assert main("sweep --curve mean --lambda 0:1:5e-6 --epsilon 1 --length 4".split()) == 1
    assert "100000 points" in capsys.readouterr().err
    assert len(_parse_grid(f"1:{GRID_MAX_POINTS}:1")) == GRID_MAX_POINTS
    with pytest.raises(ValueError, match="points"):
        _parse_grid(f"1:{GRID_MAX_POINTS + 1}:1")


def test_sweep_grid_endpoints_inclusive(capsys):
    assert main("sweep --curve mean --lambda 1:2:0.5 --epsilon 1 --length 4".split()) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    lambdas = [row.split(",")[0] for row in lines[1:]]
    assert lambdas == ["1", "1.5", "2"]


def test_grid_endpoint_slack_is_relative():
    # 0.5 / 1e-5 rounds to 49999.99999999999: an absolute slack of 1e-12
    # would drop the endpoint
    grid = _parse_grid("0:0.5:1e-5")
    assert len(grid) == 50_001 and grid[-1] == 0.5
    assert _parse_grid("0:1:0.3") == [0.0, 0.3, 0.6, 0.8999999999999999]
    with pytest.raises(ValueError, match="points"):
        _parse_grid("0:1:1e-5")  # 100 001 points with its endpoint


def test_sweep_mean_peaks_at_unit_intensity():
    import csv
    import io
    import math
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main("sweep --curve mean --lambda 0.25:5:0.25 --epsilon 1 --length 4".split()) == 0
    rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
    best = max(rows, key=lambda r: float(r["value"]))
    assert best["lambda"] == "1"
    # CSV carries 9 significant digits; the exact 1e-9 check lives on the API
    assert float(best["value"]) == pytest.approx(3.0 * math.exp(-1.0), abs=1e-8)
