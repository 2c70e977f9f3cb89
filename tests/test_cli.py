"""End-to-end CLI checks: every subcommand against a golden fixture,
byte-determinism of repeated invocations, and the exit-status contract."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import clusterline
from clusterline.cli import GRID_MAX_POINTS, _parse_grid, main

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


def test_repeat_invocations_byte_identical(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    argv = "compare --scenario complete --lambda 1 --epsilon 1 --length 4 --samples 5000 --seed 42"
    assert run_to_file(argv, first) == 0
    assert run_to_file(argv, second) == 0
    assert first.read_bytes() == second.read_bytes()


def test_parallelism_does_not_change_output(tmp_path):
    one = tmp_path / "jobs1.csv"
    four = tmp_path / "jobs4.csv"
    base = "simulate --scenario circle --lambda 1 --epsilon 1 --length 4 --samples 5000 --seed 9"
    assert run_to_file(base + " --jobs 1", one) == 0
    assert run_to_file(base + " --jobs 4", four) == 0
    assert one.read_bytes() == four.read_bytes()


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
