"""The benchmark's output checks accept real CLI output and reject corrupted copies."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
from riscplane import cli  # noqa: E402

FRAME_GRID = "10:20:5"
SNR_GRID = "0:30:3"
THRESHOLD = 0.9


@pytest.fixture(scope="module")
def goodput_csv(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("goodput") / "out.csv"
    cfg = out.with_name("run.cfg")
    cfg.write_text("n_elements = 16\nbsw_codebook_size = 8\nrho = 0.286\n"
                   f"frame_grid = {FRAME_GRID}\nn_trials = 300\nmaster_seed = 5\n")
    assert cli.main(["goodput", "--config", str(cfg), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def reliability_csvs(tmp_path_factory) -> tuple[Path, Path]:
    out = tmp_path_factory.mktemp("reliability") / "out.csv"
    cfg = out.with_name("run.cfg")
    cfg.write_text(f"snr_grid_db = {SNR_GRID}\n")
    assert cli.main(["reliability", "--config", str(cfg), "--out", str(out),
                     "--threshold", str(THRESHOLD)]) == 0
    return out, out.with_name("out_thresholds.csv")


def _check_goodput(path: Path) -> list[str]:
    return checks.check_goodput(path, checks.grid_values(FRAME_GRID), 300, 5)


def _check_reliability(path: Path, thresholds: Path) -> list[str]:
    return checks.check_reliability(path, thresholds, checks.grid_values(SNR_GRID), THRESHOLD)


def _edit_rows(src: Path, dst: Path, edit) -> Path:
    lines = src.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    edit(rows)
    dst.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")
    return dst


def _find(rows, **want) -> list[str]:
    """First goodput row matching frame, scheme and mode."""
    cols = {"frame": 0, "scheme": 1, "mode": 2}
    return next(r for r in rows if all(float(r[0]) == v if k == "frame" else r[cols[k]] == v
                                       for k, v in want.items()))


def _set(col: int, value: str, **where):
    def edit(rows):
        _find(rows, **where)[col] = value
    return edit


def _ob_overhead_above_ib(rows):
    ib = _find(rows, frame=20, scheme="oce", mode="ib")
    _find(rows, frame=20, scheme="oce", mode="ob")[4] = repr(float(ib[4]) + 0.5)


def _es_success_differs(rows):
    row = _find(rows, frame=15, scheme="bsw-es", mode="ob")
    row[5] = repr(float(row[5]) / 2)


GOODPUT_CORRUPTIONS = {
    "success_prob": _set(5, "1.5", frame=10, scheme="oce", mode="ib"),
    "goodput_mbps": _set(3, "-0.25", frame=15, scheme="bsw", mode="ob"),
    "overhead_ms": _set(4, "20.5", frame=20, scheme="bsw", mode="ib"),
    "n_trials/seed": _set(6, "299", frame=10, scheme="bsw", mode="ib"),
    "bsw and bsw-es": _es_success_differs,
    "OB overhead": _ob_overhead_above_ib,
    "rows, want": lambda rows: rows.pop(3),
    "frame grid": lambda rows: rows.append(rows[-1]),
}


def test_goodput_output_passes(goodput_csv):
    assert _check_goodput(goodput_csv) == []


@pytest.mark.parametrize("expected", sorted(GOODPUT_CORRUPTIONS))
def test_goodput_check_rejects_corruption(goodput_csv, tmp_path, expected):
    bad = _edit_rows(goodput_csv, tmp_path / "bad.csv", GOODPUT_CORRUPTIONS[expected])
    problems = _check_goodput(bad)
    assert any(expected in p for p in problems), problems


def test_goodput_check_rejects_wrong_header(goodput_csv, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text(goodput_csv.read_text().replace("success_prob", "p_success", 1))
    assert any("header" in p for p in _check_goodput(bad))


def _cell(rows, scheme, mode, i, j):
    """Row of cell (RIS index i, UE index j) of one (scheme, mode) block."""
    g = len(checks.grid_values(SNR_GRID))
    return [r for r in rows if r[2] == scheme and r[3] == mode][i * g + j]


def _bump(scheme, mode, i, j, from_i, from_j, by):
    """Set cell (i, j) to cell (from_i, from_j) + by."""
    def edit(rows):
        src = float(_cell(rows, scheme, mode, from_i, from_j)[4])
        _cell(rows, scheme, mode, i, j)[4] = repr(src + by)
    return edit


def _ob_below_ib(rows):
    ib = float(_cell(rows, "bsw", "ib", 4, 4)[4])
    _cell(rows, "bsw", "ob", 4, 4)[4] = repr(ib / 2)


RELIABILITY_CORRUPTIONS = {
    "outside [0, 1]": _bump("oce", "ob", 10, 10, 10, 10, 0.5),
    "UE axis": _bump("oce", "ib", 5, 0, 5, 1, 1e-3),
    "RIS axis": _bump("bsw", "ib", 0, 5, 1, 5, 1e-3),
    "OB reliability below IB": _ob_below_ib,
    "rows, want": lambda rows: rows.pop(),
    "do not follow the grid": lambda rows: rows[7].__setitem__(1, "99"),
}


def test_reliability_output_passes(reliability_csvs):
    assert _check_reliability(*reliability_csvs) == []


@pytest.mark.parametrize("expected", sorted(RELIABILITY_CORRUPTIONS))
def test_reliability_check_rejects_corruption(reliability_csvs, tmp_path, expected):
    path, thresholds = reliability_csvs
    bad = _edit_rows(path, tmp_path / "bad.csv", RELIABILITY_CORRUPTIONS[expected])
    problems = _check_reliability(bad, thresholds)
    assert any(expected in p for p in problems), problems


def test_reliability_check_rejects_wrong_threshold(reliability_csvs, tmp_path):
    path, thresholds = reliability_csvs
    bad = _edit_rows(thresholds, tmp_path / "bad_thresholds.csv",
                     lambda rows: rows[0].__setitem__(3, "-7"))
    problems = _check_reliability(path, bad)
    assert any("threshold" in p for p in problems), problems
