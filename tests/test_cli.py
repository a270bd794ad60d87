import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riscplane import cli
from riscplane.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_PLAN,
    GOODPUT_HEADER,
    RELIABILITY_HEADER,
    THRESHOLD_HEADER,
    main,
)
from riscplane.config import RunConfig, load_config, parse_grid, ConfigError
from riscplane.control import ControlChannelState, Scheme, db_to_linear
from riscplane.frames import CausalityViolation, PhaseKind


def run_cli(args, capsys=None):
    code = main(args)
    if capsys is not None:
        capsys.readouterr()
    return code


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

def test_packaged_default_config_matches_code_defaults():
    assert load_config() == RunConfig()


def test_config_file_overrides_and_comments(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nn_trials = 42\nrho = 0.5  # inline\n")
    cfg = load_config(str(path))
    assert cfg.n_trials == 42 and cfg.rho == 0.5


def test_unknown_config_key_is_an_error(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("n_triials = 42\n")
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert "n_triials" in str(err.value)


def test_parse_grid_forms():
    assert parse_grid("4", "g") == (4.0,)
    assert parse_grid("10:20:5", "g") == (10.0, 15.0, 20.0)
    for bad in ("10:20", "abc", "nan", "inf", "-inf", "0:inf:5", "0:10:nan",
                "0.5:1e308:1e-10", "0.5:1e9:0.5"):
        with pytest.raises(ConfigError):
            parse_grid(bad, "g")


def test_validation_names_offending_field():
    cfg = RunConfig()
    cfg.n_elements = 0
    with pytest.raises(ConfigError) as err:
        cfg.validate()
    assert err.value.field_name == "n_elements"


_DB = st.floats() | st.floats(-4000.0, 4000.0)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(target=_DB, ue=_DB, ris=_DB, grid=st.lists(_DB, min_size=1, max_size=4).map(sorted),
       quant_bits=st.integers(-2, 70))
def test_validated_config_builds_domain_objects(target, ue, ris, grid, quant_bits):
    cfg = RunConfig(target_snr_db=target, snr_ue_db=ue, snr_ris_db=ris,
                    snr_grid_db=tuple(grid), quant_bits=quant_bits)
    try:
        cfg.validate()
    except ConfigError:
        return
    for scheme in Scheme:
        cfg.scheme_params(scheme)
    cfg.control_state()
    for db in cfg.snr_grid_db:
        ControlChannelState(avg_snr_ue=db_to_linear(db), avg_snr_ris=db_to_linear(db))


def test_validation_bounds_phase_bits():
    cfg = RunConfig()
    cfg.quant_bits = 16
    cfg.validate()
    cfg.quant_bits = 17
    with pytest.raises(ConfigError) as err:
        cfg.validate()
    assert err.value.field_name == "quant_bits"


# ---------------------------------------------------------------------------
# goodput command
# ---------------------------------------------------------------------------

def test_goodput_row_count_and_header(tmp_path, capsys):
    out = tmp_path / "g.csv"
    code = run_cli(["goodput", "--trials", "200", "--out", str(out)], capsys)
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == GOODPUT_HEADER
    assert len(lines) - 1 == 19 * 3 * 2    # frames x schemes x modes


def test_goodput_seed_reproducibility(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["goodput", "--trials", "400", "--seed", "1", "--scheme", "bsw"]
    assert run_cli(argv + ["--out", str(a)], capsys) == EXIT_OK
    assert run_cli(argv + ["--out", str(b), "--workers", "2"], capsys) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_goodput_rejects_fractional_tti_grid(tmp_path, capsys):
    out = tmp_path / "g.csv"
    code = run_cli(["goodput", "--frame-grid", "0.3", "--out", str(out)], capsys)
    assert code == EXIT_CONFIG
    assert not out.exists()


def test_goodput_accepts_single_point_grid(tmp_path, capsys):
    out = tmp_path / "g.csv"
    code = run_cli(["goodput", "--frame-grid", "4", "--trials", "50",
                    "--out", str(out)], capsys)
    assert code == EXIT_OK
    assert len(out.read_text().splitlines()) == 1 + 6


def test_goodput_unwritable_output_is_io_error(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir" / "g.csv"
    code = run_cli(["goodput", "--trials", "50", "--out", str(missing)], capsys)
    assert code == EXIT_IO


def test_resolved_parameters_logged(tmp_path, capsys):
    out = tmp_path / "g.csv"
    main(["goodput", "--trials", "50", "--frame-grid", "10", "--out", str(out)])
    err = capsys.readouterr().err
    assert "# resolved rho = 0.0268" in err
    assert "# resolved master_seed = 1" in err


# sha256 of goodput CSVs written before the batch path replaced one sweep per
# curve (the third before payload rows were shared between curves, the fourth
# before codebooks became phase-level matrices); the draws come from numpy's
# random stream, so they hold per numpy version
PINNED_NUMPY = "2.4.6"
PINNED_GOODPUT = [
    (["--seed", "1", "--frame-grid", "5:100:5"], "",
     "5ecd4288558d803b89bfd4d1d08ffee46d33636570d625aab47df4f268101336"),
    (["--seed", "5"],
     "n_elements = 16\nbsw_codebook_size = 8\nrho = 0.286\nperfect_control = false\n"
     "es_reservation = false\nframe_grid = 2:40:1.5\nquant_bits = 3\n",
     "595ae5c9ee199bc7852c00f802700708a686addf72aabd296e9ce030ec30efb0"),
    # a 1-TTI frame step, where the IB and OB curves of a scheme share payload rows
    (["--seed", "3"],
     "n_elements = 16\nbsw_codebook_size = 8\nrho = 0.286\nperfect_control = false\n"
     "es_reservation = true\nframe_grid = 2:60:0.5\n",
     "b206e683bd3c89797eb7a476aef7fbd105a31377fb401081da9eaf77866824c3"),
    # a DFT-subset sweeping codebook on a 3-bit grid; about half the 30 ms
    # trials qualify, so the sweep decides the BSW rows
    (["--seed", "2"],
     "n_elements = 64\nbsw_codebook_size = 16\nbsw_codebook_style = dft\nquant_bits = 3\n"
     "rho = 0.05\nframe_grid = 10:60:5\n",
     "b88f1198d1d53cd15146a8f2267d1ecd205dcffef0f4b64b86c36ee3cc6a9fed"),
]


@pytest.mark.parametrize("args, config, digest", PINNED_GOODPUT)
def test_goodput_csv_bytes_pinned(tmp_path, capsys, args, config, digest):
    if np.__version__ != PINNED_NUMPY:
        pytest.skip(f"digests pinned with numpy {PINNED_NUMPY}, running {np.__version__}")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "g.csv"
    argv = ["goodput", "--trials", "5000", "--config", str(cfg), "--out", str(out), *args]
    assert run_cli(argv, capsys) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of both reliability CSVs written before the grid became a product of
# per-axis factors
PINNED_RELIABILITY = {
    "r.csv": "906fd4c7066a629a48843b927a3f3696b797a2beaa45ace8118a7b2426e2f882",
    "r_thresholds.csv": "cd720403d7b5ce83b48e9be0ed5a5e0f1dce839f83eaab78a3fb32bcf945e927",
}


def test_reliability_csv_bytes_pinned(tmp_path, capsys):
    if np.__version__ != PINNED_NUMPY:
        pytest.skip(f"digests pinned with numpy {PINNED_NUMPY}, running {np.__version__}")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("snr_grid_db = 0:30:0.5\n")
    argv = ["reliability", "--threshold", "0.99", "--config", str(cfg),
            "--out", str(tmp_path / "r.csv")]
    assert run_cli(argv, capsys) == EXIT_OK
    for name, digest in PINNED_RELIABILITY.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


# ---------------------------------------------------------------------------
# reliability command
# ---------------------------------------------------------------------------

def test_reliability_rows_and_header(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = run_cli(["reliability", "--scheme", "oce", "--mode", "ib",
                    "--out", str(out)], capsys)
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == RELIABILITY_HEADER
    assert len(lines) - 1 == 31 * 31


def test_reliability_out_of_band_constant_in_ris_axis(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert run_cli(["reliability", "--scheme", "bsw", "--mode", "ob",
                    "--out", str(out)], capsys) == EXIT_OK
    per_ue = {}
    for line in out.read_text().splitlines()[1:]:
        ris, ue, _, _, rel = line.split(",")
        per_ue.setdefault(ue, set()).add(rel)
    assert all(len(values) == 1 for values in per_ue.values())


def test_reliability_threshold_summary(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = run_cli(["reliability", "--scheme", "oce", "--threshold", "0.99",
                    "--out", str(out)], capsys)
    assert code == EXIT_OK
    summary = (tmp_path / "r_thresholds.csv").read_text().splitlines()
    assert summary[0] == THRESHOLD_HEADER
    rows = {tuple(line.split(",")[:3]): line.split(",")[3] for line in summary[1:]}
    assert rows[("oce", "ob", "ris")] == "0"    # any grid SNR works out of band
    assert float(rows[("oce", "ib", "ris")]) > float(rows[("oce", "ob", "ris")])


def test_reliability_unreachable_threshold_emits_inf(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = run_cli(["reliability", "--scheme", "bsw", "--threshold", "0.999999",
                    "--out", str(out)], capsys)
    assert code == EXIT_OK
    summary = (tmp_path / "r_thresholds.csv").read_text()
    assert "inf" in summary


def test_reliability_rejects_bad_threshold(tmp_path, capsys):
    code = run_cli(["reliability", "--threshold", "1.5",
                    "--out", str(tmp_path / "r.csv")], capsys)
    assert code == EXIT_CONFIG


# ---------------------------------------------------------------------------
# validate command
# ---------------------------------------------------------------------------

def test_validate_default_config(capsys):
    assert main(["validate"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("overhead") == 6
    assert "violation" not in out


def test_validate_warns_on_null_rate(tmp_path, capsys):
    path = tmp_path / "short.cfg"
    path.write_text("frame_grid = 5\nswitch_ttis = 400\n")
    assert main(["validate", "--config", str(path)]) == EXIT_OK
    assert "null rate" in capsys.readouterr().out


def test_validate_failed_plan_check_exits_1(monkeypatch, capsys):
    violation = CausalityViolation(pair=(PhaseKind.SET, PhaseKind.ALG), detail="forced")
    monkeypatch.setattr(cli, "validate_causality", lambda plan: violation)
    assert main(["validate"]) == EXIT_PLAN == 1
    assert "causality violation" in capsys.readouterr().out


def test_validate_corrupted_config(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("rho = banana\n")
    assert run_cli(["validate", "--config", str(path)], capsys) == EXIT_CONFIG
    assert run_cli(["validate", "--config", str(tmp_path / "missing.cfg")],
                   capsys) == EXIT_CONFIG


# ---------------------------------------------------------------------------
# console entry point
# ---------------------------------------------------------------------------

def test_module_invocation_smoke(tmp_path):
    out = tmp_path / "g.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "riscplane", "goodput", "--trials", "50",
         "--frame-grid", "20", "--scheme", "bsw", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert out.read_text().splitlines()[0] == GOODPUT_HEADER


_BLAS_PROBE = """
import ctypes, glob, os
import riscplane
import numpy
print(os.environ["OPENBLAS_NUM_THREADS"])
libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
    get = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
    if get is not None:
        print(get())
"""


def test_import_defaults_blas_to_one_thread():
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run([sys.executable, "-c", _BLAS_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    variable, *library = proc.stdout.split()
    assert variable == "1"
    if not library:
        pytest.skip("numpy's bundled OpenBLAS or its thread-count symbol not found")
    assert library == ["1"]


def test_import_keeps_a_preset_blas_thread_count():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2"}
    proc = subprocess.run([sys.executable, "-c", _BLAS_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split()[0] == "2"


def test_goodput_bytes_do_not_depend_on_blas_threads_or_workers(tmp_path):
    outputs = []
    for threads in ("1", "2"):
        for workers in ("1", "2"):
            out = tmp_path / f"blas{threads}_workers{workers}.csv"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
            subprocess.run(
                [sys.executable, "-m", "riscplane", "goodput", "--trials", "5000",
                 "--workers", workers, "--out", str(out)],   # two chunks, N = 100, C = 32
                env=env, capture_output=True, check=True)
            outputs.append(out.read_bytes())
    assert all(output == outputs[0] for output in outputs[1:])


@pytest.mark.parametrize("args, config", [
    (["goodput", "--frame-grid", "nan"], ""),
    (["goodput", "--frame-grid", "inf"], ""),
    (["goodput", "--frame-grid", "10:inf:5"], ""),
    (["goodput"], "target_snr_db = nan\n"),
    (["reliability"], "snr_grid_db = nan\n"),
    (["goodput"], "rho = inf\n"),
    (["goodput"], "quant_bits = 64\n"),
    (["goodput", "--frame-grid", "0.5:1e308:1e-10"], ""),
    (["goodput", "--frame-grid", "0.5:1e9:0.5"], ""),
    (["reliability"], "snr_grid_db = -4000:0:1000\n"),
    (["goodput"], "target_snr_db = -4000\n"),
    (["goodput"], "target_snr_db = 4000\n"),
    (["goodput"], "perfect_control = false\nsnr_ue_db = -4000\n"),
    (["goodput"], "perfect_control = false\nsnr_ris_db = -4000\n"),
    (["goodput", "--frame-grid", "1e-12"], ""),
    (["goodput"], "tti_ms = 1e-300\n"),
    (["goodput"], "switch_ttis = 100000000000000000000000\n"),
    (["goodput"], "header_bits = 1000000000000000000000000000000\n"),
])
def test_bad_numbers_exit_config_without_traceback(tmp_path, args, config):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    proc = subprocess.run(
        [sys.executable, "-m", "riscplane", *args, "--config", str(cfg),
         "--out", str(tmp_path / "out.csv")],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_CONFIG
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("config error: ")
