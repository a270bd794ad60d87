import dataclasses
import hashlib
import io
import math
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riscplane import cli, frames, metrics
from riscplane.cli import (
    EXIT_CONFIG,
    EXIT_INTERRUPTED,
    EXIT_IO,
    EXIT_OK,
    EXIT_WORKER,
    GOODPUT_HEADER,
    RELIABILITY_HEADER,
    THRESHOLD_HEADER,
    main,
)
from riscplane.config import (
    MAX_CONFIG_BYTES, RunConfig, load_config, parse_config_text, parse_grid,
)
from riscplane.control import ControlChannelState, ControlMode, Scheme, db_to_linear
from riscplane.errors import InvalidParameterError
from riscplane.frames import build_frame
from riscplane.metrics import (
    MAX_WORKING_SET_BYTES, check_working_set, goodput_curves, reliability_grid,
    working_set_bytes,
)


# child interpreters import riscplane from the tree this suite imports it from
_SRC = str(Path(cli.__file__).resolve().parents[1])


def child_env(env=None):
    """env (default: this process's) with the package's source tree first on PYTHONPATH."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    return env


def run_cli(args, capsys=None):
    code = main(args)
    if capsys is not None:
        capsys.readouterr()
    return code


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

def test_config_file_overrides_and_comments(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nn_trials = 42\nrho = 0.5  # inline\n")
    cfg = load_config(str(path))
    assert cfg.n_trials == 42 and cfg.rho == 0.5


def test_config_file_may_start_with_a_byte_order_mark(tmp_path):
    # as some editors save UTF-8
    path = tmp_path / "run.cfg"
    path.write_bytes(b"\xef\xbb\xbfn_elements = 16\nrho = 0.286\n")
    cfg = load_config(str(path))
    assert cfg.n_elements == 16 and cfg.rho == 0.286


def test_unknown_config_key_is_an_error(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("n_triials = 42\n")
    with pytest.raises(InvalidParameterError) as err:
        load_config(str(path))
    assert "n_triials" in str(err.value)


def test_parse_grid_forms():
    assert parse_grid("4", "g") == (4.0,)
    assert parse_grid("10:20:5", "g") == (10.0, 15.0, 20.0)
    for bad in ("10:20", "abc", "nan", "inf", "-inf", "0:inf:5", "0:10:nan",
                "0.5:1e308:1e-10", "0.5:1e9:0.5"):
        with pytest.raises(InvalidParameterError):
            parse_grid(bad, "g")


def test_invalid_parameter_error_survives_pickling():
    # a pool worker's error reaches the parent pickled
    err = InvalidParameterError("n_trials", "must be >= 1")
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is InvalidParameterError
    assert back.field_name == "n_trials"
    assert str(back) == str(err) == "n_trials: must be >= 1"


def test_validation_names_offending_field():
    with pytest.raises(InvalidParameterError) as err:
        RunConfig(n_elements=0)
    assert err.value.field_name == "n_elements"


# One bad value per RunConfig field; validate must reject it naming that field.
_BAD_VALUES = {
    "n_elements": 0,
    "quant_bits": 17,
    "bsw_codebook_size": 0,
    "bsw_codebook_style": "sobol",
    "codebook_seed": -1,
    "target_snr_db": 4000.0,
    "rho": math.inf,
    "tti_ms": 0.0,
    "proc_ttis": -1,
    "switch_ttis": 0,
    "symbols_per_tti": 0,
    "header_bits": -1,
    "bandwidth_hz": math.inf,
    "snr_ue_db": -4000.0,
    "snr_ris_db": math.nan,
    "perfect_control": "false",
    "es_reservation": 0,
    "ini_carries_full_codebook": None,
    "master_seed": -1,
    "n_trials": 2.5,
    "workers": 0,
    "frame_grid": (),
    "snr_grid_db": (1.0, 0.0),
}
# The field that accepts any value: the output path.
_FREE_FIELDS = {"output_path"}
_INT_FIELDS = [f.name for f in dataclasses.fields(RunConfig) if f.type == "int"]


def test_every_field_has_a_bad_value_or_is_free():
    # a field added later fails here until it gets a rule and a row above
    names = {f.name for f in dataclasses.fields(RunConfig)}
    assert names == _BAD_VALUES.keys() | _FREE_FIELDS
    assert not _BAD_VALUES.keys() & _FREE_FIELDS
    assert len(_INT_FIELDS) == 11


@pytest.mark.parametrize("name, value", _BAD_VALUES.items(), ids=list(_BAD_VALUES))
def test_validation_names_each_field(name, value):
    with pytest.raises(InvalidParameterError) as err:
        RunConfig(**{name: value}).validate()
    assert err.value.field_name == name


@pytest.mark.parametrize("name", _INT_FIELDS)
def test_int_fields_reject_bools_and_fractions(name):
    for value in (True, 2.5):
        with pytest.raises(InvalidParameterError) as err:
            RunConfig(**{name: value}).validate()
        assert err.value.field_name == name
    # integral numpy scalars are integers
    RunConfig(**{name: np.int64(getattr(RunConfig(), name))}).validate()


@pytest.mark.parametrize("text, message", [
    ("frame_grid = 10:5:1", "frame_grid: grid requires STOP >= START and STEP > 0"),
    ("frame_grid = 0:100000:1", "frame_grid: grid has more than 10000 points"),
    ("rho = inf", "rho: 'inf' is not a finite number"),
    ("snr_grid_db = 0:inf:1", "snr_grid_db: 'inf' is not a finite number"),
    ("frame_grid = 10:x:5",
     "frame_grid: cannot parse grid '10:x:5' (want START:STOP:STEP or a value)"),
    ("rho = banana", "rho: cannot parse value 'banana'"),
    ("n_trials = 2.5", "n_trials: cannot parse value '2.5'"),
    ("perfect_control = maybe", "perfect_control: cannot parse value 'maybe'"),
])
def test_parse_errors_keep_their_messages(text, message):
    with pytest.raises(InvalidParameterError) as err:
        parse_config_text(text)
    assert str(err.value) == message


def test_working_set_budget():
    # estimates only: nothing here allocates a chunk or a codebook
    fine_grid = tuple(0.5 * i for i in range(20, 10001))
    for cfg in (RunConfig(n_elements=10 ** 6),
                RunConfig(n_elements=16, bsw_codebook_size=10_000, frame_grid=fine_grid)):
        assert working_set_bytes(cfg) > MAX_WORKING_SET_BYTES
        cfg.validate()      # the budget is a goodput rule, not a rule of every command
        with pytest.raises(InvalidParameterError) as err:
            check_working_set(cfg)
        assert err.value.field_name == "config"
    for cfg in (RunConfig(n_elements=4000),
                RunConfig(n_elements=16, bsw_codebook_size=256, frame_grid=fine_grid)):
        cfg.validate()
        check_working_set(cfg)


def test_goodput_curves_check_the_budget_before_allocating(monkeypatch):
    def no_chunks(*args):
        raise AssertionError("a chunk was allocated")
    monkeypatch.setattr(metrics, "_Scratch", no_chunks)
    monkeypatch.setattr(metrics, "_cascade", no_chunks)
    with pytest.raises(InvalidParameterError) as err:
        goodput_curves(RunConfig(n_elements=10 ** 6), [(Scheme.OCE, ControlMode.OB_C)])
    assert err.value.field_name == "config"


@pytest.mark.parametrize("command", ["reliability", "validate"])
def test_budget_leaves_other_commands_alone(tmp_path, capsys, command):
    # neither command allocates anything per element
    path = tmp_path / "run.cfg"
    path.write_text("n_elements = 1000000\n")
    out = tmp_path / "r.csv"
    args = ["--out", str(out)] if command == "reliability" else []
    assert run_cli([command, "--config", str(path), *args], capsys) == EXIT_OK
    if command == "reliability":
        assert len(out.read_text().splitlines()) - 1 == 5766     # 31 x 31 x 6


_PEAK_SCRIPT = """
import sys
from riscplane import cli
if sys.argv[1:]:
    assert cli.main(sys.argv[1:]) == 0
with open("/proc/self/status") as status:
    print(next(int(line.split()[1]) * 1024 for line in status if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
@pytest.mark.parametrize("n, c, bound", [
    (1000, 32, 36 * 4096 * 1000),     # chunk buffers well under 48 B per trial and element
    (16, 512, 24 * 4096 * 512),       # sweep products in the real buffer, no (trials, C) arrays
])
def test_working_set_estimate_bounds_the_measured_peak(tmp_path, n, c, bound):
    # the peak RSS of a goodput run over that of a process stopped right after import
    (tmp_path / "run.cfg").write_text(f"n_elements = {n}\nbsw_codebook_size = {c}\n")
    args = ["goodput", "--config", str(tmp_path / "run.cfg"), "--trials", "4096",
            "--frame-grid", "10:20:5", "--out", str(tmp_path / "g.csv")]

    def peak(*argv):
        proc = subprocess.run([sys.executable, "-c", _PEAK_SCRIPT, *argv], env=child_env(),
                              capture_output=True, text=True, check=True)
        return int(proc.stdout)

    growth = peak(*args) - peak()
    cfg = RunConfig(n_elements=n, bsw_codebook_size=c, n_trials=4096,
                    frame_grid=(10.0, 15.0, 20.0))
    assert growth <= working_set_bytes(cfg)     # the estimate never reads low
    assert growth < bound


def test_oversized_run_exits_config_without_traceback(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_elements = 1000000\n")
    proc = subprocess.run(
        [sys.executable, "-m", "riscplane", "goodput", "--config", str(cfg),
         "--out", str(tmp_path / "out.csv")],
        env=child_env(), capture_output=True, text=True)
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.startswith("config error: config: a goodput run needs about ")
    assert len(proc.stderr.splitlines()) == 1
    assert not (tmp_path / "out.csv").exists()


# a goodput run through cli.main with Python's SIGINT handler, even where SIGINT was
# ignored when this interpreter started (as in a background job)
_INTERRUPTIBLE = """
import signal, sys
signal.signal(signal.SIGINT, signal.default_int_handler)
from riscplane import cli
sys.exit(cli.main(sys.argv[1:]))
"""


def error_lines(stderr: str) -> list:
    """stderr without the resolved-config log."""
    return [line for line in stderr.splitlines() if not line.startswith("# resolved ")]


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs process groups")
@pytest.mark.parametrize("workers", ["1", "2"])
def test_sigint_mid_run_exits_130_with_one_line(tmp_path, workers):
    # SIGINT goes to the whole process group, as a terminal's Ctrl-C does
    out = tmp_path / "g.csv"
    proc = subprocess.Popen(
        [sys.executable, "-c", _INTERRUPTIBLE, "goodput", "--trials", str(10 ** 8),
         "--workers", workers, "--out", str(out)],
        env=child_env(), stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        while not out.exists() and time.monotonic() < deadline:
            time.sleep(0.05)
        time.sleep(1.0)         # the chunks are running, in the pool's workers too
        os.killpg(proc.pid, signal.SIGINT)
        _, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == EXIT_INTERRUPTED
    assert error_lines(stderr) == ["interrupted"]


# a goodput run whose second chunk kills the pool worker running it
_DYING_WORKER = """
import multiprocessing, os, sys
from riscplane import cli, metrics
multiprocessing.set_start_method("fork")
chunk_partials = metrics._chunk_partials

def dying(cfg, curves, entries, chunk_index):
    if chunk_index == 1:
        os._exit(9)
    return chunk_partials(cfg, curves, entries, chunk_index)

metrics._chunk_partials = dying
metrics._available_cpus = lambda: 2
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_dead_pool_worker_exits_4_with_one_line(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _DYING_WORKER, "goodput", "--trials", "9000", "--workers", "2",
         "--out", str(tmp_path / "g.csv")],
        env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_WORKER
    lines = error_lines(proc.stderr)
    assert len(lines) == 1 and lines[0].startswith("worker error: ")


def _mostly(usual, other):
    """usual nine draws in ten, other in the tenth.

    An even mix over this many keys lets almost no config through validate,
    which would leave the checks on accepted configs unexercised.
    """
    return st.integers(0, 9).flatmap(lambda i: usual if i else other)


_DB = _mostly(st.floats(-3000.0, 3000.0), st.floats() | st.floats(-4000.0, 4000.0))
_COUNT = _mostly(st.integers(0, 2 ** 45), st.integers(-2, 0))
_SIZE = _mostly(st.integers(1, 20_000), st.integers(-2, 2 ** 45))   # up to the memory budget
_REAL = _mostly(st.floats(1e-6, 1e9), st.floats())


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(target=_DB, ue=_DB, ris=_DB, grid=st.lists(_DB, min_size=1, max_size=4).map(sorted),
       quant_bits=_mostly(st.integers(1, 16), st.integers(-2, 70)),
       n_elements=_SIZE, bsw_codebook_size=_SIZE,
       proc_ttis=_COUNT, switch_ttis=_COUNT, symbols_per_tti=_COUNT, header_bits=_COUNT,
       rho=_REAL, bandwidth_hz=_REAL, tti_ms=_mostly(st.sampled_from([0.25, 0.5, 1.0]), _REAL),
       n_trials=_SIZE, workers=_SIZE)
def test_validated_config_builds_domain_objects(target, ue, ris, grid, **values):
    # only objects are built, never a codebook or a chunk, so huge counts allocate nothing
    try:
        cfg = RunConfig(target_snr_db=target, snr_ue_db=ue, snr_ris_db=ris,
                        snr_grid_db=tuple(grid), **values)
    except InvalidParameterError:
        return
    # validate leaves the goodput budget to the goodput path
    if working_set_bytes(cfg) > MAX_WORKING_SET_BYTES:
        with pytest.raises(InvalidParameterError):
            check_working_set(cfg)
    else:
        check_working_set(cfg)
    frame = max(cfg.frame_grid)
    for scheme in Scheme:
        params, catalog = cfg.scheme_params(scheme), cfg.catalog(scheme)
        for mode in ControlMode:
            build_frame(params, mode, frame, cfg.tti_ms, catalog)
    cfg.control_state()
    for db in cfg.snr_grid_db:
        ControlChannelState(avg_snr_ue=db_to_linear(db), avg_snr_ris=db_to_linear(db),
                            symbols_per_tti=cfg.symbols_per_tti)


def test_validation_bounds_phase_bits():
    cfg = dataclasses.replace(RunConfig(), quant_bits=16)      # accepted
    with pytest.raises(InvalidParameterError) as err:
        dataclasses.replace(cfg, quant_bits=17)
    assert err.value.field_name == "quant_bits"


def test_config_is_frozen():
    cfg = RunConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.n_elements = 0
    assert cfg.n_elements == 100


def test_replace_validates_the_variant():
    with pytest.raises(InvalidParameterError) as err:
        dataclasses.replace(RunConfig(), n_elements=0)
    assert err.value.field_name == "n_elements"


def test_unpickling_does_not_validate_and_keeps_the_frames(monkeypatch):
    # a pool task's config is rebuilt from its state, frame TTIs included
    cfg = RunConfig(frame_grid=(1.0, 60.0))
    assert cfg.frames_ttis == (2, 120)

    def refuse(self):
        raise AssertionError("validated again")
    monkeypatch.setattr(RunConfig, "validate", refuse)
    back = pickle.loads(pickle.dumps(cfg))
    assert back == cfg
    assert vars(back)["frames_ttis"] == (2, 120)


def test_goodput_run_validates_once_and_derives_each_frame_once(tmp_path, capsys, monkeypatch):
    # the goodput-fine-grid config: 991 frames on the imperfect-control path
    path = tmp_path / "fine.cfg"
    path.write_text("n_elements = 16\nbsw_codebook_size = 8\nrho = 0.286\n"
                    "perfect_control = false\nframe_grid = 5:500:0.5\n")
    counts = {"validate": 0, "frame_ttis": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call
    monkeypatch.setattr(RunConfig, "validate", counted("validate", RunConfig.validate))
    original = frames.frame_ttis
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "riscplane" and getattr(module, "frame_ttis", None) is original:
            monkeypatch.setattr(module, "frame_ttis", counted("frame_ttis", original))
    argv = ["goodput", "--config", str(path), "--trials", "50", "--out", str(tmp_path / "g.csv")]
    assert run_cli(argv, capsys) == EXIT_OK
    assert counts == {"validate": 1, "frame_ttis": 991}


# ---------------------------------------------------------------------------
# Precedence: every file line, then every flag, then one validation
# ---------------------------------------------------------------------------

def test_flag_over_a_file_value_that_alone_is_invalid(tmp_path, capsys):
    path = tmp_path / "zero.cfg"
    path.write_text("n_trials = 0\n")
    out = tmp_path / "z.csv"
    assert run_cli(["goodput", "--config", str(path), "--trials", "50", "--frame-grid", "20",
                    "--out", str(out)], capsys) == EXIT_OK
    assert out.read_text().count(",50,1\n") == 6
    assert main(["goodput", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: n_trials: must be >= 1\n"


def test_file_parse_error_precedes_the_flags(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("n_trials = abc\n")
    out = tmp_path / "g.csv"
    assert main(["goodput", "--config", str(path), "--trials", "5", "--out", str(out)]) \
        == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: n_trials: cannot parse value 'abc'\n"
    assert not out.exists()


def test_bad_flag_over_a_good_file_names_the_flag(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("n_trials = 100\nworkers = 2\n")
    assert main(["goodput", "--config", str(path), "--seed", "x",
                 "--out", str(tmp_path / "g.csv")]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: master_seed: cannot parse value 'x'\n"
    assert main(["goodput", "--config", str(path), "--workers", "0",
                 "--out", str(tmp_path / "g.csv")]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: workers: must be >= 1\n"


_RESOLVED = (
    "n_elements = 100\nquant_bits = 2\nbsw_codebook_size = 32\nbsw_codebook_style = random\n"
    "codebook_seed = 7\ntarget_snr_db = 9.87654321\nrho = 0.0268\ntti_ms = 0.5\n"
    "proc_ttis = 2\nswitch_ttis = 1\nsymbols_per_tti = 84\nheader_bits = 16\n"
    "bandwidth_hz = 180000.0\nsnr_ue_db = 30.0\nsnr_ris_db = 30.0\nperfect_control = true\n"
    "es_reservation = true\nini_carries_full_codebook = false\nmaster_seed = 3\n"
    "n_trials = 50\nworkers = 1\nframe_grid = 10.0,12.5,15.0,17.5,20.0\n"
    "snr_grid_db = 0.0,1.0,2.0,3.0,4.0,5.0,6.0,7.0,8.0,9.0,10.0,11.0,12.0,13.0,14.0,15.0,"
    "16.0,17.0,18.0,19.0,20.0,21.0,22.0,23.0,24.0,25.0,26.0,27.0,28.0,29.0,30.0\n"
    "output_path = {out}\n"
)


def test_resolved_lines_of_a_flagged_run_are_pinned(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("target_snr_db = 9.87654321\nn_trials = 0\n")
    out = tmp_path / "g.csv"
    assert main(["goodput", "--config", str(path), "--trials", "50", "--seed", "3",
                 "--frame-grid", "10:20:2.5", "--out", str(out)]) == EXIT_OK
    err = capsys.readouterr().err
    resolved = "".join(line.removeprefix("# resolved ")
                       for line in err.splitlines(keepends=True) if line.startswith("# "))
    assert resolved == _RESOLVED.format(out=out)


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


def test_goodput_unwritable_output_fails_before_drawing(tmp_path, capsys, monkeypatch):
    def no_draws(*args):
        raise AssertionError("a chunk was drawn")
    monkeypatch.setattr(metrics, "_cascade", no_draws)
    missing = tmp_path / "no" / "such" / "dir" / "g.csv"
    code = run_cli(["goodput", "--trials", "100000", "--out", str(missing)], capsys)
    assert code == EXIT_IO


def test_resolved_parameters_logged(tmp_path, capsys):
    out = tmp_path / "g.csv"
    path = tmp_path / "run.cfg"
    path.write_text("target_snr_db = 9.87654321\nsnr_grid_db = 0:1:0.1\n")
    main(["goodput", "--config", str(path), "--trials", "50", "--frame-grid", "10",
          "--out", str(out)])
    err = capsys.readouterr().err
    assert "# resolved rho = 0.0268" in err
    assert "# resolved master_seed = 1" in err
    # every float, grid points included, is logged in a form float() restores exactly
    logged = dict(line.removeprefix("# resolved ").split(" = ", 1)
                  for line in err.splitlines() if line.startswith("# resolved "))
    cfg = dataclasses.replace(load_config(str(path)), frame_grid=(10.0,))
    for key, value in logged.items():
        field = getattr(cfg, key)
        if isinstance(field, float):
            assert float(value) == field, key
        elif isinstance(field, tuple):
            assert tuple(float(v) for v in value.split(",")) == field, key


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


def _reference_goodput_rows(curves) -> str:
    """goodput_curves' results, frame by frame in spec order, each formatted field by field."""
    return "".join(f"{r.frame_ms:.12g},{r.scheme.value},{r.mode.value},"
                   f"{r.goodput_mbps:.12g},{r.overhead_ms:.12g},{r.success_prob:.12g},"
                   f"{r.n_trials},{r.seed}\n"
                   for frame_results in zip(*curves) for r in frame_results)


@pytest.mark.parametrize("args, schemes, modes", [
    ([], list(Scheme), list(ControlMode)),
    (["--scheme", "bsw-es"], [Scheme.BSW_ES], list(ControlMode)),
    (["--mode", "ob"], list(Scheme), [ControlMode.OB_C]),
    (["--scheme", "oce", "--mode", "ib"], [Scheme.OCE], [ControlMode.IB_C]),
], ids=["all", "bsw-es", "ob", "oce-ib"])
def test_goodput_csv_matches_per_row_format(tmp_path, capsys, args, schemes, modes):
    # imperfect control on a 1-TTI step from 1 ms: the first frames are all overhead
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_elements = 16\nbsw_codebook_size = 8\nrho = 0.286\n"
                   "perfect_control = false\nframe_grid = 1:60:0.5\n")
    out = tmp_path / "g.csv"
    argv = ["goodput", "--trials", "5000", "--seed", "4", "--config", str(cfg),
            "--out", str(out), *args]
    assert run_cli(argv, capsys) == EXIT_OK
    config = dataclasses.replace(load_config(str(cfg)), n_trials=5000, master_seed=4)
    curves = goodput_curves(config, [(scheme, mode) for scheme in schemes for mode in modes])
    assert all(curve[0].goodput_mbps == 0.0 < curve[-1].goodput_mbps for curve in curves)
    assert all(curve[0].success_prob < 1.0 for curve in curves)
    assert out.read_text() == GOODPUT_HEADER + "\n" + _reference_goodput_rows(curves)


def test_goodput_command_makes_no_result_objects(tmp_path, capsys, monkeypatch):
    def no_results(*args, **kwargs):
        raise AssertionError("a GoodputResult was made")
    monkeypatch.setattr(metrics, "GoodputResult", no_results)
    out = tmp_path / "g.csv"
    assert run_cli(["goodput", "--trials", "300", "--out", str(out)], capsys) == EXIT_OK
    assert len(out.read_text().splitlines()) == 1 + 19 * 6
    with pytest.raises(AssertionError, match="GoodputResult"):     # the patch is seen
        goodput_curves(RunConfig(n_trials=300), [(Scheme.OCE, ControlMode.IB_C)])


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


@pytest.mark.parametrize("out, summary", [
    ("r.csv", "r_thresholds.csv"),
    ("rel", "rel_thresholds"),
    ("res.d/rel", "res.d/rel_thresholds"),        # the dot is in a directory name only
    ("res.d/r.csv", "res.d/r_thresholds.csv"),
    ("res/.rel", "res/.rel_thresholds"),          # a dotfile name has no extension
    (".rel", ".rel_thresholds"),
])
def test_reliability_threshold_summary_path(tmp_path, capsys, out, summary):
    (tmp_path / out).parent.mkdir(exist_ok=True)
    code = run_cli(["reliability", "--scheme", "oce", "--mode", "ob", "--threshold", "0.9",
                    "--out", str(tmp_path / out)], capsys)
    assert code == EXIT_OK
    assert (tmp_path / summary).read_text().splitlines()[0] == THRESHOLD_HEADER


def _reference_block(m, grid_s, scheme, mode) -> str:
    """The rows of one (scheme, mode) grid, formatted cell by cell."""
    return "".join(f"{ris},{ue},{scheme.value},{mode.value},{v:.12g}\n"
                   for ris, row in zip(grid_s, m.tolist()) for ue, v in zip(grid_s, row))


_ROW_A = [0.25, 1.0, 1e-300, 0.1]
_ROW_B = [0.25, 1.0, 1e-300, 0.30000000000000004]


@pytest.mark.parametrize("rows", [
    [_ROW_A] * 4,
    [[0.0, 0.5, 0.75, 1.0], _ROW_A, _ROW_B, [2 ** -1074, 0.5, 1 / 3, 1.0]],
    [_ROW_A, _ROW_A, _ROW_B, _ROW_A],
    [[0.0, 0.5], [-0.0, 0.5]],          # equal under ==, not in bits: the second prints -0
    [[0.875]],
], ids=["all-equal", "all-different", "AABA", "signed-zero", "1x1"])
def test_reliability_block_matches_per_cell_format(rows):
    m = np.array(rows, dtype=np.float64)
    grid_s = [format(v, ".12g") for v in np.linspace(-1.5, 1.5, len(rows))]
    fh = io.StringIO()
    cli._write_block(fh, m, grid_s, Scheme.BSW, ControlMode.IB_C)
    assert fh.getvalue() == _reference_block(m, grid_s, Scheme.BSW, ControlMode.IB_C)


def test_reliability_csv_matches_per_cell_format(tmp_path, capsys):
    # at -60 dB every in-band factor is 0.0, so in-band grids repeat rows too
    cfg = tmp_path / "run.cfg"
    cfg.write_text("snr_grid_db = -60:60:5\n")
    out = tmp_path / "r.csv"
    assert run_cli(["reliability", "--config", str(cfg), "--out", str(out)], capsys) == EXIT_OK
    config = load_config(str(cfg))
    grid = config.snr_grid_db
    grid_s = [format(v, ".12g") for v in grid]
    expected, repeated_in_band = [RELIABILITY_HEADER + "\n"], 0
    for scheme in Scheme:
        for mode in ControlMode:
            m = reliability_grid(config.catalog(scheme), mode, grid, grid, config.symbols_per_tti)
            expected.append(_reference_block(m, grid_s, scheme, mode))
            if mode is ControlMode.IB_C:
                repeated_in_band += sum(np.array_equal(a, b) for a, b in zip(m, m[1:]))
    assert repeated_in_band > 0
    assert out.read_text() == "".join(expected)


def test_reliability_unreachable_threshold_emits_inf(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = run_cli(["reliability", "--scheme", "bsw", "--threshold", "0.999999",
                    "--out", str(out)], capsys)
    assert code == EXIT_OK
    summary = (tmp_path / "r_thresholds.csv").read_text()
    assert "inf" in summary


@pytest.mark.parametrize("flag", ["--seed", "--trials", "--workers"])
def test_reliability_rejects_goodput_only_flags(tmp_path, capsys, flag):
    # the grid is closed form: no seed, trials or workers change its bytes
    with pytest.raises(SystemExit) as exc:
        main(["reliability", flag, "5", "--out", str(tmp_path / "r.csv")])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_reliability_threshold_needs_a_regular_out(tmp_path, capsys, monkeypatch):
    # the thresholds file would go next to the device; the stand-in path keeps it in tmp_path
    summary = tmp_path / "null_thresholds"
    monkeypatch.setattr(cli, "_threshold_path", lambda out_path: str(summary))
    for out in (os.devnull, str(tmp_path)):
        assert main(["reliability", "--threshold", "0.99", "--out", out]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"config error: threshold: needs --out to be a regular file or a new " \
                      f"path, not {out!r}\n"
        assert not summary.exists()
    # without --threshold a device takes the CSV
    assert run_cli(["reliability", "--out", os.devnull], capsys) == EXIT_OK


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


def test_validate_corrupted_config(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("rho = banana\n")
    assert run_cli(["validate", "--config", str(path)], capsys) == EXIT_CONFIG
    assert run_cli(["validate", "--config", str(tmp_path / "missing.cfg")],
                   capsys) == EXIT_CONFIG
    path.write_text("# rho\nrho 0.1\n")
    assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: config: line 2: expected 'key = value'\n"
    path.write_bytes(b"rho = 0.1\n\xff\xfe\n")      # not UTF-8
    assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: config: cannot read ") and len(err.splitlines()) == 1
    assert main(["validate", "--config", str(tmp_path)]) == EXIT_CONFIG    # a directory
    assert capsys.readouterr().err == f"config error: config: not a regular file: {tmp_path}\n"


def test_over_long_config_path_is_a_config_error(capsys):
    # the file system cannot look the name up (ENAMETOOLONG), which is not an output error
    assert main(["validate", "--config", "a" * 5000]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: config: ") and len(err.splitlines()) == 1


def test_config_file_size_is_capped(tmp_path, capsys):
    path = tmp_path / "big.cfg"
    path.write_bytes(b"n_trials = 5\n" + b" " * (MAX_CONFIG_BYTES - 14) + b"\n")
    assert load_config(str(path)).n_trials == 5     # exactly MAX_CONFIG_BYTES is read
    with open(path, "ab") as fh:
        fh.write(b"#")
    assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == \
        f"config error: config: more than {MAX_CONFIG_BYTES} bytes: {path}\n"


_EXIT_AND_PEAK_SCRIPT = """
import sys
from riscplane import cli
code = cli.main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(code, next(int(line.split()[1]) * 1024 for line in status if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_huge_config_file_is_rejected_without_reading_it(tmp_path):
    # a sparse 200 MB file: reading it whole would add 400 MiB (bytes and text) to the peak
    path = tmp_path / "big.cfg"
    with open(path, "wb") as fh:
        fh.truncate(200 << 20)

    def exit_and_peak(*argv):
        proc = subprocess.run([sys.executable, "-c", _EXIT_AND_PEAK_SCRIPT, *argv],
                              env=child_env(), capture_output=True, text=True, check=True)
        code, peak = proc.stdout.splitlines()[-1].split()     # after validate's plan lines
        return int(code), int(peak), proc.stderr

    code, peak, err = exit_and_peak("validate", "--config", str(path))
    assert code == EXIT_CONFIG
    assert err == f"config error: config: more than {MAX_CONFIG_BYTES} bytes: {path}\n"
    plain_code, plain_peak, _ = exit_and_peak("validate")
    assert plain_code == EXIT_OK
    assert peak < plain_peak + 8 * MAX_CONFIG_BYTES


# ---------------------------------------------------------------------------
# console entry point
# ---------------------------------------------------------------------------

def test_module_invocation_smoke(tmp_path):
    out = tmp_path / "g.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "riscplane", "goodput", "--trials", "50",
         "--frame-grid", "20", "--scheme", "bsw", "--out", str(out)],
        env=child_env(), capture_output=True, text=True)
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
    proc = subprocess.run([sys.executable, "-c", _BLAS_PROBE], env=child_env(env),
                          capture_output=True, text=True, check=True)
    variable, *library = proc.stdout.split()
    assert variable == "1"
    if not library:
        pytest.skip("numpy's bundled OpenBLAS or its thread-count symbol not found")
    assert library == ["1"]


def test_import_keeps_a_preset_blas_thread_count():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2"}
    proc = subprocess.run([sys.executable, "-c", _BLAS_PROBE], env=child_env(env),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split()[0] == "2"


def test_cli_import_leaves_the_process_pool_unloaded():
    # the pool module is imported only when a run opens a pool
    probe = "import sys, riscplane.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], env=child_env(),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["False"]


def test_goodput_bytes_do_not_depend_on_blas_threads_or_workers(tmp_path):
    outputs = []
    for threads in ("1", "2"):
        for workers in ("1", "2"):
            out = tmp_path / f"blas{threads}_workers{workers}.csv"
            env = child_env({**os.environ, "OPENBLAS_NUM_THREADS": threads})
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
    (["reliability", "--threshold", "1.5"], ""),
    (["reliability", "--threshold", "nan"], ""),
    (["reliability", "--threshold", "abc"], ""),
    (["goodput", "--trials", "abc"], ""),
    (["goodput", "--seed", "1.5"], ""),
    (["goodput", "--workers", "x"], ""),
    (["goodput"], "rho = 1e308\n"),
])
def test_bad_numbers_exit_config_without_traceback(tmp_path, args, config):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    proc = subprocess.run(
        [sys.executable, "-m", "riscplane", *args, "--config", str(cfg),
         "--out", str(tmp_path / "out.csv")],
        env=child_env(), capture_output=True, text=True)
    assert proc.returncode == EXIT_CONFIG
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("config error: ")
    assert len(proc.stderr.splitlines()) == 1
