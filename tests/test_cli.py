import dataclasses
import hashlib
import inspect
import io
import math
import multiprocessing
import os
import pickle
import signal
import stat
import struct
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
# ignored when this interpreter started (as in a background job); SIGUSR1 prints every
# thread's traceback
_INTERRUPTIBLE = """
import faulthandler, signal, sys
faulthandler.register(signal.SIGUSR1, all_threads=True)
signal.signal(signal.SIGINT, signal.default_int_handler)
from riscplane import cli
sys.exit(cli.main(sys.argv[1:]))
"""


EARLIER = b"an earlier result\n"


def assert_left_as_before(out):
    """out holds EARLIER and is alone in its directory: no temporary file is left."""
    assert out.read_bytes() == EARLIER
    assert os.listdir(out.parent) == [out.name]


def error_lines(stderr: str) -> list:
    """stderr without the resolved-config log."""
    return [line for line in stderr.splitlines() if not line.startswith("# resolved ")]


def stderr_on_exit(proc, timeout: float) -> str:
    """The stderr of proc, a process group leader, once it exits within timeout seconds.

    One that does not is a hang: it gets SIGUSR1, which its faulthandler answers with every
    thread's traceback, then after 5 s its group is killed and the test fails with its stderr.
    """
    try:
        return proc.communicate(timeout=timeout)[1]
    except subprocess.TimeoutExpired:
        proc.send_signal(signal.SIGUSR1)
        try:
            stderr = proc.communicate(timeout=5)[1]
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            stderr = proc.communicate()[1]
        pytest.fail(f"the run did not exit within {timeout} s; its stderr:\n{stderr}")


def interrupted(argv, ready, settle: float, send=None) -> tuple[int, str]:
    """Exit code and stderr of a child argv whose process group gets SIGINT, as a terminal's
    Ctrl-C sends it, settle seconds after ready() first holds (or after 60 s); send(proc),
    when given, acts on the child in place of that SIGINT."""
    proc = subprocess.Popen([sys.executable, *argv], env=child_env(), stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        while not ready() and time.monotonic() < deadline:
            time.sleep(0.05)
        time.sleep(settle)
        if send is None:
            os.killpg(proc.pid, signal.SIGINT)
        else:
            send(proc)
        stderr = stderr_on_exit(proc, 60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return proc.returncode, stderr


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs process groups")
@pytest.mark.parametrize("workers", ["1", "2"])
def test_sigint_mid_run_exits_130_with_one_line(tmp_path, workers):
    out = tmp_path / "g.csv"
    out.write_bytes(EARLIER)
    # the run's temporary file appears next to g.csv once the outputs are open; a second
    # later the chunks are running, in the pool's workers too
    code, stderr = interrupted(
        ["-c", _INTERRUPTIBLE, "goodput", "--trials", str(10 ** 8), "--workers", workers,
         "--out", str(out)], lambda: len(os.listdir(tmp_path)) >= 2, settle=1.0)
    assert code == EXIT_INTERRUPTED
    assert error_lines(stderr) == ["interrupted"]
    assert_left_as_before(out)


def assert_a_dead_worker_exits_4(tmp_path, child):
    """`python -c` with child, the script and then its own arguments, on a three-chunk goodput
    run over two workers exits 4 with one line and leaves the earlier output as it was."""
    out = tmp_path / "g.csv"
    out.write_bytes(EARLIER)
    proc = subprocess.run(
        [sys.executable, "-c", *child, "goodput", "--trials", "9000", "--workers", "2",
         "--out", str(out)],
        env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_WORKER
    lines = error_lines(proc.stderr)
    assert len(lines) == 1 and lines[0].startswith("worker error: ")
    assert_left_as_before(out)


# a goodput run whose second chunk kills the pool worker running it
_DYING_WORKER = """
import os, sys
from riscplane import cli, metrics
chunk_partials = metrics._chunk_partials

def dying(cfg, plan, entries, chunk_index):
    if chunk_index == 1:
        os._exit(9)
    return chunk_partials(cfg, plan, entries, chunk_index)

metrics._chunk_partials = dying
metrics._available_cpus = lambda: 2
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.skipif(sys.platform != "linux",
                    reason="the pool does not fork here, so its workers miss the patch")
def test_dead_pool_worker_exits_4_with_one_line(tmp_path):
    assert_a_dead_worker_exits_4(tmp_path, [_DYING_WORKER])


# a goodput run after set_start_method(method), the method given first, whose draw of chunk 1
# kills the pool worker making it. _cascade is patched, not _chunk_partials: a spawned worker
# cannot unpickle a function of __main__, so that patch breaks the pool under every method.
_DYING_DRAW = """
import multiprocessing, os, sys
from riscplane import cli, metrics
multiprocessing.set_start_method(sys.argv.pop(1))
cascade = metrics._cascade

def dying(seed, chunk_index, *args):
    if chunk_index == 1:
        os._exit(9)
    return cascade(seed, chunk_index, *args)

metrics._cascade = dying
metrics._available_cpus = lambda: 2
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.skipif(sys.platform != "linux",
                    reason="the pool does not fork here, so its workers miss the patch")
@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
def test_pool_workers_fork_whatever_the_start_method(tmp_path, method):
    # a worker that imported the package again would draw chunk 1 unpatched, and the run exit 0
    assert_a_dead_worker_exits_4(tmp_path, [_DYING_DRAW, method])


# a goodput run of three chunks on two pool workers: chunk 0 sleeps in one worker while the
# other computes chunks 1 and 2, leaves a file named after each in the directory given first,
# and then waits idle for work
_IDLE_WORKER = """
import os, signal, sys, time
signal.signal(signal.SIGINT, signal.default_int_handler)
from riscplane import cli, metrics
chunk_partials = metrics._chunk_partials
marks = sys.argv.pop(1)

def slow_first(cfg, plan, entries, chunk_index):
    partials = chunk_partials(cfg, plan, entries, chunk_index)
    if chunk_index == 0:
        time.sleep(2.0)
    else:
        open(os.path.join(marks, str(chunk_index)), "w").close()
    return partials

metrics._chunk_partials = slow_first
metrics._available_cpus = lambda: 2
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.skipif(not hasattr(os, "killpg") or sys.platform != "linux",
                    reason="needs process groups, and the pool does not fork here")
def test_sigint_with_an_idle_pool_worker_exits_130_with_one_line(tmp_path):
    marks, out = tmp_path / "marks", tmp_path / "out" / "g.csv"
    marks.mkdir()
    out.parent.mkdir()
    out.write_bytes(EARLIER)
    # SIGINT comes while chunk 0 sleeps and, 0.3 s after chunk 2's mark, its worker waits idle
    code, stderr = interrupted(
        ["-c", _IDLE_WORKER, str(marks), "goodput", "--trials", "9000", "--workers", "2",
         "--out", str(out)], lambda: len(os.listdir(marks)) == 2, settle=0.3)
    assert sorted(os.listdir(marks)) == ["1", "2"]
    assert code == EXIT_INTERRUPTED
    assert error_lines(stderr) == ["interrupted"]
    assert_left_as_before(out)


# a goodput run on two pool workers whose process group gets SIGINT, as a terminal's Ctrl-C
# sends it, right after the pool has started its first worker and before the rest of the
# pool (the other worker, the manager thread) is up
_INTERRUPTED_POOL_START = """
import faulthandler, os, signal, sys
from multiprocessing import process
faulthandler.register(signal.SIGUSR1, all_threads=True)
signal.signal(signal.SIGINT, signal.default_int_handler)
from riscplane import cli, metrics
start, started = process.BaseProcess.start, []

def start_then_interrupt(self):
    start(self)
    if not started:
        started.append(self)
        os.killpg(0, signal.SIGINT)

process.BaseProcess.start = start_then_interrupt
metrics._available_cpus = lambda: 2
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.skipif(not hasattr(os, "killpg") or sys.platform != "linux",
                    reason="needs process groups, and the pool does not fork here")
def test_sigint_while_the_pool_starts_exits_130_with_one_line(tmp_path):
    out = tmp_path / "g.csv"
    out.write_bytes(EARLIER)
    proc = subprocess.Popen(
        [sys.executable, "-c", _INTERRUPTED_POOL_START, "goodput", "--trials", "9000",
         "--workers", "2", "--out", str(out)],
        env=child_env(), stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stderr = stderr_on_exit(proc, 20)   # a run that hangs fails here
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == EXIT_INTERRUPTED
    assert error_lines(stderr) == ["interrupted"]
    assert_left_as_before(out)


# a goodput run through cli.main whose pool spawns its workers, as it does off Linux:
# multiprocessing.get_context returns spawn whatever it is asked for. It runs from -c, since
# spawn re-imports a script's unguarded main. Once multiprocessing.active_children() lists
# both workers, a thread leaves a file named after each one's pid, holding its process type,
# in the directory given first. SIGUSR1 prints every thread's traceback.
_SPAWNING = """
import faulthandler, multiprocessing, os, signal, sys, threading, time
faulthandler.register(signal.SIGUSR1, all_threads=True)
signal.signal(signal.SIGINT, signal.default_int_handler)
from riscplane import cli, metrics
get_context = multiprocessing.get_context
multiprocessing.get_context = lambda method=None: get_context("spawn")
metrics._available_cpus = lambda: 2
marks = sys.argv.pop(1)

def mark_workers():
    while len(workers := multiprocessing.active_children()) < 2:
        time.sleep(0.02)
    for worker in workers:
        with open(os.path.join(marks, str(worker.pid)), "w") as mark:
            mark.write(type(worker).__name__)

threading.Thread(target=mark_workers, daemon=True).start()
sys.exit(cli.main(sys.argv[1:]))
"""

_FINE_GRID = Path(__file__).resolve().parents[1] / "perfbench/workloads/goodput-fine-grid.cfg"


@pytest.mark.parametrize("config", [[], ["--config", str(_FINE_GRID)]],
                         ids=["defaults", "fine-grid"])
def test_spawned_pool_writes_the_one_process_bytes(tmp_path, capsys, config):
    argv = ["goodput", *config, "--trials", "9000"]        # three chunks
    assert run_cli(argv + ["--workers", "1", "--out", str(tmp_path / "one.csv")], capsys) == 0
    marks = tmp_path / "marks"
    marks.mkdir()
    proc = subprocess.run(
        [sys.executable, "-c", _SPAWNING, str(marks), *argv, "--workers", "2",
         "--out", str(tmp_path / "pool.csv")],
        env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert [(marks / pid).read_text() for pid in os.listdir(marks)] == ["SpawnProcess"] * 2
    assert (tmp_path / "pool.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()


def spawned_and_signalled(tmp_path, send) -> tuple[int, str]:
    """Exit code and stderr of a long goodput run on two spawned pool workers, where send(proc,
    worker_pids) acts on the child 0.5 s after both workers are listed; the earlier output
    is left as it was."""
    marks, out = tmp_path / "marks", tmp_path / "out" / "g.csv"
    marks.mkdir()
    out.parent.mkdir()
    out.write_bytes(EARLIER)
    code, stderr = interrupted(
        ["-c", _SPAWNING, str(marks), "goodput", "--trials", str(10 ** 8), "--workers", "2",
         "--out", str(out)], lambda: len(os.listdir(marks)) == 2, settle=0.5,
        send=lambda proc: send(proc, [int(pid) for pid in os.listdir(marks)]))
    assert_left_as_before(out)
    return code, stderr


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs process groups")
def test_sigint_with_spawned_workers_exits_130_with_one_line(tmp_path):
    code, stderr = spawned_and_signalled(
        tmp_path, lambda proc, workers: os.killpg(proc.pid, signal.SIGINT))
    assert code == EXIT_INTERRUPTED
    assert error_lines(stderr) == ["interrupted"]


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs process groups")
def test_a_killed_spawned_worker_exits_4_with_one_line(tmp_path):
    code, stderr = spawned_and_signalled(
        tmp_path, lambda proc, workers: os.kill(workers[0], signal.SIGKILL))
    assert code == EXIT_WORKER
    lines = error_lines(stderr)
    assert len(lines) == 1 and lines[0].startswith("worker error: ")


# a run through cli.main whose files may not grow past 64 KiB, failing a write with
# EFBIG instead of being killed by SIGXFSZ
_FILE_SIZE_LIMITED = """
import resource, signal, sys
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (1 << 16, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
from riscplane import cli
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="needs RLIMIT_FSIZE and SIGXFSZ")
@pytest.mark.parametrize("args", [
    ["goodput", "--trials", "2000", "--frame-grid", "5:500:0.5"],     # 5,946 rows
    ["reliability", "--threshold", "0.99"],                           # 5,766 rows
])
def test_write_over_the_file_size_limit_leaves_the_earlier_file(tmp_path, args):
    out = tmp_path / "out.csv"
    out.write_bytes(EARLIER)
    proc = subprocess.run([sys.executable, "-c", _FILE_SIZE_LIMITED, *args, "--out", str(out)],
                          env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_IO
    lines = error_lines(proc.stderr)
    assert len(lines) == 1 and lines[0].startswith("i/o error: [Errno 27] ")
    assert_left_as_before(out)


def test_outputs_keep_the_mode_a_plain_open_gives(tmp_path, capsys):
    out, new, reference = tmp_path / "r.csv", tmp_path / "new.csv", tmp_path / "reference"
    out.write_bytes(EARLIER)
    out.chmod(0o640)
    umask = os.umask(0o027)
    try:
        open(reference, "w").close()
        assert run_cli(["reliability", "--out", str(out)], capsys) == EXIT_OK
        assert run_cli(["reliability", "--out", str(new)], capsys) == EXIT_OK
    finally:
        os.umask(umask)
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    assert stat.S_IMODE(new.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode) == 0o640


@pytest.mark.parametrize("existing", [True, False], ids=["existing", "dangling"])
def test_a_symlinked_output_replaces_its_target(tmp_path, capsys, existing):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    link.symlink_to(target)
    names = ["link.csv", "target.csv"]
    if existing:    # the target is replaced by a new file: another hard link keeps its bytes
        target.write_bytes(EARLIER)
        os.link(target, tmp_path / "other.csv")
        names.append("other.csv")
    assert run_cli(["reliability", "--out", str(link)], capsys) == EXIT_OK
    assert link.is_symlink()
    assert target.read_text().splitlines()[0] == RELIABILITY_HEADER
    assert sorted(os.listdir(tmp_path)) == sorted(names)
    if existing:
        assert (tmp_path / "other.csv").read_bytes() == EARLIER


def test_a_failed_run_through_a_symlink_leaves_its_target(tmp_path, capsys):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_bytes(EARLIER)
    link.symlink_to(target)
    (tmp_path / "link_thresholds.csv").mkdir()      # the thresholds file cannot be opened
    argv = ["reliability", "--scheme", "oce", "--threshold", "0.99", "--out", str(link)]
    assert run_cli(argv, capsys) == EXIT_IO
    assert link.is_symlink()
    assert target.read_bytes() == EARLIER
    assert sorted(os.listdir(tmp_path)) == ["link.csv", "link_thresholds.csv", "target.csv"]


@pytest.mark.parametrize("through_link", [False, True], ids=["file", "symlink"])
def test_a_read_only_output_is_refused(tmp_path, capsys, monkeypatch, through_link):
    target = tmp_path / "r.csv"
    target.write_bytes(EARLIER)
    target.chmod(0o444)
    out = tmp_path / "link.csv" if through_link else target
    if through_link:
        out.symlink_to(target)
    if os.geteuid() == 0:       # root may write any file: refuse it as for any other user
        real_access = os.access

        def access(path, mode, **kwargs):
            denied = path == os.path.realpath(target) and mode & os.W_OK
            return not denied and real_access(path, mode, **kwargs)
        monkeypatch.setattr(os, "access", access)
    code = main(["reliability", "--out", str(out)])
    lines = error_lines(capsys.readouterr().err)
    assert code == EXIT_IO
    assert lines == [f"i/o error: [Errno 13] Permission denied: {str(out)!r}"]
    assert target.read_bytes() == EARLIER
    assert stat.S_IMODE(target.stat().st_mode) == 0o444
    assert sorted(os.listdir(tmp_path)) == sorted({out.name, target.name})


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_dev_stdout_on_a_pipe_is_written_directly(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert run_cli(["reliability", "--out", str(out)], capsys) == EXIT_OK
    proc = subprocess.run([sys.executable, "-m", "riscplane", "reliability", "--out", "/dev/stdout"],
                          env=child_env(), capture_output=True, timeout=120, check=True)
    assert proc.stdout == out.read_bytes()
    assert os.listdir(tmp_path) == ["r.csv"]


def test_outputs_default_to_the_command_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["goodput", "--trials", "200"]) == EXIT_OK
    assert main(["reliability"]) == EXIT_OK
    assert sorted(os.listdir(tmp_path)) == ["goodput.csv", "reliability.csv"]
    assert (tmp_path / "goodput.csv").read_text().splitlines()[0] == GOODPUT_HEADER
    assert (tmp_path / "reliability.csv").read_text().splitlines()[0] == RELIABILITY_HEADER


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
    code = main(["goodput", "--trials", "50", "--out", str(missing)])
    assert code == EXIT_IO
    # the one line names the output given, not the temporary file beside it
    lines = error_lines(capsys.readouterr().err)
    assert len(lines) == 1 and lines[0].startswith("i/o error: ")
    assert lines[0].endswith(repr(str(missing))) and ".tmp" not in lines[0]


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
    # in row blocks of every size, so a repeated row may start the next block; the texts
    # relabelled as a later spec with the same grid writes them. Templates, labels and texts
    # are bytes, and each cell must read as format(v, '.12g') does.
    m = np.array(rows, dtype=np.float64)
    grid_s = [format(v, ".12g") for v in np.linspace(-1.5, 1.5, len(rows))]
    grid_b = [ris_s.encode("ascii") for ris_s in grid_s]

    def written(texts):
        """The CSV rows of texts, behind their RIS columns, as cmd_reliability writes them."""
        return b"".join(ris_b + cells.replace(b"\n", b"\n" + ris_b) + b"\n"
                        for ris_b, cells in zip(grid_b, texts))

    for size in range(1, len(rows) + 1):
        blocks = (m[start:start + size] for start in range(0, len(m), size))
        texts = list(cli._grid_texts(blocks, grid_b, b",bsw,ib,"))
        relabelled = list(cli._relabelled(b",bsw,ib,", texts, b",bsw-es,ib,"))
        for block, (scheme, mode) in ((texts, (Scheme.BSW, ControlMode.IB_C)),
                                      (relabelled, (Scheme.BSW_ES, ControlMode.IB_C))):
            expected = _reference_block(m, grid_s, scheme, mode).encode("ascii")
            assert written(block) == expected
        # a row equal in bits to the previous one is the same text, and is relabelled once
        repeats = [a.tobytes() == b.tobytes() for a, b in zip(m, m[1:])]
        assert [a is b for a, b in zip(texts, texts[1:])] == repeats
        assert [a is b for a, b in zip(relabelled, relabelled[1:])] == repeats


_EDGE_DOUBLES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e-310, -1e-320,
                 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308,
                 -1.7976931348623157e308, math.inf, -math.inf, math.nan, -math.nan,
                 0.1, 1 / 3, 0.30000000000000004, 1e16, 123456789012.5, 1e-5]
# every float64 bit pattern, NaN payloads and subnormals included
_DOUBLES = st.one_of(
    st.sampled_from(_EDGE_DOUBLES), st.floats(),
    st.integers(0, 2 ** 64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]))


@pytest.mark.parametrize("v", _EDGE_DOUBLES, ids=repr)
def test_bytes_format_of_an_edge_double_matches_str_format(v):
    assert b"%.12g" % v == format(v, ".12g").encode("ascii")


@settings(max_examples=500, deadline=None)
@given(_DOUBLES)
def test_bytes_format_matches_str_format(v):
    # the CSV writers format with bytes templates; their cells must be format(v, '.12g')'s
    assert b"%.12g" % v == format(v, ".12g").encode("ascii")


@settings(max_examples=200, deadline=None)
@given(st.tuples(_DOUBLES, _DOUBLES, _DOUBLES, _DOUBLES))
def test_goodput_bytes_template_row_matches_the_str_row(values):
    # one spec's row of cmd_goodput's template: frame, goodput, overhead, success probability
    template = "%.12g,bsw-es,ob,%.12g,%.12g,%.12g,30000,18446744073709551615\n"
    assert template.encode("ascii") % values == (template % values).encode("ascii")


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


@pytest.mark.parametrize("link, target", [("r_thresholds.csv", "r.csv"),
                                          ("r.csv", "r_thresholds.csv")])
def test_reliability_threshold_refuses_a_thresholds_file_that_is_out(tmp_path, capsys,
                                                                     monkeypatch, link, target):
    # both outputs would replace one file, and the last replace would win
    monkeypatch.chdir(tmp_path)
    Path(target).write_bytes(EARLIER)
    os.symlink(target, link)
    assert main(["reliability", "--threshold", "0.99", "--out", "r.csv"]) == EXIT_CONFIG
    assert capsys.readouterr().err == \
        "config error: threshold: 'r_thresholds.csv' is --out's file 'r.csv'\n"
    assert Path(target).read_bytes() == EARLIER
    assert os.readlink(link) == target
    assert sorted(os.listdir(tmp_path)) == ["r.csv", "r_thresholds.csv"]


def test_reliability_opens_the_thresholds_file_before_the_grid(tmp_path, capsys, monkeypatch):
    def no_grid(*args):
        raise AssertionError("a grid was computed")
    monkeypatch.setattr(cli, "reliability_rows", no_grid)
    out = tmp_path / "r.csv"
    out.write_bytes(EARLIER)
    (tmp_path / "r_thresholds.csv").mkdir()
    assert main(["reliability", "--threshold", "0.99", "--out", str(out)]) == EXIT_IO
    assert error_lines(capsys.readouterr().err) == [
        f"i/o error: [Errno 21] Is a directory: {str(tmp_path / 'r_thresholds.csv')!r}"]
    assert out.read_bytes() == EARLIER
    assert sorted(os.listdir(tmp_path)) == ["r.csv", "r_thresholds.csv"]


def _thresholds_of_csv(path, threshold: float) -> list[str]:
    """The thresholds lines of a reliability CSV, read off its own cells: per spec, in file
    order, the first RIS (UE) SNR whose cell at the UE (RIS) grid maximum reaches threshold.

    A cell's 12 digits stand for its float; no cell of the grids read here is that close to
    the threshold.
    """
    grids = {}
    for row in path.read_text().splitlines()[1:]:
        ris, ue, scheme, mode, rel = row.split(",")
        grids.setdefault((scheme, mode), {})[float(ris), float(ue)] = float(rel)
    lines = []
    for (scheme, mode), cells in grids.items():
        points = sorted({ris for ris, _ in cells})      # the grid is square
        top = points[-1]
        for axis, line in (("ris", [cells[p, top] for p in points]),
                           ("ue", [cells[top, p] for p in points])):
            min_db = next((p for p, rel in zip(points, line) if rel >= threshold), math.inf)
            lines.append(f"{scheme},{mode},{axis},{min_db:.12g}")
    return lines


@pytest.mark.parametrize("args, grids, specs", [
    ([], 3, 6),                     # OCE IB, BSW IB and one OB grid for six specs
    (["--scheme", "bsw-es"], 2, 2),
    (["--scheme", "oce", "--mode", "ob"], 1, 1),
])
@pytest.mark.parametrize("keep", [True, False], ids=["kept", "streamed-again"])
def test_reliability_formats_each_distinct_grid_once(tmp_path, capsys, monkeypatch, args, grids,
                                                     specs, keep):
    # a grid in one-row blocks, and the thresholds' RIS column in blocks of 20 and 11 points
    monkeypatch.setattr(metrics, "_GRID_BLOCK_CELLS", 20)
    full = tmp_path / "full.csv"
    assert run_cli(["reliability", "--threshold", "0.99", "--out", str(full)], capsys) == EXIT_OK
    calls = {"reliability_rows": [], "reliability_grid": []}

    def counted(name):
        def call(*call_args):
            calls[name].append(call_args)
            return getattr(metrics, name)(*call_args)
        return call
    for name in calls:
        monkeypatch.setattr(cli, name, counted(name))
    n_points = len(RunConfig().snr_grid_db)
    if not keep:        # a grid above the limit: every spec streams its own
        monkeypatch.setattr(cli, "KEEP_CELLS", n_points ** 2 - 1)
    out = tmp_path / "r.csv"
    argv = ["reliability", *args, "--threshold", "0.99", "--out", str(out)]
    assert run_cli(argv, capsys) == EXIT_OK
    # whole-grid streams; each spec's thresholds are two grids with a one-point axis
    assert ([(len(ris), len(ue)) for _, _, ris, ue, _ in calls["reliability_rows"]]
            == [(n_points, n_points)] * (grids if keep else specs))
    assert ([(len(ris), len(ue)) for _, _, ris, ue, _ in calls["reliability_grid"]]
            == [(n_points, 1), (1, n_points)] * specs)
    # every row, kept or not, is the row the full run wrote for its spec; thresholds too
    def rows(name, column):
        """(scheme, mode) and text of each row of a file, its labels at column."""
        return [(tuple(row.split(",")[column:column + 2]), row)
                for row in (tmp_path / name).read_text().splitlines()[1:]]
    written = {spec for spec, _ in rows("r.csv", 2)}
    assert len(written) == specs
    for name, reference, column in (("r.csv", "full.csv", 2),
                                    ("r_thresholds.csv", "full_thresholds.csv", 0)):
        assert rows(name, column) == [(spec, row) for spec, row in rows(reference, column)
                                      if spec in written]
    # each thresholds line is the one the written CSV's last column and last row give
    for name in ("full", "r"):
        lines = (tmp_path / f"{name}_thresholds.csv").read_text().splitlines()[1:]
        assert lines == _thresholds_of_csv(tmp_path / f"{name}.csv", 0.99)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
@pytest.mark.parametrize("scheme, mode, grid", [
    ("oce", "ob", "0:300:0.1"),     # 3,001 points: a whole grid would add 69 MiB
    ("bsw", "ib", "0:200:0.1"),     # 2,001 distinct rows: a whole grid would add 31 MiB
], ids=["ob-3001", "ib-2001"])
def test_reliability_memory_does_not_grow_with_the_grid(tmp_path, scheme, mode, grid):
    # a row block holds 2 MiB, whatever the grid's size
    (tmp_path / "run.cfg").write_text(f"snr_grid_db = {grid}\n")

    def peak(*argv):
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_SCRIPT, "reliability", "--scheme", scheme,
             "--mode", mode, "--out", os.devnull, *argv],
            env=child_env(), capture_output=True, text=True, check=True)
        return int(proc.stdout)

    assert peak("--config", str(tmp_path / "run.cfg")) - peak() < 8 << 20


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


def test_main_freezes_the_import_time_heap():
    # the objects the imports made go to the permanent generation, out of the collector's way;
    # a later call does not move the garbage of the calls before it there too
    probe = ("import gc, sys; from riscplane import cli; before = gc.get_freeze_count(); "
             "calls = [(cli.main(sys.argv[1:]), gc.get_freeze_count()) for _ in range(3)]; "
             "print(before, *[n for call in calls for n in call])")
    proc = subprocess.run([sys.executable, "-c", probe, "validate"], env=child_env(),
                          capture_output=True, text=True, check=True)
    before, *calls = map(int, proc.stdout.splitlines()[-1].split())
    codes, frozen = calls[::2], calls[1::2]
    assert (before, codes) == (0, [EXIT_OK] * 3)
    assert frozen[0] > 0 and frozen == frozen[:1] * 3


@pytest.mark.parametrize("args, first", [
    (["goodput", "--trials", "200"], "check_working_set"),
    (["reliability", "--threshold", "0.99"], "reliability_rows"),
])
def test_set_up_ends_at_the_first_metrics_call(tmp_path, capsys, monkeypatch, args, first):
    # perfbench/launch.py ends a run's set-up at its first call into a metrics function
    # bound in cli: goodput's budget check in _resolve, reliability's first grid
    calls = []

    def recorded(name, fn):
        def call(*call_args, **kwargs):
            calls.append(name)
            return fn(*call_args, **kwargs)
        return call
    for name, fn in list(vars(cli).items()):
        if inspect.isfunction(fn) and fn.__module__ == "riscplane.metrics":
            monkeypatch.setattr(cli, name, recorded(name, fn))
    assert run_cli(args + ["--out", str(tmp_path / "out.csv")], capsys) == EXIT_OK
    assert calls[0] == first


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
