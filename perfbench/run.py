"""riscplane benchmark: run one workload through the real CLI and report its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a riscplane source tree (it needs src/riscplane). Each
CLI invocation is a fresh interpreter (perfbench/launch.py), repeated for
about S seconds. The last line of standard output is a JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics of tracer.py with --trace 1. Every output
is checked (checks.py); an invocation that exits non-zero or fails a check
counts as failed. Scratch files live in .perfbench_work/ and are removed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCH = HERE / "launch.py"
CURVES = 6                   # (scheme, mode) pairs of a default goodput run
MIN_ROUNDS = 3               # measured rounds per run, even past --seconds
RUN_BUDGET_S = 150.0         # a run ends well inside the 180 s a run may take

sys.path.insert(0, str(HERE))
import checks  # noqa: E402


@dataclass(frozen=True)
class Workload:
    config: str                          # file under perfbench/workloads
    command: str                         # "goodput" or "reliability"
    threshold: float | None = None       # reliability --threshold
    one_process_reference: bool = False  # also run with workers = 1 and compare bytes

    def argv(self, config: str) -> list[str]:
        extra = [] if self.threshold is None else ["--threshold", repr(self.threshold)]
        return [self.command, *extra, "--config", config, "--out", "out.csv"]


WORKLOADS = {
    "goodput-default": Workload("goodput-default.cfg", "goodput"),
    "goodput-fine-grid": Workload("goodput-fine-grid.cfg", "goodput"),
    "reliability-fine": Workload("reliability-fine.cfg", "reliability", threshold=0.99),
    "goodput-parallel": Workload("goodput-parallel.cfg", "goodput", one_process_reference=True),
}


def read_config(text: str) -> dict[str, str]:
    """key = value pairs of a riscplane config text (later keys win)."""
    out = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, value = (p.strip() for p in line.split("=", 1))
            out[key] = value
    return out


def make_inputs(workload: Workload, seed: int, overrides: dict[str, str] | None = None) -> str:
    """The workload's config text with the seed-dependent lines appended."""
    text = (HERE / "workloads" / workload.config).read_text()
    extra = [f"master_seed = {seed % 2**63}"]
    if workload.command == "reliability":
        start, stop, step = read_config(text)["snr_grid_db"].split(":")
        shift = (seed - 1) % 5
        extra = [f"snr_grid_db = {float(start) - shift:g}:{float(stop) - shift:g}:{step}"]
    extra += [f"{key} = {value}" for key, value in (overrides or {}).items()]
    return text + "\n# appended by perfbench/run.py\n" + "\n".join(extra) + "\n"


@dataclass
class Sample:
    wall_s: float
    setup_s: float | None
    rss_mb: float
    trace: dict | None
    problems: list[str]


def _kill_group(pid: int) -> None:
    """Kill an invocation that overran the run's budget, pool workers included."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass                # it ended just before the watchdog fired


class Runner:
    """Launches CLI invocations in one scratch directory and checks their outputs."""

    def __init__(self, work: Path, workload: Workload, config_text: str, deadline: float):
        self.work = work
        self.workload = workload
        self.deadline = deadline
        self.cfg = read_config(config_text)
        (work / "run.cfg").write_text(config_text)
        self.env = dict(os.environ)
        inherited = [os.environ["PYTHONPATH"]] if "PYTHONPATH" in os.environ else []
        self.env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")] + inherited)
        self.outputs = ["out.csv"] + (["out_thresholds.csv"]
                                      if workload.command == "reliability" else [])
        self.digests: dict[str, str] | None = None
        self.n = 0

    def invoke(self, mode: str, config: str = "run.cfg") -> Sample:
        """One CLI invocation through launch.py (mode plain, trace or setup)."""
        self.n += 1
        probe = self.work / f"probe-{self.n}.json"
        for name in self.outputs:
            (self.work / name).unlink(missing_ok=True)
        cmd = [sys.executable, str(LAUNCH), str(probe), mode, "--", *self.workload.argv(config)]
        limit = max(1.0, self.deadline - time.monotonic())
        with open(self.work / "stderr.log", "wb") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env, stdout=subprocess.DEVNULL,
                                    stderr=err, start_new_session=True)
            watchdog = threading.Timer(limit, _kill_group, (proc.pid,))
            watchdog.start()
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.monotonic()
            watchdog.cancel()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        record = json.loads(probe.read_text()) if probe.exists() else {}
        setup_end = record.get("setup_end")
        problems = []
        if code != 0:
            tail = (self.work / "stderr.log").read_text(errors="replace").strip()[-300:]
            problems.append(f"exit code {code}: {tail}")
        elif setup_end is None:
            problems.append("the CLI never called into the metrics layer")
        elif mode != "setup":
            problems += self.check_outputs()
        return Sample(t1 - t0, None if setup_end is None else setup_end - t0,
                      usage.ru_maxrss / 1024.0, record.get("trace"), problems)

    def check_outputs(self) -> list[str]:
        missing = [n for n in self.outputs if not (self.work / n).is_file()]
        if missing:
            return [f"missing output {missing}"]
        digests = {n: checks.sha256(self.work / n) for n in self.outputs}
        if self.digests is not None:
            # for goodput-parallel the first run is the one-process reference
            return [] if digests == self.digests else ["output bytes differ from the first run"]
        self.digests = digests
        out = self.work / "out.csv"
        if self.workload.command == "reliability":
            return checks.check_reliability(out, self.work / "out_thresholds.csv",
                                            checks.grid_values(self.cfg["snr_grid_db"]),
                                            self.workload.threshold)
        return checks.check_goodput(out, checks.grid_values(self.cfg["frame_grid"]),
                                    int(self.cfg["n_trials"]), int(self.cfg["master_seed"]))

    def work_items(self) -> int:
        """Curve-trials of a goodput run, or reliability cells written."""
        if self.workload.command == "reliability":
            return len(checks.grid_values(self.cfg["snr_grid_db"])) ** 2 * CURVES
        return int(self.cfg["n_trials"]) * CURVES


def environment() -> dict:
    commit = "unknown"      # a source tree exported without git history
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "commit": commit,
        "loadavg": os.getloadavg(),
    }


def pinned_digest_problems(name: str, digests: dict[str, str], env: dict) -> list[str]:
    """Compare with the digests pinned at seed 1, when made with the same numpy."""
    pinned = json.loads((HERE / "digests.json").read_text())
    if pinned["numpy"] != env["numpy"]:
        print(f"note: digests pinned with numpy {pinned['numpy']}, running {env['numpy']}; "
              "not compared")
        return []
    want = pinned["workloads"].get(name)
    if want is None or want == digests:
        return []
    return [f"output digests {digests} differ from the pinned {want}"]


def median(values):
    return statistics.median(values) if values else math.nan


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "riscplane" / "cli.py").is_file():
        print(f"error: no riscplane source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print(json.dumps(run_workload(args)))
    return 0


def run_workload(args, overrides: dict[str, str] | None = None) -> dict:
    """Measure one workload (args: workload, seed, seconds, trace); returns the result.

    overrides replace config keys of the workload, which the tests use to
    run every workload at a tiny size.
    """
    env = environment()
    print(json.dumps({"env": env}))
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(work, workload, make_inputs(workload, args.seed, overrides),
                        time.monotonic() + RUN_BUDGET_S)
        return measure(runner, args, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass            # another run still uses it


def measure(runner: Runner, args, env: dict) -> dict:
    # Warm the file cache, and write the package's bytecode where caching is on,
    # before timing: users do not pay either on every run.
    subprocess.run([sys.executable, "-c", "import riscplane.cli"], env=runner.env,
                   cwd=runner.work, check=False, timeout=60)
    reference: list[Sample] = []
    if runner.workload.one_process_reference:
        # Made first, so every measured invocation is compared with its bytes.
        (runner.work / "reference.cfg").write_text(
            (runner.work / "run.cfg").read_text() + "workers = 1\n")
        reference.append(runner.invoke("plain", config="reference.cfg"))

    # One round: a set-up-only launch and a full invocation, or with --trace 1
    # a plain and a traced invocation, so both sample the same machine state.
    modes = ("plain", "trace") if args.trace else ("setup", "plain")
    rounds: list[list[Sample]] = []
    start = time.monotonic()
    while True:
        rounds.append([runner.invoke(mode) for mode in modes])
        per_round = median([sum(s.wall_s for s in r) for r in rounds])
        elapsed = time.monotonic() - start
        if len(rounds) >= MIN_ROUNDS and elapsed + per_round > args.seconds:
            break
        if time.monotonic() + 2 * per_round > runner.deadline:
            break
    by_mode = {mode: [r[i] for r in rounds] for i, mode in enumerate(modes)}

    samples = reference + [s for r in rounds for s in r]
    problems = [p for s in samples for p in s.problems]
    if args.seed == 1 and runner.digests is not None:
        problems += pinned_digest_problems(args.workload, runner.digests, env)
    failed = sum(1 for s in samples if s.problems)
    if problems and not failed:      # the pinned digests differ: every output is wrong
        failed = len(samples)
    for p in problems[:20]:
        print(f"FAILED CHECK: {p}")

    if args.trace:
        metrics = trace_metrics(runner, by_mode["plain"], by_mode["trace"])
    else:
        metrics = end_to_end_metrics(runner, by_mode["plain"], by_mode["setup"])
    report(args, metrics, failed, len(samples), len(rounds), runner)
    return {"correct": not problems, "attempted": len(samples), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def end_to_end_metrics(runner: Runner, plain: list[Sample], setup: list[Sample]) -> dict:
    timed = [s for s in plain if s.setup_s is not None]
    items = runner.work_items()
    return {
        "wall_s": (median([s.wall_s for s in plain]), "s"),
        "setup_s": (median([s.setup_s for s in plain + setup if s.setup_s is not None]), "s"),
        "throughput_per_s": (median([items / (s.wall_s - s.setup_s) for s in timed]), "1/s"),
        "peak_rss_mb": (median([s.rss_mb for s in plain]), "MiB"),
    }


def trace_metrics(runner: Runner, plain: list[Sample], traced: list[Sample]) -> dict:
    from tracer import layer_metrics

    per_sample = [layer_metrics(s.trace) for s in traced if s.trace is not None]
    metrics = {}
    for name in (per_sample[0] if per_sample else {}):
        if name.endswith("_s") or name.endswith(".s"):
            metrics[name] = (median([m[name] for m in per_sample]), "s")
        else:       # counts repeat exactly from run to run
            metrics[name] = (statistics.median_low([m[name] for m in per_sample]), "count")
    sizes = [(runner.work / n).stat().st_size for n in runner.outputs
             if (runner.work / n).is_file()]
    rows = sum(max(0, (runner.work / n).read_text().count("\n") - 1) for n in runner.outputs
               if (runner.work / n).is_file())
    metrics["cli.rows"] = (rows, "count")
    metrics["cli.out_bytes"] = (sum(sizes), "bytes")
    metrics["trace.overhead_s"] = (
        median([s.wall_s for s in traced]) - median([s.wall_s for s in plain]), "s")
    return metrics


def report(args, metrics: dict, failed: int, attempted: int, n_rounds: int,
           runner: Runner) -> None:
    print(f"workload {args.workload} seed {args.seed}: {n_rounds} measured rounds, "
          f"{failed}/{attempted} failed (failed_frac {failed / attempted:g})")
    names = {"throughput_per_s": "cells_per_s" if runner.workload.command == "reliability"
             else "curve_trials_per_s"}
    for name, (value, unit) in metrics.items():
        alias = f" ({names[name]})" if name in names else ""
        print(f"  {name}{alias} = {value:.6g} {unit}")
    if not args.trace and runner.workload.one_process_reference:
        print("  peak_rss_mb is the largest single process of the pool tree, not its sum")
    if args.trace and runner.workload.one_process_reference:
        print("  pool workers are forked with the wrappers; their channel figures are summed "
              "over workers, and the parent's sweep self time includes waiting for the pool")
    for name, digest in (runner.digests or {}).items():
        print(f"  sha256 {name} = {digest}")


if __name__ == "__main__":
    sys.exit(main())
