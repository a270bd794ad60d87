"""Child entry point: run one riscplane CLI invocation and leave a probe file.

    python3 perfbench/launch.py PROBE_JSON MODE -- riscplane CLI arguments...

The probe records, on the system-wide monotonic clock, when the CLI first
called into the `metrics` layer (the end of set-up). MODE is `plain`,
`trace` (also record the aggregated layer timings of tracer.py) or `setup`
(exit with code 0 at that first call, so set-up can be sampled often and
cheaply). Otherwise the exit code is the CLI's.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from pathlib import Path


class SetupDone(Exception):
    """Raised at the first call into the metrics layer in `setup` mode."""


def main(argv: list[str]) -> int:
    probe_path, mode, sep, *cli_args = argv
    if sep != "--" or mode not in ("plain", "trace", "setup"):
        raise SystemExit("usage: launch.py PROBE_JSON plain|trace|setup -- CLI_ARGS...")
    probe = Path(probe_path)
    worker_dir = probe.parent / (probe.stem + "-workers")

    from riscplane import cli

    tracer = None
    if mode == "trace":
        from tracer import Tracer, install

        worker_dir.mkdir(exist_ok=True)
        tracer = Tracer(worker_dir)
        install(tracer)

    marks: dict[str, float] = {}

    def mark_first_call(fn):
        @functools.wraps(fn)
        def marked(*args, **kwargs):
            marks.setdefault("setup_end", time.monotonic())
            if mode == "setup":
                raise SetupDone
            return fn(*args, **kwargs)
        return marked

    for name, fn in list(vars(cli).items()):
        if inspect.isfunction(fn) and fn.__module__ == "riscplane.metrics":
            setattr(cli, name, mark_first_call(fn))

    try:
        code = cli.main(cli_args)
    except SetupDone:
        code = 0

    record = {"setup_end": marks.get("setup_end")}
    if tracer is not None:
        from tracer import collect

        record["trace"] = collect(tracer.snapshot(), worker_dir)
    probe.write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
