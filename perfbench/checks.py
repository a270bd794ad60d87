"""Output checks for the benchmark's CSVs. Each check returns a list of problems.

The expected headers are written out here rather than imported from the
package, so a change to the program's output format fails the check.
"""

from __future__ import annotations

import hashlib
import math
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

GOODPUT_HEADER = "frame_ms,scheme,mode,goodput_mbps,overhead_ms,success_prob,n_trials,seed"
RELIABILITY_HEADER = "snr_ris_db,snr_ue_db,scheme,mode,reliability"
THRESHOLD_HEADER = "scheme,mode,axis,min_snr_db"
SCHEMES = ("oce", "bsw", "bsw-es")
MODES = ("ib", "ob")
_MAX_PROBLEMS = 20


def grid_values(spec: str) -> list[float]:
    """Values of an inclusive 'START:STOP:STEP' grid, as riscplane's config defines them."""
    parts = [float(p) for p in spec.split(":")]
    if len(parts) == 1:
        return parts
    start, stop, step = parts
    count = int((stop - start) / step + 1e-9) + 1
    return [start + i * step for i in range(count)]


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= 1e-9 * max(1.0, abs(b))


def _read(path: Path, header: str, problems: list[str]) -> list[list[str]]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != header:
        problems.append(f"{Path(path).name}: header is {lines[:1]!r}, want {header!r}")
        return []
    return [line.split(",") for line in lines[1:]]


def _report(problems: list[str], message: str) -> None:
    if len(problems) < _MAX_PROBLEMS:
        problems.append(message)


def check_goodput(path: Path, frame_grid: list[float], n_trials: int, seed: int) -> list[str]:
    problems: list[str] = []
    rows = _read(path, GOODPUT_HEADER, problems)
    if not rows and problems:
        return problems
    want_rows = len(frame_grid) * len(SCHEMES) * len(MODES)
    if len(rows) != want_rows:
        problems.append(f"{len(rows)} rows, want {want_rows}")
    curves = defaultdict(list)     # (scheme, mode) -> [(frame, goodput, overhead, success)]
    for row in rows:
        try:
            frame, scheme, mode, good, over, succ, trials, row_seed = row
            frame, good, over, succ = float(frame), float(good), float(over), float(succ)
            trials, row_seed = int(trials), int(row_seed)
        except ValueError:
            _report(problems, f"malformed row {','.join(row)!r}")
            continue
        if not 0.0 <= succ <= 1.0:
            _report(problems, f"success_prob {succ} outside [0, 1] at {frame} {scheme} {mode}")
        if not good >= 0.0:
            _report(problems, f"goodput_mbps {good} < 0 at {frame} {scheme} {mode}")
        if not over <= frame:
            _report(problems, f"overhead_ms {over} > frame_ms {frame} at {scheme} {mode}")
        if trials != n_trials or row_seed != seed:
            _report(problems, f"n_trials/seed {trials}/{row_seed}, want {n_trials}/{seed}")
        curves[(scheme, mode)].append((frame, good, over, succ))
    for scheme in SCHEMES:
        for mode in MODES:
            frames = [c[0] for c in curves.get((scheme, mode), [])]
            if len(frames) != len(frame_grid) or not all(map(_close, frames, frame_grid)):
                _report(problems, f"{scheme} {mode}: frames do not follow the frame grid")
    for mode in MODES:
        bsw, es = curves.get(("bsw", mode), []), curves.get(("bsw-es", mode), [])
        for a, b in zip(bsw, es):
            if a[3] != b[3]:
                _report(problems, f"bsw and bsw-es success_prob differ at {a[0]} {mode}")
    for scheme in SCHEMES:
        ib, ob = curves.get((scheme, "ib"), []), curves.get((scheme, "ob"), [])
        for a, b in zip(ib, ob):
            if b[2] > a[2]:
                _report(problems, f"{scheme}: OB overhead {b[2]} > IB overhead {a[2]} at {a[0]}")
    return problems


def check_reliability(path: Path, thresholds_path: Path, grid: list[float],
                      threshold: float) -> list[str]:
    """Streams the CSV: the full grid is over half a million rows."""
    problems: list[str] = []
    g = len(grid)
    block = g * g
    maps: dict[tuple[str, str], array] = {}
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != RELIABILITY_HEADER:
            return [f"{Path(path).name}: header is {header!r}, want {RELIABILITY_HEADER!r}"]
        n = 0
        for n, line in enumerate(fh):
            fields = line.rstrip("\n").split(",")
            pos = n % block
            if pos == 0:
                key = tuple(fields[2:4])
                if key in maps:
                    _report(problems, f"{key}: rows of one (scheme, mode) are not contiguous")
                values = maps.setdefault(key, array("d"))
            try:
                ris, ue, value = float(fields[0]), float(fields[1]), float(fields[4])
            except (ValueError, IndexError):
                _report(problems, f"malformed row {line.strip()!r}")
                continue
            # Rows run over the RIS axis, then the UE axis, within each (scheme, mode).
            if len(fields) != 5 or tuple(fields[2:4]) != key:
                _report(problems, f"row {n + 1} {line.strip()!r} breaks the {key} block")
            elif not (_close(ris, grid[pos // g]) and _close(ue, grid[pos % g])):
                _report(problems, f"row {n + 1}: SNRs {ris}, {ue} do not follow the grid")
            values.append(value)
        n_rows = n + 1 if maps else 0
    want_rows = block * len(SCHEMES) * len(MODES)
    if n_rows != want_rows:
        problems.append(f"{n_rows} rows, want {want_rows}")
    if set(maps) != {(s, m) for s in SCHEMES for m in MODES}:
        problems.append(f"(scheme, mode) blocks are {sorted(maps)}")
    if problems:
        return problems
    matrices = {k: np.frombuffer(v).reshape(g, g) for k, v in maps.items()}
    for key, m in matrices.items():
        if not ((m >= 0.0) & (m <= 1.0)).all():
            problems.append(f"{key}: reliability outside [0, 1]")
        if (np.diff(m, axis=1) < 0).any():
            problems.append(f"{key}: reliability decreases along the UE axis")
        if (np.diff(m, axis=0) < 0).any():
            problems.append(f"{key}: reliability decreases along the RIS axis")
    for scheme in SCHEMES:
        if (matrices[(scheme, "ob")] < matrices[(scheme, "ib")]).any():
            problems.append(f"{scheme}: OB reliability below IB in some cell")
    problems += _check_thresholds(thresholds_path, matrices, grid, threshold)
    return problems


def _check_thresholds(path: Path, matrices: dict, grid: list[float],
                      threshold: float) -> list[str]:
    """Each threshold is the first grid SNR on one axis, other axis at its maximum."""
    problems: list[str] = []
    rows = _read(path, THRESHOLD_HEADER, problems)
    want = {}
    for (scheme, mode), m in matrices.items():
        for axis, line in (("ris", m[:, -1]), ("ue", m[-1, :])):
            hits = np.flatnonzero(line >= threshold)
            want[(scheme, mode, axis)] = grid[hits[0]] if hits.size else math.inf
    got = {}
    for row in rows:
        try:
            got[tuple(row[:3])] = float(row[3])
        except (ValueError, IndexError):
            _report(problems, f"{Path(path).name}: malformed row {','.join(row)!r}")
    if set(got) != set(want) or len(rows) != len(want):
        problems.append(f"{Path(path).name}: rows {sorted(got)} do not match the grid's "
                        f"{len(want)} (scheme, mode, axis) lines")
        return problems
    for key, value in want.items():
        if not _close(got[key], value):
            problems.append(f"{Path(path).name}: {key} threshold {got[key]}, grid gives {value}")
    return problems
