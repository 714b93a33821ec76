"""Paper-campaign benchmark: one workload, many rounds, checked verdicts.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-serial --seed 1 --seconds 30 --trace 0

Each round is a whole campaign in a fresh child process (see
``campaign_round.py``) with a wall-clock deadline; a round that misses it
is killed together with its pool workers and all its tests count as
failed.  Rounds repeat until ``--seconds`` have passed.  The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` count tests over all rounds, and ``metrics`` holds

- with ``--trace 0``, the median of every end-to-end metric over the
  rounds;
- with ``--trace 1``, the per-layer metrics of traced rounds, which
  alternate with untraced ones so that ``trace.overhead_pct`` compares
  the two within one run.  Counts must repeat exactly across traced
  rounds; a count that drifts is reported as a defect.

The workloads' inputs are fixed by the paper configuration; ``--seed``
is recorded in each round's id and in the span dump.  Exits 2 without a
result when the program under test is not there, and 3 when the pool
workload cannot get two CPUs.  NOTES.md explains the choices.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from campaign_round import WORKLOADS, config_key, load_golden

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

#: (name, unit) reported with --trace 0; BENCHMARK.json lists the same.
END_TO_END = (
    ("setup_s", "s"),
    ("campaign_s", "s"),
    ("offline_s", "s"),
    ("peak_rss_mb", "MB"),
    ("worker_rss_mb", "MB"),
)

#: CPU time of one reference slice at the host speed that times are
#: quoted at.  Each of a round's three times is scaled by REF_SLICE_S
#: over the mean time of the slices taken around or during that phase
#: (see NOTES.md, "Host speed").
REF_SLICE_S = 0.003

#: Per-layer counts the deterministic simulator must repeat exactly.
EXACT_COUNTS = (
    "wire.specs",
    "simulator.run_until_calls",
    "reset.delta",
    "reset.restore",
    "reset.fallbacks",
    "partitions.steps",
    "xal.calls",
    "kernel.hypercalls",
    "memory.reads",
    "memory.writes",
    "testlog.bytes",
    "warehouse.rows",
)

#: A round slower than this is a hang: it is killed and counted as failed.
ROUND_DEADLINE_S = 60.0
#: No round may run past this point, so the run ends well within 180 s.
RUN_LIMIT_S = 170.0


def unit_of(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_pct", "%"), (".bytes", "B")):
        if name.endswith(suffix):
            return unit
    return "count"


def scaled(out: dict, name: str) -> float:
    """A round's figure, with times rescaled to the nominal host speed."""
    if name in out["slice_s"]:
        return out[name] * REF_SLICE_S / out["slice_s"][name]
    return out[name]


def become_subreaper() -> None:
    """Adopt orphaned grandchildren (pool workers of a killed round).

    Linux only; elsewhere orphans go to init as usual.
    """
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong]
        libc.prctl.restype = ctypes.c_int
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def kill_group(pgid: int) -> None:
    """SIGKILL a round's process group and wait until none of it is left.

    Call only after the round's own process has been reaped: orphans
    adopted by this process are reaped here, whoever they are.
    """
    end = time.monotonic() + 10.0
    while True:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        if time.monotonic() > end:
            raise RuntimeError(f"process group {pgid} survived SIGKILL")
        time.sleep(0.02)


def run_round(workload: str, mode: str, run_id: str, deadline: float) -> dict | None:
    """One round in a child process; None when it crashed or hung."""
    workdir = WORK / run_id
    workdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "campaign_round.py"), workload, mode, repr(spawned), str(workdir), run_id],
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=deadline)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"{run_id}: HANG, killed after {deadline:.1f} s", file=sys.stderr)
        return None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        kill_group(proc.pid)
        shutil.rmtree(workdir, ignore_errors=True)
    lines = [line for line in stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        print(f"{run_id}: CRASH, exit code {proc.returncode}", file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"{run_id}: CRASH, unreadable result {lines[-1][:200]!r}", file=sys.stderr)
        return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"program under test not found: {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    overrides, workers = WORKLOADS[args.workload]
    if workers is not None and len(os.sched_getaffinity(0)) < workers:
        print(f"{args.workload}: not run, needs {workers} CPUs", file=sys.stderr)
        return 3
    tests = load_golden()[config_key(overrides)]["tests"]
    become_subreaper()
    # A terminated run still kills and reaps its current round (the
    # ``finally`` in run_round), instead of orphaning it.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(128 + signal.SIGTERM))
    # Byte-compile once, outside every round: setup_s then times imports
    # as users see them, from cached bytecode, in every round alike.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}", file=sys.stderr)
    start = time.monotonic()
    attempted = failed = 0
    problems: list[str] = []
    #: Counts that should repeat but did not: defects of the program,
    #: reported on stderr; they do not make the outputs incorrect.
    defects: list[str] = []
    rounds: dict[str, list[dict]] = {"plain": [], "traced": []}
    number = 0
    while True:
        elapsed = time.monotonic() - start
        enough = elapsed >= args.seconds and number >= (2 if args.trace else 1)
        if enough or RUN_LIMIT_S - elapsed < 5.0:
            break
        mode = "traced" if args.trace and number % 2 else "plain"
        run_id = f"{args.workload}-seed{args.seed}-{number:03d}-{mode}"
        number += 1
        out = run_round(args.workload, mode, run_id, min(ROUND_DEADLINE_S, RUN_LIMIT_S - elapsed))
        attempted += tests
        if out is None:
            failed += tests
            problems.append(f"{run_id}: crashed or hung")
            continue
        failed += out["failed"]
        problems += [f"{run_id}: {p}" for p in out["problems"]]
        rounds[mode].append(out)
        print(
            f"{run_id}: wall setup {out['setup_s']:.3f} s, campaign {out['campaign_s']:.3f} s, "
            f"offline {out['offline_s']:.3f} s; campaign slice {1e3 * out['slice_s']['campaign_s']:.3f} ms; "
            f"scaled campaign {scaled(out, 'campaign_s'):.3f} s; failed {out['failed']}",
            file=sys.stderr,
        )

    finished = rounds["plain"] + rounds["traced"]
    modes = [tuple(sorted(out["reset_modes"].items())) for out in finished]
    if len(set(modes)) > 1:
        defects.append(f"reset modes drift between rounds: {sorted(set(modes))}")
    if args.trace:
        traced = rounds["traced"]
        if not traced or not rounds["plain"]:
            print("no traced and untraced round pair finished", file=sys.stderr)
            return 1
        metrics = {}
        for name in traced[0]["layers"]:
            values = [out["layers"][name] for out in traced]
            if name in EXACT_COUNTS and len(set(values)) > 1:
                defects.append(f"count {name} drifts between traced rounds: {values}")
            value = values[0] if len(set(values)) == 1 else statistics.median(values)
            metrics[name] = {"value": value, "unit": unit_of(name)}
        overhead = statistics.median(scaled(o, "campaign_s") for o in traced) / statistics.median(
            scaled(o, "campaign_s") for o in rounds["plain"]
        )
        metrics["trace.overhead_pct"] = {"value": 100.0 * (overhead - 1.0), "unit": "%"}
        metrics["host.slice_ms"] = {
            "value": 1e3 * statistics.median(o["slice_s"]["campaign_s"] for o in finished),
            "unit": "ms",
        }
    else:
        plain = rounds["plain"]
        if not plain:
            print("no round finished", file=sys.stderr)
            return 1
        metrics = {
            name: {"value": statistics.median(scaled(out, name) for out in plain), "unit": unit}
            for name, unit in END_TO_END
        }
        print(f"{len(plain)} rounds", file=sys.stderr)
    for problem in problems:
        print(problem, file=sys.stderr)
    for defect in defects:
        print(f"DEFECT: {defect}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not problems and failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
