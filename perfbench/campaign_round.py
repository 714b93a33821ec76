"""One benchmark round: a paper campaign in a fresh process, checked.

Run by ``run.py`` as ``python3 campaign_round.py <workload> <plain|traced>
<spawned> <workdir> <run_id>`` with ``src`` on ``PYTHONPATH``.  The round
sets up the campaign, runs it once with a streamed JSONL log, works the
log offline (load, analyse, full report, warehouse ingest), checks every
verdict and prints one JSON object as its last line.  ``spawned`` is the
parent's ``time.monotonic()`` just before it started this process, so
``setup_s`` covers interpreter start, imports, suite generation and plan
compilation (less the host-speed slices taken at process start).

The module is also imported by ``run.py`` and ``make_golden.py`` for the
workload table and the verdict checks; importing it loads no ``repro``
module.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import re
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

#: name -> (Campaign.paper_campaign overrides, pool workers or None).
#: All three use the paper's cartesian strategy, so the seed does not
#: change their inputs (see NOTES.md).
WORKLOADS: dict[str, tuple[dict, int | None]] = {
    "paper-serial": ({}, None),
    "paper-pool-w2": ({}, 2),
    "fixed-long": ({"kernel_version": "3.4.1", "frames": 8}, None),
}

#: The paper's issue list per kernel: (issue count, hypercalls they are in).
PAPER_ISSUES: dict[str, tuple[int, frozenset[str]]] = {
    "3.4.0": (9, frozenset({"XM_reset_system", "XM_set_timer", "XM_multicall"})),
    "3.4.1": (0, frozenset()),
}

PASS = "Pass/none"
SLOW_TEST_S = 0.010
#: Records between two reference slices: about 22 slices per campaign.
SLICE_EVERY = 128
#: Offline passes per untraced round.
OFFLINE_REPEATS = 3


def config_key(overrides: dict) -> str:
    """Golden-table key of a campaign configuration."""
    return f"{overrides.get('kernel_version', '3.4.0')}/{overrides.get('frames', 2)}"


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def verdicts(result) -> list[tuple[str, str]]:  # noqa: ANN001 - CampaignResult
    """(test id, "severity/kind") per classified record, in log order.

    Only the verdict enters: ``wall_time_s`` and ``host_context`` vary
    from run to run and are left out.
    """
    return [
        (record.test_id, f"{c.severity.value}/{c.kind.value}")
        for record, _expectation, c in result.classified
    ]


def digest(pairs: list[tuple[str, str]]) -> str:
    """SHA-256 over ``test_id<TAB>severity/kind`` lines."""
    h = hashlib.sha256()
    for test_id, verdict in pairs:
        h.update(f"{test_id}\t{verdict}\n".encode())
    return h.hexdigest()


def check_result(result, spec_ids: list[str], golden: dict, kernel: str) -> tuple[set[str], list[str]]:  # noqa: ANN001
    """Test ids whose output is wrong, and what was wrong.

    A test is wrong when its record is missing, duplicated or unexpected,
    or its verdict differs from the golden one.  A wrong issue list makes
    every test of the run wrong.  Specs the campaign failed to generate
    show as a wrong spec count (and digest); :func:`main` counts them.
    """
    problems: list[str] = []
    if len(spec_ids) != golden["tests"]:
        problems.append(f"{len(spec_ids)} specs generated, expected {golden['tests']}")
    pairs = verdicts(result)
    got = [test_id for test_id, _ in pairs]
    expected = set(spec_ids)
    bad = {i for i in got if i not in expected} | (expected - set(got))
    if len(got) != len(set(got)):
        seen: set[str] = set()
        bad |= {i for i in got if i in seen or seen.add(i)}
    golden_verdicts = golden["verdicts"]
    bad |= {i for i, v in pairs if i in expected and v != golden_verdicts.get(i, PASS)}
    if bad:
        problems.append(f"{len(bad)} tests missing, extra or with a wrong verdict, e.g. {sorted(bad)[:3]}")
    # A pool streams its log in arrival order; compare in spec order.
    order = {test_id: index for index, test_id in enumerate(spec_ids)}
    in_spec_order = sorted(pairs, key=lambda pair: order.get(pair[0], len(order)))
    if digest(in_spec_order) != golden["digest"]:
        problems.append("verdict digest differs from golden")
    wrong_issues = issue_problem(result, kernel)
    if wrong_issues:
        problems.append(wrong_issues)
        bad = set(spec_ids)
    return bad, problems


def issue_problem(result, kernel: str) -> str | None:  # noqa: ANN001 - CampaignResult
    """How the issue list departs from the paper's, or None."""
    count, functions = PAPER_ISSUES[kernel]
    found = {issue.hypercall for issue in result.issues}
    if len(result.issues) == count and found <= functions:
        return None
    return f"{len(result.issues)} issues in {sorted(found)}, expected {count} in {sorted(functions)}"


def quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, max(0, round(q * len(sorted_values)) - 1))
    return sorted_values[index]


def log_bytes_without_wall_time(path: Path) -> int:
    """Log size with every ``wall_time_s`` value written as ``0``.

    ``wall_time_s`` is the only field that differs between runs, so this
    size repeats exactly from run to run of one commit.
    """
    data = path.read_bytes()
    return len(re.sub(rb'"wall_time_s": [-+0-9.eE]+', b'"wall_time_s": 0', data))


def reference_slice(n: int = 20_000) -> float:
    """Thread CPU seconds of a fixed pure-Python loop: the host's speed now.

    The loop belongs to the benchmark, so it does the same work at every
    commit.  CPU time leaves out time the thread was not running, and the
    collector is off, so neither other threads nor the program's heap
    slow it down; what does is the host itself.
    """
    gc.disable()
    try:
        start = time.thread_time()
        table: dict[int, int] = {}
        acc = 0
        for i in range(n):
            key = i & 255
            table[key] = table.get(key, 0) + 1
            acc = (acc * 31 + key) & 0xFFFFFFFF
        return time.thread_time() - start
    finally:
        gc.enable()


def reference_slices(count: int = 4) -> tuple[list[float], float]:
    """``count`` slices back to back: their CPU times and their wall time."""
    start = time.perf_counter()
    return [reference_slice() for _ in range(count)], time.perf_counter() - start


class ProgressProbe:
    """Progress hook: stamps every record and, every ``SLICE_EVERY``
    records, times a reference slice, so the host's speed is sampled
    across the same seconds the campaign runs in."""

    def __init__(self) -> None:
        #: perf_counter() when each record was reported ...
        self.arrived: list[float] = []
        #: ... and when the hook handed control back.
        self.resumed: list[float] = []
        self.slice_cpu: list[float] = []
        #: Wall time the slices took; it is not the campaign's.
        self.slice_wall = 0.0

    def __call__(self, _done: int, _total: int, _record) -> None:  # noqa: ANN001
        now = time.perf_counter()
        self.arrived.append(now)
        if len(self.arrived) % SLICE_EVERY == 0:
            self.slice_cpu.append(reference_slice())
            end = time.perf_counter()
            self.slice_wall += end - now
            now = end
        self.resumed.append(now)


def layer_metrics(tracer, result, probe: ProgressProbe, run_start: float, run_end: float,  # noqa: ANN001
                  cpu: float, worker_cpu: float, log_path: Path, rows: int, pool: bool) -> dict:
    """The per-layer figures of one traced round (see NOTES.md)."""
    stamps = probe.arrived
    gaps = [] if pool else [b - a for a, b in zip([run_start, *probe.resumed], stamps)]
    gaps.sort()
    slow = [g for g in gaps if g > SLOW_TEST_S]
    reset_modes = (result.execution_stats or {}).get("reset_modes", {})
    return {
        "wire.generate_s": tracer.self_s("wire.generate"),
        "wire.specs": result.total_tests,
        "plan.compile_s": tracer.self_s("plan.compile"),
        "campaign.run_self_s": tracer.self_s("campaign.run") - probe.slice_wall,
        "executor.test_p50_ms": 1e3 * quantile(gaps, 0.50),
        "executor.test_p99_ms": 1e3 * quantile(gaps, 0.99),
        "executor.slow_tests": len(slow),
        "executor.slow_s": sum(slow),
        "simulator.run_until_s": tracer.self_s("simulator.run_until"),
        "simulator.run_until_calls": tracer.calls("simulator.run_until"),
        "delta.reset_s": tracer.self_s("delta.reset"),
        "simulator.restore_s": tracer.self_s("simulator.restore"),
        "reset.delta": reset_modes.get("delta", 0),
        "reset.restore": reset_modes.get("restore", 0),
        "reset.fallbacks": reset_modes.get("delta_fallbacks", 0),
        "partitions.background_s": tracer.self_s("partitions.background"),
        "partitions.test_s": tracer.self_s("partitions.test"),
        "partitions.steps": tracer.calls("partitions.background") + tracer.calls("partitions.test"),
        "xal.calls": tracer.count("xal.calls"),
        "xal.call_s": tracer.self_s("xal.call"),
        "kernel.hypercalls": tracer.calls("kernel.hypercall"),
        "kernel.hypercall_s": tracer.self_s("kernel.hypercall"),
        "memory.reads": tracer.count("memory.reads"),
        "memory.writes": tracer.count("memory.writes"),
        "oracle.expect_s": tracer.self_s("oracle.expect"),
        "classify.classify_s": tracer.self_s("classify.classify"),
        "campaign.analyse_s": tracer.self_s("campaign.analyse"),
        "testlog.append_s": tracer.self_s("testlog.append"),
        "testlog.bytes": log_bytes_without_wall_time(log_path),
        "testlog.load_s": tracer.self_s("testlog.load"),
        "report.render_s": tracer.self_s("report.render"),
        "warehouse.ingest_s": tracer.self_s("warehouse.ingest"),
        "warehouse.rows": rows,
        "pool.first_record_s": stamps[0] - run_start if stamps else 0.0,
        "pool.tail_s": run_end - stamps[-1] if stamps else 0.0,
        "pool.decode_s": tracer.self_s("pool.decode"),
        "pool.parent_cpu_s": cpu - sum(probe.slice_cpu),
        "pool.worker_cpu_s": worker_cpu,
    }


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def main(argv: list[str]) -> int:
    workload, mode, spawned, workdir, run_id = argv
    # Setup and the offline phase are bracketed by slices, the campaign
    # is sampled throughout (ProgressProbe); see NOTES.md, "Host speed".
    setup_slices, slices_wall = reference_slices()
    overrides, workers = WORKLOADS[workload]
    traced = mode == "traced"
    workdir_path = Path(workdir)

    from repro.fault import campaign as campaign_module
    from repro.fault import report
    from repro.fault.testlog import CampaignLog
    from repro.results.warehouse import ResultsWarehouse

    tracer = None
    if traced:
        import tracing

        tracer = tracing.install(run_id)
        # Pool workers are forked from this process: give them the
        # original functions back, so only the parent side is traced.
        init_worker = campaign_module._init_worker

        def untraced_init_worker(*args):  # noqa: ANN002, ANN202
            tracer.uninstall()
            return init_worker(*args)

        tracer.patch(campaign_module, "_init_worker", untraced_init_worker)

    campaign = campaign_module.Campaign.paper_campaign(**overrides)
    spec_ids = [spec.test_id for spec in campaign.iter_specs()]
    if hasattr(campaign, "plan"):
        campaign.plan()
    setup_s = time.monotonic() - float(spawned) - slices_wall
    setup_slices += reference_slices()[0]

    log_path = workdir_path / "campaign.jsonl"
    probe = ProgressProbe()
    clock = time.perf_counter
    cpu0, children0 = time.process_time(), _children_cpu()
    run_start = clock()
    result = campaign.run(processes=workers, progress=probe, log_path=log_path)
    run_end = clock()
    cpu, worker_cpu = time.process_time() - cpu0, _children_cpu() - children0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    worker_rss_mb = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024 if workers else peak_rss_mb
    )

    # The offline phase is short, so untraced rounds run it several
    # times and report the mean; traced rounds run it once, so that its
    # per-layer figures are per pass.
    offline_slices = reference_slices()[0]
    offline_times = []
    for repeat in range(1 if traced else OFFLINE_REPEATS):
        offline_start = clock()
        log = CampaignLog.load(log_path)
        offline = campaign.analyse(log)
        report.full_report(offline)
        with ResultsWarehouse(workdir_path / f"results-{repeat}.db") as warehouse:
            warehouse.ingest(log, campaign_id=run_id)
            rows = warehouse.row_count(run_id)
        offline_times.append(clock() - offline_start)
        offline_slices += reference_slices()[0]
    offline_s = statistics.fmean(offline_times)

    golden = load_golden()[config_key(overrides)]
    kernel = overrides.get("kernel_version", "3.4.0")
    bad, problems = check_result(result, spec_ids, golden, kernel)
    offline_bad, offline_problems = check_result(offline, spec_ids, golden, kernel)
    bad |= offline_bad
    problems += [f"offline: {p}" for p in offline_problems]
    ungenerated = max(0, golden["tests"] - len(spec_ids))

    out = {
        "failed": len(bad) + ungenerated,
        "problems": problems,
        "setup_s": setup_s,
        "campaign_s": run_end - run_start - probe.slice_wall,
        "slice_s": {
            "setup_s": statistics.fmean(setup_slices),
            "campaign_s": statistics.fmean(probe.slice_cpu or offline_slices),
            "offline_s": statistics.fmean(offline_slices),
        },
        "offline_s": offline_s,
        "peak_rss_mb": peak_rss_mb,
        "worker_rss_mb": worker_rss_mb,
        "reset_modes": (result.execution_stats or {}).get("reset_modes", {}),
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = layer_metrics(
            tracer, result, probe, run_start, run_end, cpu, worker_cpu,
            log_path, rows, workers is not None,
        )
        tracer.dump(
            workdir_path.parent / f"{workload}.spans.jsonl",
            {"workload": workload, "pid": os.getpid()},
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
