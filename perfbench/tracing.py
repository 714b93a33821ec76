"""Run-time tracing of the campaign layers, installed from outside ``src/``.

:func:`install` wraps the public functions of each layer in place (module
functions, every ``from x import f`` alias of them, and class methods) and
returns a :class:`Tracer`.  Three kinds of wrapper exist:

- *span*: each call is kept as a span ``(span_id, name, start, end,
  parent_id)``; the parent is the innermost open span.  For the layers
  called at most a few times per test.
- *timed*: calls, total and self time are aggregated, no span is kept.
  For the layers called many times per test (hypercalls, partition steps).
- *count*: a call counter only, no clock read.  For the hottest calls
  (board-memory reads and writes, raw XAL dispatch).

Self time is a call's duration minus the time its traced callees (span or
timed) took.  All clocks are ``time.perf_counter``.  The bookkeeping is
single-threaded: every wrapped function runs on the campaign's main
thread (pool relay threads only move messages).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

SPAN, TIMED, COUNT = "span", "timed", "count"

#: (module, owner, attributes, metric name, kind).  ``owner`` is a class
#: name in ``module`` or None for module functions.  Missing modules,
#: classes or attributes are skipped, so the harness outlives layers that
#: are later removed; their metrics then read 0.
TARGETS: tuple[tuple[str, str | None, tuple[str, ...], str, str], ...] = (
    ("repro.fault.campaign", "Campaign", ("run",), "campaign.run", SPAN),
    ("repro.fault.wire", None, ("generate_suites",), "wire.generate", SPAN),
    ("repro.fault.plan", "CompiledPlan", ("__init__",), "plan.compile", SPAN),
    ("repro.tsim.simulator", "Simulator", ("run_until",), "simulator.run_until", SPAN),
    ("repro.tsim.simulator", "Simulator", ("reset",), "delta.reset", SPAN),
    ("repro.tsim.simulator", "SimSnapshot", ("restore",), "simulator.restore", SPAN),
    ("repro.testbed.partitions", "AocsApp", ("on_step",), "partitions.background", TIMED),
    ("repro.testbed.partitions", "PlatformApp", ("on_step",), "partitions.background", TIMED),
    ("repro.testbed.partitions", "PayloadApp", ("on_step",), "partitions.background", TIMED),
    ("repro.testbed.partitions", "IoApp", ("on_step",), "partitions.background", TIMED),
    ("repro.testbed.partitions", "FdirApp", ("on_step",), "partitions.test", TIMED),
    ("repro.xal.runtime", "Libxm", ("call",), "xal.calls", COUNT),
    (
        "repro.xal.runtime",
        "Libxm",
        (
            "write_bytes", "read_bytes", "place", "place_cstring", "get_time",
            "set_timer", "get_system_status", "get_partition_status",
            "get_plan_status", "create_sampling_port", "write_sampling_message",
            "read_sampling_message", "create_queuing_port",
            "send_queuing_message", "receive_queuing_message",
            "get_port_status", "hm_status", "hm_read", "write_console",
        ),
        "xal.call",
        TIMED,
    ),
    ("repro.xm.kernel", "Kernel", ("hypercall", "hypercall_prepared"), "kernel.hypercall", TIMED),
    ("repro.sparc.memory", "PhysicalMemory", ("read_in",), "memory.reads", COUNT),
    ("repro.sparc.memory", "PhysicalMemory", ("write_in",), "memory.writes", COUNT),
    ("repro.fault.oracle", "ReferenceOracle", ("expect", "expect_planned"), "oracle.expect", SPAN),
    ("repro.fault.classify", None, ("classify",), "classify.classify", SPAN),
    ("repro.fault.campaign", "Campaign", ("analyse",), "campaign.analyse", SPAN),
    ("repro.fault.testlog", "LogStream", ("append",), "testlog.append", SPAN),
    ("repro.fault.testlog", "CampaignLog", ("load",), "testlog.load", SPAN),
    ("repro.fault.report", None, ("full_report",), "report.render", SPAN),
    ("repro.results.warehouse", "ResultsWarehouse", ("ingest",), "warehouse.ingest", SPAN),
    ("repro.fault.wire", None, ("decode_record",), "pool.decode", TIMED),
)


class Tracer:
    """In-memory spans, per-name aggregates and counters of one run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: Kept spans: (span_id, name, start, end, parent_id or None).
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        #: name -> [calls, self_s] for span and timed wrappers.
        self.totals: dict[str, list] = {}
        #: name -> calls for count wrappers.
        self.counts: dict[str, int] = {}
        #: Child-time accumulators of the open span/timed calls.
        self._stack: list[float] = []
        self._current: int | None = None
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn):  # noqa: ANN001, ANN202
        stack = self._stack
        total = self.totals.setdefault(name, [0, 0.0])
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):  # noqa: ANN002, ANN003, ANN202
            parent = tracer._current
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            tracer._current = span_id
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                children = stack.pop()
                total[0] += 1
                total[1] += duration - children
                if stack:
                    stack[-1] += duration
                tracer._current = parent
                spans.append((span_id, name, start, end, parent))

        return wrapper

    def _timed(self, name: str, fn):  # noqa: ANN001, ANN202
        stack = self._stack
        total = self.totals.setdefault(name, [0, 0.0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):  # noqa: ANN002, ANN003, ANN202
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                total[0] += 1
                total[1] += duration - children
                if stack:
                    stack[-1] += duration

        return wrapper

    def _count(self, name: str, fn):  # noqa: ANN001, ANN202
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):  # noqa: ANN002, ANN003, ANN202
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ------------------------------------------------------------

    def patch(self, owner: object, attr: str, value: object) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`uninstall`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(self, module_name: str, owner_name: str | None, attr: str, name: str, kind: str) -> None:
        """Wrap one function; a target that does not exist is skipped."""
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return
        owner = module if owner_name is None else getattr(module, owner_name, None)
        if owner is None or attr not in vars(owner):
            return
        make = {SPAN: self._span, TIMED: self._timed, COUNT: self._count}[kind]
        raw = vars(owner)[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            self.patch(owner, attr, type(raw)(make(name, raw.__func__)))
            return
        wrapped = make(name, raw)
        self.patch(owner, attr, wrapped)
        if owner_name is None:
            # ``from module import fn`` copies the binding; patch the copies.
            for other in list(sys.modules.values()):
                if (
                    other is not module
                    and getattr(other, "__name__", "").startswith("repro.")
                    and vars(other).get(attr) is raw
                ):
                    self.patch(other, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every original binding (idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def self_s(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0])[1]

    def calls(self, name: str) -> int:
        return self.totals.get(name, [0, 0.0])[0]

    def count(self, name: str) -> int:
        return self.counts.get(name, 0)

    def dump(self, path: Path, meta: dict) -> None:
        """Write the run's spans as JSON lines, after one metadata line."""
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run_id": self.run_id, **meta}) + "\n")
            for span_id, name, start, end, parent in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )


def install(run_id: str) -> Tracer:
    """Wrap every target that exists in the loaded program."""
    tracer = Tracer(run_id)
    for module_name, owner_name, attrs, name, kind in TARGETS:
        for attr in attrs:
            tracer.wrap(module_name, owner_name, attr, name, kind)
    return tracer
