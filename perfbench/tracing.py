"""Per-layer spans and exact counters, recorded by wrapping the simulator.

Nothing inside ``src`` is edited: the public functions of each layer are
replaced, for the duration of a run, by wrappers that record a span (name,
parent, start, end) and count calls. A module-level function is replaced
at every place it is looked up, because ``simnet`` and ``harness`` import
``hash_header``, ``verify_header``, ``snapshot_for_chain`` and
``tx_batch_schedule`` by name; patching only the defining module would
record nothing. Methods are replaced on their class.

A layer's self time is its spans' duration minus the time covered by
child spans (``Node.deliver`` nests through ``seal`` and orphan
re-admission, ``ChainStore.extend`` calls ``hash_header``, and so on).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager

from scenarios import WORKLOADS

ALL = tuple(WORKLOADS)


def _headers(counts, name, args, result):
    counts[name + ".headers"] += len(result)


def _tx_ids(counts, name, args, result):
    counts[name + ".tx_ids"] += len(args[0].tx_ids)


def _rejected(counts, name, args, result):
    counts[name + ".rejected"] += result is not None


def _kept(counts, name, args, result):
    counts[name + ".kept"] += result is args[3]  # on_new_head(policy, ctx, index, pending, rng)


def _txs(counts, name, args, result):
    counts[name + ".txs"] += len(args[1])


# (span name, defining module, attribute, extra tally, workloads on which the
# span must record at least one call). The last column is the workload each
# layer is meant to load; the self-check fails a traced run that misses it.
LAYERS = (
    ("chain.canonical_chain", "cliquesim.chain", "ChainStore.canonical_chain", _headers, ("honest-long",)),
    ("chain.hash_header", "cliquesim.chain", "hash_header", _tx_ids, ("tx-heavy", "fixed-wide")),
    ("chain.extend", "cliquesim.chain", "ChainStore.extend", None, ("tx-heavy", "fixed-wide")),
    ("chain.select_head", "cliquesim.chain", "ChainStore.select_head", None, ("tx-heavy", "fixed-wide")),
    ("engine.verify_header", "cliquesim.engine", "verify_header", _rejected, ("fixed-wide",)),
    ("engine.snapshot_for_chain", "cliquesim.engine", "snapshot_for_chain", None, ("fixed-wide",)),
    ("strategies.on_new_head", "cliquesim.strategies", "on_new_head", _kept, ("fixed-wide",)),
    ("workload.Mempool.add", "cliquesim.workload", "Mempool.add", _txs, ("tx-heavy",)),
    ("workload.pack_block", "cliquesim.workload", "Mempool.pack_block", None, ("tx-heavy",)),
    ("workload.on_canonical_update", "cliquesim.workload", "Mempool.on_canonical_update", None, ("tx-heavy",)),
    ("workload.tx_batch_schedule", "cliquesim.workload", "tx_batch_schedule", None, ("tx-heavy",)),
    ("simnet.run_until", "cliquesim.simnet", "Simulation.run_until", None, ALL),
    ("simnet.deliver", "cliquesim.simnet", "Node.deliver", None, ("fixed-wide",)),
    ("simnet.seal", "cliquesim.simnet", "Node.seal", None, ("fixed-wide",)),
    ("simnet.replan", "cliquesim.simnet", "Node.replan", None, ("fixed-wide",)),
    ("simnet.broadcast", "cliquesim.simnet", "Simulation.broadcast", None, ("fixed-wide",)),
    ("harness.parse_scenario", "cliquesim.harness", "parse_scenario", None, ALL),
    ("harness.build_simulation", "cliquesim.harness", "build_simulation", None, ALL),
    ("harness.assemble_report", "cliquesim.harness", "assemble_report", None, ALL),
    ("harness.export_block_log", "cliquesim.harness", "export_block_log", None, ALL),
)


class Tracer:
    """Spans with parent links, kept in memory, plus exact counters."""

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()
        # (id, name, parent id or -1, start, end), appended as spans close
        self._spans: list[tuple[int, str, int, float, float]] = []
        self._stack: list[int] = []
        self._next_id = 0

    def count(self, name: str, fn, tally=None):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            result = fn(*args, **kwargs)
            if tally is not None:
                tally(counts, name, args, result)
            return result

        return counted

    def span(self, name: str, fn, tally=None):
        counts = self.counts
        key = name + ".calls"
        spans = self._spans
        stack = self._stack
        clock = time.process_time  # the clock of run_s in traced and untraced repeats

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[key] += 1
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, parent, start, end))
            if tally is not None:
                tally(counts, name, args, result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child spans."""
        child = [0.0] * self._next_id
        for _, _, parent, start, end in self._spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = {}
        for span_id, name, _, start, end in self._spans:
            totals[name] = totals.get(name, 0.0) + (end - start) - child[span_id]
        return totals

    def missing_calls(self, workload: str) -> list[str]:
        """Spans that should have recorded a call on ``workload`` but did not."""
        return [
            name
            for name, _, _, _, required in LAYERS
            if workload in required and self.counts[name + ".calls"] == 0
        ]


def _lookup_sites(original) -> list[tuple[object, str]]:
    return [
        (module, attr)
        for module_name, module in list(sys.modules.items())
        if module_name == "cliquesim" or module_name.startswith("cliquesim.")
        for attr, value in list(vars(module).items())
        if value is original
    ]


@contextmanager
def instrumented(tracer: Tracer, spans: bool, counted: tuple[str, ...] = ()):
    """Install, with ``spans``, every layer span.

    Layers named in ``counted`` get their calls and tallies counted without
    timing, for runs whose host time must stay untraced.
    """
    patches: list[tuple[object, str, object]] = []

    def patch(module_name: str, path: str, make) -> None:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            sites = [(owner, attr)]
        else:
            original = getattr(module, attr)
            sites = _lookup_sites(original)
        wrapper = make(original)
        for owner, site_attr in sites:
            patches.append((owner, site_attr, original))
            setattr(owner, site_attr, wrapper)

    try:
        for name, module_name, path, tally, _ in LAYERS:
            if spans:
                patch(module_name, path, functools.partial(tracer.span, name, tally=tally))
            elif name in counted:
                patch(module_name, path, functools.partial(tracer.count, name, tally=tally))
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
