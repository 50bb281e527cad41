"""Per-layer metrics of a traced run.

:func:`traced` installs span wrappers on each layer's public entry points
for the length of a ``with`` block and snapshots the program's own
counters (buffer pool, decoded-page cache, plan cache, WAL size) at its start, at ``mark("reads")`` and at its end.
:func:`per_layer_metrics` turns spans, counters and per-query
``EvalStats`` into the numbers :data:`PER_LAYER` names.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, List, Optional

import repro.exec.batch as batch_mod
import repro.exec.operators as operators_mod
import repro.server.aserver as aserver_mod
from repro.exec.kernels import active_kernels
from repro.exec.planner import PhysicalPlan
from repro.index.tagindex import TagIndex
from repro.labeling.classes import ClassDirectory
from repro.nok.engine import QueryEngine
from repro.nok.stdjoin import PathAccessIndex
from repro.server.service import QueryService
from repro.storage.codecs import CompressedPageFormat, PlainPageFormat
from repro.storage.nokstore import NoKStore
from repro.storage.pager import Pager
from repro.storage.snapshot import StoreSnapshot
from repro.storage.wal import WriteAheadLog

from stats import median
from tracing import Tracer, install, layer_totals

#: (metric, unit) — every traced run prints each of these, 0 where the
#: workload gives the layer no work
PER_LAYER = (
    ("xmltree.parse_s", "s"),
    ("xmltree.flatten_s", "s"),
    ("xmltree.parse_mb_per_s", "MB/s"),
    ("acl.compile_s", "s"),
    ("labeling.build_s", "s"),
    ("labeling.transitions", "count"),
    ("labeling.codebook_entries", "count"),
    ("labeling.self_ms_per_query", "ms"),
    ("labeling.run_cache_hit_ratio", "ratio"),
    ("labeling.access_checks_per_answer", "ratio"),
    ("labeling.update_transition_delta_max", "count"),
    ("storage.build_s", "s"),
    ("storage.save_s", "s"),
    ("storage.disk_bytes_per_node", "bytes"),
    ("storage.logical_reads_per_query", "count"),
    ("storage.physical_reads_per_query", "count"),
    ("storage.decodes_per_query", "count"),
    ("storage.decoded_hit_ratio", "ratio"),
    ("storage.buffer_hit_ratio", "ratio"),
    ("storage.device_read_ms_per_query", "ms"),
    ("storage.decode_ms_per_query", "ms"),
    ("storage.self_ms_per_query", "ms"),
    ("storage.pages_per_update", "count"),
    ("storage.wal_bytes_per_update", "bytes"),
    ("storage.fsyncs_per_update", "count"),
    ("storage.wal_sync_ms_per_update", "ms"),
    ("storage.update_self_ms", "ms"),
    ("index.lookups_per_query", "count"),
    ("index.self_ms_per_query", "ms"),
    ("nok.compile_ms_per_query", "ms"),
    ("nok.plan_cache_hit_ratio", "ratio"),
    ("nok.self_ms_per_query", "ms"),
    ("exec.self_ms_per_query", "ms"),
    ("exec.kernel_ms_per_query", "ms"),
    ("exec.kernel_calls_per_query", "count"),
    ("exec.candidates_per_answer", "ratio"),
    ("exec.static_deny_ratio", "ratio"),
    ("exec.result_cache_hit_ratio", "ratio"),
    ("server.queue_wait_ms_per_op", "ms"),
    ("server.service_ms_per_op", "ms"),
    ("server.wire_ms_per_op", "ms"),
    ("server.response_bytes_per_op", "bytes"),
    ("server.shed_ops", "count"),
    ("server.client_retries", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("error_rate", "ratio"),
)


class Counters:
    """Snapshots of the program's own counters during a traced block."""

    def __init__(self, deployment) -> None:
        self.deployment = deployment
        self.snapshots: Dict[str, Dict[str, float]] = {}
        #: EvalStats of every engine evaluation, by operation id
        self.eval_stats: Dict[int, List[Dict[str, object]]] = {}
        self.response_bytes = 0
        #: service metrics() before and after (serve-mixed only)
        self.service: Optional[tuple] = None
        self.client_retries = 0

    def mark(self, name: str) -> None:
        deployment = self.deployment
        engine = deployment.engine
        plans = engine.plan_cache.stats()
        snap: Dict[str, float] = {
            "plan_cache.hits": plans["hits"],
            "plan_cache.misses": plans["misses"],
        }
        store = deployment.store
        if store is not None:
            buffer = store.buffer.stats
            snap["buffer.logical"] = buffer.logical_reads
            snap["buffer.hits"] = buffer.hits
            decoded = store.decoded_cache.stats
            snap["decoded.hits"] = decoded.hits
            snap["decoded.misses"] = decoded.misses
            wal = deployment.path + ".wal"
            snap["wal.bytes"] = os.path.getsize(wal) if os.path.exists(wal) else 0
        self.snapshots[name] = snap

    def delta(self, key: str, start: str = "start", end: str = "end") -> float:
        return self.snapshots[end].get(key, 0) - self.snapshots[start].get(key, 0)

    def observe_eval(self, op: Optional[int], result) -> None:
        if op is not None:
            self.eval_stats.setdefault(op, []).append(result.stats.as_dict())

    def observe_bytes(self, _op: Optional[int], data: bytes) -> None:
        self.response_bytes += len(data)


def targets(deployment, counters: Counters) -> list:
    """``(owner, attribute, span name, layer[, observe])`` per entry point."""
    kernels = type(active_kernels())
    labeling = type(deployment.labeling)
    return [
        (QueryService, "evaluate", "server.evaluate", "server"),
        (QueryService, "update", "server.update", "server"),
        (aserver_mod, "encode_response", "server.encode", "server", counters.observe_bytes),
        (QueryEngine, "evaluate", "exec.evaluate", "exec", counters.observe_eval),
        (PhysicalPlan, "run", "exec.run", "exec"),
        (QueryEngine, "compile", "nok.compile", "nok"),
        (batch_mod, "match_nok_subtree", "nok.match", "nok"),
        (operators_mod, "match_nok_subtree", "nok.match", "nok"),
        (kernels, "filter_runs", "kernel.filter_runs", "kernel"),
        (kernels, "take_eq", "kernel.take_eq", "kernel"),
        (kernels, "join_ranges", "kernel.join_ranges", "kernel"),
        (TagIndex, "positions", "index.positions", "index"),
        (TagIndex, "positions_with_value", "index.positions_with_value", "index"),
        (ClassDirectory, "class_of", "labeling.class_of", "labeling"),
        (labeling, "access_runs_any", "labeling.access_runs", "labeling"),
        (labeling, "set_subject_accessibility", "labeling.update", "labeling"),
        (PathAccessIndex, "__init__", "labeling.path_index", "labeling"),
        (StoreSnapshot, "_page", "storage.page", "storage"),
        (Pager, "read_page_view", "storage.device_read", "storage"),
        (PlainPageFormat, "decode_page_columns", "storage.decode", "storage"),
        (CompressedPageFormat, "decode_page_columns", "storage.decode", "storage"),
        (NoKStore, "update_subject_range", "storage.update", "storage"),
        (WriteAheadLog, "commit", "storage.wal_commit", "storage"),
        (WriteAheadLog, "sync", "storage.wal_sync", "storage"),
        (Pager, "sync", "storage.page_sync", "storage"),
    ]


@contextmanager
def traced(tracer: Tracer, deployment):
    """Trace every layer for the block; yields the :class:`Counters`."""
    counters = Counters(deployment)
    counters.mark("start")
    patches = install(tracer, targets(deployment, counters))
    try:
        yield counters
    finally:
        patches.restore()
        tracer.op = None
        counters.mark("end")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    deployment, inputs, ops, spans, phases, stage_sets, error_rate
) -> Dict[str, Dict[str, object]]:
    """Every :data:`PER_LAYER` metric of a traced run; 0 where the workload
    gives a layer no work."""
    counters: Counters = phases["counters"]
    traced_ids = {i for i, op in enumerate(ops) if op.phase == "traced"}
    read_ids = {i for i in traced_ids if ops[i].kind == "read" and ops[i].error is None}
    update_ids = {
        i for i, op in enumerate(ops)
        if op.kind == "update" and op.error is None and op.phase in ("traced", "after")
    }
    n_reads = max(len(read_ids), 1)
    n_updates = len(update_ids)
    reads = layer_totals([s for s in spans if s.op in read_ids])
    writes = layer_totals([s for s in spans if s.op in update_ids])

    def total(table, key, field="ms"):
        return table.get(key, {}).get(field, 0.0)

    evals = [stats for i in sorted(read_ids) for stats in counters.eval_stats.get(i, [])]

    def eval_sum(field):
        return sum(stats.get(field) or 0 for stats in evals)

    secure_reads = [ops[i] for i in read_ids if ops[i].read.secure]
    answers = sum(ops[i].n_answers for i in read_ids)
    secure_answers = sum(op.n_answers for op in secure_reads)
    stage = {key: median([s[key] for s in stage_sets]) for key in stage_sets[0]}
    store = deployment.store
    labeling = deployment.labeling
    values: Dict[str, float] = {
        "xmltree.parse_s": stage["parse"],
        "xmltree.flatten_s": stage["flatten"],
        "xmltree.parse_mb_per_s": len(inputs.xml.encode()) / 1e6 / stage["parse"],
        "acl.compile_s": stage["acl"],
        "labeling.build_s": stage["labeling"],
        "labeling.transitions": labeling.n_transitions,
        "labeling.codebook_entries": len(labeling.codebook),
        "labeling.self_ms_per_query": total(reads, "labeling", "self_ms") / n_reads,
        "labeling.run_cache_hit_ratio": _ratio(
            eval_sum("run_cache_hits"),
            eval_sum("run_cache_hits") + eval_sum("run_cache_misses"),
        ),
        "labeling.access_checks_per_answer": _ratio(eval_sum("access_checks"), secure_answers),
        "labeling.update_transition_delta_max": max(
            (ops[i].delta for i in update_ids), default=0
        ),
        "storage.build_s": stage.get("store_build", 0.0),
        "storage.save_s": stage.get("store_save", 0.0),
        "storage.disk_bytes_per_node": deployment.disk_bytes() / inputs.n_nodes,
        "storage.logical_reads_per_query": eval_sum("logical_page_reads") / n_reads,
        "storage.physical_reads_per_query": eval_sum("physical_page_reads") / n_reads,
        "storage.decodes_per_query": eval_sum("pages_decoded_columnar") / n_reads,
        "storage.device_read_ms_per_query": total(reads, "storage.device_read") / n_reads,
        "storage.decode_ms_per_query": total(reads, "storage.decode") / n_reads,
        "storage.self_ms_per_query": total(reads, "storage", "self_ms") / n_reads,
        "index.lookups_per_query": total(reads, "index", "calls") / n_reads,
        "index.self_ms_per_query": total(reads, "index", "self_ms") / n_reads,
        "nok.compile_ms_per_query": total(reads, "nok.compile") / n_reads,
        "nok.plan_cache_hit_ratio": _ratio(
            counters.delta("plan_cache.hits"),
            counters.delta("plan_cache.hits") + counters.delta("plan_cache.misses"),
        ),
        "nok.self_ms_per_query": total(reads, "nok", "self_ms") / n_reads,
        "exec.self_ms_per_query": total(reads, "exec", "self_ms") / n_reads,
        "exec.kernel_ms_per_query": total(reads, "kernel") / n_reads,
        "exec.kernel_calls_per_query": total(reads, "kernel", "calls") / n_reads,
        "exec.candidates_per_answer": _ratio(eval_sum("candidates"), answers),
        "exec.static_deny_ratio": _ratio(eval_sum("static_deny"), len(secure_reads)),
        "exec.result_cache_hit_ratio": eval_sum("result_cache_hits") / n_reads,
        "error_rate": error_rate,
    }
    if store is not None:
        values["storage.decoded_hit_ratio"] = _ratio(
            counters.delta("decoded.hits", end="reads"),
            counters.delta("decoded.hits", end="reads")
            + counters.delta("decoded.misses", end="reads"),
        )
        values["storage.buffer_hit_ratio"] = _ratio(
            counters.delta("buffer.hits", end="reads"),
            counters.delta("buffer.logical", end="reads"),
        )
    if n_updates:
        syncs = total(writes, "storage.wal_sync", "calls") + total(writes, "storage.page_sync", "calls")
        values.update({
            "storage.pages_per_update": sum(ops[i].pages for i in update_ids) / n_updates,
            "storage.wal_bytes_per_update": counters.delta("wal.bytes") / n_updates,
            "storage.fsyncs_per_update": syncs / n_updates,
            "storage.wal_sync_ms_per_update": total(writes, "storage.wal_sync") / n_updates,
            "storage.update_self_ms": total(writes, "storage", "self_ms") / n_updates,
        })
    traced_ops = [ops[i] for i in traced_ids]
    timed_ops = [op for op in ops if op.phase == "timed"]
    # traced over untraced throughput, each in calibrated request time
    values["trace.overhead_ratio"] = _ratio(
        sum(op.scaled for op in timed_ops) / max(len(timed_ops), 1),
        sum(op.scaled for op in traced_ops) / max(len(traced_ops), 1),
    )
    if counters.service is not None:
        before, after = counters.service
        n_ops = max(len(traced_ops), 1)
        waited = (
            after["queue_wait_mean"] * after["requests"]
            - before["queue_wait_mean"] * before["requests"]
        )
        all_traced = layer_totals([s for s in spans if s.op in traced_ids])
        service_ms = total(all_traced, "server.evaluate") + total(all_traced, "server.update")
        rtt_ms = sum(op.latency for op in traced_ops) * 1000.0
        values.update({
            "server.queue_wait_ms_per_op": waited * 1000.0 / n_ops,
            "server.service_ms_per_op": service_ms / n_ops,
            "server.wire_ms_per_op": (rtt_ms - service_ms) / n_ops,
            "server.response_bytes_per_op": counters.response_bytes / n_ops,
            "server.shed_ops": after["shed"] - before["shed"],
            "server.client_retries": counters.client_retries,
        })
    return {
        name: {"value": values.get(name, 0.0), "unit": unit}
        for name, unit in PER_LAYER
    }
