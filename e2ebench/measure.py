"""One benchmark run: inputs, set-up, loop, oracle, metrics."""

from __future__ import annotations

import asyncio
import gc
import math
import resource
from typing import Dict, List, Optional

from repro.bench.queries import QUERIES
from repro.exec.kernels import active_kernels
from repro.nok.engine import QueryEngine

import layers
from inputs import (
    DENY_SUBJECT,
    N_SUBJECTS,
    XMARK_CYCLE_READS,
    MixedOps,
    Read,
    make_inputs,
    xmark_reads,
)
from calibrate import CAL_REF_S, Calibrator
from oracle import Oracle, verify
from stats import MIN_BEYOND, beyond, median, percentile, summary
from tracing import Tracer, check_nesting
from workloads import (
    WARMUP_SHARE,
    WORKLOADS,
    Deployment,
    Loop,
    Op,
    ServeLoad,
    is_static_deny,
    published_updates,
    run_xmark_reads,
    run_xmark_updates,
    set_up_repeatedly,
    xmark_read,
    clock,
)

#: the end-to-end metrics every untraced run prints, with their units
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("query_p50_gmean_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("plain_query_p50_gmean_ms", "ms"),
    ("update_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("label_bytes_per_node", "bytes"),
)
#: the percentile behind ``query_tail_ms`` per workload: the highest one
#: that leaves at least ten samples beyond it in a 20 s run even on a slow
#: host (xmark-disk completes 100-200 secure reads in that time, the
#: others several hundred); a fixed percentile keeps the metric
#: comparable across runs
TAIL_P = {"xmark-mem": 95.0, "xmark-disk": 75.0, "serve-mixed": 95.0}

__all__ = ["WORKLOADS", "run", "kernel_backend"]


def kernel_backend() -> str:
    return active_kernels().name


class PeakRss:
    """The program's peak resident memory, net of the benchmark's own.

    At construction (after the inputs exist, before set-up) it takes the
    resident size as the benchmark's baseline and resets the kernel's
    high-water mark to it; :meth:`mb` is the high-water mark since then,
    less that baseline. The baseline holds the interpreter, the imported
    program, the XML text, the benchmark's ACL model and the oracle's
    document; it is reported beside the metric. Without
    ``/proc/self/clear_refs`` (not Linux) it falls back to the process
    lifetime peak, baseline included, and says so.
    """

    def __init__(self, warnings: List[str]):
        gc.collect()
        try:
            self.baseline_kib = _proc_status_kib("VmRSS")
            with open("/proc/self/clear_refs", "w") as clear_refs:
                clear_refs.write("5")  # reset VmHWM to the current RSS
            self.exact = True
        except OSError:
            self.baseline_kib = 0
            self.exact = False
            warnings.append("peak_rss_mb: no peak reset; lifetime peak with inputs included")

    def mb(self) -> float:
        if not self.exact:
            # ru_maxrss is in KiB on Linux
            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return (_proc_status_kib("VmHWM") - self.baseline_kib) / 1024.0


def _proc_status_kib(field: str) -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise OSError(f"no {field} in /proc/self/status")


def _ms(seconds: List[float]) -> List[float]:
    return [s * 1000.0 for s in seconds]


def _phase(ops: List[Op], phase: str, kind: Optional[str] = None) -> List[Op]:
    return [
        op for op in ops
        if op.phase == phase and (kind is None or op.kind == kind)
    ]


def _latency_report(ops: List[Op], tail_p: float) -> Dict[str, object]:
    """Calibrated latency summaries (ms) with the sample count of each."""
    reads = [op for op in ops if op.kind == "read" and op.error is None]
    secure = _ms([op.scaled for op in reads if op.read.secure])
    plain = _ms([op.scaled for op in reads if not op.read.secure])
    updates = _ms([op.scaled for op in ops if op.kind == "update" and op.error is None])
    return {
        "secure": summary(secure, tail_p),
        "plain": summary(plain, tail_p),
        "update": summary(updates, tail_p),
        "per_query": {
            qid: {kind: summary(samples, tail_p) for kind, samples in kinds.items()}
            for qid, kinds in _per_query(reads).items()
        },
    }


def _per_query(reads: List[Op], attr: str = "scaled") -> Dict[str, Dict[str, List[float]]]:
    """Latency samples (ms) per query id, split into secure and plain."""
    table: Dict[str, Dict[str, List[float]]] = {}
    for op in reads:
        kind = "secure" if op.read.secure else "plain"
        table.setdefault(op.read.qid, {}).setdefault(kind, []).append(getattr(op, attr) * 1000.0)
    return table


def _answer_table(oracle: Oracle) -> Dict[str, List[int]]:
    """Reference answer counts per query, per subject (Cho), at epoch 0."""
    return {
        qid: [oracle.expected(Read(qid, (s,), "cho")).distinct for s in range(N_SUBJECTS)]
        for qid in QUERIES
    }


def _static_checks(ops: List[Op]) -> List[str]:
    problems = []
    for op in ops:
        if op.kind != "read" or op.error is not None or not is_static_deny(op.read):
            continue
        if op.stats.get("static_deny") != 1:
            problems.append(f"{op.read.label}: not answered by static deny")
        if op.stats.get("logical_page_reads", 0) != 0:
            problems.append(
                f"{op.read.label}: static deny read "
                f"{op.stats['logical_page_reads']} pages"
            )
    return problems


def run(workload: str, seed: int, seconds: float, trace: bool, workroot: str) -> Dict[str, object]:
    wall = {"start": clock()}
    inputs = make_inputs(seed)
    calibrator = Calibrator(inputs.oracle_doc.parent)
    wall["inputs"] = clock()
    #: measurement caveats that do not make the answers wrong
    warnings: List[str] = []
    peak_rss = PeakRss(warnings)
    deployment, setups = set_up_repeatedly(inputs, workload, workroot, calibrator)
    stage_sets = [stages.seconds for stages in setups]
    wall["setup"] = clock()
    problems: List[str] = []
    try:
        if deployment.matrix.masks() != inputs.masks:
            problems.append("the compiled ACL differs from the benchmark's model")
        tracer = Tracer() if trace else None
        loop = Loop(
            calibrator,
            on_op=(lambda op_id: setattr(tracer, "op", op_id)) if tracer else (lambda _i: None),
        )
        if workload == "serve-mixed":
            phases = asyncio.run(_serve(deployment, inputs, seed, seconds, loop, tracer, peak_rss))
        else:
            phases = _xmark(deployment, inputs, seed, seconds, loop, tracer, peak_rss)
        wall["loop"] = clock()
        loop.scale()
        base_epoch = phases.pop("base_epoch")
        peak_rss_mb = phases.pop("peak_rss_mb")
        label_bytes = deployment.labeling.size_bytes() / inputs.n_nodes
        ops = loop.ops

        # -- the oracle (after timing) ------------------------------------
        oracle = Oracle(inputs.oracle_doc, inputs.masks)
        table = _answer_table(oracle)
        for qid in ("Q1", "Q2", "Q3"):
            empty = [s for s in range(N_SUBJECTS) if s != DENY_SUBJECT and not table[qid][s]]
            if empty:
                problems.append(f"{qid} is empty for non-deny subjects {empty}")
        answers = [op.as_answer() for op in ops if op.kind == "read" and op.error is None]
        verdict = verify(oracle, answers, published_updates(ops), base_epoch)
        problems += verdict.mismatches
        problems += _static_checks(ops)
        errors = [op for op in ops if op.error is not None]
        problems += [f"{op.kind} failed: {op.error}" for op in errors]
        deltas = [op.delta for op in ops if op.kind == "update" and op.error is None]
        if deltas and max(deltas) > 2:
            problems.append(f"an update added {max(deltas)} transitions (Proposition 1 allows 2)")
        failed = len(errors) + len(verdict.mismatches)
        wall["oracle"] = clock()

        report: Dict[str, object] = {
            "latency_ms": {
                name: _latency_report(_phase(ops, name), TAIL_P[workload])
                for name in ("timed", "traced", "after")
                if _phase(ops, name)
            },
            "answer_counts_cho_epoch0": table,
            "benchmark_rss_mb": peak_rss.baseline_kib / 1024.0,
            "result_cache_hit_share": _result_cache_hit_share(ops),
            "ops": {name: len(_phase(ops, name)) for name in ("warmup", "timed", "traced", "twin", "after")},
            "oracle_checked": verdict.checked,
            "error_rate": failed / max(len(ops), 1),
            "setup_stages_s": stage_sets,
            "wall_s": {
                step: wall[step] - wall[prev]
                for prev, step in zip(list(wall), list(wall)[1:])
            },
            "derived": _derived(ops),
            "calibration": _calibration_report(loop.marks),
        }
        if trace:
            spans = tracer.spans
            problems += check_nesting(spans)
            metrics = layers.per_layer_metrics(
                deployment, inputs, ops, spans, phases, stage_sets,
                error_rate=report["error_rate"],
            )
            report["span_count"] = len(spans)
        else:
            setup = [sum(stages.values()) for stages in stage_sets]
            values = _timings(ops, "scaled", TAIL_P[workload], warnings)
            values["setup_s"] = median([stages.scaled_total() for stages in setups])
            values.update(peak_rss_mb=peak_rss_mb, label_bytes_per_node=label_bytes)
            raw = _timings(ops, "latency", TAIL_P[workload], [])
            raw["setup_s"] = median(setup)
            report["raw_wall_clock"] = raw
            missing = [name for name, _unit in END_TO_END if name not in values]
            if missing:
                problems.append(f"no samples for {missing}")
            metrics = {
                name: {"value": values[name], "unit": unit}
                for name, unit in END_TO_END
                if name in values
            }
        report["warnings"] = warnings
        return {
            "report": report,
            "metrics": metrics,
            "problems": problems,
            "attempted": len(ops),
            "failed": failed,
        }
    finally:
        deployment.close()


def _result_cache_hit_share(ops: List[Op]) -> float:
    """Share of the timed reads answered from the result cache."""
    reads = [op for op in _phase(ops, "timed", "read") if op.error is None]
    hits = sum(op.stats.get("result_cache_hits") or 0 for op in reads)
    return hits / max(len(reads), 1)


def _kind_gmeans(reads: List[Op], attr: str = "scaled") -> Dict[str, tuple]:
    """Per read kind: (gmean of per-query medians or None, queries seen)."""
    by_query = _per_query([op for op in reads if op.error is None], attr)
    out = {}
    for kind in ("secure", "plain"):
        samples = {qid: kinds[kind] for qid, kinds in by_query.items() if kind in kinds}
        out[kind] = (gmean_of_medians(samples) if samples else None, sorted(samples))
    return out


def _derived(ops: List[Op]) -> Dict[str, Optional[float]]:
    """Ratios reported but not gated (gmeans of per-query medians)."""
    main = _kind_gmeans(_phase(ops, "timed", "read"))

    def ratio(num, den):
        return num[0] / den[0] if num[0] is not None and den[0] else None

    derived = {"secure_over_plain": ratio(main["secure"], main["plain"])}
    twin = _phase(ops, "twin", "read")
    if twin:
        memory = _kind_gmeans(twin)
        derived["store_over_memory"] = ratio(main["secure"], memory["secure"])
        derived["store_over_memory_plain"] = ratio(main["plain"], memory["plain"])
    return derived


def gmean_of_medians(samples_by_query: Dict[str, List[float]]) -> float:
    """Geometric mean over queries of each query's median latency.

    The secure reads mix queries whose latencies differ by up to 10x, so
    a median pooled over all of them falls in the gap between the fast
    and the slow queries and jumps from run to run; each query's own
    median sits inside its own mode.
    """
    medians = [median(samples) for samples in samples_by_query.values()]
    return math.exp(sum(math.log(m) for m in medians) / len(medians))


def _timings(ops: List[Op], attr: str, tail_p: float, warnings: List[str]) -> Dict[str, float]:
    """The timed phase's timing metrics from latencies in ``attr``.

    ``ops_per_s`` counts completed operations per second of request time,
    so the benchmark's own work between requests never counts against
    the program.
    """
    timed = [op for op in _phase(ops, "timed") if op.error is None]
    reads = [op for op in timed if op.kind == "read"]
    secure = _ms([getattr(op, attr) for op in reads if op.read.secure])
    # serve-mixed times its updates among the reads, the xmark workloads
    # after them
    updates = _ms([
        getattr(op, attr) for op in ops
        if op.kind == "update" and op.phase in ("timed", "after") and op.error is None
    ])
    values: Dict[str, float] = {}
    if timed:
        values["ops_per_s"] = len(timed) / sum(getattr(op, attr) for op in timed)
    gmeans = _kind_gmeans(reads, attr)
    for kind, metric in (("secure", "query_p50_gmean_ms"), ("plain", "plain_query_p50_gmean_ms")):
        value, seen = gmeans[kind]
        if len(seen) < len(QUERIES):
            warnings.append(f"{metric}: {kind} reads of only {seen}")
        if value is not None:
            values[metric] = value
    if secure:
        values["query_tail_ms"] = percentile(secure, tail_p)
        if beyond(len(secure), tail_p) < MIN_BEYOND:
            warnings.append(
                f"query_tail_ms: only {len(secure)} secure reads, fewer than "
                f"{MIN_BEYOND} beyond p{tail_p:g}"
            )
    if updates:
        values["update_p50_ms"] = median(updates)
    return values


def _calibration_report(marks) -> Dict[str, float]:
    times = [seconds * 1000.0 for _pos, seconds in marks]
    return {
        "n": len(times),
        "median_ms": median(times),
        "min_ms": min(times),
        "max_ms": max(times),
        "reference_ms": CAL_REF_S * 1000.0,
    }


# -- the two xmark workloads ---------------------------------------------------


def _xmark(deployment: Deployment, inputs, seed: int, seconds: float, loop: Loop, tracer: Optional[Tracer], peak_rss: PeakRss) -> Dict[str, float]:
    reads = xmark_reads(seed)
    phases: Dict[str, float] = {"base_epoch": deployment.store.epoch if deployment.store else 0}
    # warm up for one full cycle of the sequence, or the warm-up share of
    # the run if that ends first (xmark-disk completes a cycle in ~20 s)
    run_xmark_reads(
        deployment, reads, seconds * WARMUP_SHARE, loop, "warmup",
        max_ops=XMARK_CYCLE_READS,
    )
    if tracer is None:
        phases["timed_s"] = run_xmark_reads(deployment, reads, seconds, loop, "timed")
        phases["peak_rss_mb"] = peak_rss.mb()
        if deployment.store is not None:
            _memory_twin(deployment, loop)
        run_xmark_updates(deployment, inputs, loop)
        return phases
    phases["timed_s"] = run_xmark_reads(deployment, reads, seconds / 2, loop, "timed")
    phases["peak_rss_mb"] = peak_rss.mb()
    with layers.traced(tracer, deployment) as counters:
        phases["traced_s"] = run_xmark_reads(deployment, reads, seconds / 2, loop, "traced")
        counters.mark("reads")
        run_xmark_updates(deployment, inputs, loop)
    phases["counters"] = counters
    return phases


def _memory_twin(deployment: Deployment, loop: Loop) -> None:
    """Replay the timed reads on an in-memory engine over the same labeling
    (not gated: it feeds the store/memory ratio)."""
    memory = QueryEngine(deployment.doc, labeling=deployment.labeling)
    timed = [op.read for op in _phase(loop.ops, "timed", "read")]
    for read in timed[:24]:  # warm the memory engine's caches
        xmark_read(memory, read, "warmup")
    for read in timed:
        loop.on_op(len(loop.ops))
        loop.record(xmark_read(memory, read, "twin"))


# -- serve-mixed ---------------------------------------------------------------


async def _serve(deployment: Deployment, inputs, seed: int, seconds: float, loop: Loop, tracer: Optional[Tracer], peak_rss: PeakRss) -> Dict[str, float]:
    load = ServeLoad(deployment, MixedOps(seed, inputs), seed)
    phases: Dict[str, object] = {"base_epoch": deployment.store.epoch}
    await load.open()
    try:
        await load.run(loop, seconds * WARMUP_SHARE, "warmup")
        if tracer is None:
            phases["timed_s"] = await load.run(loop, seconds, "timed")
            phases["peak_rss_mb"] = peak_rss.mb()
            return phases
        phases["timed_s"] = await load.run(loop, seconds / 2, "timed")
        phases["peak_rss_mb"] = peak_rss.mb()
        before = await load.client.metrics()
        retries = load.client.stats["retries"]
        with layers.traced(tracer, deployment) as counters:
            phases["traced_s"] = await load.run(loop, seconds / 2, "traced")
            counters.mark("reads")
        after = await load.client.metrics()
        counters.service = (before, after)
        counters.client_retries = load.client.stats["retries"] - retries
        phases["counters"] = counters
        return phases
    finally:
        await load.close()
