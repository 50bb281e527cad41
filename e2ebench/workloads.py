"""Set-up and timed loops of the three workloads.

Every workload is a closed loop: one client, one request in flight. That
keeps the store-global I/O counters exact per request, and it means a
slower program receives proportionally less load.

- ``xmark-mem``: the in-memory engine, result cache off. No storage work:
  exec, kernels, labeling runs, index and nok do all of it. It is the
  control for storage changes and the memory side of store/memory.
- ``xmark-disk``: the same reads against a file-backed structure-delta
  store whose decoded-page budget and buffer pool are scaled down to the
  ratio the paper's 832k-node XMark would have under the default sizes
  (about 3x the decoded budget, 22x the frames), so most page accesses
  reach the device read and the codec decode.
- ``serve-mixed``: the asyncio server (protocol v2) over one loopback
  connection, through the program's own client, result cache on, with a
  ``subject_range`` update about every twentieth request. The only
  workload that covers the wire, the service queue, caches under
  invalidation, and writes interleaved with reads.

The two xmark workloads also apply a short run of access updates after
the timed reads (in memory through the labeling, on disk through the
store's WAL-logged update), so every workload reports an update latency;
those updates never overlap the timed reads.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import repro.xmltree.parser as xml_parser
from repro.acl.policy import Policy
from repro.bench.queries import QUERIES
from repro.labeling.registry import build_labeling
from repro.nok.engine import QueryEngine
from repro.server.aclient import AsyncResilientClient
from repro.server.aserver import serve_async
from repro.server.service import QueryService, ServiceConfig
from repro.storage.nokstore import NoKStore
from repro.storage.persist import catalog_path_for, save_store
from repro.xmltree.document import Document

from calibrate import CAL_EVERY_S, Calibrator, local_factors
from inputs import (
    DENY_SUBJECT,
    N_SUBJECTS,
    Inputs,
    MixedOps,
    Read,
    Update,
    draw_update,
)
from oracle import Answer, Fingerprint, fingerprint

WORKLOADS = ("xmark-mem", "xmark-disk", "serve-mixed")

#: set-ups per run; ``setup_s`` is their median
SETUP_REPS = 3
#: xmark-disk cache sizes (see the module docstring for the scaling)
DISK_BUFFER_FRAMES = 4
DISK_DECODED_BYTES = 220 * 1024
PAGE_CODEC = "structure-delta"
#: access updates applied after the xmark reads, drawn from a fixed
#: stream (only the policy they land on varies with the seed) so that
#: update_p50_ms compares like with like across seeds
TRAILING_UPDATES = 120
TRAILING_UPDATE_SEED = 31337
#: subjects whose answers are read back after the trailing updates
READBACK_SUBJECTS = (0, 1, 2)
#: share of a run spent warming caches before the timed phase
WARMUP_SHARE = 0.1


def clock() -> float:
    return time.perf_counter()


@dataclass
class Deployment:
    """One set-up program instance."""

    workload: str
    doc: Document
    labeling: object
    matrix: object
    engine: QueryEngine
    store: Optional[NoKStore] = None
    serving: object = None
    path: Optional[str] = None

    def disk_bytes(self) -> int:
        if self.path is None:
            return 0
        return os.path.getsize(self.path) + os.path.getsize(catalog_path_for(self.path))

    def close(self) -> None:
        if self.serving is not None:
            self.serving.close()  # closes the service and the store too
        elif self.store is not None:
            self.store.close()
        self.serving = self.store = None


class Stages:
    """Stage timer for one set-up: wall seconds per stage, with a
    calibration between every two stages to scale them by."""

    def __init__(self, calibrator: Calibrator):
        self.calibrator = calibrator
        self.seconds: Dict[str, float] = {}
        self._marks: List[Tuple[int, float]] = [(0, calibrator.measure())]
        self._started = clock()

    def done(self, name: str) -> None:
        self.seconds[name] = clock() - self._started
        self._marks.append((len(self.seconds), self.calibrator.measure()))
        self._started = clock()

    def scaled_total(self) -> float:
        factors = local_factors(self._marks, len(self.seconds))
        return sum(t * f for t, f in zip(self.seconds.values(), factors))


def set_up(inputs: Inputs, workload: str, workdir: str, stages: Stages) -> Deployment:
    """From XML text to a ready program: the span ``setup_s`` measures."""
    root = xml_parser.parse(inputs.xml)
    stages.done("parse")
    doc = Document.from_tree(root)
    stages.done("flatten")
    policy = Policy(doc, N_SUBJECTS)
    for rule in inputs.rules:
        policy.add_rule(rule)
    matrix = policy.compile()
    stages.done("acl")
    labeling = build_labeling("dol", doc, matrix)
    stages.done("labeling")
    store = path = None
    if workload != "xmark-mem":
        os.makedirs(workdir, exist_ok=True)
        path = os.path.join(workdir, "store.pages")
        sizes = {}
        if workload == "xmark-disk":
            sizes = dict(
                buffer_capacity=DISK_BUFFER_FRAMES,
                decoded_cache_bytes=DISK_DECODED_BYTES,
            )
        store = NoKStore(doc, labeling, path=path, codec=PAGE_CODEC, **sizes)
        stages.done("store_build")
        save_store(store)
        stages.done("store_save")
    engine = QueryEngine(doc, labeling=labeling, store=store)
    stages.done("engine")
    deployment = Deployment(workload, doc, labeling, matrix, engine, store=store, path=path)
    if workload == "serve-mixed":
        workers = max(1, min(2, os.cpu_count() or 1))
        service = QueryService(engine, ServiceConfig(workers=workers))
        deployment.serving = serve_async(service)
        stages.done("server_start")
    return deployment


def set_up_repeatedly(
    inputs: Inputs, workload: str, workroot: str, calibrator: Calibrator
) -> Tuple[Deployment, List[Stages]]:
    """Set up :data:`SETUP_REPS` times; keep the last instance.

    Returns it and every repetition's stage timer. Earlier instances are
    torn down first, so only one is ever alive.
    """
    reps: List[Stages] = []
    kept: Optional[Deployment] = None
    for rep in range(SETUP_REPS):
        if kept is not None:
            kept.close()
            if kept.path is not None:
                shutil.rmtree(os.path.dirname(kept.path), ignore_errors=True)
            kept = None
        gc.collect()
        stages = Stages(calibrator)
        kept = set_up(inputs, workload, os.path.join(workroot, f"rep{rep}"), stages)
        reps.append(stages)
    return kept, reps


# -- one operation's record ------------------------------------------------


@dataclass
class Op:
    """One completed (or failed) operation of the loop."""

    kind: str  # "read" or "update"
    #: wall-clock seconds
    latency: float
    #: "warmup", "timed", "traced", "twin" (xmark-disk's in-memory
    #: replay) or "after" (trailing updates and their read-back)
    phase: str
    read: Optional[Read] = None
    update: Optional[Update] = None
    answer: Optional[Fingerprint] = None
    epoch: int = 0
    #: the EvalStats fields the static-deny check and the result-cache
    #: hit share read
    stats: Dict[str, object] = field(default_factory=dict)
    error: Optional[str] = None
    pages: int = 0
    delta: int = 0
    #: ``latency`` scaled to the reference machine speed (see calibrate.py)
    scaled: float = 0.0

    def as_answer(self) -> Answer:
        return Answer(self.read, self.answer, self.epoch)

    @property
    def n_answers(self) -> int:
        return self.answer.distinct if self.answer is not None else 0


class Loop:
    """Keeps the operation records and calibrates between operations.

    ``on_op`` sees each operation id before it starts (the tracer uses
    it). A calibration runs whenever :data:`~calibrate.CAL_EVERY_S` has
    passed since the last one, always between two operations, never
    inside a timed one.
    """

    def __init__(self, calibrator: Calibrator,
                 on_op: Callable[[int], None] = lambda _op: None):
        self.ops: List[Op] = []
        self.on_op = on_op
        self.calibrator = calibrator
        #: (operations recorded before it, calibration seconds)
        self.marks: List[Tuple[int, float]] = []
        self._last = 0.0

    def calibrate(self) -> None:
        self.marks.append((len(self.ops), self.calibrator.measure()))
        self._last = clock()

    def record(self, op: Op) -> None:
        self.ops.append(op)
        if clock() - self._last >= CAL_EVERY_S:
            self.calibrate()

    def scale(self) -> None:
        """Set every operation's calibrated latency (after the run)."""
        for op, factor in zip(self.ops, local_factors(self.marks, len(self.ops))):
            op.scaled = op.latency * factor


def _kept_stats(stats: Dict[str, object]) -> Dict[str, object]:
    return {
        key: stats.get(key)
        for key in ("static_deny", "logical_page_reads", "result_cache_hits")
    }


# -- the xmark workloads -----------------------------------------------------


def xmark_read(engine: QueryEngine, read: Read, phase: str, epoch: int = 0) -> Op:
    started = clock()
    try:
        result = engine.evaluate(
            read.query, subject=read.subjects, semantics=read.semantics
        )
    except Exception as exc:  # a failed operation, counted and reported
        return Op("read", clock() - started, phase, read=read, epoch=epoch,
                  error=f"{type(exc).__name__}: {exc}")
    latency = clock() - started
    return Op("read", latency, phase, read=read, answer=fingerprint(result.positions),
              epoch=epoch, stats=_kept_stats(vars(result.stats)))


def run_xmark_reads(
    deployment: Deployment,
    reads: Iterator[Read],
    seconds: float,
    loop: Loop,
    phase: str,
    max_ops: Optional[int] = None,
) -> float:
    """Closed-loop reads for ``seconds`` (or ``max_ops`` reads, if fewer);
    returns the elapsed wall time."""
    engine = deployment.engine
    epoch = deployment.store.epoch if deployment.store is not None else 0
    loop.calibrate()
    started = clock()
    deadline = started + seconds
    stop = len(loop.ops) + max_ops if max_ops is not None else None
    while clock() < deadline and (stop is None or len(loop.ops) < stop):
        loop.on_op(len(loop.ops))
        loop.record(xmark_read(engine, next(reads), phase, epoch))
    elapsed = clock() - started
    loop.calibrate()
    return elapsed


def run_xmark_updates(deployment: Deployment, inputs: Inputs, loop: Loop) -> None:
    """Apply :data:`TRAILING_UPDATES` access updates, then read back."""
    rng = random.Random(TRAILING_UPDATE_SEED)
    store = deployment.store
    epoch = 0
    for index in range(TRAILING_UPDATES):
        if index % 10 == 0:  # the phase is short: calibrate densely
            loop.calibrate()
        update = draw_update(rng, inputs)
        loop.on_op(len(loop.ops))
        started = clock()
        try:
            if store is not None:
                cost = store.update_subject_range(
                    update.start, update.end, update.subject, update.value
                )
                pages, delta, epoch = cost.pages_rewritten, cost.transition_delta, store.epoch
            else:
                delta = deployment.labeling.set_subject_accessibility(
                    update.start, update.end, update.subject, update.value
                )
                pages, epoch = 0, epoch + 1
        except Exception as exc:
            loop.record(Op("update", clock() - started, "after", update=update,
                           error=f"{type(exc).__name__}: {exc}"))
            continue
        loop.record(Op("update", clock() - started, "after", update=update,
                       epoch=epoch, pages=pages, delta=delta))
    # read every query back at the final epoch, as a few subjects
    for qid in QUERIES:
        for subject in READBACK_SUBJECTS:
            read = Read(qid, (subject,), "cho")
            loop.on_op(len(loop.ops))
            loop.record(xmark_read(deployment.engine, read, "after", epoch))
    loop.calibrate()


# -- serve-mixed ---------------------------------------------------------------


async def _serve_op(client: AsyncResilientClient, item, phase: str) -> Op:
    started = clock()
    try:
        if isinstance(item, Update):
            reply = await client.update(
                "subject_range", item.start, item.end,
                subject=item.subject, value=item.value,
            )
            return Op("update", clock() - started, phase, update=item,
                      epoch=reply["epoch"], pages=reply["pages_rewritten"],
                      delta=reply["transition_delta"])
        extra = {"semantics": item.semantics}
        subject = list(item.subjects) if item.subjects is not None else None
        reply = await client.query(item.query, subject=subject, **extra)
    except Exception as exc:  # errors, sheds and timeouts all count as failures
        kind = "update" if isinstance(item, Update) else "read"
        return Op(kind, clock() - started, phase,
                  read=None if kind == "update" else item,
                  update=item if kind == "update" else None,
                  error=f"{type(exc).__name__}: {exc}")
    return Op("read", clock() - started, phase, read=item,
              answer=fingerprint(reply["positions"]), epoch=reply["epoch"],
              stats=_kept_stats(reply.get("stats", {})))


class ServeLoad:
    """The serve-mixed client: one connection, one request in flight."""

    def __init__(self, deployment: Deployment, mixed: MixedOps, seed: int):
        self.deployment = deployment
        self.mixed = mixed
        self.seed = seed
        self.client: Optional[AsyncResilientClient] = None

    async def run(self, loop: Loop, seconds: float, phase: str) -> float:
        loop.calibrate()
        started = clock()
        deadline = started + seconds
        while clock() < deadline:
            loop.on_op(len(loop.ops))
            loop.record(await _serve_op(self.client, self.mixed.next(), phase))
        elapsed = clock() - started
        loop.calibrate()
        return elapsed

    async def open(self) -> None:
        host, port = self.deployment.serving.address
        self.client = AsyncResilientClient(host, port, seed=self.seed)

    async def close(self) -> None:
        if self.client is not None:
            await self.client.aclose()
            self.client = None


def published_updates(ops: List[Op]) -> List[Tuple[int, Update]]:
    return [(op.epoch, op.update) for op in ops if op.kind == "update" and op.error is None]


def is_static_deny(read: Read) -> bool:
    return read.subjects is not None and set(read.subjects) == {DENY_SUBJECT}
