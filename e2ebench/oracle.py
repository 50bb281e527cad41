"""The answer oracle: every read, checked after timing ends.

Each recorded read names the epoch its answer is consistent with. The
oracle replays the acknowledged updates, in order, on the benchmark's own
ACL model, and evaluates the read at its epoch with the brute-force
reference evaluator (:func:`repro.nok.reference.evaluate_reference`).
A user's rights are the union of its subjects' rights, so the model is
collapsed to a one-subject bit vector per subject set before the call.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.nok.pattern import parse_query
from repro.nok.reference import evaluate_reference

from inputs import Read, Update


@dataclass(frozen=True)
class Fingerprint:
    """An answer kept small: its size, its distinct size and a digest of
    the sorted distinct positions. Runs record thousands of answers, and
    holding every position list would inflate the peak memory measured."""

    returned: int
    distinct: int
    digest: bytes


def fingerprint(positions: Iterable[int]) -> Fingerprint:
    positions = list(positions)
    distinct = sorted(set(positions))
    digest = hashlib.blake2b(array("q", distinct).tobytes(), digest_size=16).digest()
    return Fingerprint(len(positions), len(distinct), digest)


@dataclass
class Answer:
    """One read as the program answered it."""

    read: Read
    answer: Fingerprint
    epoch: int


@dataclass
class Verdict:
    checked: int = 0
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _bits(subjects: Tuple[int, ...]) -> int:
    bits = 0
    for subject in subjects:
        bits |= 1 << subject
    return bits


def apply_update(masks: List[int], update: Update) -> None:
    """Grant or revoke ``update.subject`` on ``[start, end)`` of the model."""
    bit = 1 << update.subject
    for pos in range(update.start, update.end):
        if update.value:
            masks[pos] |= bit
        else:
            masks[pos] &= ~bit


class Oracle:
    """Reference answers over an evolving model, memoized per user vector."""

    def __init__(self, doc, masks: Sequence[int]):
        self.doc = doc
        self.masks = list(masks)
        self._patterns: Dict[str, object] = {}
        self._answers: Dict[tuple, Fingerprint] = {}
        self._vectors: Dict[int, bytes] = {}

    def _pattern(self, query: str):
        pattern = self._patterns.get(query)
        if pattern is None:
            pattern = self._patterns[query] = parse_query(query)
        return pattern

    def apply(self, update: Update) -> None:
        apply_update(self.masks, update)
        self._vectors.clear()

    def _vector(self, subjects: Tuple[int, ...]) -> bytes:
        bits = _bits(subjects)
        vector = self._vectors.get(bits)
        if vector is None:
            vector = bytes(1 if mask & bits else 0 for mask in self.masks)
            self._vectors[bits] = vector
        return vector

    def expected(self, read: Read) -> Fingerprint:
        pattern = self._pattern(read.query)
        if read.subjects is None:
            key = (read.query, None, None)
            vector = None
        else:
            vector = self._vector(read.subjects)
            key = (read.query, read.semantics, vector)
        answer = self._answers.get(key)
        if answer is None:
            answer = fingerprint(
                evaluate_reference(
                    self.doc, pattern,
                    masks=vector,
                    subject=0 if vector is not None else None,
                    semantics=read.semantics,
                )
            )
            self._answers[key] = answer
        return answer


def verify(
    oracle: Oracle,
    answers: Sequence[Answer],
    updates: Sequence[Tuple[int, Update]] = (),
    base_epoch: int = 0,
) -> Verdict:
    """Check every answer against the model at that answer's epoch.

    ``oracle`` holds the model at ``base_epoch``; ``updates`` lists
    ``(epoch published, update)``. An answer at epoch ``e`` must equal the
    reference over the model with every update published at or before
    ``e`` applied.
    """
    verdict = Verdict()
    known = {base_epoch} | {epoch for epoch, _ in updates}
    pending = sorted(updates, key=lambda item: item[0])
    applied = 0
    for answer in sorted(answers, key=lambda a: a.epoch):
        if answer.epoch not in known:
            verdict.mismatches.append(
                f"{answer.read.label}: answered at unknown epoch {answer.epoch}"
            )
            continue
        while applied < len(pending) and pending[applied][0] <= answer.epoch:
            oracle.apply(pending[applied][1])
            applied += 1
        verdict.checked += 1
        expected = oracle.expected(answer.read)
        got = answer.answer
        if got.returned != got.distinct or got.digest != expected.digest:
            verdict.mismatches.append(
                f"{answer.read.label} @ epoch {answer.epoch}: returned "
                f"{got.returned} ({got.distinct} distinct), expected "
                f"{expected.distinct}"
            )
    return verdict
