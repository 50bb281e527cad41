"""Seeded inputs shared by every workload.

Everything here is generated *before* timing starts and handed to the
program as plain data: the XMark document as XML text, the access policy
as a list of rules, and the operation sequences. The benchmark keeps its
own ACL model (per-node subject bitmasks) computed by its own
Most-Specific-Override propagation; the answer oracle evaluates against
that model, never against the program's compiled matrix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.acl.policy import AccessRule
from repro.bench.classes import simulated_user_sets
from repro.bench.queries import QUERIES
from repro.xmark.generator import XMarkConfig, generate
from repro.xmltree.document import Document
from repro.xmltree.serializer import serialize

#: the XMark instance every workload uses: 43,869 nodes, 1.25 MB of XML.
#: The document is the same for every seed (its generator seed is fixed),
#: so run-to-run spread comes from the machine, not from document size;
#: the workload seed drives the policy and the operation sequences.
N_ITEMS = 2000
XMARK_SEED = 42
#: access-control subjects (groups). The last one holds no grant at all:
#: it is the labelled static-deny case, answered without any page read.
N_SUBJECTS = 8
DENY_SUBJECT = N_SUBJECTS - 1
#: share of nodes that carry an explicit recursive rule per subject, and
#: the chance such a rule grants (the Section 5 synthetic generator with
#: horizontal locality; a lower seed share than the paper's 0.3 keeps
#: the rule list, and so ACL compile, proportionate)
SEED_SHARE = 0.02
GRANT_PROBABILITY = 0.75
#: rules target nodes at this depth or deeper only, so the item and
#: category nodes Q1-Q3 step through inherit the root grant and those
#: queries stay non-empty for every subject that holds any grant
MIN_RULE_DEPTH = 4

SEMANTICS = ("cho", "view")
#: reads in one full cycle of :func:`xmark_reads`: every (query, subject,
#: semantics) once, plus one plain twin per query every fourth round
XMARK_CYCLE_READS = 6 * N_SUBJECTS * len(SEMANTICS) * 5 // 4


@dataclass(frozen=True)
class Read:
    """One read: a Table-1 query for a subject set (None = plain twin)."""

    qid: str
    subjects: Optional[Tuple[int, ...]]
    semantics: str = "cho"

    @property
    def query(self) -> str:
        return QUERIES[self.qid]

    @property
    def secure(self) -> bool:
        return self.subjects is not None

    @property
    def label(self) -> str:
        if self.subjects is None:
            return f"{self.qid}/plain"
        return f"{self.qid}/{'+'.join(map(str, self.subjects))}/{self.semantics}"


@dataclass(frozen=True)
class Update:
    """A ``subject_range`` access update over one subtree."""

    start: int
    end: int
    subject: int
    value: bool


@dataclass
class Inputs:
    """The generated inputs of one seed."""

    seed: int
    xml: str
    n_nodes: int
    rules: List[AccessRule]
    #: the benchmark's own ACL model: bit ``s`` of ``masks[pos]`` says
    #: subject ``s`` may read node ``pos``
    masks: List[int]
    #: the oracle's document, flattened straight from the generator's
    #: tree (not through the program's parser)
    oracle_doc: Document
    #: subtree roots that updates target (item and category subtrees)
    update_roots: List[Tuple[int, int]] = field(default_factory=list)


def xmark_config() -> XMarkConfig:
    n = N_ITEMS
    return XMarkConfig(
        n_items=n,
        n_categories=max(10, n // 10),
        n_people=max(10, n // 8),
        n_open_auctions=max(10, n // 8),
        seed=XMARK_SEED,
    )


def propagate(parents: Sequence[int], decisions: Dict[int, bool]) -> List[bool]:
    """Most-Specific-Override: the model's own rule propagation.

    A node takes the nearest recursive decision on its root path (itself
    included); a node with none on its path is denied.
    """
    vector = [False] * len(parents)
    for pos, parent in enumerate(parents):
        inherited = vector[parent] if parent >= 0 else False
        vector[pos] = decisions.get(pos, inherited)
    return vector


def _subject_rules(
    rng: random.Random,
    parents: Sequence[int],
    children: Dict[int, List[int]],
    candidates: Sequence[int],
) -> Dict[int, bool]:
    """Recursive decisions: a root grant, then seeded subtree rules."""
    decisions: Dict[int, bool] = {0: True}
    n_seeds = round(SEED_SHARE * len(parents))
    for pos in sorted(rng.sample(candidates, n_seeds)):
        if pos in decisions:
            continue
        grant = rng.random() < GRANT_PROBABILITY
        decisions[pos] = grant
        # horizontal locality: direct siblings share the seed's decision
        for sibling in children.get(parents[pos], ()):
            decisions.setdefault(sibling, grant)
    return decisions


def make_inputs(seed: int) -> Inputs:
    """Generate the document, the policy and the ACL model for ``seed``."""
    tree = generate(xmark_config())
    xml = serialize(tree)
    oracle_doc = Document.from_tree(tree)
    del tree
    parents, depths = oracle_doc.parent, oracle_doc.depth
    n = len(parents)
    children: Dict[int, List[int]] = {}
    for pos in range(1, n):
        children.setdefault(parents[pos], []).append(pos)

    candidates = [pos for pos in range(n) if depths[pos] >= MIN_RULE_DEPTH]
    rng = random.Random(seed * 7919 + 17)
    rules: List[AccessRule] = []
    masks = [0] * n
    for subject in range(N_SUBJECTS):
        if subject == DENY_SUBJECT:
            continue
        decisions = _subject_rules(rng, parents, children, candidates)
        for pos, grant in sorted(decisions.items()):
            rules.append(AccessRule(subject, pos, grant))
        bit = 1 << subject
        for pos, value in enumerate(propagate(parents, decisions)):
            if value:
                masks[pos] |= bit
    update_roots = [
        (pos, pos + oracle_doc.subtree[pos])
        for pos in range(n)
        if oracle_doc.tag_name(pos) in ("item", "category")
    ]
    return Inputs(
        seed=seed, xml=xml, n_nodes=n, rules=rules, masks=masks,
        oracle_doc=oracle_doc, update_roots=update_roots,
    )


def xmark_reads(seed: int, plain_every: int = 4) -> Iterator[Read]:
    """The endless xmark read sequence: Q1-Q6 x subject x semantics.

    The sequence is stratified so that any prefix has a balanced query
    mix: it runs in rounds, and each round reads every query once, as
    the next (subject, semantics) pair from that query's own shuffled
    list of all pairs. A query also gets a plain (non-secure) twin in
    one round out of ``plain_every``, so plain reads share the query mix
    of the secure ones. A short run (the store workload completes about
    one cycle of 16 rounds) then sees the same mix as a long one.
    """
    rng = random.Random(seed * 15485863 + 11)
    pairs = [(s, sem) for s in range(N_SUBJECTS) for sem in SEMANTICS]
    qids = list(QUERIES)
    lists = {qid: [] for qid in qids}
    round_no = 0
    while True:
        order = qids[:]
        rng.shuffle(order)
        batch: List[Read] = []
        for qid in order:
            if not lists[qid]:
                lists[qid] = pairs[:]
                rng.shuffle(lists[qid])
            subject, sem = lists[qid].pop()
            batch.append(Read(qid, (subject,), sem))
            if (round_no + qids.index(qid)) % plain_every == 0:
                batch.append(Read(qid, None))
        round_no += 1
        yield from batch


def draw_update(rng: random.Random, inputs: Inputs) -> Update:
    """A grant or revoke of one non-deny subject over one subtree."""
    start, end = inputs.update_roots[rng.randrange(len(inputs.update_roots))]
    return Update(
        start=start,
        end=end,
        subject=rng.randrange(DENY_SUBJECT),
        value=rng.random() < 0.5,
    )


class MixedOps:
    """The serve-mixed request stream: the repo's user population, one
    update in twenty.

    Users come from :func:`repro.bench.classes.simulated_user_sets`, the
    paper's population model (each user holds 1-3 roles), fixed across
    seeds, and every read's user is equally likely, as in the repo's own
    load generator (``repro.bench.loadgen``). The skew over access
    classes is the model's own: a one-role set is held by about seven
    times as many users as a given three-role set. The population is
    small, so one 20 s run reads about every (user, semantics) pair of
    every query once: each query deals its pairs from its own shuffled
    deck, the way :func:`xmark_reads` deals (subject, semantics) pairs,
    and the mix of a run does not depend on the seed. Reads run in rounds
    that ask every query once, in shuffled order; per query, one read in
    :data:`PLAIN_EVERY` is its plain twin. Plain twins of one query lie
    ``6 * PLAIN_EVERY`` reads apart, more than the reads between two
    updates, so each one misses the result cache like the first read of
    an epoch does. The result cache is keyed by epoch, so a secure read
    hits it only when the same query, semantics and access class were
    read since the last update; with this mix that is 1-2% of the reads
    (the report line counts the hits).
    """

    UPDATE_EVERY = 20
    PLAIN_EVERY = 4
    N_USERS = 32
    USER_SEED = 0

    def __init__(self, seed: int, inputs: Inputs):
        self.rng = random.Random(seed * 104729 + 3)
        self.inputs = inputs
        users = simulated_user_sets(self.N_USERS, N_SUBJECTS, seed=self.USER_SEED)
        self.pairs = [(user, sem) for user in users for sem in SEMANTICS]
        self.count = 0
        self._round: List[str] = []
        self._asked = {qid: 0 for qid in QUERIES}
        self._decks: Dict[str, list] = {qid: [] for qid in QUERIES}

    def next(self):
        self.count += 1
        if self.count % self.UPDATE_EVERY == 0:
            return draw_update(self.rng, self.inputs)
        if not self._round:
            self._round = list(QUERIES)
            self.rng.shuffle(self._round)
        qid = self._round.pop()
        asked = self._asked[qid]
        self._asked[qid] += 1
        if asked % self.PLAIN_EVERY == 0:
            return Read(qid, None)
        if not self._decks[qid]:
            self._decks[qid] = self.pairs[:]
            self.rng.shuffle(self._decks[qid])
        user, sem = self._decks[qid].pop()
        return Read(qid, user, sem)
