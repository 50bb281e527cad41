"""The answer oracle: epoch replay, subject-set unions, and mismatches."""

from inputs import Read, Update, propagate
from oracle import Answer, Oracle, fingerprint, verify
from repro.xmltree.document import Document
from repro.xmltree.parser import parse

# positions: 0 site, 1 regions, 2 africa, 3 item, 4 location, 5 name,
# 6 quantity, 7 item, 8 location, 9 name, 10 quantity
XML = (
    "<site><regions><africa>"
    "<item><location/><name/><quantity/></item>"
    "<item><location/><name/><quantity/></item>"
    "</africa></regions></site>"
)
Q1_SUBJECT0 = Read("Q1", (0,), "cho")


def make_oracle():
    doc = Document.from_tree(parse(XML))
    # subject 0 reads everything but the second item's name; subject 1
    # reads only that name (and the path to it)
    masks = [0b01] * len(doc)
    masks[9] = 0b10
    for pos in (0, 1, 2, 7):
        masks[pos] |= 0b10
    return Oracle(doc, masks)


def test_fingerprint_ignores_order_and_sees_duplicates():
    assert fingerprint([3, 7]) == fingerprint([7, 3])
    doubled = fingerprint([3, 3, 7])
    assert doubled.returned == 3 and doubled.distinct == 2
    assert doubled.digest == fingerprint([3, 7]).digest


def test_correct_answers_pass():
    oracle = make_oracle()
    answers = [
        Answer(Q1_SUBJECT0, fingerprint([3]), 0),
        Answer(Read("Q1", None), fingerprint([3, 7]), 0),
        # the union of subjects 0 and 1 reads both items
        Answer(Read("Q1", (0, 1), "cho"), fingerprint([7, 3]), 0),
    ]
    verdict = verify(oracle, answers)
    assert verdict.ok and verdict.checked == 3


def test_wrong_or_duplicated_answers_fail():
    oracle = make_oracle()
    verdict = verify(oracle, [
        Answer(Q1_SUBJECT0, fingerprint([3, 7]), 0),
        Answer(Read("Q1", None), fingerprint([3, 3, 7]), 0),
    ])
    assert len(verdict.mismatches) == 2
    assert "Q1/0/cho" in verdict.mismatches[0]


def test_answers_are_checked_at_their_own_epoch():
    oracle = make_oracle()
    grant = Update(start=9, end=10, subject=0, value=True)
    updates = [(5, grant)]
    before = Answer(Q1_SUBJECT0, fingerprint([3]), 4)
    after = Answer(Q1_SUBJECT0, fingerprint([3, 7]), 5)
    assert verify(oracle, [after, before], updates, base_epoch=4).ok
    stale = Answer(Q1_SUBJECT0, fingerprint([3]), 5)
    assert not verify(make_oracle(), [stale], updates, base_epoch=4).ok


def test_unknown_epochs_fail():
    verdict = verify(make_oracle(), [Answer(Q1_SUBJECT0, fingerprint([3]), 9)])
    assert verdict.mismatches and "unknown epoch" in verdict.mismatches[0]


def test_view_semantics_needs_the_whole_root_path():
    oracle = make_oracle()
    oracle.masks[2] = 0b10  # africa hidden from subject 0
    oracle._vectors.clear()
    assert oracle.expected(Read("Q1", (0,), "view")).distinct == 0


def test_model_propagation_is_most_specific_override():
    parents = [-1, 0, 1, 1, 0]
    assert propagate(parents, {0: True, 1: False, 3: True}) == [
        True, False, False, True, True,
    ]
    assert propagate(parents, {}) == [False] * 5
