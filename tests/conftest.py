import numpy as np
import pytest

from fairrerank.dataset import Interactions, PopularityPartition, distinct_user_counts
from fairrerank.metrics import eval_context, evaluate
from fairrerank.rerank import RecommendationLists


def interactions(triples, num_users, num_items):
    """A split built from (user, item, weight) triples."""
    users = np.array([t[0] for t in triples], dtype=np.int64)
    items = np.array([t[1] for t in triples], dtype=np.int64)
    weights = np.array([t[2] for t in triples], dtype=np.float64)
    return Interactions(users, items, weights, num_users, num_items)


def raises_exactly(error, message, check):
    """Assert that `check()` raises `error` itself, not a subclass, with
    exactly `message`."""
    with pytest.raises(error) as caught:
        check()
    assert type(caught.value) is error
    assert str(caught.value) == message


def judged_split(judgments, num_items):
    """The test split whose user u holds the items of judgments[u]: the
    per-user sets that `tests/reference.py` reads, as `eval_context` takes
    them."""
    return interactions([(u, item, 1.0) for u, judged in enumerate(judgments) for item in judged],
                        len(judgments), num_items)


def pair_set(inter):
    """The (user, item) pairs of a split."""
    return set(zip(inter.users.tolist(), inter.items.tolist()))


def evaluated(lists, judgments=None, train=None, part=None, k=None):
    """The report `evaluate(eval_context(...), lists)[0]` gives for one list
    set, a grid of one point. The inputs a caller leaves out get defaults
    that the metric under test does not read: each user judges their first
    listed item, the train split is empty over the partition's catalog,
    every item is long-tail (a partition of the train split, as
    `eval_context` needs), and k is the list length; the judgments become a
    test split over the train split's items. A one-user set is scored as one copy per train user (two
    without a train: personalization compares pairs of lists), which leaves
    every mean unchanged."""
    if lists.num_users == 1:
        copies = 2 if train is None else train.num_users
        lists = RecommendationLists(items=np.repeat(lists.items, copies, axis=1), num_items=lists.num_items)
        judgments = None if judgments is None else judgments * copies
    if judgments is None:
        judgments = [{item} for item in lists.items[0, :, 0].tolist()]
    if train is None:
        train = interactions([], lists.num_users, lists.num_items if part is None else part.num_items)
    if part is None:
        part = make_partition([False] * train.num_items, train)
    test = judged_split(judgments, train.num_items)
    return evaluate(eval_context(test, train, part, lists.k if k is None else k), lists)[0]


@pytest.fixture
def tiny_train():
    """6 users x 5 items; items 0,1 popular (4 and 3 distinct users)."""
    triples = [
        (0, 0, 1.0), (0, 1, 1.0), (0, 2, 1.0),
        (1, 0, 1.0), (1, 1, 1.0),
        (2, 0, 1.0), (2, 1, 1.0),
        (3, 0, 1.0), (3, 3, 1.0),
        (4, 2, 1.0),
        (5, 4, 1.0),
    ]
    return interactions(triples, 6, 5)


def make_partition(short_flags, train=None):
    """The given short-head flags with `train`'s distinct users per item as
    counts (all zero without a train): `eval_context` reads its counts from
    the partition, so it must be one of the train split it is given."""
    short = np.asarray(short_flags, dtype=bool)
    counts = np.zeros(len(short), dtype=np.int64) if train is None else distinct_user_counts(train, len(short))
    return PopularityPartition(short_head=short, popularity_count=counts)
