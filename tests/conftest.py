import numpy as np
import pytest

from fairrerank.dataset import Interactions, PopularityPartition
from fairrerank.metrics import eval_context, evaluate
from fairrerank.rerank import RecommendationLists


def interactions(triples, num_users, num_items):
    """A split built from (user, item, weight) triples."""
    users = np.array([t[0] for t in triples], dtype=np.int64)
    items = np.array([t[1] for t in triples], dtype=np.int64)
    weights = np.array([t[2] for t in triples], dtype=np.float64)
    return Interactions(users, items, weights, num_users, num_items)


def pair_set(inter):
    """The (user, item) pairs of a split."""
    return set(zip(inter.users.tolist(), inter.items.tolist()))


def evaluated(lists, judgments=None, train=None, part=None, k=None):
    """The report `evaluate(eval_context(...))` gives for one list set. The
    inputs a caller leaves out get defaults that the metric under test does
    not read: each user judges their first listed item, the train split is
    empty, every item is long-tail, and k is the list length. A one-user set
    is scored as two copies of that user, which leaves every mean unchanged
    (personalization compares pairs of lists)."""
    m, n = lists.num_users, lists.num_items
    if judgments is None:
        judgments = [{item} for item in lists.items[:, 0].tolist()]
    if train is None:
        train = interactions([], m, n)
    if part is None:
        part = PopularityPartition(short_head=np.zeros(n, dtype=bool), popularity_count=np.zeros(n, dtype=np.int64))
    if m == 1:
        lists = RecommendationLists(items=np.repeat(lists.items, 2, axis=0), num_items=n)
        judgments = judgments * 2
    return evaluate(eval_context(judgments, train, part, lists.k if k is None else k), lists)


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


def make_partition(short_flags):
    short = np.asarray(short_flags, dtype=bool)
    # counts consistent with the flags: short-head items get higher counts
    counts = np.where(short, 10, 1).astype(np.int64)
    return PopularityPartition(short_head=short, popularity_count=counts)
