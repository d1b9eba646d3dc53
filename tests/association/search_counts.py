"""How the pair-model calls since fit or load found their neighbours.

The package keeps no count. :func:`count_shared_calls` wraps what
``PairwiseAssociator.predict_source`` calls and books each shared pass's
outcomes against its ``SourceIndex``; :func:`shared_calls` sums them over
an associator's indexes. A fit or a load builds new indexes, so each
count starts at zero.
"""

import weakref
from typing import Dict

from repro.association.pairwise import PairwiseAssociator, SourceIndex
from repro.ml.knn import KNNRegressor

_COUNTS: "weakref.WeakKeyDictionary[SourceIndex, Dict[str, int]]" = (
    weakref.WeakKeyDictionary()
)


def _counts(index: SourceIndex) -> Dict[str, int]:
    return _COUNTS.setdefault(index, {"certified": 0, "fallback": 0})


def count_shared_calls(monkeypatch) -> None:
    """Count shared-search outcomes while ``monkeypatch`` holds its patches.

    A shared pass that answers serves every reader's classifier call,
    and every regressor call whose rows its certificate covers; a
    regressor it hands to ``KNNRegressor.predict`` runs its own search.
    When the pass declines, each reader's classifier call, and its
    regressor call when any box was visible, runs its own search.
    """
    predict_source = PairwiseAssociator.predict_source
    shared_pass = SourceIndex.predict
    regress = KNNRegressor.predict
    running = []  # [index, own searches] of the shared pass under way
    declined = []  # (index, readers) of the passes that returned None

    def counted_regress(self, x):
        if running:
            running[-1][1] += 1
        return regress(self, x)

    def counted_pass(index, corners, readers, threshold):
        running.append([index, 0])
        try:
            out = shared_pass(index, corners, readers, threshold)
        finally:
            _, own = running.pop()
        if out is None:
            declined.append((index, readers))
            return out
        counts = _counts(index)
        regressed = sum(len(out[target][0]) > 0 for target in readers)
        counts["certified"] += len(readers) + regressed - own
        counts["fallback"] += own
        return out

    def counted_source(assoc, source, corners, targets, *args, **kwargs):
        del declined[:]
        out = predict_source(assoc, source, corners, targets, *args, **kwargs)
        for index, readers in declined:
            counts = _counts(index)
            for target, (idx, _) in zip(targets, out):
                if target in readers:
                    counts["fallback"] += 1 + (len(idx) > 0)
        del declined[:]
        return out

    monkeypatch.setattr(KNNRegressor, "predict", counted_regress)
    monkeypatch.setattr(SourceIndex, "predict", counted_pass)
    monkeypatch.setattr(PairwiseAssociator, "predict_source", counted_source)


def shared_calls(associator) -> Dict[str, int]:
    """Pair-model calls that found a shared search, by outcome.

    Each classifier call and each regressor call counts once:
    ``certified`` calls used the shared neighbours, ``fallback`` calls
    ran their own search because the certificate declined. Only calls
    made under :func:`count_shared_calls` are counted.
    """
    total = {"certified": 0, "fallback": 0}
    for index in associator._sources.values():
        for outcome, count in _COUNTS.get(index, {}).items():
            total[outcome] += count
    return total
