"""How the pair-model calls since fit or load found their neighbours.

The package keeps no count. :func:`count_shared_calls` wraps what
``PairwiseAssociator.predict_pairs`` calls and books each key-frame
pass's outcomes against the source's ``SourceIndex``; :func:`shared_calls`
sums them over an associator's indexes. A fit or a load builds new
indexes, so each count starts at zero.
"""

import weakref
from typing import Dict

from repro.association.pairwise import PairwiseAssociator, SourceIndex, SourceStack
from repro.ml.knn import KNNRegressor

_COUNTS: "weakref.WeakKeyDictionary[SourceIndex, Dict[str, int]]" = (
    weakref.WeakKeyDictionary()
)


def _counts(index: SourceIndex) -> Dict[str, int]:
    return _COUNTS.setdefault(index, {"certified": 0, "fallback": 0})


def count_shared_calls(monkeypatch) -> None:
    """Count shared-search outcomes while ``monkeypatch`` holds its patches.

    For every source that answers, the pass serves every reader's
    classifier call, and every regressor call whose rows its certificate
    covers; a regressor it hands to ``KNNRegressor.predict`` runs its own
    search. For a source the pass leaves out, each reader's classifier
    call, and its regressor call when any box was visible, runs its own
    search.
    """
    predict_pairs = PairwiseAssociator.predict_pairs
    shared_pass = SourceStack.predict
    regress = KNNRegressor.predict
    running = []  # the own searches of the pass under way, by regressor
    passes = []  # (stack, readers, answers) of the passes of this call

    def counted_regress(self, x):
        if running:
            running[-1].append(self)
        return regress(self, x)

    def counted_pass(stack, corners, readers, threshold):
        running.append([])
        try:
            out = shared_pass(stack, corners, readers, threshold)
        finally:
            own = running.pop()
        passes.append((stack, readers, out))
        for source, targets in readers.items():
            index = stack.indexes[stack.slot[source]]
            counts = _counts(index)
            for target in targets:
                if (source, target) not in out:
                    continue
                counts["certified"] += 1 + (len(out[source, target][0]) > 0)
                if index.models[target].regressor in own:
                    counts["certified"] -= 1
                    counts["fallback"] += 1
        return out

    def counted_pairs(assoc, corners, pairs, *args, **kwargs):
        del passes[:]
        out = predict_pairs(assoc, corners, pairs, *args, **kwargs)
        for stack, readers, answered in passes:
            for (source, target), (idx, _) in zip(pairs, out):
                if target in readers.get(source, ()) and (source, target) not in answered:
                    index = stack.indexes[stack.slot[source]]
                    _counts(index)["fallback"] += 1 + (len(idx) > 0)
        del passes[:]
        return out

    monkeypatch.setattr(KNNRegressor, "predict", counted_regress)
    monkeypatch.setattr(SourceStack, "predict", counted_pass)
    monkeypatch.setattr(PairwiseAssociator, "predict_pairs", counted_pairs)


def shared_calls(associator) -> Dict[str, int]:
    """Pair-model calls that found a shared search, by outcome.

    Each classifier call and each regressor call counts once:
    ``certified`` calls used the shared neighbours, ``fallback`` calls
    ran their own search because the pass left their source out or the
    certificate declined. Only calls made under
    :func:`count_shared_calls` are counted.
    """
    total = {"certified": 0, "fallback": 0}
    for index in associator._sources.values():
        for outcome, count in _COUNTS.get(index, {}).items():
            total[outcome] += count
    return total
