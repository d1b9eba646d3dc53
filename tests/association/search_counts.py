"""How the pair-model calls since fit or load found their neighbours.

Each ``SourceIndex`` counts its calls by outcome in ``calls``; nothing in
the package reads the counts, so the tests that hold the certified
search to its rate sum them here.
"""

from typing import Dict


def shared_calls(associator) -> Dict[str, int]:
    """Pair-model calls that found a shared search, by outcome.

    Each classifier call and each regressor call counts once:
    ``certified`` calls used the shared neighbours, ``fallback`` calls
    ran their own search because the certificate declined.
    """
    total = {"certified": 0, "fallback": 0}
    for index in (getattr(associator, "_sources", None) or {}).values():
        for outcome, count in index.calls.items():
            total[outcome] += count
    return total
