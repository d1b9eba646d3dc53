"""Reference output digests, per workload and seed.

``reference.json`` maps each workload to ``{seed: digest}`` for the
seeds 0-19 and the held-out seed. A run on one of those seeds must
reproduce its digest exactly; on any other seed the benchmark can only
check that the run's repeated episodes agree with each other.

The held-out seed is never used while tuning a change: a later claim of
a gain must also hold on it.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path
from typing import Dict, Iterable, Optional

PATH = Path(__file__).with_name("reference.json")
HELD_OUT_SEED = 7919
REFERENCE_SEEDS = tuple(range(20)) + (HELD_OUT_SEED,)


def load(path: Path = PATH) -> Dict[str, Dict[str, str]]:
    return json.loads(path.read_text())["digests"]


def expected(workload: str, seed: int, path: Path = PATH) -> Optional[str]:
    """The stored digest for ``(workload, seed)``, if there is one."""
    return load(path).get(workload, {}).get(str(seed))


def write(
    workloads: Iterable[str],
    seeds: Iterable[int] = REFERENCE_SEEDS,
    work_root: Optional[str] = None,
    path: Path = PATH,
) -> None:
    """Recompute the digests of ``workloads`` on ``seeds`` and store them.

    Only for a change that is meant to alter outputs; a change that
    claims only speed must reproduce the stored digests instead.
    """
    from perfbench.workloads import WORKLOADS

    digests = load(path) if path.exists() else {}
    for name in workloads:
        table = digests.setdefault(name, {})
        for seed in seeds:
            with tempfile.TemporaryDirectory(dir=work_root) as work_dir:
                session = WORKLOADS[name].set_up(seed, work_dir)
                outcome = session.episode()
            if outcome.problems:
                raise RuntimeError(f"{name} seed {seed}: {outcome.problems}")
            table[str(seed)] = outcome.digest
            print(f"{name} seed {seed}: {outcome.digest}", flush=True)
    payload = {"held_out_seed": HELD_OUT_SEED, "digests": digests}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
