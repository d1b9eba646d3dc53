"""Crash-consistent checkpoint/resume for pipeline runs.

A checkpoint is one atomic file capturing *everything* mutable about a
run in flight — world RNG states, tracker and scheduler state, the
metrics registry, the fault-schedule position — so a run interrupted
and resumed from it is bit-identical to the same run left uninterrupted.
The only values outside the guarantee are wall-clock observations
(``frame_wall_ms``, span durations): they measure the host, not the
modeled system.

File layout: a magic header line, the hex SHA-256 of the payload, then
the pickled :class:`RunCheckpoint`. Writes go to a temp file in the same
directory followed by ``os.replace`` — a crash mid-write leaves either
the previous checkpoint or none, never a torn one. Loads verify the
digest and raise :class:`CheckpointError` on any mismatch, so a resumed
run never silently starts from corrupted state.
"""

from __future__ import annotations

from dataclasses import dataclass
import hashlib
import os
import pickle
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.runtime.metrics import RunResult

#: v2: every run state carries a FaultSchedule (empty on a fault-free
#: run). A v1 fault-free state holds ``faults=None`` and cannot resume.
#: v3: each camera node keeps one track table (``Track`` records) in
#: place of three dicts; a v2 node would unpickle without it.
MAGIC = b"repro-checkpoint-v3\n"


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, torn, or fails its digest check."""


@dataclass(frozen=True)
class RunCheckpoint:
    """A pipeline run frozen between two frames.

    ``state`` is the pipeline's internal run state
    (:class:`repro.runtime.pipeline._RunState`); ``scenario``, ``config``
    and ``trained`` are everything needed to rebuild the
    :class:`~repro.runtime.pipeline.Pipeline` around it without
    re-training.
    """

    scenario: Any
    config: Any
    trained: Any
    state: Any

    @property
    def next_frame(self) -> int:
        return int(self.state.next_frame)

    @property
    def total_frames(self) -> int:
        return int(self.state.total_frames)


def save_checkpoint(path: str, checkpoint: RunCheckpoint) -> None:
    """Atomically write ``checkpoint`` to ``path`` (temp file + rename)."""
    payload = pickle.dumps(checkpoint, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(payload).hexdigest().encode("ascii")
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(digest + b"\n")
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_checkpoint(path: str) -> RunCheckpoint:
    """Read and digest-verify a checkpoint written by :func:`save_checkpoint`."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    if not blob.startswith(MAGIC):
        header = blob.split(b"\n", 1)[0]
        if header.startswith(b"repro-checkpoint-"):
            raise CheckpointError(
                f"{path!r} is a {header.decode('ascii', 'replace')} file; "
                f"this build resumes {MAGIC.strip().decode()} only"
            )
        raise CheckpointError(f"{path!r} is not a repro checkpoint (bad magic)")
    rest = blob[len(MAGIC):]
    sep = rest.find(b"\n")
    if sep != 64:  # hex-encoded sha256
        raise CheckpointError(f"{path!r}: malformed digest header")
    digest, payload = rest[:sep], rest[sep + 1:]
    actual = hashlib.sha256(payload).hexdigest().encode("ascii")
    if actual != digest:
        raise CheckpointError(
            f"{path!r}: digest mismatch — truncated or corrupted checkpoint"
        )
    try:
        checkpoint = pickle.loads(payload)
    except Exception as exc:  # pickle raises a zoo of exception types
        raise CheckpointError(
            f"{path!r}: cannot unpickle checkpoint: {exc}"
        ) from exc
    if not isinstance(checkpoint, RunCheckpoint):
        raise CheckpointError(
            f"{path!r}: unexpected payload type {type(checkpoint).__name__}"
        )
    return checkpoint


def resume_run(path: str) -> "RunResult":
    """Resume the run checkpointed at ``path`` and run it to completion.

    Returns the same :class:`~repro.runtime.metrics.RunResult` the
    uninterrupted run would have produced (bit-identical, wall-clock
    observations aside).
    """
    from repro.runtime.pipeline import Pipeline  # deferred: import cycle

    checkpoint = load_checkpoint(path)
    pipeline = Pipeline(
        checkpoint.scenario, checkpoint.config, trained=checkpoint.trained
    )
    return pipeline.run(checkpoint.state)
