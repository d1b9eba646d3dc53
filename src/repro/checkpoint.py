"""Crash-consistent checkpoint/resume for pipeline runs.

A checkpoint captures *everything* mutable about a run in flight — world
RNG states, tracker and scheduler state, the metrics registry, the
fault-schedule position — so a run interrupted and resumed from it is
bit-identical to the same run left uninterrupted. The only values
outside the guarantee are wall-clock observations (``frame_wall_ms``,
span durations): they measure the host, not the modeled system.

A checkpoint is two framed files (:mod:`repro.framed`) in one directory:

* the *models entry* ``models-<sha256>.pkl`` (:data:`ENTRY_MAGIC`): the
  run's trained models, pickled whole and named by the SHA-256 of that
  pickle. No frame changes them, so every save after the first finds its
  entry in place, and runs with the same models share one;
* the *state file* at the checkpoint path (:data:`MAGIC`): the pickled
  :class:`RunCheckpoint`, in which the trained models and their
  associator, which the scheduler's matcher also holds, are references
  to the entry that only :func:`load_checkpoint` resolves.

A save makes the entry durable (temp file, fsync, rename, directory
fsync) before it writes the state file that names it, and the state file
is replaced atomically, so a crash leaves the previous checkpoint or the
new one, never a torn one. A load verifies both digests and raises
:class:`CheckpointError` naming the damaged file; on load both
references resolve to one object, so shared references stay shared. The
entry travels with its state file: move or copy the two together.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import hashlib
import io
import os
import pickle
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple
import weakref

from repro.framed import FramedFileError, read_framed, write_framed

if TYPE_CHECKING:
    from repro.runtime.metrics import RunResult

#: v2: every run state carries a FaultSchedule (empty on a fault-free
#: run). A v1 fault-free state holds ``faults=None`` and cannot resume.
#: v3: each camera node keeps one track table (``Track`` records) in
#: place of three dicts; a v2 node would unpickle without it.
#: v4: the trained models live in a models entry the state refers to; a
#: v3 state holds them inline.
#: v5: the run state reads its frames from a world trajectory (the world
#: plus the frames its lagging cameras can reach); a v4 state holds the
#: world and a separate snapshot history.
MAGIC = b"repro-checkpoint-v5\n"
ENTRY_MAGIC = b"repro-models-v1\n"


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

    def resume(self) -> "RunResult":
        """Rebuild the run's pipeline and run it to completion.

        Returns the same :class:`~repro.runtime.metrics.RunResult` the
        uninterrupted run would have produced (bit-identical, wall-clock
        observations aside).
        """
        from repro.runtime.pipeline import Pipeline  # deferred: import cycle

        pipeline = Pipeline(self.scenario, self.config, trained=self.trained)
        return pipeline.run(self.state)


# ----------------------------------------------------------------------
# Save
# ----------------------------------------------------------------------

#: ``id(models) -> (weak reference, fingerprint, entry digest)``: each
#: trained-models object is pickled and hashed once per process, and the
#: entry is dropped when the object dies.
_DIGESTS: Dict[int, Tuple[Any, Tuple[Any, ...], str]] = {}


def _fingerprint(trained: Any) -> Tuple[Any, ...]:
    """What changes when the trained models do, read without pickling them.

    The associator is held by weak reference, so a replaced one never
    matches, even at a recycled id; its ``_fit_token`` counts its fits, so
    a refit in place does not match either. The two small tables compare
    by value.
    """
    associator = trained.associator
    return (
        None if associator is None else weakref.ref(associator),
        getattr(associator, "_fit_token", 0),
        dict(trained.typical_box_sizes),
        dict(trained.profiles),
    )


def _remember(trained: Any, digest: str) -> None:
    """Remember that ``trained`` pickles to the entry named ``digest``."""
    key = id(trained)
    try:
        ref = weakref.ref(trained, lambda _, key=key: _DIGESTS.pop(key, None))
        fingerprint = _fingerprint(trained)
    except (TypeError, AttributeError):  # not a TrainedModels: never remembered
        return
    _DIGESTS[key] = (ref, fingerprint, digest)


def _remembered_digest(trained: Any) -> Optional[str]:
    memo = _DIGESTS.get(id(trained))
    if memo is None or memo[1] != _fingerprint(trained):
        return None
    return memo[2]


def _entry_path(state_path: str, digest: str) -> str:
    return os.path.join(os.path.dirname(state_path), f"models-{digest}.pkl")


def _models_ref(digest: str, field: Optional[str]) -> Any:
    """The models in entry ``digest``, or their ``field``, in a state file.

    Only the unpickler of :func:`load_checkpoint` resolves this call.
    """
    raise CheckpointError("a models reference resolves only on load_checkpoint")


class _StatePickler(pickle.Pickler):
    """Pickles a checkpoint with its models as references to their entry.

    Pickle asks ``reducer_override`` about class instances only, which
    makes the reference cheaper to find than a ``persistent_id``, which
    is asked about every object. A trained-models stand-in of an atomic
    type, such as a string, pickles inline.
    """

    def __init__(self, file: Any, trained: Any, digest: str) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._refs: Dict[int, Tuple[Any, Tuple[str, Optional[str]]]] = {
            id(trained): (_models_ref, (digest, None))
        }
        associator = getattr(trained, "associator", None)
        if associator is not None:
            self._refs[id(associator)] = (_models_ref, (digest, "associator"))

    def reducer_override(self, obj: Any) -> Any:
        return self._refs.get(id(obj), NotImplemented)


def save_checkpoint(path: str, checkpoint: RunCheckpoint) -> None:
    """Write ``checkpoint`` to ``path``, after its models entry.

    The entry is written only when the directory does not hold it yet.
    """
    trained = checkpoint.trained
    digest = _remembered_digest(trained)
    if digest is None or not os.path.exists(_entry_path(path, digest)):
        payload = pickle.dumps(trained, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(payload).hexdigest()
        entry = _entry_path(path, digest)
        if not os.path.exists(entry):
            write_framed(entry, ENTRY_MAGIC, payload, digest, sync_dir=True)
        _remember(trained, digest)
    state = io.BytesIO()
    _StatePickler(state, trained, digest).dump(checkpoint)
    write_framed(path, MAGIC, state.getvalue())


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------


def _read(path: str, magic: bytes, kind: str) -> Tuple[str, bytes]:
    """:func:`read_framed`, with every failure a CheckpointError naming ``path``."""
    try:
        return read_framed(path, magic)
    except OSError as exc:
        raise CheckpointError(
            f"cannot read {kind} {path!r}: {exc.strerror or exc}"
        ) from exc
    except FramedFileError as exc:
        header = exc.header
        if header is None:
            raise CheckpointError(
                f"{path!r}: {exc} — truncated or corrupted {kind}"
            ) from exc
        if magic == MAGIC and header.startswith(b"repro-checkpoint-"):
            raise CheckpointError(
                f"{path!r} is a {header.decode('ascii', 'replace')} file; "
                f"this build resumes {MAGIC.strip().decode()} only"
            ) from exc
        raise CheckpointError(
            f"{path!r} is not a repro {kind} (bad magic)"
        ) from exc


def _load_entry(state_path: str, digest: str) -> Any:
    """The trained models in the entry named ``digest`` beside ``state_path``."""
    entry = _entry_path(state_path, digest)
    found, payload = _read(entry, ENTRY_MAGIC, "models entry")
    if found != digest:
        raise CheckpointError(
            f"{entry!r}: models entry does not hash to its name"
        )
    try:
        trained = pickle.loads(payload)
    except Exception as exc:  # pickle raises a zoo of exception types
        raise CheckpointError(
            f"{entry!r}: cannot unpickle models entry: {exc}"
        ) from exc
    _remember(trained, digest)
    return trained


class _StateUnpickler(pickle.Unpickler):
    """Unpickles a state file, resolving its references to the models entry.

    Each entry loads once, so every reference to it is one object.
    """

    def __init__(self, payload: bytes, state_path: str) -> None:
        super().__init__(io.BytesIO(payload))
        self._state_path = state_path
        self._loaded: Dict[str, Any] = {}

    def find_class(self, module: str, name: str) -> Any:
        if module == __name__ and name == "_models_ref":
            return self._models_ref
        return super().find_class(module, name)

    def _models_ref(self, digest: str, field: Optional[str]) -> Any:
        if digest not in self._loaded:
            self._loaded[digest] = _load_entry(self._state_path, digest)
        trained = self._loaded[digest]
        return trained if field is None else getattr(trained, field)


def load_checkpoint(path: str) -> RunCheckpoint:
    """Read a checkpoint written by :func:`save_checkpoint`, verifying both files.

    A checkpointing run resumes checkpointing at ``path``: the restored
    config names the file it was loaded from, not the path the run was
    started with, so a run resumed from another working directory saves
    beside that file, where its models entry already is.
    """
    _, payload = _read(path, MAGIC, "checkpoint")
    try:
        checkpoint = _StateUnpickler(payload, path).load()
    except CheckpointError:
        raise
    except Exception as exc:  # pickle raises a zoo of exception types
        raise CheckpointError(
            f"{path!r}: cannot unpickle checkpoint: {exc}"
        ) from exc
    if not isinstance(checkpoint, RunCheckpoint):
        raise CheckpointError(
            f"{path!r}: unexpected payload type {type(checkpoint).__name__}"
        )
    config = checkpoint.config
    if getattr(config, "checkpoint_path", None) is not None:
        checkpoint = replace(checkpoint, config=replace(config, checkpoint_path=path))
    return checkpoint
