"""Framed files: the one on-disk format of checkpoints and cached artifacts.

A framed file is a magic line naming its kind and version, the hex
SHA-256 of the payload on the second line, then the payload.
:func:`write_framed` writes it to a temp file in the target's directory,
fsyncs it and moves it into place with ``os.replace``, so a crash
mid-write leaves the previous file or none, never a torn one, and
writers racing on one path each write a whole file and the rename picks
a winner. :func:`read_framed` checks the magic and the digest.

What damage means is the caller's policy: :mod:`repro.cache` counts it
and treats it as a miss, :mod:`repro.checkpoint` raises its
``CheckpointError``.
"""

from __future__ import annotations

import hashlib
import os
from typing import Optional, Tuple

_HEX_DIGEST_LEN = 64


class FramedFileError(ValueError):
    """A framed file is torn, corrupted, or of another kind.

    ``header`` is the file's first line when its magic is not the one
    expected, else None.
    """

    def __init__(self, message: str, header: Optional[bytes] = None) -> None:
        super().__init__(message)
        self.header = header


def write_framed(
    path: str,
    magic: bytes,
    payload: bytes,
    digest: Optional[str] = None,
    sync_dir: bool = False,
) -> str:
    """Atomically write ``payload`` framed by ``magic``; returns its digest.

    ``digest`` is the payload's hex SHA-256 when the caller already has
    it. With ``sync_dir`` the directory is fsynced after the rename, so
    the new name is durable before anything written later refers to it.
    """
    if digest is None:
        digest = hashlib.sha256(payload).hexdigest()
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(magic)
            fh.write(digest.encode("ascii") + b"\n")
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    if sync_dir:
        fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    return digest


def read_framed(path: str, magic: bytes) -> Tuple[str, bytes]:
    """The verified ``(hex digest, payload)`` of the framed file at ``path``.

    Raises ``OSError`` when the file cannot be read and
    :class:`FramedFileError` when its magic is not ``magic``, its digest
    line is malformed, or the payload does not hash to it.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(magic):
        raise FramedFileError("bad magic", header=blob.split(b"\n", 1)[0])
    rest = blob[len(magic):]
    sep = rest.find(b"\n")
    if sep != _HEX_DIGEST_LEN:
        raise FramedFileError("malformed digest header")
    digest, payload = rest[:sep].decode("ascii", "replace"), rest[sep + 1:]
    if hashlib.sha256(payload).hexdigest() != digest:
        raise FramedFileError("digest mismatch")
    return digest, payload
