"""Content digests carried by the immutable data they describe.

:func:`hexdigest` is the one framing every content digest in the library
uses.  :class:`Digested` gives a class a read-only ``digest``, computed from
its ``_digest_parts()`` on first read and stored on the instance.  Two
threads racing the first read can only compute the same value twice, so
there is no lock (``functools.cached_property`` would take a class-wide one
on Python 3.11).

Pickling and copying never carry a stored digest (attributes named
``_digest*``): a restored object re-derives it from its content, so a
received payload cannot vouch for itself.  The array attributes a class
lists in ``_read_only_state`` come back read-only, as its constructor made
them.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np

from repro.utils.arrays import read_only

__all__ = ["Digested", "hexdigest"]


def hexdigest(parts: Iterable[bytes | np.ndarray]) -> str:
    """SHA-256 over framed parts: ``bytes``, or arrays hashed in place.

    An array part contributes exactly its C-order bytes (what ``tobytes()``
    would return) but is handed to the hash as a buffer, not copied first.
    """
    digest = hashlib.sha256()
    for part in parts:
        # Length-prefix every part: concatenating variable-length fields
        # without a frame is ambiguous (b"ab" + b"c" hashes like b"a" +
        # b"bc"), so a crafted boundary shift could collide two distinct
        # inputs.  An 8-byte big-endian length per part makes the framing
        # injective.
        if type(part) is bytes:  # most parts are short: no buffer wrapping
            size = len(part)
        else:
            part = np.ascontiguousarray(part)  # copies only a strided array
            size = part.nbytes
        digest.update(size.to_bytes(8, "big"))
        digest.update(part)
    return digest.hexdigest()


class Digested:
    """Mixin: a read-only content ``digest``, stored on first read."""

    _digest: str | None = None
    #: Array attributes wrapped read-only again after unpickling or copying.
    _read_only_state: tuple[str, ...] = ()

    def _digest_parts(self) -> Iterable[bytes | np.ndarray]:
        raise NotImplementedError

    @property
    def digest(self) -> str:
        """SHA-256 content digest (hex), computed once per instance."""
        if self._digest is None:
            self._digest = hexdigest(self._digest_parts())
        return self._digest

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_digest")}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        for name in self._read_only_state:
            if state[name] is not None:
                setattr(self, name, read_only(state[name]))
