"""The byte reader that both binary loaders use: ``load_checkpoint`` and
``load_index``.

A reader walks one open file from the front. It checks the magic at offset
0, reads a header field, an array or a run of records only after checking
that the file holds all of it, and refuses any byte after the payload. Each
refusal is a FormatError at the byte where parsing failed, with the file's
kind ("checkpoint", "index") in its message. Every read copies the file's
bytes once, into the bytes or the array it returns, so a load holds about
one file's worth.
"""

from __future__ import annotations

import math
import os
import struct
from typing import BinaryIO

import numpy as np

from .errors import FormatError


class Reader:
    def __init__(self, f: BinaryIO, kind: str):
        self.f = f
        self.size = os.fstat(f.fileno()).st_size
        self.kind = kind
        self.offset = 0

    def magic(self, magic: bytes) -> None:
        """Refuse the file at offset 0 unless it starts with ``magic``."""
        if self.f.read(len(magic)) != magic:
            raise FormatError(f"bad {self.kind} magic", 0)
        self.offset = len(magic)

    def _need(self, n: int, what: str) -> None:
        if self.offset + n > self.size:
            raise FormatError(f"truncated {self.kind} while reading {what}", self.offset)

    def take(self, n: int, what: str) -> bytes:
        """The next ``n`` bytes, read as ``what``."""
        self._need(n, what)
        chunk = self.f.read(n)
        if len(chunk) != n:  # the file shrank after it was opened
            raise FormatError(f"truncated {self.kind} while reading {what}", self.offset)
        self.offset += n
        return chunk

    def floats(self, shape: tuple[int, ...], what: str) -> np.ndarray:
        """The next little-endian float64s, read as ``what`` straight into a
        fresh array of ``shape``, which is allocated only once the file is
        known to hold them all."""
        n = 8 * math.prod(shape)
        self._need(n, what)
        out = np.empty(shape, dtype="<f8")
        if self.f.readinto(memoryview(out).cast("B")) != n:
            raise FormatError(f"truncated {self.kind} while reading {what}", self.offset)
        self.offset += n
        return out

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def records(self, count: int, size: int, what: str) -> bytes:
        """The bytes of ``count`` records of ``size`` bytes. A file that ends
        inside one is refused at the first record cut short, as
        ``truncated <what> <its index>``."""
        start = self.offset
        if start + count * size > self.size:
            whole = (self.size - start) // size
            raise FormatError(f"truncated {what} {whole}", start + whole * size)
        return self.take(count * size, what)

    def end(self) -> None:
        """Refuse any byte after the payload."""
        if self.offset != self.size:
            raise FormatError(f"trailing bytes after {self.kind} payload", self.offset)
