"""The byte reader that both binary loaders use: ``load_checkpoint`` and
``load_index``.

A reader walks one file's bytes from the front. It checks the magic at
offset 0, reads a header field or a run of records only after checking that
the file holds all of it, and refuses any byte after the payload. Each
refusal is a FormatError at the byte where parsing failed, with the file's
kind ("checkpoint", "index") in its message. Reads are views of the file's
bytes, not copies.
"""

from __future__ import annotations

import struct

from .errors import FormatError


class Reader:
    def __init__(self, blob: bytes, kind: str):
        self.blob = memoryview(blob)
        self.kind = kind
        self.offset = 0

    def magic(self, magic: bytes) -> None:
        """Refuse the file at offset 0 unless it starts with ``magic``."""
        if self.blob[: len(magic)] != magic:
            raise FormatError(f"bad {self.kind} magic", 0)
        self.offset = len(magic)

    def take(self, n: int, what: str) -> memoryview:
        """The next ``n`` bytes, read as ``what``."""
        if self.offset + n > len(self.blob):
            raise FormatError(f"truncated {self.kind} while reading {what}", self.offset)
        chunk = self.blob[self.offset : self.offset + n]
        self.offset += n
        return chunk

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def records(self, count: int, size: int, what: str) -> int:
        """Pass over ``count`` records of ``size`` bytes and return the
        offset of the first. A file that ends inside one is refused at the
        first record cut short, as ``truncated <what> <its index>``."""
        start = self.offset
        if start + count * size > len(self.blob):
            whole = (len(self.blob) - start) // size
            raise FormatError(f"truncated {what} {whole}", start + whole * size)
        self.offset += count * size
        return start

    def end(self) -> None:
        """Refuse any byte after the payload."""
        if self.offset != len(self.blob):
            raise FormatError(f"trailing bytes after {self.kind} payload", self.offset)
