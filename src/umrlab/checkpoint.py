"""Binary checkpoint persistence.

Layout (all integers little-endian):

    magic   8 bytes  b"PUMACKPT"
    version u8       currently 3
    config  6 x u32  vocab_size, d_model, n_heads, n_layers, max_seq, k
    weights          each weight's float64 data, in ``parameter_shapes(config)``
                     order; the config alone sets every name and shape

and nothing after the weights. A checkpoint holds no optimizer state: every
training stage starts Adam from zero. A file of any other version, including
v1 and v2 (which could carry Adam's state after the weights), is rejected at
the version byte. Round-trips are bitwise: loading re-reads exactly the
bytes that were written. Corruption, including a non-finite weight, is
reported with the byte offset where parsing failed.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .binfile import Reader
from .encoder import Encoder, EncoderConfig, parameter_shapes
from .errors import ContractError, FormatError, VersionError

MAGIC = b"PUMACKPT"
VERSION = 3


# optimizer is accepted and stores nothing, and load_checkpoint's second
# element is always None: umrbench passes a stage's OptimizerState and
# unpacks two names, and no stage reads Adam's state back
def save_checkpoint(path: str | Path, encoder: Encoder, optimizer: object = None) -> None:
    """Write the header, then each array as it is, in ``parameter_shapes``
    order, straight to the open file, so a save holds no copy of the file."""
    cfg = encoder.config
    fields = (cfg.vocab_size, cfg.d_model, cfg.n_heads, cfg.n_layers, cfg.max_seq, cfg.k)
    with open(path, "wb") as f:
        f.write(MAGIC + struct.pack("<B6I", VERSION, *fields))
        for data in encoder.params.values():
            f.write(np.ascontiguousarray(data, dtype="<f8"))


def load_checkpoint(path: str | Path) -> tuple[Encoder, None]:
    """Read a checkpoint, each weight straight from the file into its own
    read-only array, so a load holds about one file's worth of memory."""
    with open(path, "rb") as f:
        r = Reader(f, "checkpoint")
        r.magic(MAGIC)
        (version,) = r.unpack("<B", "version")
        if version != VERSION:
            raise VersionError(f"unsupported checkpoint version {version}", r.offset - 1)
        config_offset = r.offset
        fields = r.unpack("<6I", "config")
        try:
            cfg = EncoderConfig(*fields)
        except ContractError as err:
            raise FormatError(f"invalid encoder config in checkpoint: {err}", config_offset)
        # the shapes below cost memory in proportion to n_layers; a layer's 16
        # tensors hold at least 16 float64s, so a larger count cannot fit the file
        if 128 * cfg.n_layers > r.size:
            raise FormatError(
                f"config's {cfg.n_layers} layers cannot fit a checkpoint of {r.size} bytes",
                config_offset,
            )
        params: dict[str, np.ndarray] = {}
        for name, shape in parameter_shapes(cfg).items():
            offset = r.offset
            data = r.floats(shape, f"tensor {name} data")
            if not np.isfinite(data).all():
                raise FormatError(f"tensor {name!r} holds a non-finite weight", offset)
            data.flags.writeable = False
            params[name] = data
        r.end()
    return Encoder(cfg, params), None
