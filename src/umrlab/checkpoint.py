"""Binary checkpoint persistence.

Layout (all integers little-endian):

    magic   8 bytes  b"PUMACKPT"
    version u8       currently 2
    config  6 x u32  vocab_size, d_model, n_heads, n_layers, max_seq, k
    weights          each tensor's float64 data, in ``parameter_shapes(config)``
                     order; the config alone sets every name and shape
    opt_flag u8      0 = weights only, 1 = optimizer section follows
    optimizer section:
        step u64, lr/beta1/beta2/eps float64,
        then per tensor (same order): first-moment data, second-moment data

A file of any other version is rejected at the version byte. Round-trips are
bitwise: loading re-reads exactly the bytes that were written. Corruption,
including a non-finite weight, is reported with the byte offset where parsing
failed.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .encoder import Encoder, EncoderConfig, parameter_shapes
from .errors import ContractError, FormatError, VersionError
from .optim import OptimizerState
from .tensor import Tensor

MAGIC = b"PUMACKPT"
VERSION = 2


def save_checkpoint(
    path: str | Path, encoder: Encoder, optimizer: OptimizerState | None = None
) -> None:
    cfg = encoder.config
    out = bytearray()
    out += MAGIC
    out += struct.pack("<B", VERSION)
    out += struct.pack(
        "<6I", cfg.vocab_size, cfg.d_model, cfg.n_heads, cfg.n_layers, cfg.max_seq, cfg.k
    )
    # an Encoder holds its params in parameter_shapes order
    for data in encoder.arrays.values():
        out += data.astype("<f8").tobytes()
    if optimizer is None:
        out += struct.pack("<B", 0)
    else:
        out += struct.pack("<B", 1)
        out += struct.pack("<Q", optimizer.step)
        out += struct.pack("<4d", optimizer.lr, optimizer.beta1, optimizer.beta2, optimizer.eps)
        for name in encoder.arrays:
            out += optimizer.m[name].astype("<f8").tobytes()
            out += optimizer.v[name].astype("<f8").tobytes()
    Path(path).write_bytes(bytes(out))


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.offset = 0

    def take(self, n: int, what: str) -> bytes:
        if self.offset + n > len(self.blob):
            raise FormatError(f"truncated checkpoint while reading {what}", self.offset)
        chunk = self.blob[self.offset : self.offset + n]
        self.offset += n
        return chunk

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def array(self, shape: tuple[int, ...], what: str) -> np.ndarray:
        return np.frombuffer(self.take(8 * math.prod(shape), what), dtype="<f8").reshape(shape)


def load_checkpoint(path: str | Path) -> tuple[Encoder, OptimizerState | None]:
    r = _Reader(Path(path).read_bytes())
    if r.take(len(MAGIC), "magic") != MAGIC:
        raise FormatError("bad checkpoint magic", 0)
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
    if 128 * cfg.n_layers > len(r.blob):
        raise FormatError(
            f"config's {cfg.n_layers} layers cannot fit a checkpoint of {len(r.blob)} bytes",
            config_offset,
        )
    shapes = parameter_shapes(cfg)
    params: dict[str, Tensor] = {}
    for name, shape in shapes.items():
        data_offset = r.offset
        data = r.array(shape, f"tensor {name} data")
        if not np.isfinite(data).all():
            raise FormatError(f"tensor {name!r} holds a non-finite weight", data_offset)
        params[name] = Tensor(data, grad_tracked=True)
    (opt_flag,) = r.unpack("<B", "optimizer flag")
    optimizer = None
    if opt_flag == 1:
        (step,) = r.unpack("<Q", "optimizer step")
        lr, beta1, beta2, eps = r.unpack("<4d", "optimizer hyperparameters")
        m: dict[str, np.ndarray] = {}
        v: dict[str, np.ndarray] = {}
        for name, shape in shapes.items():
            m[name] = r.array(shape, f"first moment of {name}").copy()
            v[name] = r.array(shape, f"second moment of {name}").copy()
        optimizer = OptimizerState(
            lr=lr, beta1=beta1, beta2=beta2, eps=eps, step=step, m=m, v=v
        )
    elif opt_flag != 0:
        raise FormatError(f"bad optimizer flag {opt_flag}", r.offset - 1)
    if r.offset != len(r.blob):
        raise FormatError("trailing bytes after checkpoint payload", r.offset)
    return Encoder(cfg, params), optimizer
