"""Binary checkpoint persistence.

Layout (all integers little-endian):

    magic   8 bytes  b"PUMACKPT"
    version u8       currently 1
    config  6 x u32  vocab_size, d_model, n_heads, n_layers, max_seq, k
    count   u32      number of weight tensors
    per tensor, in canonical parameter order:
        name_len u16, name utf-8, ndim u8, ndim x u32 extents, float64 data
    opt_flag u8      0 = weights only, 1 = optimizer section follows
    optimizer section:
        step u64, lr/beta1/beta2/eps float64,
        then per tensor (same order): first-moment data, second-moment data

Round-trips are bitwise: loading re-reads exactly the bytes that were
written. Corruption, including a non-finite weight, is reported with the
byte offset where parsing failed.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .encoder import Encoder, EncoderConfig, parameter_names, parameter_shapes
from .errors import ContractError, FormatError, VersionError
from .optim import OptimizerState
from .tensor import Tensor

MAGIC = b"PUMACKPT"
VERSION = 1


def save_checkpoint(
    path: str | Path, encoder: Encoder, optimizer: OptimizerState | None = None
) -> None:
    cfg = encoder.config
    names = parameter_names(cfg)
    out = bytearray()
    out += MAGIC
    out += struct.pack("<B", VERSION)
    out += struct.pack(
        "<6I", cfg.vocab_size, cfg.d_model, cfg.n_heads, cfg.n_layers, cfg.max_seq, cfg.k
    )
    out += struct.pack("<I", len(names))
    for name in names:
        data = encoder.params[name].data
        raw = name.encode("utf-8")
        out += struct.pack("<H", len(raw)) + raw
        out += struct.pack("<B", data.ndim)
        out += struct.pack(f"<{data.ndim}I", *data.shape)
        out += data.astype("<f8").tobytes()
    if optimizer is None:
        out += struct.pack("<B", 0)
    else:
        out += struct.pack("<B", 1)
        out += struct.pack("<Q", optimizer.step)
        out += struct.pack("<4d", optimizer.lr, optimizer.beta1, optimizer.beta2, optimizer.eps)
        for name in names:
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
    (count,) = r.unpack("<I", "tensor count")
    expected = parameter_shapes(cfg)
    if count != len(expected):
        raise FormatError(
            f"checkpoint holds {count} tensors, config implies {len(expected)}",
            r.offset - 4,
        )
    params: dict[str, Tensor] = {}
    for want, want_shape in expected.items():
        (name_len,) = r.unpack("<H", "tensor name length")
        try:
            name = r.take(name_len, "tensor name").decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError("tensor name is not valid UTF-8", r.offset - name_len) from None
        if name != want:
            raise FormatError(
                f"tensor {name!r} out of order, expected {want!r}", r.offset - name_len
            )
        shape_offset = r.offset
        (ndim,) = r.unpack("<B", "tensor rank")
        shape = r.unpack(f"<{ndim}I", "tensor shape")
        if shape != want_shape:
            raise FormatError(
                f"tensor {name!r} has shape {shape}, config implies {want_shape}",
                shape_offset,
            )
        n_bytes = 8 * int(np.prod(shape))
        data_offset = r.offset
        data = np.frombuffer(r.take(n_bytes, f"tensor {name} data"), dtype="<f8")
        if not np.isfinite(data).all():
            raise FormatError(f"tensor {name!r} holds a non-finite weight", data_offset)
        params[name] = Tensor(data.reshape(shape), grad_tracked=True)
    (opt_flag,) = r.unpack("<B", "optimizer flag")
    optimizer = None
    if opt_flag == 1:
        (step,) = r.unpack("<Q", "optimizer step")
        lr, beta1, beta2, eps = r.unpack("<4d", "optimizer hyperparameters")
        m: dict[str, np.ndarray] = {}
        v: dict[str, np.ndarray] = {}
        for name in expected:
            size = 8 * params[name].data.size
            m[name] = np.frombuffer(r.take(size, f"first moment of {name}"), dtype="<f8").reshape(
                params[name].shape
            ).copy()
            v[name] = np.frombuffer(r.take(size, f"second moment of {name}"), dtype="<f8").reshape(
                params[name].shape
            ).copy()
        optimizer = OptimizerState(
            lr=lr, beta1=beta1, beta2=beta2, eps=eps, step=step, m=m, v=v
        )
    elif opt_flag != 0:
        raise FormatError(f"bad optimizer flag {opt_flag}", r.offset - 1)
    if r.offset != len(r.blob):
        raise FormatError("trailing bytes after checkpoint payload", r.offset)
    return Encoder(cfg, params), optimizer
