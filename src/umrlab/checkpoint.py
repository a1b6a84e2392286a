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
failed. So is optimizer state Adam cannot run on: a non-finite or negative
lr, a beta outside [0, 1), an eps that is not finite and positive, a
non-finite moment or a negative second moment.
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

    def array(
        self, shape: tuple[int, ...], what: str, holder: str, unit: str = "value",
        nonnegative: bool = False,
    ) -> np.ndarray:
        """The next float64 tensor, read as ``what``. A non-finite entry, or a
        negative one when ``nonnegative``, is a FormatError at its offset."""
        offset = self.offset
        data = np.frombuffer(self.take(8 * math.prod(shape), what), dtype="<f8").reshape(shape)
        if not np.isfinite(data).all():
            raise FormatError(f"{holder} holds a non-finite {unit}", offset)
        if nonnegative and (data < 0).any():
            raise FormatError(f"{holder} holds a negative {unit}", offset)
        return data


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
        data = r.array(shape, f"tensor {name} data", f"tensor {name!r}", "weight")
        params[name] = Tensor(data, grad_tracked=True)
    (opt_flag,) = r.unpack("<B", "optimizer flag")
    optimizer = None
    if opt_flag == 1:
        (step,) = r.unpack("<Q", "optimizer step")
        hyper_offset = r.offset
        hyper = r.unpack("<4d", "optimizer hyperparameters")
        lr, beta1, beta2, eps = hyper
        # Adam's update assumes these; checked here so a training step pays nothing
        for i, (field, ok, rule) in enumerate((
            ("lr", math.isfinite(lr) and lr >= 0, "finite and >= 0"),
            ("beta1", 0 <= beta1 < 1, "in [0, 1)"),
            ("beta2", 0 <= beta2 < 1, "in [0, 1)"),
            ("eps", math.isfinite(eps) and eps > 0, "finite and > 0"),
        )):
            if not ok:
                raise FormatError(
                    f"optimizer {field} = {hyper[i]!r} is not {rule}", hyper_offset + 8 * i
                )
        m: dict[str, np.ndarray] = {}
        v: dict[str, np.ndarray] = {}
        for name, shape in shapes.items():
            m[name] = r.array(shape, f"first moment of {name}", f"first moment of {name!r}").copy()
            v[name] = r.array(
                shape, f"second moment of {name}", f"second moment of {name!r}", nonnegative=True
            ).copy()
        optimizer = OptimizerState(
            lr=lr, beta1=beta1, beta2=beta2, eps=eps, step=step, m=m, v=v
        )
    elif opt_flag != 0:
        raise FormatError(f"bad optimizer flag {opt_flag}", r.offset - 1)
    if r.offset != len(r.blob):
        raise FormatError("trailing bytes after checkpoint payload", r.offset)
    return Encoder(cfg, params), optimizer
