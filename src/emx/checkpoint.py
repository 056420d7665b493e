"""Versioned binary checkpoints for optimizer state.

Layout (all integers little-endian):

    8 bytes   magic ``EMXCKPT1``
    u32       format version (currently 1)
    u32       number of named slots, then per slot:
                u32 name length, UTF-8 name,
                u64 element count, elements as raw float64
    u32       byte length of the hyperparameter block, then that many UTF-8
              bytes of ``key=value`` lines (one per line, LF-terminated);
              floats are written as shortest round-trip decimals
    u64       step counter

``save_state``/``load_state`` round-trip bit-for-bit, including hyper floats
and the step counter. The hyper key ``variant`` names the optimizer class so
``restore_optimizer`` can rebuild it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import optimizers

MAGIC = b"EMXCKPT1"
VERSION = 1


class CheckpointError(Exception):
    """Base class for checkpoint load failures."""


class CheckpointVersionError(CheckpointError):
    """Magic header or version word does not match this format."""


class CheckpointTruncatedError(CheckpointError):
    """The stream ended before the advertised content."""


class CheckpointFormatError(CheckpointError):
    """Structurally invalid content (bad names, mismatched lengths)."""


@dataclass
class CheckpointData:
    slots: dict  # name -> 1-D float64 array
    hyper: dict  # name -> string value
    step: int


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def save_state(opt, extra_slots: dict | None = None) -> bytes:
    """Serialize an optimizer (plus optional extra named vectors)."""
    slots = dict(opt.state_slots())
    if extra_slots:
        for name, vec in extra_slots.items():
            if name in slots:
                raise ValueError(f"slot name collision: {name!r}")
            slots[name] = vec
    hyper = {"variant": opt.variant}
    hyper.update(opt.hyper())

    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", VERSION)
    out += struct.pack("<I", len(slots))
    for name, vec in slots.items():
        name_bytes = name.encode("utf-8")
        vec = np.ascontiguousarray(vec, dtype=np.float64)
        out += struct.pack("<I", len(name_bytes))
        out += name_bytes
        out += struct.pack("<Q", vec.size)
        out += vec.astype("<f8", copy=False).tobytes()
    hyper_bytes = "".join(
        f"{k}={_format_value(v)}\n" for k, v in hyper.items()
    ).encode("utf-8")
    out += struct.pack("<I", len(hyper_bytes))
    out += hyper_bytes
    out += struct.pack("<Q", opt.t)
    return bytes(out)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CheckpointTruncatedError(
                f"needed {n} bytes at offset {self.pos}, only {len(self.data) - self.pos} left"
            )
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]


def load_state(data: bytes) -> CheckpointData:
    """Parse checkpoint bytes; raises a distinct error per failure mode."""
    r = _Reader(data)
    if r.take(len(MAGIC)) != MAGIC:
        raise CheckpointVersionError("bad magic header")
    version = r.u32()
    if version != VERSION:
        raise CheckpointVersionError(f"unsupported checkpoint version {version}")
    n_slots = r.u32()
    slots = {}
    for _ in range(n_slots):
        name_len = r.u32()
        try:
            name = r.take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointFormatError(f"slot name is not valid UTF-8: {exc}") from exc
        if name in slots:
            raise CheckpointFormatError(f"duplicate slot name {name!r}")
        count = r.u64()
        raw = r.take(8 * count)
        slots[name] = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    hyper_len = r.u32()
    try:
        hyper_text = r.take(hyper_len).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointFormatError(f"hyper block is not valid UTF-8: {exc}") from exc
    hyper = {}
    for line in hyper_text.splitlines():
        if not line:
            continue
        if "=" not in line:
            raise CheckpointFormatError(f"malformed hyper line {line!r}")
        key, _, value = line.partition("=")
        hyper[key] = value
    step = r.u64()
    if r.pos != len(data):
        raise CheckpointFormatError(f"{len(data) - r.pos} trailing bytes after checkpoint")
    return CheckpointData(slots=slots, hyper=hyper, step=step)


def restore_optimizer(ck: CheckpointData):
    """Rebuild the optimizer named by ``hyper['variant']`` from a checkpoint.

    One path serves every registered kind: a fresh instance's ``hyper()``
    names the keys and their types, the constructor takes its ``keywords()``
    and the rest is set afterwards, then each ``state_slots()`` buffer is
    filled. Bad content raises :class:`CheckpointFormatError`. Extra slots
    (e.g. ``theta``) are left in ``ck.slots`` untouched.
    """
    variant = ck.hyper.get("variant")
    cls = optimizers.OPTIMIZERS.get(variant)
    if cls is None:
        raise CheckpointFormatError(f"unknown optimizer variant {variant!r}")
    proto = cls(0)
    try:
        hyper = {key: type(value)(ck.hyper[key]) for key, value in proto.hyper().items()}
    except KeyError as exc:
        raise CheckpointFormatError(f"missing hyper key {exc.args[0]!r}") from exc
    except ValueError as exc:
        raise CheckpointFormatError(f"malformed hyper value: {exc}") from exc
    dim = len(ck.slots.get(next(iter(proto.state_slots())), ()))
    try:
        opt = cls(dim, **{key: hyper.pop(key) for key in cls.keywords()})
    except ValueError as exc:
        raise CheckpointFormatError(f"invalid {variant} hyperparameters: {exc}") from exc
    for key, value in hyper.items():
        setattr(opt, key, value)
    for name in opt.slot_names:  # an optional buffer (lean AdEMAMix's m1) the state kept
        if getattr(opt, name) is None and name in ck.slots:
            setattr(opt, name, np.zeros(dim))
    for name, buf in opt.state_slots().items():
        vec = ck.slots.get(name)
        if vec is None:
            raise CheckpointFormatError(f"missing state slot {name!r}")
        if len(vec) != dim:
            raise CheckpointFormatError(f"slot {name!r} has length {len(vec)}, expected {dim}")
        buf[...] = vec
    opt.t = ck.step
    return opt
