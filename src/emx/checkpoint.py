"""Versioned binary checkpoints for optimizer state.

Layout (all integers little-endian):

    8 bytes   magic ``EMXCKPT1``
    u32       format version (currently 1)
    u32       number of named slots, then per slot:
                u32 name length, UTF-8 name,
                u64 element count, elements as raw float64
    u32       byte length of the hyperparameter block, then that many UTF-8
              bytes of ``key=value`` lines (one per line, LF-terminated);
              floats are written as shortest round-trip decimals, a tuple
              as its comma-joined floats (AggMo's ``betas=0.0,0.9,0.99``)
    u64       step counter

``save_state``/``load_state`` round-trip bit-for-bit, including hyper floats
and the step counter; ``load_state`` reads any byte buffer (``bytes``,
``bytearray``, ``memoryview``, ``mmap``) in one pass, its slots views of it.
The hyper key ``variant`` names the optimizer class so ``restore_optimizer``
can rebuild it. This module alone knows the hyperparameter text: an
optimizer's ``hyper()`` gives typed values, ``save_state`` formats them, and
``restore_optimizer`` parses each line with the value grammar of config
files (``config._parse_value``) and leaves the typing to the constructor,
which reads every keyword with :func:`emx.schedules.typed`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import optimizers
from .config import _format_scalar, _parse_value
from .schedules import integer

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
    slots: dict  # name -> 1-D float64 array, a read-only view of the checkpoint bytes
    hyper: dict  # name -> string value
    step: int


def save_state(opt, extra_slots: dict | None = None) -> bytes:
    """Serialize an optimizer (plus optional extra named vectors).

    A rows state must have one row, saved as the 1-D state it steps like;
    more rows are a ``ValueError``.
    """
    if len(opt.shape) == 2 and opt.shape[0] != 1:
        raise ValueError(f"a checkpoint holds one row, the state has {opt.shape[0]} rows")
    slots = opt.state_slots()  # a fresh dict
    for name, vec in (extra_slots or {}).items():
        if name in slots:
            raise ValueError(f"slot name collision: {name!r}")
        slots[name] = vec
    hyper = {"variant": opt.variant, **opt.hyper()}

    # one join of the headers and the slot arrays' own buffers: the blob is the only copy
    parts = [MAGIC, struct.pack("<II", VERSION, len(slots))]
    for name, vec in slots.items():
        name_bytes = name.encode("utf-8")
        vec = np.ascontiguousarray(vec, dtype="<f8")
        parts += (struct.pack("<I", len(name_bytes)), name_bytes, struct.pack("<Q", vec.size), vec)
    # one key=value line per key, a tuple as its comma-joined items
    lines = (f"{k}={','.join(map(_format_scalar, v if type(v) is tuple else (v,)))}\n"
             for k, v in hyper.items())
    hyper_bytes = "".join(lines).encode("utf-8")
    parts += (struct.pack("<I", len(hyper_bytes)), hyper_bytes, struct.pack("<Q", opt.t))
    return b"".join(parts)


def load_state(data) -> CheckpointData:
    """Parse checkpoint bytes; raises a distinct error per failure mode.

    ``data`` is any C-contiguous byte buffer: ``bytes``, ``bytearray``,
    ``memoryview`` or ``mmap``. No slot is copied: each entry of ``slots``
    is a read-only float64 view into ``data`` and keeps it alive (on a
    big-endian host, a read-only native copy). :func:`restore_optimizer`
    makes the one copy into buffers the new state owns; copy a slot before
    writing to it.
    """
    pos = 0

    def skip(n):
        """Step over ``n`` bytes; return the offset they start at."""
        nonlocal pos
        if pos + n > len(data):
            left = len(data) - pos
            raise CheckpointTruncatedError(f"needed {n} bytes at offset {pos}, only {left} left")
        pos += n
        return pos - n

    def word(fmt):
        """The next fixed-width field, ``fmt`` a one-field struct format."""
        return struct.unpack_from(fmt, data, skip(struct.calcsize(fmt)))[0]

    def text(what):
        """The next length-prefixed UTF-8 field; ``what`` names it in errors."""
        n = word("<I")
        start = skip(n)
        try:
            return bytes(data[start : start + n]).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointFormatError(f"{what} is not valid UTF-8: {exc}") from exc

    skip(len(MAGIC))
    if data[: len(MAGIC)] != MAGIC:
        raise CheckpointVersionError("bad magic header")
    version = word("<I")
    if version != VERSION:
        raise CheckpointVersionError(f"unsupported checkpoint version {version}")
    slots = {}
    for _ in range(word("<I")):
        name = text("slot name")
        if name in slots:
            raise CheckpointFormatError(f"duplicate slot name {name!r}")
        count = word("<Q")
        offset = skip(8 * count)  # a view in place; a copy only on a big-endian host
        vec = np.frombuffer(data, "<f8", count, offset).astype(np.float64, copy=False)
        vec.flags.writeable = False  # also when ``data`` is a writable buffer
        slots[name] = vec
    hyper = {}
    for line in filter(None, text("hyper block").splitlines()):
        if "=" not in line:
            raise CheckpointFormatError(f"malformed hyper line {line!r}")
        key, _, value = line.partition("=")
        if key in hyper:
            raise CheckpointFormatError(f"duplicate hyper key {key!r}")
        hyper[key] = value
    step = word("<Q")
    if pos != len(data):
        raise CheckpointFormatError(f"{len(data) - pos} trailing bytes after checkpoint")
    return CheckpointData(slots=slots, hyper=hyper, step=step)


def restore_optimizer(ck: CheckpointData):
    """Rebuild the optimizer named by ``hyper['variant']`` from a checkpoint.

    One path serves every registered kind and builds one state. Each of its
    ``defaults`` keys is parsed with the config value grammar (``1e2``,
    ``none`` and ``0.0,0.9`` read as in a config file) and passed to the
    constructor, which types it like its default; each ``hyper_state`` key of
    the built state (``sched_offset``) is then set, a step in ``[0, step]``;
    any other key but ``variant`` is foreign to the kind, and refused.
    The state is built at dim 0, so nothing the size of a slot is allocated
    until every one of its ``slot_names`` is found in the checkpoint with the
    length of the first slot (:func:`save_state` writes the state's slots
    first). Then its ``slots`` block is stacked from them: one ``(S, dim)``
    array and the one copy of each slot out of the checkpoint bytes, so the
    state owns its block. Bad content raises :class:`CheckpointFormatError`.
    Extra slots (e.g. ``theta``, or the ``m1`` of a buffered AdEMAMix state at
    ``beta1 = 0``, which restores as the lean state) are left in ``ck.slots``
    untouched.
    """
    variant = ck.hyper.get("variant")
    cls = optimizers.OPTIMIZERS.get(variant)
    if cls is None:
        raise CheckpointFormatError(f"unknown optimizer variant {variant!r}")

    def value(key):
        try:
            return _parse_value(ck.hyper[key])
        except ValueError as exc:  # an int of more digits than Python converts
            raise ValueError(f"{key}: {exc}") from None

    try:
        opt = cls(0, **{key: value(key) for key in cls.defaults})
        for key in opt.hyper_state:
            setattr(opt, key, integer(key, value(key), 0, ck.step))
    except KeyError as exc:
        raise CheckpointFormatError(f"missing hyper key {exc.args[0]!r}") from exc
    except ValueError as exc:  # text that is not a number, or a value the kind refuses
        raise CheckpointFormatError(f"invalid {variant} hyperparameters: {exc}") from exc
    unknown = ck.hyper.keys() - {"variant", *opt.hyper()}
    if unknown:
        raise CheckpointFormatError(f"unknown {variant} hyper keys {sorted(unknown)}")
    opt.dim = len(next(iter(ck.slots.values()), ()))
    for name in opt.slot_names:
        vec = ck.slots.get(name)
        if vec is None:
            raise CheckpointFormatError(f"missing state slot {name!r}")
        if len(vec) != opt.dim:
            raise CheckpointFormatError(f"slot {name!r} has length {len(vec)}, expected {opt.dim}")
    opt._bind(np.stack([ck.slots[name] for name in opt.slot_names]))
    opt.t = ck.step
    return opt
