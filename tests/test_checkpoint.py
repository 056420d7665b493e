import struct

import numpy as np
import pytest

from emx.checkpoint import (
    MAGIC,
    CheckpointFormatError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    load_state,
    restore_optimizer,
    save_state,
)
from emx.numerics import make_rng
from emx.optimizers import OPTIMIZERS, Ad3EMAMix, AdamW, AdEMAMix, AggMo, AdMetaS, Lion


def _warm(opt, steps=7, seed=3):
    rng = make_rng(seed)
    theta = rng.standard_normal(opt.dim)
    for _ in range(steps):
        theta = opt.step(theta, rng.standard_normal(opt.dim), 1e-3)
    return theta


def _state_bytes(opt):
    return {k: v.tobytes() for k, v in opt.state_slots().items()}


ALL_OPTIMIZERS = [
    lambda: AdamW(5, beta1=0.85, beta2=0.997, weight_decay=0.05, eps=3e-9),
    lambda: AdEMAMix(5, beta1=0.9, beta3=0.9991, alpha=7.5, t_alpha=100, t_beta3=200),
    lambda: AdEMAMix(5, beta1=0.0, beta3=0.999, alpha=2.0),
    lambda: Lion(5, alpha=0.9, beta=0.99, weight_decay=0.25),
    lambda: AdMetaS(5, beta1=0.9, beta2=0.3),
    lambda: AggMo(5, betas=(0.0, 0.9, 0.99)),
    lambda: Ad3EMAMix(5, beta3=0.999, beta4=0.9995, alpha=4.0),
]


class TestRoundTrip:
    @pytest.mark.parametrize("factory", ALL_OPTIMIZERS)
    def test_bitwise_round_trip(self, factory):
        opt = factory()
        _warm(opt)
        blob = save_state(opt)
        restored = restore_optimizer(load_state(blob))
        assert type(restored) is type(opt)
        assert restored.t == opt.t
        assert _state_bytes(restored) == _state_bytes(opt)
        assert restored.hyper() == opt.hyper()
        # serialization of the restored state is byte-identical too
        assert save_state(restored) == blob

    def test_extra_slots_round_trip(self):
        opt = AdamW(4)
        theta = _warm(opt)
        blob = save_state(opt, extra_slots={"theta": theta})
        ck = load_state(blob)
        assert ck.slots["theta"].tobytes() == theta.tobytes()
        restored = restore_optimizer(ck)
        assert restored.t == opt.t

    def test_sched_offset_round_trips(self):
        opt = AdEMAMix(3, beta3=0.999, alpha=1.0)
        opt.sched_offset = 42
        opt.t = 50
        restored = restore_optimizer(load_state(save_state(opt)))
        assert restored.sched_offset == 42
        assert restored.t == 50

    def test_slot_name_collision_rejected(self):
        opt = AdamW(2)
        with pytest.raises(ValueError):
            save_state(opt, extra_slots={"m": np.zeros(2)})


class TestLoadErrors:
    def _blob(self):
        opt = AdamW(3)
        _warm(opt)
        return save_state(opt)

    def test_tampered_magic_is_version_error(self):
        blob = bytearray(self._blob())
        blob[0] ^= 0xFF
        with pytest.raises(CheckpointVersionError):
            load_state(bytes(blob))

    def test_unknown_version(self):
        blob = bytearray(self._blob())
        blob[8:12] = struct.pack("<I", 99)
        with pytest.raises(CheckpointVersionError):
            load_state(bytes(blob))

    def test_truncated_stream(self):
        blob = self._blob()
        for cut in (4, len(blob) // 2, len(blob) - 1):
            with pytest.raises(CheckpointTruncatedError):
                load_state(blob[:cut])

    def test_trailing_garbage(self):
        with pytest.raises(CheckpointFormatError):
            load_state(self._blob() + b"\x00")

    def test_length_mismatched_buffers(self):
        # hand-assemble a checkpoint whose slots disagree in length
        out = bytearray()
        out += MAGIC
        out += struct.pack("<I", 1)
        out += struct.pack("<I", 2)
        for name, arr in (("m", np.zeros(3)), ("nu", np.zeros(5))):
            nb = name.encode()
            out += struct.pack("<I", len(nb)) + nb
            out += struct.pack("<Q", arr.size) + arr.tobytes()
        hyper = b"variant=adamw\nbeta1=0.9\nbeta2=0.999\nweight_decay=0.0\neps=1e-08\n"
        out += struct.pack("<I", len(hyper)) + hyper
        out += struct.pack("<Q", 0)
        ck = load_state(bytes(out))
        with pytest.raises(CheckpointFormatError):
            restore_optimizer(ck)

    def test_duplicate_slot_names(self):
        out = bytearray()
        out += MAGIC
        out += struct.pack("<I", 1)
        out += struct.pack("<I", 2)
        for _ in range(2):
            out += struct.pack("<I", 1) + b"m"
            out += struct.pack("<Q", 1) + np.zeros(1).tobytes()
        out += struct.pack("<I", 0)
        out += struct.pack("<Q", 0)
        with pytest.raises(CheckpointFormatError):
            load_state(bytes(out))

    def test_unknown_variant(self):
        out = bytearray()
        out += MAGIC
        out += struct.pack("<I", 1)
        out += struct.pack("<I", 0)
        hyper = b"variant=mystery\n"
        out += struct.pack("<I", len(hyper)) + hyper
        out += struct.pack("<Q", 0)
        with pytest.raises(CheckpointFormatError):
            restore_optimizer(load_state(bytes(out)))


class TestResume:
    def test_resumed_trajectory_is_bitwise_identical(self):
        def gradient(theta, t):
            return np.sin(theta + 0.1 * t)

        full = AdEMAMix(4, beta1=0.9, beta3=0.999, alpha=3.0)
        theta_full = np.linspace(-1, 1, 4)
        history = []
        blob = None
        for t in range(1, 101):
            theta_full = full.step(theta_full, gradient(theta_full, t), 1e-2)
            history.append(theta_full.tobytes())
            if t == 50:
                blob = save_state(full, extra_slots={"theta": theta_full})

        ck = load_state(blob)
        resumed = restore_optimizer(ck)
        theta = ck.slots["theta"].copy()
        for t in range(51, 101):
            theta = resumed.step(theta, gradient(theta, t), 1e-2)
            assert theta.tobytes() == history[t - 1]


def _hyper_cases():
    for kind, cls in OPTIMIZERS.items():
        for key in cls(1).hyper():
            yield kind, key


class TestRestoreErrors:
    """Bad checkpoint content is a CheckpointFormatError, never a bare error."""

    def _checkpoint(self, kind):
        opt = OPTIMIZERS[kind](4)
        _warm(opt)
        return load_state(save_state(opt))

    @pytest.mark.parametrize("kind,key", list(_hyper_cases()))
    @pytest.mark.parametrize("tamper", ["missing", "non_numeric"])
    def test_bad_hyper_key(self, kind, key, tamper):
        ck = self._checkpoint(kind)
        if tamper == "missing":
            del ck.hyper[key]
        else:
            ck.hyper[key] = "abc"
        with pytest.raises(CheckpointFormatError):
            restore_optimizer(ck)

    @pytest.mark.parametrize("kind", list(OPTIMIZERS))
    def test_missing_slot(self, kind):
        ck = self._checkpoint(kind)
        del ck.slots[sorted(ck.slots)[-1]]
        with pytest.raises(CheckpointFormatError, match="missing state slot"):
            restore_optimizer(ck)

    def test_out_of_range_hyper(self):
        ck = self._checkpoint("ademamix")
        ck.hyper["beta2"] = "1.5"
        with pytest.raises(CheckpointFormatError, match="beta2"):
            restore_optimizer(ck)

    def test_fast_buffer_required_when_beta1_nonzero(self):
        ck = self._checkpoint("ademamix")
        del ck.slots["m1"]
        with pytest.raises(CheckpointFormatError, match="m1"):
            restore_optimizer(ck)
