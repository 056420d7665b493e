import hashlib
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emx.checkpoint import (
    MAGIC,
    CheckpointError,
    CheckpointFormatError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    load_state,
    restore_optimizer,
    save_state,
)
from emx import optimizers
from emx.config import parse_config
from emx.harness import Experiment, format_record_csv
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
    def test_aggmo_slots_in_beta_order(self):
        # eleven betas: m10 sorts before m2, but the checkpoint holds m0 ... m10
        opt = AggMo(5, betas=[i / 11 for i in range(11)])
        theta = _warm(opt)
        blob = save_state(opt, extra_slots={"theta": theta})
        ck = load_state(blob)
        assert list(ck.slots) == [*(f"m{i}" for i in range(11)), "theta"]
        restored = restore_optimizer(ck)
        assert _state_bytes(restored) == _state_bytes(opt)
        assert save_state(restored, extra_slots={"theta": ck.slots["theta"]}) == blob
        grad = np.cos(theta)
        assert restored.step(theta, grad, 1e-3).tobytes() == opt.step(theta, grad, 1e-3).tobytes()
        assert _state_bytes(restored) == _state_bytes(opt)

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

    def test_duplicate_hyper_keys(self):
        out = bytearray(MAGIC + struct.pack("<II", 1, 0))
        hyper = b"variant=adamw\nbeta1=0.9\nbeta2=0.999\nbeta1=0.5\n"
        out += struct.pack("<I", len(hyper)) + hyper + struct.pack("<Q", 0)
        with pytest.raises(CheckpointFormatError, match="duplicate hyper key 'beta1'"):
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


class TestZeroCopyLoad:
    """Loaded slots are read-only views of the bytes; each restore owns its copy."""

    KINDS = {
        **{kind: lambda cls=cls: cls(5) for kind, cls in OPTIMIZERS.items()},
        "ademamix_lean": lambda: AdEMAMix(5, beta1=0.0),
    }

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_restored_states_are_independent(self, kind):
        opt = self.KINDS[kind]()
        blob = save_state(opt, extra_slots={"theta": _warm(opt)})
        ck = load_state(blob)
        loaded = {name: vec.tobytes() for name, vec in ck.slots.items()}
        first, second = restore_optimizer(ck), restore_optimizer(ck)
        assert len(first.state_slots()) == len(ck.slots) - 1  # all but theta
        others = [np.frombuffer(blob, np.uint8), *ck.slots.values()]
        for a, b in [(first, second), (second, first)]:
            for buf in a.state_slots().values():  # rows of the state's own block
                assert buf.flags.writeable
                assert not any(np.shares_memory(buf, o) for o in others)
                assert not any(np.shares_memory(buf, o) for o in b.state_slots().values())

        second_bytes = save_state(second)
        theta = ck.slots["theta"]  # a step reads theta and returns a new array
        for _ in range(3):
            theta = first.step(theta, np.ones(5), 1e-2)
        assert save_state(second) == second_bytes
        assert {name: vec.tobytes() for name, vec in ck.slots.items()} == loaded
        for vec in [*ck.slots.values(), *load_state(bytearray(blob)).slots.values()]:
            with pytest.raises(ValueError, match="read-only"):
                vec[0] = 1.0


# tests/test_golden.py's state.ademamix_buffered: the bytes an AdEMAMix state
# at beta1 = 0 that kept its fast EMA wrote, the lean slots and then m1
BUFFERED_SHA256 = "1e4f3e055afe9aec65bfe6993902a4c1961f88e191bb0c4472fa7bc0586c82b1"
# a dim-6 MLP, (3 + 1) * 1 + 1 + 1, with the hyperparameters of those bytes
BUFFERED_CFG = """
testbed.kind = mlp
testbed.input_dim = 3
testbed.hidden = 1
testbed.batch_size = 4
optimizer.kind = ademamix
optimizer.beta1 = 0.0
optimizer.beta3 = 0.999
optimizer.alpha = 2.0
optimizer.weight_decay = 0.0
lr.kind = constant
lr.value = 0.01
run.steps = 8
run.seed = 4
run.cadence = 1
"""


def _lean_run(steps):
    """The golden lean AdEMAMix state after ``steps`` direct steps (at most 8),
    its ``theta`` and the eight gradients of the stream."""
    rng = make_rng(11)
    theta = rng.standard_normal(6)
    grads = [rng.standard_normal(6) for _ in range(8)]
    opt = AdEMAMix(6, beta1=0.0, beta3=0.999, alpha=2.0)
    for grad in grads[:steps]:
        theta = opt.step(theta, grad, 1e-2)
    return opt, theta, grads


class TestBufferedLeanState:
    """A checkpoint that holds ``m1`` at ``beta1 = 0`` restores as the lean
    state; ``m1`` stays in ``ck.slots`` as an extra slot."""

    def _buffered(self):
        opt, theta, grads = _lean_run(5)
        blob = save_state(opt, extra_slots={"m1": grads[4], "theta": theta})
        assert hashlib.sha256(blob).hexdigest() == BUFFERED_SHA256
        return load_state(blob)

    def test_restore_optimizer_gives_the_lean_state(self):
        ck = self._buffered()
        loaded = {name: vec.tobytes() for name, vec in ck.slots.items()}
        opt = restore_optimizer(ck)
        assert list(opt.state_slots()) == ["m2", "nu"] and opt.m1 is None
        theta = ck.slots["theta"]
        for grad in _lean_run(8)[2][5:]:
            theta = opt.step(theta, grad, 1e-2)
        assert {name: vec.tobytes() for name, vec in ck.slots.items()} == loaded
        never_saved, lean_theta, _ = _lean_run(8)
        assert theta.tobytes() == lean_theta.tobytes()
        assert save_state(opt) == save_state(never_saved)

    def test_experiment_resumes_as_the_lean_state(self):
        cfg = parse_config(BUFFERED_CFG)
        buffered = self._buffered()
        m1 = buffered.slots["m1"].tobytes()
        lean, theta, _ = _lean_run(5)
        runs = [Experiment(cfg, resume_from=ck)
                for ck in (buffered, load_state(save_state(lean, extra_slots={"theta": theta})))]
        records = [format_record_csv(run.run()) for run in runs]
        assert runs[0].opt.t == 8 and runs[0].opt.m1 is None
        assert records[0] == records[1] and runs[0].checkpoint() == runs[1].checkpoint()
        assert buffered.slots["m1"].tobytes() == m1


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

    @pytest.mark.parametrize("offset", ["999", "11", "-1"])
    def test_sched_offset_outside_the_steps_taken(self, offset):
        opt = AdEMAMix(2, t_alpha=30, t_beta3=30)
        _warm(opt, steps=10)
        ck = load_state(save_state(opt))
        ck.hyper["sched_offset"] = offset
        with pytest.raises(CheckpointFormatError, match=r"sched_offset must be in \[0, 10\]"):
            restore_optimizer(ck)
        for ok in ("0", "10"):
            ck.hyper["sched_offset"] = ok
            assert restore_optimizer(ck).sched_offset == int(ok)

    @pytest.mark.parametrize("key", ["alpha", "beta3", "t_alpha", "sched_offset"])
    @pytest.mark.parametrize("text", ["9" * 400, "-" + "9" * 400], ids=["400 nines", "-400 nines"])
    def test_an_integer_beyond_the_float_range_names_its_key(self, key, text):
        ck = self._checkpoint("ademamix")
        ck.hyper[key] = text
        with pytest.raises(CheckpointFormatError, match=f"{key} must be "):
            restore_optimizer(ck)

    def test_an_integer_of_5000_digits_is_refused(self):
        ck = self._checkpoint("ademamix")
        ck.hyper["t_alpha"] = "9" * 5000  # beyond the digits Python converts
        with pytest.raises(CheckpointFormatError, match="invalid ademamix hyperparameters"):
            restore_optimizer(ck)

    @pytest.mark.parametrize("betas", [1000, 100_000])
    def test_many_betas_and_one_slot_are_refused_before_a_block(self, betas):
        """The kind's slots are checked before anything the size of a slot is
        allocated: the traced peak of a refused restore does not grow with
        the slot's length, where a state built at full dim asks for ``betas x
        dim`` floats."""
        peaks = []
        for dim in (1000, 100_000):
            ck = load_state(_assemble({"m0": np.zeros(dim)},
                                      {"variant": "aggmo", "betas": ",".join(["0.5"] * betas)}, 0))
            tracemalloc.start()
            try:
                with pytest.raises(CheckpointFormatError, match="^missing state slot 'm1'$"):
                    restore_optimizer(ck)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 8 * 1000  # less than the smaller slot
        assert max(peaks) < 400 * betas  # the parsed betas, the slot names and their rows

    def test_a_valid_restore_allocates_one_block(self):
        dim = 100_000
        ck = load_state(save_state(AdEMAMix(dim)))
        tracemalloc.start()
        try:
            opt = restore_optimizer(ck)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert opt.slots.shape == (3, dim) and opt.slots.flags.c_contiguous
        assert 3 * 8 * dim <= peak < 3 * 8 * dim + (64 << 10)

    def test_fast_buffer_required_when_beta1_nonzero(self):
        ck = self._checkpoint("ademamix")
        del ck.slots["m1"]
        with pytest.raises(CheckpointFormatError, match="m1"):
            restore_optimizer(ck)


def _assemble(slots: dict, hyper: dict, step: int) -> bytes:
    """Checkpoint bytes from parts, for content ``save_state`` would never write."""
    out = bytearray(MAGIC + struct.pack("<II", 1, len(slots)))
    for name, vec in slots.items():
        nb = name.encode("utf-8")
        out += struct.pack("<I", len(nb)) + nb + struct.pack("<Q", len(vec)) + vec.tobytes()
    text = "".join(f"{k}={v}\n" for k, v in hyper.items()).encode("utf-8")
    return bytes(out + struct.pack("<I", len(text)) + text + struct.pack("<Q", step))


def _valid_checkpoints():
    factories = {
        **{kind: lambda cls=cls: cls(3) for kind, cls in OPTIMIZERS.items()},
        "ademamix_lean": lambda: AdEMAMix(3, beta1=0.0),
        "ademamix_warmup": lambda: AdEMAMix(3, t_alpha=10, t_beta3=10),
    }
    blobs = {}
    for kind, factory in factories.items():
        opt = factory()
        blobs[kind] = save_state(opt, extra_slots={"theta": _warm(opt)})
    return blobs


VALID = _valid_checkpoints()
HOSTILE_TEXT = st.one_of(
    st.sampled_from([
        "", "nan", "inf", "-inf", "-1", "0", "1", "0.5", "1.5", "1e400", "9" * 5000, "abc",
        "0.5,x", ",", "0.9,0.9", "0.5," * 300, "none", " 1", "1_0", "-0", "18446744073709551616",
        "9" * 400, "-" + "9" * 400, "1" + "0" * 4999, "0.5," + "9" * 400,
    ]),
    st.text(max_size=12),
)


def _load_and_restore(blob: bytes) -> None:
    """A state, or a CheckpointError subclass; any other exception fails the test."""
    try:
        restore_optimizer(load_state(blob))
    except CheckpointError:
        pass


class TestHyperText:
    """The hyperparameter text is written and read here alone: ``hyper()`` is
    typed for every kind, and restore builds exactly one state."""

    def test_no_kind_defines_its_own_hyper(self):
        for cls in OPTIMIZERS.values():
            assert all("hyper" not in vars(k) for k in cls.__mro__ if k is not optimizers.Optimizer)

    @pytest.mark.parametrize("kind", sorted(OPTIMIZERS))
    def test_hyper_is_typed_like_the_defaults(self, kind):
        cls = OPTIMIZERS[kind]
        hyper = cls(2).hyper()
        for key, default in cls.defaults.items():
            assert type(hyper[key]) is (float if default is None else type(default))
        restored = restore_optimizer(load_state(save_state(cls(2))))
        assert {k: (type(v), v) for k, v in restored.hyper().items()} == {
            k: (type(v), v) for k, v in hyper.items()
        }

    @pytest.mark.parametrize("betas,line", [((0.0, 0.9, 0.99), b"\nbetas=0.0,0.9,0.99\n"),
                                            (0.5, b"\nbetas=0.5\n"),
                                            ((1e-20, 0.5), b"\nbetas=1e-20,0.5\n")])
    def test_a_tuple_is_its_comma_joined_floats(self, betas, line):
        opt = AggMo(2, betas=betas)
        blob = save_state(opt)
        assert line in blob
        assert restore_optimizer(load_state(blob)).betas == opt.betas

    @pytest.mark.parametrize("key,text,value", [("t_alpha", "1e2", 100), ("t_alpha", "100.0", 100),
                                                ("beta_start", "none", 0.9),
                                                ("alpha", "5", 5.0)])
    def test_text_is_read_with_the_config_grammar(self, key, text, value):
        # config files accept these texts for these keys, and so does restore
        ck = load_state(VALID["ademamix"])
        ck.hyper[key] = text
        got = getattr(restore_optimizer(ck), key)
        assert type(got) is type(value) and got == value

    @pytest.mark.parametrize("kind", sorted(VALID))
    def test_restore_builds_one_state(self, kind, monkeypatch):
        built = []
        init = optimizers.Optimizer.__init__

        def counting(self, dim, **kwargs):
            built.append(dim)
            init(self, dim, **kwargs)

        monkeypatch.setattr(optimizers.Optimizer, "__init__", counting)
        restored = restore_optimizer(load_state(VALID[kind]))
        # built at dim 0, then given the checkpoint's slots as its block
        assert built == [0] and restored.dim == 3 and restored.slots.shape[1:] == (3,)


class TestLoadFuzz:
    """Any bytes into ``load_state`` then ``restore_optimizer``: a state or a CheckpointError."""

    @given(st.binary(max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes(self, blob):
        _load_and_restore(blob)

    @given(st.binary(max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_after_a_valid_header(self, tail):
        _load_and_restore(MAGIC + struct.pack("<I", 1) + tail)

    @given(st.sampled_from(sorted(VALID)), st.data())
    @settings(max_examples=400, deadline=None)
    def test_mutated_valid_blob(self, kind, data):
        blob = bytearray(VALID[kind])
        for _ in range(data.draw(st.integers(1, 4), label="edits")):
            at = data.draw(st.integers(0, len(blob)), label="at")
            edit = data.draw(st.sampled_from(["flip", "set", "cut", "insert", "delete"]))
            if edit == "cut":
                del blob[at:]
            elif edit == "insert":
                blob[at:at] = data.draw(st.binary(min_size=1, max_size=8), label="bytes")
            elif at < len(blob):
                if edit == "delete":
                    del blob[at]
                else:
                    byte = data.draw(st.integers(0, 255), label="byte")
                    blob[at] = blob[at] ^ (byte or 1) if edit == "flip" else byte
        _load_and_restore(bytes(blob))

    @given(st.sampled_from(sorted(VALID)), st.data())
    @example("aggmo", None)
    @settings(max_examples=400, deadline=None)
    def test_hostile_content_in_a_well_formed_blob(self, kind, data):
        ck = load_state(VALID[kind])
        if data is not None:
            for key in data.draw(st.lists(st.sampled_from(sorted(ck.hyper)), max_size=3)):
                ck.hyper[key] = data.draw(HOSTILE_TEXT, label=key)
            for name in data.draw(st.lists(st.sampled_from(sorted(ck.slots)), max_size=2)):
                ck.slots[name] = np.zeros(data.draw(st.integers(0, 5), label=name))
            ck.step = data.draw(st.integers(0, 2**64 - 1), label="step")
        _load_and_restore(_assemble(ck.slots, ck.hyper, ck.step))


# values for any hyperparameter: numbers in and out of range, huge ints, nan
# and inf, bools, text, lists and numpy scalars
ANY_VALUE = st.one_of(
    st.floats(0.0, 0.99), st.integers(0, 50), st.integers(), st.floats(),
    st.sampled_from([10**400, -(10**400), 2**1024, 2.0**1023, 3.0, None, "0.5", "", "none"]),
    st.booleans(), st.text(max_size=6),
    st.lists(st.one_of(st.floats(0.0, 0.99), st.integers(-2, 2), st.floats(), st.just(10**400)),
             max_size=4),
    st.tuples(st.floats(0.0, 0.99), st.floats(0.0, 0.99)),
    st.floats(width=32).map(np.float32), st.floats(0.0, 0.99).map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64), st.sampled_from([np.True_, np.float16(6e4)]),
)


class TestOneReader:
    """Every kind's constructor reads its keywords with ``schedules.typed``."""

    @given(st.sampled_from(sorted(OPTIMIZERS)), st.data())
    @settings(max_examples=500, deadline=None)
    def test_any_value_is_typed_or_refused_and_what_is_typed_round_trips(self, kind, data):
        cls = OPTIMIZERS[kind]
        keys = data.draw(st.lists(st.sampled_from(sorted(cls.defaults)), unique=True), label="keys")
        kwargs = {key: data.draw(ANY_VALUE, label=key) for key in keys}
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflowing cast would warn
            try:
                opt = cls(2, **kwargs)
            except (ValueError, TypeError):
                return
        restored = restore_optimizer(load_state(save_state(opt)))
        assert {k: (type(v), v) for k, v in restored.hyper().items()} == {
            k: (type(v), v) for k, v in opt.hyper().items()
        }
