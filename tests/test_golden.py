"""Golden bytes: SHA-256 pins of a canonical set of emitted outputs.

Every CSV/series text and every checkpoint below is hashed and compared
against a digest recorded before any refactor of the optimizers, the
harness or the checkpoint code. A change that alters a single bit of any
output (a reordered slot, a reordered hyper key, a different rounding, a
lost ``-0.0``) fails here. Refactors and speed-ups must leave every digest
unchanged; only a deliberate change of output may re-pin them.
"""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

import emx
from emx.checkpoint import load_state, save_state
from emx.config import parse_config
from emx.harness import (
    Experiment,
    RunRecord,
    format_record_csv,
    format_record_jsonl,
    format_series_csv,
    run_experiment,
    run_forgetting_protocol,
)
from emx.numerics import spawn_rng
from emx.optimizers import (
    Ad3EMAMix,
    AdamW,
    AdEMAMix,
    AggMo,
    AdMetaS,
    Lion,
    preseed_momentum,
    switch_optimizer,
)

TOY_STEPS = 60
TOY_KINDS = {
    "adamw": ("optimizer.weight_decay = 0.01\n", 1e-3),
    "ademamix": (
        "optimizer.beta3 = 0.999\noptimizer.alpha = 5.0\n"
        "optimizer.t_alpha = 40\noptimizer.t_beta3 = 40\n",
        1e-3,
    ),
    "ademamix_lean": (
        "optimizer.beta1 = 0.0\noptimizer.beta3 = 0.99\noptimizer.alpha = 3.0\n"
        "optimizer.t_alpha = 30\noptimizer.t_beta3 = 30\noptimizer.beta_start = 0.5\n",
        1e-3,
    ),
    "lion": ("optimizer.alpha = 0.9\noptimizer.beta = 0.99\n", 1e-3),
    "admeta_s": ("optimizer.beta1 = 0.9\noptimizer.beta2 = 0.3\n", 1e-6),
    "aggmo": ("optimizer.betas = 0.0, 0.9, 0.99\n", 1e-6),
    "ad3emamix": (
        "optimizer.beta3 = 0.99\noptimizer.beta4 = 0.999\noptimizer.alpha = 4.0\n"
        "optimizer.t_alpha = 40\noptimizer.t_beta3 = 40\n",
        1e-3,
    ),
}


def _toy_text(testbed, kind, extra, lr, tail=""):
    return (
        f"testbed.kind = {testbed}\noptimizer.kind = {kind.replace('_lean', '')}\n{extra}"
        f"lr.kind = lr_warmup_cosine\nlr.eta_max = {lr}\nlr.warmup = 6\n"
        f"lr.total = {TOY_STEPS}\nrun.steps = {TOY_STEPS}\nrun.seed = 0\n{tail}"
    )


MLP_STEPS = 60


def _mlp_text(kind, extra="", steps=MLP_STEPS):
    warmups = (
        "optimizer.beta3 = 0.999\noptimizer.alpha = 5.0\n"
        "optimizer.t_alpha = 40\noptimizer.t_beta3 = 40\n"
        if kind == "ademamix"
        else ""
    )
    return (
        "testbed.kind = mlp\ntestbed.input_dim = 8\ntestbed.hidden = 16\n"
        f"testbed.batch_size = 16\noptimizer.kind = {kind}\n{warmups}"
        "lr.kind = lr_warmup_cosine\nlr.eta_max = 0.003\nlr.eta_min = 1e-05\n"
        f"lr.warmup = 6\nlr.total = {steps}\nrun.steps = {steps}\nrun.seed = 5\n"
        f"run.cadence = 5\nrun.clip = 0.5\n{extra}"
    )


FORWARD_SWITCH = (
    "switch.to = ademamix\nswitch.at = 30\nswitch.alpha = 4.0\nswitch.beta3 = 0.999\n"
    "switch.t_alpha = 20\nswitch.t_beta3 = 20\n"
)
BACKWARD_SWITCH = "switch.to = adamw\nswitch.at = 30\n"
# the MLP runs of the other kinds; the CSV and the final checkpoint are pinned
MLP_KINDS = {
    "lion": "",
    "admeta_s": "",
    "aggmo": "",
    "ad3emamix": "optimizer.beta3 = 0.999\noptimizer.beta4 = 0.9999\noptimizer.alpha = 4.0\n"
    "optimizer.t_alpha = 40\noptimizer.t_beta3 = 40\n",
}


def _split(cfg, at, out, name):
    first = Experiment(cfg)
    head = first.run(until=at)
    blob = first.checkpoint()
    out[f"{name}.checkpoint"] = blob
    tail = Experiment(cfg, resume_from=load_state(blob)).run()
    out[f"{name}.resumed"] = format_record_csv(RunRecord(rows=head.rows + tail.rows))


def _forget(text, out, name):
    forget = run_forgetting_protocol(parse_config(text))
    out[f"{name}.control"] = format_record_csv(forget.control)
    out[f"{name}.injected"] = format_record_csv(forget.injected)
    out[f"{name}.control_heldout"] = format_series_csv(forget.control_heldout)
    out[f"{name}.injected_heldout"] = format_series_csv(forget.injected_heldout)
    out[f"{name}.normalized"] = format_series_csv(forget.normalized)


def _direct_states(out):
    """``save_state`` bytes of every kind after a few direct steps."""
    dim = 6
    factories = {
        "adamw": lambda: AdamW(dim, beta1=0.85, beta2=0.997, weight_decay=0.05, eps=3e-9),
        "adamw_beta1_zero": lambda: AdamW(dim, beta1=0.0),
        "ademamix": lambda: AdEMAMix(
            dim, beta1=0.9, beta3=0.9991, alpha=7.5, weight_decay=0.02, t_alpha=100, t_beta3=200
        ),
        "ademamix_lean": lambda: AdEMAMix(dim, beta1=0.0, beta3=0.999, alpha=2.0),
        "lion": lambda: Lion(dim, alpha=0.9, beta=0.99, weight_decay=0.25),
        "admeta_s": lambda: AdMetaS(dim, beta1=0.9, beta2=0.3),
        "aggmo": lambda: AggMo(dim, betas=(0.0, 0.9, 0.99)),
        "ad3emamix": lambda: Ad3EMAMix(dim, beta3=0.999, beta4=0.9995, alpha=4.0, eps=1e-7),
        "ad3emamix_beta1_zero": lambda: Ad3EMAMix(dim, beta1=0.0, beta3=0.99, alpha=1.5),
    }
    for name, factory in factories.items():
        rng = spawn_rng(11)
        opt = factory()
        theta = rng.standard_normal(dim)
        for _ in range(5):
            grad = rng.standard_normal(dim)
            theta = opt.step(theta, grad, 1e-2)
        out[f"state.{name}"] = save_state(opt, extra_slots={"theta": theta})
        if name == "ademamix_lean":
            # a state that kept its fast EMA at beta1 = 0 (m1 = the last gradient)
            # wrote these bytes: the lean slots, then m1
            buffered = save_state(opt, extra_slots={"m1": grad, "theta": theta})
            out["state.ademamix_buffered"] = buffered

    # warmed-up schedule values passed per step, as the harness does
    for name, opt, extra in (
        ("ademamix", AdEMAMix(dim, beta3=0.999, alpha=5.0), ()),
        ("ad3emamix", Ad3EMAMix(dim, beta3=0.99, beta4=0.999), (0.995,)),
    ):
        rng = spawn_rng(12)
        theta = rng.standard_normal(dim)
        for t in range(1, 6):
            theta = opt.step(theta, rng.standard_normal(dim), 1e-2, 0.5 * t, 0.9 + 0.01 * t, *extra)
        out[f"state.{name}.scheduled"] = save_state(opt, extra_slots={"theta": theta})

    for name, opt in (
        ("convex", AdEMAMix(dim, beta3=0.999, alpha=5.0)),
        ("convex_lean", AdEMAMix(dim, beta1=0.0, beta3=0.999, alpha=5.0)),
    ):
        rng = spawn_rng(13)
        theta = rng.standard_normal(dim)
        for t in range(1, 6):
            theta = opt.step_convex(theta, rng.standard_normal(dim), 6e-2, 5.0 / 6.0, 0.99)
        out[f"state.ademamix.{name}"] = save_state(opt, extra_slots={"theta": theta})

    # signed zeros: -0.0 in the slow EMAs must reach theta unchanged
    for name, opt in (
        ("ademamix", AdEMAMix(4, beta3=0.999, alpha=2.0)),
        ("ad3emamix", Ad3EMAMix(4, beta3=0.99, beta4=0.999, alpha=2.0)),
        ("adamw", AdamW(4)),
        ("lion", Lion(4)),
    ):
        preseed_momentum(opt, np.array([-0.0, 0.5, -0.0, 0.0]))
        theta = np.array([-0.0, -0.0, 1.0, -2.0])
        for _ in range(3):
            theta = opt.step(theta, np.array([-0.0, -0.0, 0.3, -0.0]), 1e-2)
        out[f"state.signed_zero.{name}"] = save_state(opt, extra_slots={"theta": theta})

    # direct switches carry the fast EMA and the second moment
    rng = spawn_rng(14)
    opt = AdamW(dim, weight_decay=0.01)
    theta = rng.standard_normal(dim)
    for _ in range(4):
        theta = opt.step(theta, rng.standard_normal(dim), 1e-2)
    opt = switch_optimizer(opt, AdEMAMix, beta3=0.99, alpha=3.0, t_alpha=5, t_beta3=5)
    for _ in range(4):
        theta = opt.step(theta, rng.standard_normal(dim), 1e-2)
    out["state.switch_forward"] = save_state(opt, extra_slots={"theta": theta})
    opt = switch_optimizer(opt, AdamW)
    for _ in range(4):
        theta = opt.step(theta, rng.standard_normal(dim), 1e-2)
    out["state.switch_backward"] = save_state(opt, extra_slots={"theta": theta})


def _artifacts() -> dict:
    out = {}
    for testbed in ("rosenbrock", "valley"):
        for kind, (extra, lr) in TOY_KINDS.items():
            record = run_experiment(parse_config(_toy_text(testbed, kind, extra, lr)))
            out[f"toy.{testbed}.{kind}"] = format_record_csv(record)
    extra, lr = TOY_KINDS["ademamix"]
    record = run_experiment(parse_config(_toy_text("valley", "ademamix", extra, lr)))
    out["toy.valley.ademamix.jsonl"] = format_record_jsonl(record)

    toy_switch = parse_config(
        _toy_text("rosenbrock", "adamw", "", 1e-3, FORWARD_SWITCH + "run.constant_after = true\n")
    )
    out["toy.switch_forward"] = format_record_csv(run_experiment(toy_switch))
    for at in (20, 30, 45):
        _split(toy_switch, at, out, f"toy.switch_forward.split{at}")

    forward = parse_config(_mlp_text("adamw", FORWARD_SWITCH))
    backward = parse_config(_mlp_text("ademamix", BACKWARD_SWITCH))
    out["mlp.switch_forward"] = format_record_csv(run_experiment(forward))
    out["mlp.switch_backward"] = format_record_csv(run_experiment(backward))
    _split(backward, 35, out, "mlp.switch_backward.split35")
    _split(parse_config(_mlp_text("ademamix")), 25, out, "mlp.ademamix.split25")
    for kind, extra in MLP_KINDS.items():
        run = Experiment(parse_config(_mlp_text(kind, extra)))
        out[f"mlp.{kind}"] = format_record_csv(run.run())
        out[f"mlp.{kind}.state"] = run.checkpoint()

    _forget(_mlp_text("ademamix", "forget.t_b = 20\n", 80), out, "forget")
    # injection at the first step, so the shared prefix is empty
    _forget(_mlp_text("ademamix", "forget.t_b = 1\n"), out, "forget.t_b1")
    # the switch takes effect in the injection step
    _forget(_mlp_text("adamw", FORWARD_SWITCH + "forget.t_b = 31\n", 90), out, "forget.switch_before")
    # both runs diverge at step 32, before the injection at 40
    diverging = _mlp_text("ademamix", "forget.t_b = 40\n", 90)
    _forget(diverging.replace("lr.eta_max = 0.003", "lr.eta_max = 1000000.0"), out, "forget.diverged")

    _direct_states(out)
    return {
        name: hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()
        for name, data in out.items()
    }


GOLDEN = {
    'forget.control': '5aa1f34a167e1f423e43ea9d720cccdc7c4b8d0e04b19b4815beeb679b561315',
    'forget.control_heldout': '6914634c68901dd18506c308e8e3ae40a97112f2abce2670794c99693c15d53d',
    'forget.diverged.control': '0aef5c76935ea29b0cf6ffa8973268d544e57c16309f186250f471074d1294b1',
    'forget.diverged.control_heldout': '0912537a7246b7217204d69b4501d318a907e8b461e004a6410ee35c3f58c87e',
    'forget.diverged.injected': '0aef5c76935ea29b0cf6ffa8973268d544e57c16309f186250f471074d1294b1',
    'forget.diverged.injected_heldout': '0912537a7246b7217204d69b4501d318a907e8b461e004a6410ee35c3f58c87e',
    'forget.diverged.normalized': 'ee4571a7c6ac6fcffdc182b8ac561f67bbf421d707e305511caac61bc06d4ebc',
    'forget.injected': '2ecc41a4b7d197a0bc813b83ab3671899ffc83624d0200e29a2c6f8e82fc2f38',
    'forget.injected_heldout': 'c9538a2c63b4c08238c998060aceb945f1d6b8e1bde3b16f4ec933cc4c363de7',
    'forget.normalized': 'e4f23d40882694b433451cc3a27ad243f27c3dbaef6eea824c89cbfd4f192f74',
    'forget.switch_before.control': '84ebce8cf896775bc4f376edf2faf1e00ae7b029cee072c95c227365767b6b1c',
    'forget.switch_before.control_heldout': 'b3be7147d01a682b5a8504dccfd1c9f5d9a7e59515ecfa73df8b8fec1ed5a9b8',
    'forget.switch_before.injected': '15d68d0c137d989924026d7b5184dc30e6fbc0f5d982a2d40b2954201826959b',
    'forget.switch_before.injected_heldout': '581de9ae8b33c4e08f53ac75b6ea418cb098455b67e665c26c84935e7b1790f6',
    'forget.switch_before.normalized': 'b53b6a106872a9bfdcede4f94149d0234407e18376d6b86f7da2e578e2e791f5',
    'forget.t_b1.control': '6e0bbc5b106b8ffe6dd86cba20b00948d49d425f52ccf0f76792e66e499652b4',
    'forget.t_b1.control_heldout': '0ff172fe578a9d50f234cb5ddd689b6ca24d7e048d3d41fe5a99ffc496146694',
    'forget.t_b1.injected': '0632a0000ee41c634b402186cdcb3548717af5dd15569c9818c204a2b0a5c6c9',
    'forget.t_b1.injected_heldout': 'f5763b588df8edb259e9a45ccbb701f13b49167699898970041d361550105da8',
    'forget.t_b1.normalized': '557c2def59f7f83f034bfdd1e561f713239770f2066c1d02c45faaf8d45b41ce',
    'mlp.ad3emamix': '52613ceace79f50885e4668fae962d69f7c05eb88aacc2e7cac0cc499015ba05',
    'mlp.ad3emamix.state': '26fa02b1260d9d32bc134dbe95eaae710fe592255bb2acb9874b4eafcc0ce46e',
    'mlp.ademamix.split25.checkpoint': 'ffe3475c94e245e6eef9b1267b9761a62a59d3fda8ba4e093d31af2476efffdf',
    'mlp.ademamix.split25.resumed': '6561819be1088bf9bdf792d64dacb1bb05738ac59c7ead2aeb628e7a061899af',
    'mlp.admeta_s': '8d805b2b536d467fc535d79fabb20dc76a99498f99423e3d50a091152cf0a7b3',
    'mlp.admeta_s.state': '3e17eeac47a9b0beb0bdd995ef4d38ac65a5a3bc89432ac4f3b848714f232bc8',
    'mlp.aggmo': 'aaa59237317100de094d6c28a1324d4dae3651d7d68a42ccd3343929d30143ab',
    'mlp.aggmo.state': '8fad79379f683f34afa9be2ef0ec34e9f3cdbebdd0ccf062e1e523f0141685e0',
    'mlp.lion': 'ab0dd719d99c33c9a773e2347ff2f5aa5b4c99b33c48d921270366a5035f3ee9',
    'mlp.lion.state': 'f59af6d76438f03865e60691d952722af00e80294b7c5014a93889055a6a9cb1',
    'mlp.switch_backward': '99c56418c4db0290830e525068ee825ebf3f4e8e658057d81dd8513b27de331b',
    'mlp.switch_backward.split35.checkpoint': '18bfccff9ba6814358f4116afe04c0bbf45d5c573eaba920176f9f19988ca245',
    'mlp.switch_backward.split35.resumed': '99c56418c4db0290830e525068ee825ebf3f4e8e658057d81dd8513b27de331b',
    'mlp.switch_forward': 'f06e6f7dae151e4baa77fceebc00ddb5cd35008a1942f5105f1d38555b6f244b',
    'state.ad3emamix': '3eb9181dfdae39c110135304b5a1e15499704774722a20174b3db72367e5cf25',
    'state.ad3emamix.scheduled': '984904304a6904ec1ba9d38a209f57061641dd29018573676e124af83853c705',
    'state.ad3emamix_beta1_zero': 'bae892cfdf54abd43cda4ce863fee78aa1a20359243701b074f6d66ea6f31078',
    'state.adamw': '56561e9b61e252ef90af8846360867e405fb13f5ce08879989011ef4131639ab',
    'state.adamw_beta1_zero': '46125f6268a189c41637ddd9e7d57344feb27f4091a9e86701bc67e3b64bcb01',
    'state.ademamix': '571fae007dadb78f3ba268089f4556fada3e2566ebda3baeecc73855f87a7cc8',
    'state.ademamix.convex': 'be3c65ae03a92090b4e22ee94143a7113d6956f170eacedc4dc6f6ee7fc6184a',
    'state.ademamix.convex_lean': '1490fbfa52032ab4bcf76596fef263a18bf4ab838157920af5f8847b8040f429',
    'state.ademamix.scheduled': '81fbd5db49e25760c68f366487a77ecd70107da51d28fbf200f3e1d5fd14a770',
    'state.ademamix_buffered': '1e4f3e055afe9aec65bfe6993902a4c1961f88e191bb0c4472fa7bc0586c82b1',
    'state.ademamix_lean': 'f17595b2cd079627ec572d32d3370a7b6af3c6c90d9bb24be02cc4404ff18c35',
    'state.admeta_s': '608e84d95feb534240cc57ef33725a6d83e23f6c96270d0540234a80a10921c8',
    'state.aggmo': 'd2622c5205fe9ad6b9de6955fe15212b1beb8f9b98456b680689ebaeb5337af6',
    'state.lion': 'a2aa6e21bcea333ff9eb3964e11da5685965dc8cb9d18d32c39c91cefd080184',
    'state.signed_zero.ad3emamix': '89dc5c35565f8947bf610194d8ecd1e7bdd38aa338ae20678fc20853f1ad0742',
    'state.signed_zero.adamw': '7cc638f5aa41abffdd428e8c67cdfc6cd670fbe61cdd2492f62bf73b5b8c5369',
    'state.signed_zero.ademamix': 'dfcb8573e82c2063bb8d1779bf98ba9fe9d68f6241a17cc0b5c5c98cc5fb2ed5',
    'state.signed_zero.lion': 'f3023fafca87f0cc479d87d4fbfdf51c9c682089cb11ddc4add9e24c0ee3007b',
    'state.switch_backward': '2c3b5aa809cd74f17cbbe3d961a83286664477c9995ec06650ce45930f0ef2d5',
    'state.switch_forward': '7d6deb1154e5fa56341a566c86ffed5554f1cae3c30fdb4ccd549dc0abcbe31d',
    'toy.rosenbrock.ad3emamix': 'e3ba929728b59168005186d34baec724dd44f8061a98a08bbb75eb742191ef64',
    'toy.rosenbrock.adamw': 'ea6e18cc3fb58ee39485a1778e4e96d2abad4451b1f1661a791c059768b2d4ee',
    'toy.rosenbrock.ademamix': 'edeed46f0e1f193fbc37bafa225566f7150dfab16223e215f1f353dc48151e99',
    'toy.rosenbrock.ademamix_lean': 'dd755ca6b6297725fc8933c43942ddb87a3acc17852d348bf8af246dd009ce65',
    'toy.rosenbrock.admeta_s': 'ae1524843f008004ad4ea8f5c5b053785ab321a79e34c779f22bb6bcfd4ab663',
    'toy.rosenbrock.aggmo': '6adeb91364231829e86d3f74647d0f328f08e0e38359c44cd6e86779b10ad195',
    'toy.rosenbrock.lion': '3dd4f5d8bf1099e07e39c11c6339e552f39049f1d81e5c0513dfcaad2754361f',
    'toy.switch_forward': '31d7d6fb50e83c3c1c46f5b29c8de3188701e12b6fc52a423fa6de5562f33251',
    'toy.switch_forward.split20.checkpoint': '74bfccaba0bfb5f8e71a641d50ddb3c42faa382e3e0d42276f4a7f7bdfbd43aa',
    'toy.switch_forward.split20.resumed': '31d7d6fb50e83c3c1c46f5b29c8de3188701e12b6fc52a423fa6de5562f33251',
    'toy.switch_forward.split30.checkpoint': '9f7e97c2db1a4980dd9f0c7a43e9463c77d6a24eb9537942114759995436ef7c',
    'toy.switch_forward.split30.resumed': '31d7d6fb50e83c3c1c46f5b29c8de3188701e12b6fc52a423fa6de5562f33251',
    'toy.switch_forward.split45.checkpoint': '5c63fd08655dc76c8e5657fbfa4ce4fabfb4658b6faa6d5be94e8f67f3dab8e1',
    'toy.switch_forward.split45.resumed': '31d7d6fb50e83c3c1c46f5b29c8de3188701e12b6fc52a423fa6de5562f33251',
    'toy.valley.ad3emamix': 'be10815bcdb90c486ace11af49c82a6c98369a8f5de817d39218587bf60a2f86',
    'toy.valley.adamw': 'a5618655ce1d8533bcdcfe0ac9fe55145fb8b903ad0031207764edf0d3f80bd3',
    'toy.valley.ademamix': '342986a899992d6cbddf6f8442be078c3d55e3d13b6551439c618806bd5cb252',
    'toy.valley.ademamix.jsonl': 'db2d5727bd97efcf23ac25cdf7c63d58cbe9aa39ed2847a2173c5756b4976e29',
    'toy.valley.ademamix_lean': '93ec116efb46d1a7cb7a29fb4bb0d9683a5b0f1649550a01d4449f1613a4adaa',
    'toy.valley.admeta_s': '3198ec98b72352602cd9385629f638afaa342a039453fb4733fd28510ff26f29',
    'toy.valley.aggmo': 'f1bb1afd1fc6b714541214df47635d869109ea69d7a74f4f4697a8387fa828a1',
    'toy.valley.lion': 'd35f5c370c7bb28a25fe0f0e5ac63d7150118d95a7d44648fdc7231d157923ea',
}


@pytest.fixture(scope="module")
def digests():
    return _artifacts()


def test_artifact_set_is_pinned(digests):
    assert sorted(digests) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bytes_unchanged(digests, name):
    assert digests[name] == GOLDEN[name], name


# a clipped AdEMAMix MLP of dim 10497, (16 + 1) * 128 + (128 + 1) * 64 + 65: its
# clip norms and update norms are square sums of more than 10000 elements
WIDE_CLIPPED = """
testbed.kind = mlp
testbed.hidden = 128, 64
optimizer.kind = ademamix
optimizer.beta3 = 0.999
optimizer.alpha = 5.0
lr.kind = constant
lr.value = 0.001
run.steps = 60
run.seed = 0
run.cadence = 1
run.clip = 0.5
"""
WIDE_CLIPPED_SHA256 = "14a337ebe12fbd103fe80ce91bbbe2683499299cff2ee7f508ccdd0bccaa1725"
# the CSV hash of the config on stdin, then the bits of wide norms
_CHILD = """
import hashlib, sys
import numpy as np
from emx.config import parse_config
from emx.harness import format_record_csv, run_experiment
from emx.numerics import l2_norm, row_norms, spawn_rng
csv = format_record_csv(run_experiment(parse_config(sys.stdin.read())))
rows = spawn_rng(9).standard_normal((2, 200_007))
norms = [l2_norm(rows[0]), l2_norm(rows[1, ::2]), *row_norms(rows), *row_norms(rows[:, ::2])]
print(hashlib.sha256(csv.encode()).hexdigest(), np.array(norms).tobytes().hex())
"""


def test_bytes_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS threads a ddot of more than 10000 elements; the child imports
    # the emx this process imported, with or without PYTHONPATH set
    src = os.path.dirname(os.path.dirname(emx.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", _CHILD], input=WIDE_CLIPPED, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        outputs.append(proc.stdout.split())
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == WIDE_CLIPPED_SHA256


if __name__ == "__main__":
    for key, value in sorted(_artifacts().items()):
        print(f"    {key!r}: {value!r},")
