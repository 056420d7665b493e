"""Sweep bytes: SHA-256 pins of every record CSV and summary of a set of sweeps.

``run_sweep`` may run the points of a grid together, one row of a shared
state per point. Its output must be the bytes of the points run one by one:
the pins below were recorded from one-by-one runs, and every sweep here must
still match them. The sweeps cover an lr grid of every optimizer kind on
both landscapes (rows that diverge at different steps among them), a
recording cadence, clipping, duplicate points, a grid that mixes lr and
optimizer keys, a switch, preseeded momentum and an MLP grid.
"""

import hashlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from emx.config import parse_config
from emx.harness import (
    apply_override,
    format_record_csv,
    format_sweep_csv,
    run_experiment,
    run_sweep,
)
from emx.optimizers import AdamFamily
from emx.testbeds import TinyMlp

STEPS = 300
LRS = [0.0003, 0.001, 0.003, 0.01, 0.03]
KINDS = {
    "adamw": "optimizer.weight_decay = 0.01\n",
    "ademamix": "optimizer.beta3 = 0.9999\noptimizer.alpha = 9.0\n"
    f"optimizer.t_alpha = {STEPS}\noptimizer.t_beta3 = {STEPS}\n",
    "lion": "",
    "admeta_s": "",
    "aggmo": "",
    "ad3emamix": "optimizer.beta3 = 0.999\noptimizer.beta4 = 0.9999\noptimizer.alpha = 4.0\n"
    f"optimizer.t_alpha = {STEPS}\noptimizer.t_beta3 = {STEPS}\n",
}


def _toy(testbed, kind, extra="", steps=STEPS):
    return parse_config(
        f"testbed.kind = {testbed}\noptimizer.kind = {kind}\n{KINDS.get(kind, '')}{extra}"
        f"lr.kind = lr_warmup_cosine\nlr.eta_max = 0.001\nlr.warmup = {steps // 10}\nlr.total = {steps}\n"
        f"run.steps = {steps}\nrun.seed = 3\n"
    )


CONSTANT = "lr.kind = constant\nlr.value = 0.001\n"


def _constant(testbed, kind, extra="", steps=120):
    return parse_config(
        f"testbed.kind = {testbed}\noptimizer.kind = {kind}\n{extra}{CONSTANT}"
        f"run.steps = {steps}\nrun.seed = 0\n"
    )


MLP = parse_config(
    "testbed.kind = mlp\ntestbed.input_dim = 8\ntestbed.hidden = 16\ntestbed.batch_size = 16\n"
    "optimizer.kind = ademamix\noptimizer.beta3 = 0.999\noptimizer.alpha = 5.0\n"
    "optimizer.t_alpha = 40\noptimizer.t_beta3 = 40\n"
    "lr.kind = lr_warmup_cosine\nlr.eta_max = 0.003\nlr.eta_min = 1e-05\nlr.warmup = 6\n"
    "lr.total = 60\nrun.steps = 60\nrun.seed = 5\nrun.cadence = 5\nrun.clip = 0.5\n"
)
SWITCH = (
    "switch.to = ademamix\nswitch.at = 50\nswitch.alpha = 4.0\nswitch.beta3 = 0.999\n"
    "switch.t_alpha = 30\nswitch.t_beta3 = 30\n"
)


def _sweeps():
    """``name -> (config, grid)`` of every pinned sweep."""
    sweeps = {
        f"{testbed}.{kind}": (_toy(testbed, kind), {"lr.eta_max": LRS})
        for testbed in ("rosenbrock", "valley")
        for kind in KINDS
    }
    sweeps["cadence3"] = (
        _toy("valley", "ademamix", "run.constant_after = true\n", 90),
        {"lr.eta_max": [0.001, 0.01, 0.1], "run.cadence": [3]},
    )
    sweeps["clip"] = (
        _constant("rosenbrock", "adamw", steps=150),
        {"lr.value": [0.001, 0.01, 0.1], "run.clip": [0.5]},
    )
    sweeps["duplicates"] = (
        _constant("rosenbrock", "lion"),
        {"lr.value": [0.01, 0.001, 0.01, 0.01]},
    )
    sweeps["lr_by_alpha"] = (
        _constant("valley", "ademamix", "optimizer.beta3 = 0.999\n"),
        {"lr.value": [0.001, 0.01, 0.1], "optimizer.alpha": [0.0, 2.0, 8.0]},
    )
    sweeps["switch"] = (
        _constant("rosenbrock", "adamw", SWITCH + "run.constant_after = true\n"),
        {"lr.value": [0.001, 0.01, 0.05]},
    )
    sweeps["preseed_lean"] = (
        _constant(
            "valley",
            "ademamix",
            "optimizer.beta1 = 0.0\noptimizer.beta3 = 0.99\noptimizer.alpha = 3.0\n"
            "optimizer.preseed = -0.5, 0.25\n",
        ),
        {"lr.value": [0.0001, 0.003, 0.3, 3.0]},
    )
    sweeps["mlp"] = (MLP, {"lr.eta_max": [0.001, 0.003, 0.01]})
    return sweeps


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digests(cfg, grid) -> list:
    """The summary's digest, then each record's, in grid order."""
    result = run_sweep(cfg, grid)
    return [_sha(format_sweep_csv(result))] + [_sha(format_record_csv(r)) for r in result.records]


# the kinds whose rows diverge, and the step each row diverged at
DIVERGED_STEPS = {
    "rosenbrock.admeta_s": [23, 11, 9, 7, 6],
    "rosenbrock.aggmo": [None, None, None, 11, 7],
    "valley.admeta_s": [None, None, None, 33, 15],
}


GOLDEN = {
    'rosenbrock.adamw': [
        '26e1ef7bffef572f165c6693d53d8cb4e25654de5c150034fff31a3e284562e2',
        '59d43a7544bb5663b4219f8928ca12f66d8ac65dc2d2e7f6113fdc9ae0dc2242',
        '9011686388dd8e833d1893e115f65a31c63a63f581cb7acaf71105112bbb2491',
        '2c0c9e5f20550ea1e83a8db485ca18bad4b9ef8ad452f68dfa8e2fef89736418',
        'b2fa0e16d6373ac9570dd67c1cbeead2a833c46510a5c96eac211616af86fc17',
        '0e1143017e7b8d658b4a28e59dffcdcb23be3f06372ace2bfdfca21b0cb2c910',
    ],
    'rosenbrock.ademamix': [
        '7c252455d2b63fcf1faf1f4690d7e4352695d359b01a2bee8889079da6fe0eed',
        'be698202f85f58db0d3a097f8eeab2f275498da6b06bbc9d924b31905a822795',
        'ac67ae62f15366dac58c3f7feac552c1f2117f9c0f885e4a9b527ebeb577f669',
        'dabffb81aa9192aa5703fca87e3a81293b8e14ffad2bc2f1215cbced6b100b83',
        'c22ffd07475622e358e4aa4b38ce4032f198132678db16ccb45a75bf3d75032e',
        '624ce9dfbbdccbb38526cc936de1fc554b734b451a7ab73dcc50323fb70fae22',
    ],
    'rosenbrock.lion': [
        '855eadc1988ea8122ed898ee9714fb6d60b843884b626e7811255987302d5a77',
        '2b20fc4fe7e3f4dfbe1a66164e10b8c22d9a8da0911dd19fe082761f641b8828',
        '6c379cea3aaf28676f07b085094032f778cebb6be6a3184d01dcd87595740c9e',
        '1278b513562457e05b541a7fb7b3f727a043a5fca654cec530df0af98504f51b',
        'faacd9158c80774375363566fef990ab14fc790891e95222a70704dced82ee46',
        'ef5e7b6a9d98975faae6c437e765c80d68de0277c5a5298763179719d890ebda',
    ],
    'rosenbrock.admeta_s': [
        '9d0a15439ebbde7a5541560e9d85e303f6d8bae7c349485e3daf353aed0b4a65',
        '17063b81e2cb458bb9b1cd804c9fa9a706712506da377409a02c5a4f447d48a5',
        '905de0565d0df497ddd264e65f20bcc6976a597ea229f25387443807b08871b3',
        '13c43f81e7446c924e8ac71879c25f7e52727f4b4fcf341b823ee8c17a5b2af1',
        '6146cb993994aa66a40200f0b39f45bd2fca844f79a53ff901f9f465b1922e0d',
        '18928214b1ffb17fc9d8844708132e21ae83d529b3d89fc3c90b2beab1cef418',
    ],
    'rosenbrock.aggmo': [
        '15c4c28c6bc701202c0d5a432f1a3b16b2308e23bc9e90e6caf21a53888fae0f',
        '2cab98a06ce6e97b12db0ac89c695747cfdb6c3e484d55acddde102b152b1dc8',
        '13b96a5a4cced11156cad4cdd64c73649bb77114160db4b1d89a1d16076ea93d',
        '8f49fcb1d14e93108a06cb6ebed3b25c50741e143d72b58bf567d720324c540e',
        'd38d894309e6771d24154a669a34795c2a77419d8c7f5e7bf71f897619c85c98',
        '0bf0b4caaff8a0b176f82bfa6197afd91f253bd0aa7996afffc5f86fcb57664f',
    ],
    'rosenbrock.ad3emamix': [
        'e933176e6fb2133643223b8494ea9e83f8ca00fbebb449ee5867e0088d6f13bf',
        'f9038fb8acfcc7c3f405254fa6e49fcb07e957cf6bfdbf36d15900b152a5e0ee',
        'c0a351f5ed900a401b36a9469ce27bf2fd6a591e45b8a8d35395255be51c8626',
        '35e95678108cb38eaa7e690585017769129b083efac968441693dde8edf03f85',
        '445b176a18b0cfa99a892a7ea726c87f24ba21693d5d9df511bc1b7d6328cd27',
        '228fbed6b8feb40c532b15f5e8cb1846ce0e920e38b9dbf105a81c2d9928f100',
    ],
    'valley.adamw': [
        '66528de3ba1336a7aa6f085737d4a17d4591638f3f97a931a6db1b3c53c36744',
        '7af543817d0c224827acf58923c71d27b5c59eee37df2f973a76022493dea841',
        'c694007e370361c0f1e36396aa54b73bf1e09074f1a8b5f343e58265eecbe2e4',
        'd868af165961c408325ec5a48773b7e02c8644ba5cab1d3afa770b01d5de20a5',
        'f200799920bab1734d4baf574ad7723495bc817bbfe1386d6cba83b671a03469',
        'd3e4e8c71a390f0c6e3994a003de2a7bb4a09dc142a4fa58f04459ba51f7fe2e',
    ],
    'valley.ademamix': [
        '2c32206f93bd4650d99492af6b4cef7e86e57b72e048dd90deb5e3f98441356b',
        'f23ae94b891b0b0e7bc7a230842f0b2e761cc78f26721974cc162f5d9e51ad3e',
        '5c7c118bb5853b218da9245c17403848aecff55a5d10afd27796f325d0eb30a0',
        'af1c78bacad32e663f6e9512764cc6874557a4ba5bdf6d2b854b04e50259500b',
        'd2f72b52ecb2f6cbe62aa4699ce5afb06251192c66ce4d2d9bf33edb137f6c15',
        'f187c940728e355d3d66c0f2a4f5878d598461f7a19d03ce0d6753ce7346a00d',
    ],
    'valley.lion': [
        '77211542bd8bf751a4958e2135cf11976b673f54b53b8353cde0a8770f0797e0',
        '3046519b4a78c6f4f8c0ae1572b8f18f2a5d629c6ab914ec339d3ee86418237f',
        '7ff8f3ac9703fcbcc978d77d47e78c01dcf55d4a1d8accfe5f0388d54b1b6fa7',
        'db88ddf3dc277dd3de96a66cb1aa0a26222689efce947689515f2b868f0945b6',
        'ef1e700fb68bb570633cfb144cd9bb592605a8b0eceffc8ed69045d6428ca5a0',
        '4b24b79ed530a83d8ee5d5b334e3759cb4afa3cd28893df80c9dc375d7cee418',
    ],
    'valley.admeta_s': [
        '23e3f8fdc942aef2bf4f3ec9df81a6a5de3600154ae906cb88234238e98e1c92',
        '73efef0f5a90257d3ec17fa8eae44c5bd17df20069d6d16503f05afbf487cd66',
        'd86abc6da1a1929c0240445ba072ef99f7b8a5c776034c27aa8759817004acab',
        'e22262fdde0f3b8824ffd14fc6f41842209f01b20fee0aff9c90ee7bda855e64',
        'a8d412bbb1612ddc9d07690688e81f8c204a36797ad0c6835127e66d26944a39',
        '75f2eb97ed343bfc84c2a67ad285f9a84f8ce6f522b507ecca5ff77018ad5a0e',
    ],
    'valley.aggmo': [
        '90329a481d1f0a677b5ca6cbcc0697eaedb604f0d91f06fc705567ec86d2bc81',
        'd7a43dcbdecb4e73f27a7db012bc92122f44e8b2d4e07806f10c3374193b8bdd',
        'f7c307ed712315182e9b87a53b49ab9f0c18f6f58d94d97a4507804095101804',
        'fc965ac95c6976806d1fb43afd02bfe9b8e8340e3d0b2430269794dc023fa1ca',
        '27b0fbae24e6e291feded12ea858521fac40725138a60a476aadccebecf64529',
        '65d4db635fe830721387c0130c2f02068b10c8d692d1623e296eac9c2ea10a64',
    ],
    'valley.ad3emamix': [
        '5777a1da01bd0cba4b26426a4106d242cefe39eda12ff6f790e4b1fb05b116f0',
        '38de3fb62b13b88f1d0f59428b26a0891014aa51a101da85ce7589bd342a89d3',
        'd8c267820653f2f5e3d0837d3927e8fbd133bde139fdad8013aa2ec7d320248a',
        'e9db4ed2863530ae84406bb396f205a915dd8e37bf1f9e0747e434c104da09c2',
        '8c9013c9ab69a0a9f192464c9e636cb6fb67b26c6316e039e75de24c5f93cbbb',
        '5750619241e9e35f929551d23a3fb28cbc2632aee72fd1a35e88b13c91077593',
    ],
    'cadence3': [
        '3883eb090381d3ec3dfd65f4599ad4b49614a691ddfa5f193387e1e12e726b13',
        'e2d7580fdc536784b8c25711b185db9661707c02d9b571fc78b9acae7ebb1c77',
        '9446a319ebc849ae6b72b0cf8110695dd3386df60efc2569083314794a8fdc47',
        '274b232eee0f2bae5023e0b292cc2f6871cee73b986127de5ff9313cb522dba6',
    ],
    'clip': [
        '14721193a1d2646d78b2668ec7fa0f8ec3437993ac3bedb77d1909b69374fd88',
        '5a7576f592e30876ae8441403704376355c2a260b550927bb13f0bb4cb4f40e5',
        '1d6b0fcb6f2aed01b5662e4ea398845932283e442060b625983039a3c7b28736',
        'e3019c49c424f1e4a5d6bb8886fe8dca41c2e37af9c73968fb9659918550df84',
    ],
    'duplicates': [
        '0226d2e76071b9eb6ca76941ece0a8bb673f6d22f2ebf563b60b81ac46d549fd',
        'b8a8e8075f44c06298628f4cace921b6b4290734f7bfdbe1e6fab558e5a9e9c5',
        'd17e738c80d8f91f498596f3f61b50f2457d07f5e1e9c117e789b889f32ae1b1',
        'b8a8e8075f44c06298628f4cace921b6b4290734f7bfdbe1e6fab558e5a9e9c5',
        'b8a8e8075f44c06298628f4cace921b6b4290734f7bfdbe1e6fab558e5a9e9c5',
    ],
    'lr_by_alpha': [
        'db3ca9ec447a25e4742426c241de27d09ed55829b6a2ae4c0cbae435c4c61e97',
        '7e90af7c62fe1b6cca5fe53012277f281de4c4f761dc5af147917fe954f4618f',
        '13da05f31d06b43509d4906d4e5e1e92d0c70953528d88d59c0141876840d510',
        'd19c665c00c764bfc5a77a3c7d313dd23f3f2cd258964610110d7457bb7b9151',
        '18cb580266d5380d693226fb87de987173710910f6815716985ce1c235a81c67',
        'a8a10e247c84ba8316c580d208c884025063a3dd32568e8a4dbda5dba96eed14',
        'bbf7934e7cbcb53740d9a6ea22be13f61b7d5800eaff6d6881f9870e2ca1114e',
        'af25f20e8a9f8c09a769df5e01e88eed9c646a8cd137bd723589ea4bff03a2a5',
        '935dbadb500e8e290b6cfd4e0c8eb4e443d1eb7e862a138fd79a6cbdb7a2d2b8',
        '169acaf84e721750b864780270735904fc9d0e29ea31c8493751621cfc724e72',
    ],
    'switch': [
        '0fcd594256e753db22f45d9f26989806b7ac327989feea04bfcf71509a9f6da1',
        '8c432dbe7dc9497aade5b0b424d842ba8131e3b0ec91a6cca85d74ff452820e2',
        '9ba3220bdf9b80ccc7d6a5d9d59ff941734b06e267ed870a24914b120b3ae1bf',
        'ebdece87682aad482516f3acd81ec996db73639341c880ebf300f7c20e1fcfc8',
    ],
    'preseed_lean': [
        'fdc819a250d6df3738692bcff75a4b816881b73f140214101b046d0bc004adee',
        '5f5be07729a57f8d46c0e6e88b32fa85d0748920350d3a23f324bcceebddb055',
        'bb7b5c49b86f1d51dbaa4e34c5745e02f578afd3b073735860fc1856d29d23e8',
        'a80b9908d0703c90272199003f983f0bdb4090998f623232b3a627b249d51e96',
        '241ce9bab60de01b02916fd212f8d985bae929830e0c87a986bf7e589d9741a5',
    ],
    'mlp': [
        '72aa3f2ba39823bfeacb74241315fac50759e4484a8d0c7c303ac9721bc7c1c1',
        '950f2870f05d4338a8e25aeadbdabb16e947627edac4ab6d4fc0d9d5f18383a5',
        '6561819be1088bf9bdf792d64dacb1bb05738ac59c7ead2aeb628e7a061899af',
        '4afb9ca74f61c3d5459e2d83aab2ba0ccb8ba6fb14a3d255bc50aaed87b6f452',
    ],
}


def test_pinned_set():
    assert sorted(_sweeps()) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_sweep_bytes_unchanged(name):
    cfg, grid = _sweeps()[name]
    assert _digests(cfg, grid) == GOLDEN[name], name


@pytest.mark.parametrize("name", sorted(DIVERGED_STEPS))
def test_rows_diverge_at_their_own_steps(name):
    cfg, grid = _sweeps()[name]
    records = run_sweep(cfg, grid).records
    assert [r.diverged_step for r in records] == DIVERGED_STEPS[name]
    assert all(r.final_step == STEPS for r in records if not r.diverged)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    testbed=st.sampled_from(["rosenbrock", "valley"]),
    kind=st.sampled_from(sorted(KINDS)),
    schedule=st.sampled_from(["constant", "lr_warmup_cosine"]),
    lrs=st.lists(st.floats(1e-6, 3.0), min_size=1, max_size=5),
    warmups=st.lists(st.integers(0, 10), min_size=1, max_size=2),
    steps=st.integers(0, 40),
    cadence=st.integers(1, 3),
    clip=st.sampled_from(["", "run.clip = 0.5\n"]),
)
def test_every_record_is_the_point_run_alone(
    testbed, kind, schedule, lrs, warmups, steps, cadence, clip
):
    key = "lr.value" if schedule == "constant" else "lr.eta_max"
    cfg = parse_config(
        f"testbed.kind = {testbed}\noptimizer.kind = {kind}\n{KINDS[kind]}"
        f"lr.kind = {schedule}\n{key} = 0.001\nrun.steps = {steps}\nrun.cadence = {cadence}\n"
        f"run.constant_after = true\n{clip}"
    )
    grid = {key: lrs}
    if schedule == "lr_warmup_cosine":
        grid["lr.warmup"] = [min(w, steps) for w in warmups]
    result = run_sweep(cfg, grid)
    for entry, record in zip(result.entries, result.records):
        alone = cfg
        for name, value in entry.overrides.items():
            alone = apply_override(alone, name, value)
        alone = run_experiment(alone)
        assert format_record_csv(record) == format_record_csv(alone)
        assert record == alone


def test_a_grid_takes_one_step_call_per_step(monkeypatch):
    calls = []
    step = AdamFamily.step

    def counted(self, *args):
        calls.append(self.shape)
        return step(self, *args)

    monkeypatch.setattr(AdamFamily, "step", counted)
    result = run_sweep(_constant("rosenbrock", "adamw", steps=300), {"lr.value": LRS})
    assert len(calls) == 300 and set(calls) == {(5, 2)}
    assert [r.final_step for r in result.records] == [300] * 5
    calls.clear()
    run_experiment(_constant("rosenbrock", "adamw", steps=300))
    assert len(calls) == 300 and set(calls) == {(1, 2)}
    calls.clear()
    result = run_sweep(MLP, {"lr.eta_max": [0.001, 0.003, 0.01]})
    assert len(calls) == MLP.steps and set(calls) == {(3, TinyMlp((8, 16, 1)).dim)}
    assert [r.final_step for r in result.records] == [MLP.steps] * 3
