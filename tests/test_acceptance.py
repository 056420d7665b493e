"""Acceptance suite: one test per exit criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are fixed here, not calibrated elsewhere.
"""

import math
import time

import numpy as np

from emx.checkpoint import load_state, restore_optimizer, save_state
from emx.config import parse_config
from emx.harness import Experiment, format_record_csv, run_experiment, run_forgetting_protocol
from emx.numerics import spawn_rng
from emx.optimizers import (
    Ad3EMAMix,
    AdamW,
    AdEMAMix,
    AggMo,
    AdMetaS,
    Lion,
    preseed_momentum,
)
from emx.schedules import (
    HalfLifeLinearWarmup,
    LinearWarmup,
    WarmupCosineDecay,
    t_half,
)
from emx.testbeds import (
    TESTBEDS,
    TinyMlp,
    gradient_check,
    rosenbrock,
    sharp_valley,
)


def _report(name: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def test_criterion_01_scheduler_exactness():
    start = time.monotonic()
    ok = 5.57 <= t_half(0.9) <= 5.58
    ok = ok and 6930 <= t_half(0.9999) <= 6931
    ok = ok and 76.5 <= t_half(0.9991) - t_half(0.999) <= 77.5

    horizon = 300_000
    sched = HalfLifeLinearWarmup(final=0.9999, start=0.9, horizon=horizon)
    h0, h1 = t_half(0.9), t_half(0.9999)
    for k in range(200):
        t = 1 + k * (horizon - 1) // 199
        expected = (1 - t / horizon) * h0 + (t / horizon) * h1
        got = t_half(sched.at(t))
        ok = ok and abs(got - expected) <= 1e-9 * abs(expected)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    _report(f"criterion 1: scheduler exactness and half-life linearity ({elapsed:.2f}s)", ok)


def test_criterion_02_ema_weight_oracle():
    from emx.ema_weights import ema_weights, nested_ema_weights

    start = time.monotonic()
    ok = True
    for beta in (0.0, 0.9, 0.999, 0.9999):
        for horizon in (100, 10_000):
            closed = ema_weights(beta, horizon)
            m = 0.0
            brute = np.empty(horizon + 1)
            for k in range(horizon + 1):
                m = beta * m + (1.0 - beta) * (1.0 if k == 0 else 0.0)
                brute[k] = m
            ok = ok and float(np.max(np.abs(closed - brute))) <= 1e-14
            ok = ok and abs(closed.sum() - (1.0 - beta ** (horizon + 1))) <= 1e-12

    for b_in, b_out in ((0.9, 0.9), (0.9, 0.9999), (0.5, 0.99)):
        horizon = 10_000
        closed = nested_ema_weights(b_in, b_out, horizon)
        inner = outer = 0.0
        brute = np.empty(horizon + 1)
        for k in range(horizon + 1):
            g = 1.0 if k == 0 else 0.0
            inner = b_in * inner + (1.0 - b_in) * g
            outer = b_out * outer + (1.0 - b_out) * inner
            brute[k] = outer
        ok = ok and float(np.max(np.abs(closed - brute))) <= 1e-14
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    _report(f"criterion 2: weight profiles match recurrence oracles ({elapsed:.2f}s)", ok)


def _rosenbrock_bytes(opt, steps, lr, step_args=()):
    theta = np.array([-3.0, 5.0])
    trail = []
    for _ in range(steps):
        _, g = rosenbrock(theta)
        theta = opt.step(theta, g, lr, *step_args)
        trail.append(theta.tobytes())
    return trail


def test_criterion_03_adamw_reduction_and_lean_path():
    adamw = AdamW(2, beta1=0.9, beta2=0.999)
    mix0 = AdEMAMix(2, beta1=0.9, beta2=0.999, beta3=0.9999, alpha=0.0)
    reduction = _rosenbrock_bytes(adamw, 1000, 1e-3) == _rosenbrock_bytes(mix0, 1000, 1e-3)

    # lean AdEMAMix holds no m1; AdamW's m is a real buffer, which holds the gradient
    lean = AdEMAMix(2, beta1=0.0, beta3=0.999, alpha=0.0)
    buffered = AdamW(2, beta1=0.0)
    parity = _rosenbrock_bytes(lean, 1000, 1e-3) == _rosenbrock_bytes(buffered, 1000, 1e-3)

    _report("criterion 3: alpha=0 is AdamW bitwise; beta1=0 paths bitwise equal",
            reduction and parity)


def test_criterion_04_convex_reparametrization():
    lr, alpha = 1e-3, 9.0
    a = AdEMAMix(2, beta1=0.9, beta3=0.999, alpha=alpha)
    b = AdEMAMix(2, beta1=0.9, beta3=0.999, alpha=alpha)
    xa = np.array([-3.0, 5.0])
    xb = np.array([-3.0, 5.0])
    worst = 0.0
    for _ in range(1000):
        _, ga = rosenbrock(xa)
        _, gb = rosenbrock(xb)
        xa = a.step(xa, ga, lr)
        xb = b.step_convex(xb, gb, lr * (alpha + 1), alpha / (alpha + 1))
        worst = max(worst, float(np.max(np.abs(xa - xb))))
    static_ok = worst <= 1e-12

    # same scheduler shapes on both forms: no longer a reparametrization
    eta = WarmupCosineDecay(eta_max=0.1, eta_min=1e-3, warmup=10, total=100)
    alpha_sched = LinearWarmup(final=alpha, horizon=100)
    alpha_hat_sched = LinearWarmup(final=alpha / (alpha + 1), horizon=100)
    c = AdEMAMix(1, beta1=0.9, beta3=0.999, alpha=alpha)
    d = AdEMAMix(1, beta1=0.9, beta3=0.999, alpha=alpha)
    xc = np.array([1.0])
    xd = np.array([1.0])
    gap = 0.0
    for t in range(1, 101):
        xc = c.step(xc, 2.0 * xc, eta.at(t), alpha_sched.at(t), 0.999)
        xd = d.step_convex(
            xd, 2.0 * xd, eta.at(t) * (alpha + 1), alpha_hat_sched.at(t), 0.999
        )
        gap = max(gap, float(np.max(np.abs(xc - xd))))
    sched_ok = gap > 1e-6

    _report(
        f"criterion 4: static reparametrization <=1e-12 (got {worst:.2e}); "
        f"scheduled forms diverge >1e-6 (got {gap:.2e})",
        static_ok and sched_ok,
    )


def _final_distances(opt, steps, lrs):
    """Step ``opt`` from (-3, 5) on Rosenbrock as one row per learning rate in
    ``lrs``: each row's final distance to (1, 1) and its x2 series. Each row
    gets the bits it would get stepped alone."""
    opt.select_rows([0] * len(lrs))
    theta = np.tile([-3.0, 5.0], (len(lrs), 1))
    lr = np.array(lrs)[:, None]
    x2 = [theta[:, 1]]
    for _ in range(steps):
        _, g = rosenbrock(theta)
        theta = opt.step(theta, g, lr)
        x2.append(theta[:, 1])
    assert np.isfinite(theta).all()  # a rows step leaves a diverged row in place
    series = np.array(x2).T.tolist()
    return [(float(np.linalg.norm(row - [1.0, 1.0])), x) for row, x in zip(theta, series)]


def _sign_changes(series):
    deltas = np.sign(np.diff(series))
    deltas = deltas[deltas != 0]
    return int(np.sum(deltas[1:] != deltas[:-1]))


def test_criterion_05_rosenbrock_ordering():
    start = time.monotonic()
    steps = 5000
    lrs = (3e-4, 1e-3, 3e-3, 1e-2, 3e-2)

    adam_best = math.inf
    osc = {}
    for beta1 in (0.9, 0.99, 0.999, 0.9999):
        runs = _final_distances(AdamW(2, beta1=beta1, beta2=0.999), steps, lrs)
        dist, x2 = min(runs, key=lambda run: run[0])  # the first lr of the best distance
        adam_best = min(adam_best, dist)
        osc[beta1] = _sign_changes(x2)

    mix_best = math.inf
    for beta3 in (0.999, 0.9999):
        opt = AdEMAMix(2, beta1=0.9, beta2=0.999, beta3=beta3, alpha=9.0)
        mix_best = min(mix_best, *(dist for dist, _ in _final_distances(opt, steps, lrs)))

    elapsed = time.monotonic() - start
    ordering = mix_best < adam_best
    oscillation = osc[0.999] >= 3 * osc[0.9]
    runtime = elapsed < 30.0
    _report(
        f"criterion 5: two-EMA best {mix_best:.3g} < Adam best {adam_best:.3g}; "
        f"oscillations {osc[0.999]} >= 3x{osc[0.9]} ({elapsed:.1f}s)",
        ordering and oscillation and runtime,
    )


def test_criterion_06_preseeded_momentum_toy():
    budget, lr = 2000, 0.01
    target = np.array([1.0, 4.0])
    ok = True
    for preseed in ([-3.0, 0.0], [-0.8, -3.0]):
        adam = AdamW(2, beta1=0.999, beta2=0.999)
        preseed_momentum(adam, np.array(preseed))
        mix = AdEMAMix(2, beta1=0.9, beta2=0.999, beta3=0.999, alpha=2.0)
        preseed_momentum(mix, np.array(preseed))

        theta_a = np.array([0.3, 1.5])
        theta_m = np.array([0.3, 1.5])
        adam_closest = math.inf
        mix_reached = False
        for _ in range(budget):
            _, g = sharp_valley(theta_a)
            theta_a = adam.step(theta_a, g, lr)
            adam_closest = min(adam_closest, float(np.linalg.norm(theta_a - target)))
            _, g = sharp_valley(theta_m)
            theta_m = mix.step(theta_m, g, lr)
            if np.linalg.norm(theta_m - target) <= 0.1:
                mix_reached = True
        ok = ok and adam_closest > 0.1 and mix_reached
    _report(
        "criterion 6: preseeded Adam(b1=0.999) never reaches the optimum, "
        "the two-EMA mixture does (both preseeds)",
        ok,
    )


def test_criterion_07_gradient_verification():
    ok = True
    rng = spawn_rng(2024)
    for bed in (TESTBEDS["rosenbrock"](0)[0], TESTBEDS["valley"](0)[0]):
        for _ in range(20):
            theta = rng.uniform(-3, 3, size=2)
            ok = ok and gradient_check(bed, theta) <= 1e-6
    mlp = TinyMlp((6, 12, 1))
    batch = (rng.standard_normal((5, 6)), rng.standard_normal((5, 1)))
    for _ in range(20):
        theta = rng.standard_normal(mlp.dim) * 0.5
        ok = ok and gradient_check(mlp, theta, batch) <= 1e-6
    _report("criterion 7: finite-difference checks at 20 seeded points per testbed", ok)


def _mlp_cfg(optimizer, steps, seed, lr=0.003, extra=""):
    return parse_config(f"""
testbed.kind = mlp
testbed.input_dim = 16
testbed.hidden = 64, 64
testbed.batch_size = 32
optimizer.kind = {optimizer}
lr.kind = constant
lr.value = {lr}
run.steps = {steps}
run.seed = {seed}
run.cadence = 10
{extra}
""")


def test_criterion_08_switch_semantics():
    start = time.monotonic()
    steps = 1500
    seeds = (1, 2, 3)
    mix_extra = (
        "optimizer.beta3 = 0.999\noptimizer.alpha = 5.0\n"
        f"optimizer.t_alpha = {steps}\noptimizer.t_beta3 = {steps}\n"
    )
    forward_votes = 0
    between_votes = 0
    for seed in seeds:
        adamw_loss = run_experiment(_mlp_cfg("adamw", steps, seed)).final_loss
        mix_loss = run_experiment(_mlp_cfg("ademamix", steps, seed, extra=mix_extra)).final_loss
        sw = {}
        for at in (300, 700, 1100):
            cfg = _mlp_cfg(
                "adamw", steps, seed,
                extra=f"switch.to = ademamix\nswitch.at = {at}\n"
                      "switch.alpha = 2.0\nswitch.beta3 = 0.999",
            )
            sw[at] = run_experiment(cfg).final_loss
        if sw[300] < sw[700] < sw[1100]:
            forward_votes += 1
        back_cfg = _mlp_cfg(
            "ademamix", steps, seed,
            extra=mix_extra + "switch.to = adamw\nswitch.at = 750",
        )
        back_loss = run_experiment(back_cfg).final_loss
        lo, hi = sorted((mix_loss, adamw_loss))
        if lo < back_loss < hi:
            between_votes += 1
    elapsed = time.monotonic() - start
    ok = forward_votes * 2 > len(seeds) and between_votes * 2 > len(seeds)
    ok = ok and elapsed < 120.0
    _report(
        f"criterion 8: earlier switches win {forward_votes}/{len(seeds)} seeds; "
        f"switch-back lands between {between_votes}/{len(seeds)} seeds ({elapsed:.1f}s)",
        ok,
    )


def test_criterion_09_forgetting_protocol():
    steps, t_b = 600, 450
    cfg = parse_config(f"""
testbed.kind = mlp
testbed.input_dim = 16
testbed.hidden = 64, 64
testbed.batch_size = 32
testbed.noise = 0.2
optimizer.kind = ademamix
optimizer.beta3 = 0.999
optimizer.alpha = 5.0
optimizer.t_alpha = {steps}
optimizer.t_beta3 = {steps}
lr.kind = lr_warmup_cosine
lr.eta_max = 0.01
lr.eta_min = 0.0001
lr.warmup = 50
lr.total = {steps}
run.steps = {steps}
run.seed = 1
run.cadence = 1
forget.t_b = {t_b}
""")
    result = run_forgetting_protocol(cfg)
    control = dict(result.control_heldout)
    injected = dict(result.injected_heldout)
    immediate = injected[t_b + 1] < control[t_b + 1]
    gap_held = all(
        control[t] - injected[t] > 0.0 for t in range(t_b + 1, t_b + 101)
    )
    normalized = dict(result.normalized)
    anchors = normalized[t_b - 1] == 0.0 and normalized[t_b + 50] == -1.0
    _report(
        "criterion 9: injected run beats control at t_B+1, gap positive for 100 "
        "steps, normalized anchors exact",
        immediate and gap_held and anchors,
    )


def test_criterion_10_nested_ema_constants():
    opt = AdMetaS(1, beta1=0.9)
    ok = abs(opt.mu - 4.888888888888889) <= 1e-3 and abs(opt.kappa - 2.111111111111111) <= 1e-3
    _report(
        f"criterion 10: nested-EMA constants (mu, kappa) = ({opt.mu:.4f}, {opt.kappa:.4f})",
        ok,
    )


def test_criterion_11_determinism_and_persistence():
    # checkpoint round-trips, bitwise, for every optimizer variant
    rng = spawn_rng(3)
    round_trip_ok = True
    for opt in (
        AdamW(4), AdEMAMix(4, beta3=0.999, alpha=3.0), AdEMAMix(4, beta1=0.0),
        Lion(4), AdMetaS(4), AggMo(4), Ad3EMAMix(4),
    ):
        theta = rng.standard_normal(4)
        for _ in range(9):
            theta = opt.step(theta, rng.standard_normal(4), 1e-3)
        blob = save_state(opt, extra_slots={"theta": theta})
        restored = restore_optimizer(load_state(blob))
        round_trip_ok = round_trip_ok and save_state(
            restored, extra_slots={"theta": load_state(blob).slots["theta"]}
        ) == blob

    # splitting a run anywhere reproduces the uninterrupted run bitwise
    cfg = _mlp_cfg(
        "ademamix", 120, 7,
        extra="optimizer.beta3 = 0.999\noptimizer.alpha = 2.0\nrun.clip = 1.0",
    )
    full = Experiment(cfg)
    full_record = full.run()
    split_ok = full_record.status == "completed"
    for split in (1, 37, 60, 119):
        part = Experiment(cfg)
        part.run(until=split)
        resumed = Experiment(cfg, resume_from=load_state(part.checkpoint()))
        tail = resumed.run()
        split_ok = split_ok and resumed.theta.tobytes() == full.theta.tobytes()
        full_tail = [r for r in full_record.rows if r.step > split]
        split_ok = split_ok and full_tail == tail.rows

    # identical configs emit identical bytes
    emit_ok = format_record_csv(run_experiment(cfg)) == format_record_csv(run_experiment(cfg))

    _report(
        "criterion 11: bitwise checkpoints, split-resume equality, byte-identical reruns",
        round_trip_ok and split_ok and emit_ok,
    )
