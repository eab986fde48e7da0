"""End-to-end checks of the library's headline numerical claims.

Each test prints a single pass/fail line with the measured quantities, so
running this module gives a one-screen summary of the whole suite.
"""

import math
import time

import numpy as np

from relayrates import (
    BrcConfig,
    DmcChannel,
    MarcConfig,
    NetworkGeometry,
    NodeInput,
    PowerConfig,
    PropagationModel,
    SplitMatrix,
    brc_onehop_common_rate,
    brc_optimize,
    build_linear_geometry,
    failure_impact,
    interference_bound,
    khop_dmc_rate,
    large_T_report,
    marc_onehop_sumrate,
    marc_optimize,
    onehop_dmc_rate,
    optimize_rates_over_k,
    optimize_splits,
    rate_report,
    reception_rate,
    zeta,
)

PROP = PropagationModel()


def announce(index, ok, detail):
    print(f"ACCEPTANCE {index:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_01_marc_relay_reception_anchor():
    marc_onehop_sumrate(MarcConfig())  # warm the code path before timing
    t0 = time.perf_counter()
    r3 = marc_onehop_sumrate(MarcConfig()).r3
    elapsed = time.perf_counter() - t0
    want = 0.5 * math.log2(21.0)
    ok = abs(r3 - 2.196) < 5e-4 and abs(r3 - want) < 5e-4 and elapsed < 1e-3
    announce(1, ok, f"R3 = {r3:.6f} bits/use (target 2.196), {elapsed * 1e6:.0f} us")
    assert ok


def test_02_marc_source_power_crossover():
    t0 = time.perf_counter()
    res = marc_optimize(MarcConfig(), "onehop", sweep_source_power=(0.1, 10.0))
    elapsed = time.perf_counter() - t0
    gap = abs(res.rates.r3 - res.rates.r4)
    p = res.config.p1
    ok = gap <= 1e-4 and 2.0 <= p <= 2.4 and elapsed < 1.0
    announce(2, ok, f"balance at P1=P2 = {p:.4f} W, |R3-R4| = {gap:.2e}, {elapsed:.2f} s")
    assert ok


def test_03_five_node_efficiency_across_snr():
    """Two-hop decode-forward matches the omniscient rate at low SNR.

    On the unit-spacing 5-node chain (kappa = 1, eta = 2, unit noise, P per
    node) both optimized rates have closed forms. Receiver 2 decodes only
    sub-signal 1, which node 1 alone carries, at distance 1:

    - k = 4 (omniscient): no strategy gets more than all of node 1's power
      through without interference, so every rate is at most
      1/2 log2(1 + P); full-view coding cancels everything else at
      receiver 2.
    - k = 2: node 4 (= T-1) carries only its own sub-signal, at full power.
      Receiver 2 neither decodes it nor knows it, so it arrives from
      distance 2 as forced interference of at least P/4, and the rate is
      at most 1/2 log2(1 + P / (1 + P/4)).

    The optimizer reaches both bounds. Their ratio tends to 1 only as
    P -> 0: it is 0.99975 at 1e-3 W (-30 dB per hop) but log2(1.8) = 0.848
    at 1 W (0 dB per hop, not low SNR) and 0.342 at 100 W.
    """
    t0 = time.perf_counter()
    geom = build_linear_geometry([1.0] * 4)
    powers = (1e-3, 1.0, 100.0)
    low, high = powers[0], powers[-1]
    ratios = {}
    worst = 0.0
    for p in powers:
        power = PowerConfig.uniform(5, p)
        results = optimize_rates_over_k(geom, PROP, power, {2, 4})
        r2, r4 = results[2].rate, results[4].rate
        want2 = 0.5 * math.log2(1.0 + p / (1.0 + p / 4.0))
        want4 = 0.5 * math.log2(1.0 + p)
        worst = max(worst, abs(r2 - want2) / want2, abs(r4 - want4) / want4)
        ratios[p] = r2 / r4
    elapsed = time.perf_counter() - t0
    closed_ok = worst <= 1e-12
    low_ok = ratios[low] >= 0.999
    high_ok = ratios[high] < 0.999
    falling = all(ratios[a] >= ratios[b] for a, b in zip(powers, powers[1:]))
    ok = closed_ok and low_ok and high_ok and falling and elapsed < 120.0
    announce(
        3, ok,
        "two-hop/omniscient ratio "
        + " / ".join(f"{ratios[p]:.5f} at {p:g} W" for p in powers)
        + f" (need >= 0.999 at {low:g} W, < 0.999 at {high:g} W, non-increasing),"
        f" worst error vs closed forms {worst:.1e} (need <= 1e-12), {elapsed:.1f} s",
    )
    assert closed_ok, (
        "optimized rates miss 1/2 log2(1+P) (k=4) or "
        f"1/2 log2(1+P/(1+P/4)) (k=2): worst relative error {worst:.2e}"
    )
    assert low_ok, f"two-hop must match omniscient at {low:g} W (ratio {ratios[low]:.5f})"
    assert high_ok, f"efficiency must drop below 0.999 at {high:g} W"
    assert falling, f"ratio must not increase with power: {ratios}"
    assert elapsed < 120.0


def test_04_closed_form_oracle_five_nodes():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        d = rng.uniform(0.5, 3.0, size=(5, 5))
        d = (d + d.T) / 2.0
        np.fill_diagonal(d, 0.0)
        geom = NetworkGeometry(d)
        p = rng.uniform(0.1, 50.0, 4)
        power = PowerConfig(p, np.ones(4))
        lam = lambda i, t: geom.distance(i, t) ** -2.0

        # point-to-point: receiver 2 decodes node 1, hears nodes 3 and 4
        got = reception_rate(geom, PROP, power, SplitMatrix.own_only(5, 1), 1).rate
        want = 0.5 * math.log2(
            1.0 + lam(1, 2) * p[0] / (1.0 + lam(3, 2) * p[2] + lam(4, 2) * p[3])
        )
        worst = max(worst, abs(got - want) / want)

        # two-hop with forward fractions a: node 3's forward part and node 4
        # combine coherently as interference at receiver 2
        a = rng.dirichlet(np.ones(2), size=3)[:, 1]
        got = reception_rate(geom, PROP, power, SplitMatrix.two_hop(a), 2).rate
        sig = lam(1, 2) * (1.0 - a[0]) * p[0]
        noise = 1.0 + (
            math.sqrt(lam(3, 2) * a[2] * p[2]) + math.sqrt(lam(4, 2) * p[3])
        ) ** 2
        want = 0.5 * math.log2(1.0 + sig / noise)
        worst = max(worst, abs(got - want) / want)

        # full-view coding: receiver 2 cancels everything it did not decode
        rows = tuple(tuple(rng.dirichlet(np.ones(m))) for m in (4, 3, 2, 1))
        got = reception_rate(geom, PROP, power, SplitMatrix(rows), 4).rate
        want = 0.5 * math.log2(1.0 + lam(1, 2) * rows[0][0] * p[0])
        worst = max(worst, abs(got - want) / want)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    announce(4, ok, f"worst relative error {worst:.2e} over 1000 draws, {elapsed:.2f} s")
    assert ok


def test_05_optimized_rate_monotone_in_hop_depth():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    ok = True
    for trial in range(20):
        t = 5 if trial % 2 == 0 else 6
        geom = build_linear_geometry(rng.uniform(0.5, 1.5, t - 1))
        power = PowerConfig.uniform(t, float(rng.uniform(1.0, 30.0)))
        ks = sorted({1, 2, 3, t - 1})
        results = optimize_rates_over_k(geom, PROP, power, ks)
        rates = [results[k].rate for k in ks]
        ok = ok and all(rates[i] <= rates[i + 1] + 1e-6 for i in range(len(ks) - 1))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600.0
    announce(5, ok, f"rate(k) non-decreasing on 20 random chains, {elapsed:.1f} s")
    assert ok


def test_06_long_chain_interference_bound():
    """Two-hop rates stay bounded away from zero as the chain grows.

    Unit-spacing chain, P = 10 W, kappa = 1, eta = 2, unit noise, every
    forward fraction alpha = 0.5.

    Rate floor: receiver r decodes sub-signal r-1, whose own part arrives
    from node r-1 at distance 1, so p_sig >= S = kappa (1-alpha) P at every
    node. With p_int below the cap pi^2 kappa P = 6 zeta(2) kappa P at every
    node, boundary nodes included, every rate is at least
    1/2 log2(1 + S / (N + pi^2 kappa P)), which does not depend on T.

    Convergence: node 2 is the bottleneck and hears sub-signals q >= 4 as
    interference, each from node q-1 (fraction <= alpha, distance q-3) and
    node q (fraction <= 1, distance q-2) combined coherently, so each term
    is at most kappa P (1 + sqrt(alpha))^2 (q-3)^-eta. Chains of T and
    T' >= T nodes differ only in the terms q >= T-1, so their node-2
    interference differs by at most
        dI(T) = kappa P (1 + sqrt(alpha))^2 sum_{j > T-5} j^-eta
             <= kappa P (1 + sqrt(alpha))^2 (T-5)^(1-eta) / (eta-1)
    (the integral bracket of ``ZetaValue``). Node 2's signal is exactly S
    at every T, and |dR/dI| = S / (2 ln2 (N+I) (N+I+S)) falls with I, so
    rate(T) lies within dI(T) |dR/dI| at I = p_int - dI(T) of rate(T') and
    of the T -> infinity limit. That tail decays like 1/T, so successive
    drifts over T -> 4T must shrink by about a factor of 4.
    """
    power, eta, kappa, noise, alpha = 10.0, 2.0, 1.0, 1.0, 0.5
    sizes = (10, 50, 200, 800, 5000)
    t0 = time.perf_counter()
    reports = {t: large_T_report(t, power=power, eta=eta, kappa=kappa,
                                 noise=noise, alpha=alpha)
               for t in sizes}
    elapsed = time.perf_counter() - t0
    rate = {t: r.min_rate for t, r in reports.items()}

    cap = math.pi ** 2 * kappa * power
    bound_ok = all(r.max_interior_interference < cap and r.p_int.max() < cap
                   for r in reports.values())
    s = kappa * (1.0 - alpha) * power
    floor = 0.5 * math.log2(1.0 + s / (noise + cap))
    positive_ok = floor > 0.01 and all(
        r.p_sig.min() >= s * (1.0 - 1e-12) and r.min_rate >= floor
        for r in reports.values())

    amp = kappa * power * (1.0 + math.sqrt(alpha)) ** 2

    def tail(t):
        d_int = amp * (t - 5) ** (1.0 - eta) / (eta - 1.0)
        i_lo = max(0.0, reports[t].p_int[0] - d_int)
        return d_int * s / (2.0 * math.log(2.0) * (noise + i_lo) * (noise + i_lo + s))

    node2_ok = all(r.bottleneck == 2 and abs(r.p_sig[0] - s) <= 1e-12 * s
                   for r in reports.values())
    tails = {t: tail(t) for t in (50, 5000)}
    to_limit = abs(rate[200] - rate[5000]) + tails[5000]
    converged = to_limit < 1e-3
    drift = abs(rate[200] - rate[50])
    drift_ok = drift <= tails[50]
    later = abs(rate[800] - rate[200])
    slowing = later <= drift / 3.0
    ok = (bound_ok and positive_ok and node2_ok and converged and drift_ok
          and slowing and elapsed < 30.0)
    announce(
        6, ok,
        f"P_int < {cap:.1f} W at every node: {bound_ok}, min rates "
        + "/".join(f"{rate[t]:.4f}" for t in sizes)
        + f" >= floor {floor:.4f} (need > 0.01), |rate(200)-limit| <= "
        f"{abs(rate[200] - rate[5000]):.2e} + tail {tails[5000]:.1e} (need < 1e-3), "
        f"|rate(200)-rate(50)| = {drift:.2e} <= tail {tails[50]:.1e}, "
        f"|rate(800)-rate(200)| = {later:.2e}, {elapsed:.1f} s",
    )
    assert bound_ok, f"interference reaches the pi^2 kappa P = {cap:.1f} W cap"
    assert positive_ok, f"a rate falls below the T-independent floor {floor:.4f}"
    assert node2_ok, "node 2 must be the bottleneck and decode exactly kappa (1-alpha) P"
    assert converged, (
        f"rate(200) is up to {to_limit:.2e} from the T -> infinity limit "
        "(rate(5000) plus the certified tail); need < 1e-3"
    )
    assert drift_ok, (
        f"|rate(200)-rate(50)| = {drift:.2e} exceeds the certified tail "
        f"{tails[50]:.2e} of the T = 50 chain"
    )
    assert slowing, (
        f"drift 200->800 ({later:.2e}) must shrink like 1/T, to at most a "
        f"third of drift 50->200 ({drift:.2e})"
    )
    assert elapsed < 30.0


def test_07_zeta_certified_values():
    zeta(2.0)  # warm the code path before timing
    t0 = time.perf_counter()
    z2 = zeta(2.0)
    z3 = zeta(3.0)
    elapsed = time.perf_counter() - t0
    e2 = abs(z2.value - math.pi ** 2 / 6.0)
    e3 = abs(z3.value - 1.202057)
    ok = e2 < 1e-6 and e3 < 1e-6 and elapsed < 1e-3
    announce(7, ok, f"|zeta(2)-pi^2/6| = {e2:.1e}, |zeta(3)-1.202057| = {e3:.1e}, "
                    f"{elapsed * 1e6:.0f} us")
    assert ok


def test_08_brc_equality_region_is_an_up_set():
    t0 = time.perf_counter()
    thresholds = {}
    ok = True
    for p in (1.0, 10.0):
        equal = []
        for d in np.linspace(0.5, 4.0, 36):
            cfg = BrcConfig(p1=p, p2=p, d12=float(d))
            oh = brc_onehop_common_rate(cfg).common_rate
            om = brc_optimize(cfg).common_rate
            equal.append(abs(om - oh) <= 1e-6)
        first = next((i for i, e in enumerate(equal) if e), None)
        ok = ok and first is not None and all(equal[first:])
        thresholds[p] = np.linspace(0.5, 4.0, 36)[first] if first is not None else math.inf
    elapsed = time.perf_counter() - t0
    ok = ok and thresholds[1.0] < thresholds[10.0] and elapsed < 30.0
    announce(8, ok, f"equality thresholds d12 = {thresholds[1.0]:.2f} m at 1 W "
                    f"< {thresholds[10.0]:.2f} m at 10 W, {elapsed:.1f} s")
    assert ok


def test_09_discrete_oracle():
    t0 = time.perf_counter()
    uniform = np.array([0.5, 0.5])

    # noiseless binary relay chain: one bit per use at either hop depth
    tab = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            tab[x1, x2, x1, x2] = 1.0
    chan = DmcChannel((2, 2), (2, 2), tab)
    ident1 = np.arange(2)
    r1 = khop_dmc_rate(chan, [NodeInput(uniform, ident1),
                              NodeInput(uniform, ident1)], 1).rate
    r2 = khop_dmc_rate(chan, [NodeInput(uniform, np.array([[0, 0], [1, 1]])),
                              NodeInput(uniform, ident1)], 2).rate
    exact = r1 == 1.0 and r2 == 1.0

    rng = np.random.default_rng(3)
    monotone = True
    agree = 0.0
    for _ in range(50):
        ins = (2, 2, 2)
        raw = rng.random(ins + ins)
        raw /= raw.reshape(8, -1).sum(axis=1).reshape(ins + (1, 1, 1))
        dmc = DmcChannel(ins, ins, raw)
        rates = []
        for k in (1, 2, 3):
            widths = [min(k, 4 - p) for p in (1, 2, 3)]
            inputs = [NodeInput(uniform, np.indices((2,) * w)[0]) for w in widths]
            rates.append(khop_dmc_rate(dmc, inputs, k).rate)
        monotone = monotone and rates[0] <= rates[1] + 1e-12 <= rates[2] + 2e-12
        one = [NodeInput(uniform, ident1) for _ in range(3)]
        agree = max(agree, abs(onehop_dmc_rate(dmc, one).rate
                               - khop_dmc_rate(dmc, one, 1).rate))
    elapsed = time.perf_counter() - t0
    ok = exact and monotone and agree <= 1e-12 and elapsed < 60.0
    announce(9, ok, f"noiseless chain exact: {exact}, monotone in k: {monotone}, "
                    f"onehop/khop(1) gap {agree:.1e}, {elapsed:.1f} s")
    assert ok


def test_10_failure_locality():
    t0 = time.perf_counter()
    geom = build_linear_geometry([1.0] * 6)
    power = PowerConfig.uniform(7, 10.0)

    splits = SplitMatrix.own_only(7, 2)
    base = rate_report(geom, PROP, power, splits, 2)
    after = failure_impact(geom, PROP, power, splits, 2, {4})
    local = (after.record(2) == base.record(2)
             and after.record(7) == base.record(7))

    omni = SplitMatrix.uniform(7, 6)
    base_o = rate_report(geom, PROP, power, omni, 6)
    after_o = failure_impact(geom, PROP, power, omni, 6, {4})
    spreads = all(after_o.record(n).rate < base_o.record(n).rate for n in (5, 6, 7))
    elapsed = time.perf_counter() - t0
    ok = local and spreads and elapsed < 1.0
    announce(10, ok, f"two-hop failure leaves nodes 2 and 7 bit-identical: {local}, "
                     f"full-view failure lowers nodes 5-7: {spreads}, {elapsed:.2f} s")
    assert ok
