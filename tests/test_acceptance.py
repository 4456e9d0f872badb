"""End-to-end acceptance suite.

Each test covers one headline guarantee at desk scale, prints a single
PASS/FAIL line (run pytest with -s to see them), and enforces a wall-clock
budget.  Tolerances are finite-size: the underlying statements are asymptotic.
"""

import time

import numpy as np
import pytest

from taplab.amp import _se_schedule, amp_run
from taplab.experiments import (
    ExperimentConfig,
    fit_free_energy,
    calibration_table,
    generate_instance,
    inclusion_probabilities,
    run_calibration,
    run_mse_sweep,
)
from taplab.free_energy import (
    LinearModel,
    VariationalState,
    mf_energy,
    min_eigenvalue,
    onsager_volume,
    tap_energy,
    tap_gradient,
    tap_hessian_dense,
)
from taplab.ngd import NGDConfig, Objective, ngd_run
from taplab.oracle import enumerate_posterior, gaussian_posterior, mc_evidence
from taplab.potential import (
    Regime,
    phi,
    phi_prime,
    phi_second,
    solve_gammas,
)
from taplab.priors import gaussian_prior, three_point
from taplab.scalar import mmse, tilted_moments_vec, dual_solve_vec

from helpers import SIGMA2, make_model, neg_entropy


def report(name, passed, detail, t0, budget):
    elapsed = time.time() - t0
    line = f"[{'PASS' if passed else 'FAIL'}] {name}: {detail} ({elapsed:.1f}s)"
    print("\n" + line)
    assert passed, line
    assert elapsed < budget, f"{name} exceeded {budget}s budget: {elapsed:.1f}s"


def test_1_gaussian_prior_exactness():
    """Gaussian prior, tau2=sigma2=delta=1, p=800: the TAP minimizer recovers
    the exact posterior variance v* and the evidence per coordinate."""
    t0 = time.time()
    p = 800
    prior = gaussian_prior(1.0)
    rng = np.random.default_rng(0)
    model, _ = make_model(rng, p, p, prior, 1.0)
    oracle = gaussian_posterior(model, 1.0)
    v_star = (np.sqrt(5.0) - 1.0) / 2.0
    assert oracle.v_star == pytest.approx(v_star, abs=1e-12)

    _, warm = amp_run(model, prior, 8, delta=1.0)
    trace = ngd_run(model, prior, warm, NGDConfig(grad_tol=1e-10))
    v = trace.final.s - trace.final.m**2
    dev_v = float(np.max(np.abs(v - v_star)))
    f = tap_energy(model, trace.final)
    dev_ev = abs(-f / p - oracle.log_evidence / p)
    ok = trace.converged and dev_v < 0.05 and dev_ev < 0.5 / np.sqrt(p)
    report("gaussian-exactness", ok,
           f"max|v_j - v*|={dev_v:.4f} (<0.05), "
           f"|evidence gap|/p={dev_ev:.4f} (<{0.5 / np.sqrt(p):.4f})", t0, 60)


def test_2_state_evolution():
    """AMP empirical risk tracks the state-evolution prediction mmse(gamma_k)
    within 5% for k = 3..8 at n = p = 2000."""
    t0 = time.time()
    prior = three_point()
    rng = np.random.default_rng(0)
    model, truth = make_model(rng, 2000, 2000, prior, SIGMA2)
    state, _ = amp_run(model, prior, 8, truth=truth, delta=1.0)
    rel = [abs(row["mse_empirical"] - row["mse_se"]) / row["mse_se"]
           for row in state.history if 3 <= row["k"] <= 8]
    worst = max(rel)
    report("state-evolution", worst < 0.05,
           f"worst relative deviation k=3..8: {worst:.3f} (<0.05)", t0, 30)


def test_3_gradient_hessian_oracles():
    """Analytic gradient and dense Hessian match central finite differences
    at 20 seeded random interior states, p = 10..30."""
    t0 = time.time()
    prior = three_point()
    rng = np.random.default_rng(7)
    worst_g, worst_h = 0.0, 0.0
    for _ in range(20):
        p = int(rng.integers(10, 31))
        model, _ = make_model(rng, int(1.5 * p), p, prior, SIGMA2)
        state = VariationalState.from_duals(
            prior, rng.uniform(-2, 2, p), rng.uniform(-2, 2, p))
        gm, gs = tap_gradient(model, state)
        H = tap_hessian_dense(model, state, prior)
        h = 1e-5

        def energy_at(m, s):
            st = VariationalState.from_moments(prior, m, s)
            return tap_energy(model, st)

        def grad_at(m, s):
            st = VariationalState.from_moments(prior, m, s)
            a, b = tap_gradient(model, st)
            return np.concatenate([a, b])

        for j in (0, p - 1):
            em = np.zeros(p)
            em[j] = h
            fd = (energy_at(state.m + em, state.s)
                  - energy_at(state.m - em, state.s)) / (2 * h)
            worst_g = max(worst_g, abs(fd - gm[j]) / (1 + abs(gm[j])))
            fd = (energy_at(state.m, state.s + em)
                  - energy_at(state.m, state.s - em)) / (2 * h)
            worst_g = max(worst_g, abs(fd - gs[j]) / (1 + abs(gs[j])))
            col = (grad_at(state.m + em, state.s)
                   - grad_at(state.m - em, state.s)) / (2 * h)
            worst_h = max(worst_h, float(np.max(
                np.abs(col - H[:, j]) / (1 + np.abs(H[:, j])))))
    ok = worst_g < 1e-5 and worst_h < 1e-4
    report("gradient-hessian-oracles", ok,
           f"worst gradient rel err {worst_g:.2e} (<1e-5), "
           f"worst Hessian rel err {worst_h:.2e} (<1e-4)", t0, 10)


def test_4_amp_ngd_pipeline():
    """AMP warm start (T0=8) then NGD at n=p=500: stationarity below 1e-8,
    monotone energy, constant gamma, and a linear tail rate."""
    t0 = time.time()
    prior = three_point()
    rng = np.random.default_rng(0)
    model, _ = make_model(rng, 500, 500, prior, SIGMA2)
    _, warm = amp_run(model, prior, 8, delta=1.0)
    trace = ngd_run(model, prior, warm, NGDConfig(grad_tol=1e-13))
    f = np.array(trace.f_values)
    monotone = bool(np.all(np.diff(f) <= 1e-10))
    grad_ok = trace.grad_norm_sq_per_p[-1] < 1e-8
    spread = float(np.max(trace.final.gam) - np.min(trace.final.gam))

    # linear convergence: log(f_k - f_inf) affine in k over the last 50
    # usable iterations (those still above the numeric floor)
    f_star = f[-1]
    gaps = f[:-1] - f_star
    usable = np.flatnonzero(gaps > 1e-11 * max(1.0, abs(f_star)))
    idx = usable[-50:]
    k = idx.astype(float)
    logg = np.log(gaps[idx])
    A = np.vstack([k, np.ones_like(k)]).T
    coef, *_ = np.linalg.lstsq(A, logg, rcond=None)
    resid = logg - A @ coef
    r2 = 1.0 - float(resid @ resid) / float(np.sum((logg - logg.mean()) ** 2))

    ok = monotone and grad_ok and spread < 1e-6 and r2 > 0.95 and len(idx) == 50
    report("amp-ngd-pipeline", ok,
           f"grad^2/p={trace.grad_norm_sq_per_p[-1]:.1e} (<1e-8), "
           f"monotone={monotone}, gamma spread={spread:.1e} (<1e-6), "
           f"log-gap R^2={r2:.3f} (>0.95)", t0, 120)


def test_5_mse_dominance():
    """TAP posterior mean dominates MF in MSE at every aspect ratio for both
    priors, and attains the algorithmic Bayes risk at n = p = 2000."""
    t0 = time.time()
    details = []
    ok = True
    for desc in ("three-point", "bernoulli-gaussian:0.5,1.0"):
        cfg = ExperimentConfig(prior_descriptor=desc, n=300, replicates=20)
        rows, _ = run_mse_sweep(cfg)
        for delta in cfg.delta_grid:
            sub = [r for r in rows if r["delta"] == delta]
            tap = np.mean([r["mse_tap"] for r in sub])
            mf = np.mean([r["mse_mf"] for r in sub])
            ok = ok and tap <= mf
            details.append(f"{desc[:2]}@{delta:g}:{tap:.3f}<={mf:.3f}")

    prior = three_point()
    rng = np.random.default_rng(0)
    model, truth = make_model(rng, 2000, 2000, prior, SIGMA2)
    cfg2 = ExperimentConfig(n=2000)
    trace = fit_free_energy(model, prior, cfg2, Objective.TAP, delta=1.0)
    mse = float(np.sum((trace.final.m - truth) ** 2)) / 2000
    target = mmse(prior, solve_gammas(prior, SIGMA2, 1.0).gamma_alg)
    rel = abs(mse - target) / target
    ok = ok and rel < 0.10
    report("mse-dominance", ok,
           "TAP<=MF at all deltas [" + " ".join(details) + "], "
           f"large-scale mse={mse:.4f} vs mmse(gamma_alg)={target:.4f} "
           f"(rel {rel:.3f} < 0.10)", t0, 1200)


def test_6_calibration():
    """TAP posterior inclusion probabilities are calibrated (every populated
    bin within 0.1 of the diagonal); MF is miscalibrated in at least one bin."""
    t0 = time.time()
    cfg = ExperimentConfig(n=500, replicates=10)
    tables, _ = run_calibration(cfg, delta=1.0)
    tap_devs = [abs(r["pip_mean"] - r["freq_nonzero"])
                for r in tables["TAP"] if r["count"] >= 50]
    mf_devs = [abs(r["pip_mean"] - r["freq_nonzero"])
               for r in tables["MF"] if r["count"] >= 50]
    tap_ok = max(tap_devs) <= 0.1
    mf_bad = max(mf_devs) > 0.1
    report("calibration", tap_ok and mf_bad,
           f"TAP worst bin dev {max(tap_devs):.3f} (<=0.1), "
           f"MF worst bin dev {max(mf_devs):.3f} (>0.1)", t0, 600)


def test_7_landscape():
    """The TAP Hessian is positive definite at the converged state across all
    four design scenarios and both priors, and everywhere at low SNR."""
    t0 = time.time()
    eigs = []
    for desc in ("three-point", "bernoulli-gaussian:0.5,1.0"):
        for design in ("gaussian", "rademacher", "rademacher_noise",
                       "bernoulli_hetero"):
            cfg = ExperimentConfig(prior_descriptor=desc, n=300,
                                   replicates=1, design=design)
            prior = cfg.prior()
            model, _ = generate_instance(cfg, 0, 1.0)
            trace = fit_free_energy(model, prior, cfg, Objective.TAP, delta=1.0)
            res = min_eigenvalue(model, trace.final, prior, method="dense")
            eigs.append(res.value)
    converged_ok = min(eigs) > 0

    # global convexity regime sigma2 = 100: positive at random interior states
    prior = three_point()
    rng = np.random.default_rng(5)
    model, _ = make_model(rng, 300, 300, prior, 100.0)
    rand_eigs = []
    for _ in range(5):
        state = VariationalState.from_duals(
            prior, rng.uniform(-3, 3, 300), rng.uniform(-3, 3, 300))
        rand_eigs.append(min_eigenvalue(model, state, prior, "dense").value)
    random_ok = min(rand_eigs) > 0
    report("landscape", converged_ok and random_ok,
           f"min eig over 8 converged states {min(eigs):.3f} (>0), "
           f"over 5 random low-SNR states {min(rand_eigs):.3f} (>0)", t0, 600)


def test_8_scalar_property_suite():
    """Dual-map roundtrips, entropy convexity, mmse monotonicity, the I-MMSE
    identity, the curvature formula, and the recursion limit."""
    t0 = time.time()
    prior = three_point()
    rng = np.random.default_rng(0)

    lam = rng.uniform(-8, 8, 300)
    gam = rng.uniform(-8, 8, 300)
    m, s, _ = tilted_moments_vec(prior, lam, gam)
    # near machine-precision moment residual: extreme tilts are poorly
    # conditioned, 1e-8 accuracy in dual space needs ~1e-14 in moments
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("taplab.scalar.DUAL_RESIDUAL_TOL", 2e-15)
        lam2, gam2, _, conv, _ = dual_solve_vec(prior, m, s)
    roundtrip = float(max(np.max(np.abs(lam2 - lam)), np.max(np.abs(gam2 - gam))))

    convex_ok = True
    for i in range(0, 100, 2):
        lhs = neg_entropy(prior, 0.5 * (m[i] + m[i + 1]), 0.5 * (s[i] + s[i + 1]))
        rhs = 0.5 * (neg_entropy(prior, m[i], s[i]) + neg_entropy(prior, m[i + 1], s[i + 1]))
        convex_ok = convex_ok and lhs <= rhs + 1e-10

    grid = np.geomspace(1e-3, 1e2, 40)
    mm = np.array([mmse(prior, g) for g in grid])
    mono_ok = bool(np.all(np.diff(mm) <= 1e-12))

    imms = 0.0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("taplab.scalar.QUAD_NODES", 201)
        for g in np.geomspace(1e-2, 1e2, 10):
            h = 5e-5 * g
            fd = (phi(prior, SIGMA2, 1.0, g + h)
                  - phi(prior, SIGMA2, 1.0, g - h)) / (2 * h)
            imms = max(imms, abs(fd - phi_prime(prior, SIGMA2, 1.0, g)))

    h = 1e-5
    fd2 = (phi_prime(prior, SIGMA2, 1.0, 1.0 + h)
           - phi_prime(prior, SIGMA2, 1.0, 1.0 - h)) / (2 * h)
    curv = abs(fd2 - phi_second(prior, SIGMA2, 1.0, 1.0)) / abs(fd2)

    seq = _se_schedule(prior, SIGMA2, 1.0, 300)[0]
    limit_gap = abs(seq[-1] - solve_gammas(prior, SIGMA2, 1.0).gamma_alg)

    ok = (roundtrip < 1e-8 and convex_ok and mono_ok and imms < 1e-6
          and curv < 1e-4 and limit_gap < 1e-8)
    report("scalar-properties", ok,
           f"roundtrip {roundtrip:.1e} (<1e-8), convexity {convex_ok}, "
           f"mmse monotone {mono_ok}, I-MMSE {imms:.1e} (<1e-6), "
           f"phi'' FD {curv:.1e} (<1e-4), recursion limit {limit_gap:.1e} "
           f"(<1e-8)", t0, 60)


def test_9_enumeration_oracle():
    """Exact evidence by enumeration at p=8 agrees with Monte Carlo, and the
    free energies at the exact-marginal state respect the KL ordering."""
    t0 = time.time()
    prior = three_point()
    rng = np.random.default_rng(0)
    p, n = 8, 8
    X = rng.normal(0.0, 1.0 / np.sqrt(p), size=(n, p))
    beta = prior.sample(p, rng)
    y = X @ beta + rng.normal(0.0, 0.5, size=n)
    model = LinearModel(X=X, y=y, sigma2=0.25)

    log_ev, marg_m, marg_s = enumerate_posterior(model, prior)
    est, se = mc_evidence(model, prior, 400_000, np.random.default_rng(1))
    z = abs(np.exp(log_ev) - est) / se

    state = VariationalState.from_moments(prior, marg_m, marg_s)
    f_mf = mf_energy(model, state)
    f_tap = tap_energy(model, state)
    # MF is an exact KL bound: F_MF = -log P(y) + KL(product || posterior);
    # TAP sits an Onsager correction below it
    x = (onsager_volume(model, state) - model.sigma2) / model.sigma2
    gap = 0.5 * model.n * (np.log1p(x) - x)
    mf_bound = f_mf >= -log_ev - 1e-9
    tap_rel = abs(f_tap - (f_mf + gap)) < 1e-9
    ok = z < 3.0 and mf_bound and tap_rel
    report("enumeration-oracle", ok,
           f"MC z-score {z:.2f} (<3), F_MF - (-logP) = {f_mf + log_ev:.3f} "
           f"(>=0), TAP = MF + Onsager gap ({gap:.3f})", t0, 60)


def test_10_hard_regime():
    """Three-point, sigma=0.1, delta=0.6, where AMP is conjectured not to reach
    the Bayes-optimal neighbourhood (gamma_alg << gamma_stat): TAP fitted from
    AMP attains mmse(gamma_alg), dominates MF, gives calibrated PIPs, and its
    minimizers are locally strongly convex."""
    t0 = time.time()
    cfg = ExperimentConfig(sigma=0.1, n=500, replicates=6)
    delta = 0.6
    prior = cfg.prior()
    profile = solve_gammas(prior, cfg.sigma2, delta)
    mmse_alg = mmse(prior, profile.gamma_alg)
    mmse_stat = mmse(prior, profile.gamma_stat)
    mse = {objective: [] for objective in Objective}
    pips = {objective: [] for objective in Objective}
    nonzero, eigs, converged = [], [], []
    for rep in range(cfg.replicates):
        model, truth = generate_instance(cfg, rep, delta)
        nonzero.append(truth != 0.0)
        for objective in Objective:
            trace = fit_free_energy(model, prior, cfg, objective, delta=delta)
            converged.append(trace.converged)
            mse[objective].append(float(np.mean((trace.final.m - truth) ** 2)))
            pips[objective].append(inclusion_probabilities(prior, trace.final))
            if objective is Objective.TAP and rep < 3:
                eigs.append(min_eigenvalue(model, trace.final, prior, "dense").value)
    nonzero = np.concatenate(nonzero)
    worst = {}
    for objective in Objective:
        table = calibration_table(np.concatenate(pips[objective]), nonzero)
        worst[objective] = max(abs(r["pip_mean"] - r["freq_nonzero"])
                               for r in table if r["count"] >= 50)
    tap, mf = np.mean(mse[Objective.TAP]), np.mean(mse[Objective.MF])
    # the TAP MSE's replicate sd was 0.027, so three standard errors of the
    # mean over 6 replicates are 0.033, 14.5% of mmse(gamma_alg)
    rel = abs(tap - mmse_alg) / mmse_alg
    ok = (all(converged) and profile.regime is Regime.HARD and rel < 0.15
          and mmse_stat < 0.01 * mmse_alg and tap <= mf
          and worst[Objective.TAP] <= 0.1 and min(eigs) > 0)
    report("hard-regime", ok,
           f"regime {profile.regime.value} (gamma_alg {profile.gamma_alg:.3f}, "
           f"gamma_stat {profile.gamma_stat:.2f}), TAP mse {tap:.4f} vs "
           f"mmse(gamma_alg) {mmse_alg:.4f} (rel {rel:.3f} < 0.15; mmse(gamma_stat) "
           f"{mmse_stat:.1e}), MF mse {mf:.4f} (>= TAP), PIP worst bin TAP "
           f"{worst[Objective.TAP]:.3f} (<=0.1) MF {worst[Objective.MF]:.3f}, "
           f"min eig {min(eigs):.3f} (>0), {sum(converged)}/{len(converged)} fits "
           "converged", t0, 120)
