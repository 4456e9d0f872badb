import warnings

import numpy as np
import pytest

from taplab import kernels, ngd
from taplab.amp import amp_run
from taplab.exceptions import DomainError
from taplab.experiments import (
    AMP_WARM_ITERS,
    ExperimentConfig,
    fit_free_energy,
    generate_instance,
)
from taplab.free_energy import (
    LinearModel,
    VariationalState,
    _apply_blocks,
    _entropy_hessian_blocks,
    _k_product,
    mf_energy,
    mf_gradient,
    onsager_volume,
    tap_energy,
    tap_gradient,
    tap_hessian_matvec,
)
from taplab.ngd import NGDConfig, Objective, StopReason, newton_run, ngd_run
from taplab.oracle import gaussian_posterior
from taplab.priors import gaussian_prior
from taplab.scalar import tilted_cov_vec, tilted_moments_vec

from helpers import make_model, warm_start


def test_starts_converged_at_stationary_point():
    g = gaussian_prior(1.0)
    rng = np.random.default_rng(0)
    model, _ = make_model(rng, 300, 300, g, sigma2=1.0)
    # polish the analytic minimizer (exact only asymptotically) then restart
    oracle = gaussian_posterior(model, 1.0)
    init = VariationalState.from_moments(g, oracle.post_mean,
                                         oracle.post_mean**2 + oracle.v_star)
    warm = ngd_run(model, g, init, NGDConfig(grad_tol=1e-12, max_iters=5000))
    trace = ngd_run(model, g, warm.final, NGDConfig(grad_tol=1e-12))
    assert trace.converged
    assert trace.iterations <= 1


@pytest.mark.parametrize("objective", [Objective.TAP, Objective.MF])
def test_a_gradient_that_is_not_finite_is_a_domain_error(tp, objective):
    # at sigma2 = 1e-200 the gradient's entries are near 1e200 and ||g||^2/p
    # overflows: no step can follow, so the descent stops with an error
    # instead of backtracking to the step floor, and numpy warns of nothing
    rng = np.random.default_rng(3)
    model, _ = make_model(rng, 40, 40, tp, sigma2=1e-200)
    init = VariationalState.from_moments(tp, np.zeros(40), np.full(40, 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="gradient is not finite at iteration 0"):
            ngd_run(model, tp, init, NGDConfig(objective=objective))


def test_monotone_descent_and_convergence(tp):
    rng = np.random.default_rng(1)
    model, _ = make_model(rng, 200, 200, tp)
    _, warm = amp_run(model, tp, 8, delta=1.0)
    trace = ngd_run(model, tp, warm, NGDConfig(grad_tol=1e-10))
    assert trace.converged
    f = np.array(trace.f_values)
    assert np.all(np.diff(f) <= 1e-10)
    assert trace.grad_norm_sq_per_p[-1] < 1e-10


def test_stationary_gamma_structure(tp):
    # at a TAP stationary point gamma_j is constant = (n/p)/(sigma2 + S - Q)
    rng = np.random.default_rng(2)
    model, _ = make_model(rng, 150, 150, tp)
    _, warm = amp_run(model, tp, 8, delta=1.0)
    trace = ngd_run(model, tp, warm, NGDConfig(grad_tol=1e-12))
    gam = trace.final.gam
    spread = float(np.max(gam) - np.min(gam))
    assert spread < 1e-6
    expect = model.delta_hat / onsager_volume(model, trace.final)
    assert np.max(np.abs(gam - expect)) < 1e-5


def test_determinism(tp):
    rng = np.random.default_rng(3)
    model, _ = make_model(rng, 80, 80, tp)
    _, warm = amp_run(model, tp, 8)
    t1 = ngd_run(model, tp, warm, NGDConfig(max_iters=300))
    t2 = ngd_run(model, tp, warm, NGDConfig(max_iters=300))
    assert np.array_equal(t1.final.m, t2.final.m)
    assert np.array_equal(t1.f_values, t2.f_values)


def test_mf_minimizer_gaussian_variance():
    g = gaussian_prior(1.0)
    rng = np.random.default_rng(4)
    p = 300
    model, _ = make_model(rng, p, p, g, sigma2=1.0)
    _, warm = amp_run(model, g, 8, delta=1.0)
    trace = ngd_run(model, g, warm, NGDConfig(grad_tol=1e-12, objective=Objective.MF))
    assert trace.converged
    v = trace.final.s - trace.final.m**2
    expect = 1.0 / (1.0 / 1.0 + model.delta_hat / model.sigma2)  # 1/2
    assert np.max(np.abs(v - expect)) < 0.05
    oracle = gaussian_posterior(model, 1.0)
    assert expect < oracle.v_star  # MF is overconfident

    # exact-KL ordering: MF objective at its own minimizer dominates the TAP
    # objective at the TAP minimizer
    tap_trace = ngd_run(model, g, warm, NGDConfig(grad_tol=1e-12))
    f_mf = mf_energy(model, trace.final)
    f_tap = tap_energy(model, tap_trace.final)
    assert f_mf >= f_tap


def test_config_validation():
    with pytest.raises(ValueError):
        NGDConfig(grad_tol=0.0)
    with pytest.raises(ValueError):
        NGDConfig(grad_tol=float("nan"))
    with pytest.raises(ValueError):
        NGDConfig(max_iters=0)
    assert NGDConfig(max_iters=1).max_iters == 1
    assert NGDConfig(objective=Objective.MF).objective is Objective.MF


@pytest.mark.parametrize("objective, energy", [(Objective.TAP, "tap_energy"),
                                               (Objective.MF, "mf_energy")])
def test_one_tilt_per_candidate(tp, monkeypatch, objective, energy):
    # each candidate's tilt yields its moments and its logZ; the energy
    # reads the logZ from the state instead of tilting again
    rng = np.random.default_rng(3)
    model, _ = make_model(rng, 150, 200, tp)
    _, warm = amp_run(model, tp, 8)
    tilts, energies = [0], [0]

    def counted(counter, fn):
        def wrapped(*args, **kwargs):
            counter[0] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(kernels, "tilted_stats", counted(tilts, kernels.tilted_stats))
    monkeypatch.setattr(ngd, energy, counted(energies, getattr(ngd, energy)))
    trace = ngd_run(model, tp, warm, NGDConfig(max_iters=300, objective=objective))
    assert trace.iterations > 10
    assert tilts[0] == energies[0] - 1  # the start point is not tilted again


def test_state_logz_is_the_tilt_of_its_duals(tp):
    rng = np.random.default_rng(4)
    model, _ = make_model(rng, 120, 150, tp)
    _, warm = amp_run(model, tp, 8)
    final = ngd_run(model, tp, warm, NGDConfig(max_iters=50)).final
    dual = VariationalState.from_duals(tp, rng.uniform(-2, 2, 150),
                                       rng.uniform(-2, 2, 150))
    moments = VariationalState.from_moments(tp, dual.m, dual.s)
    for state in (dual, moments, warm, final):
        assert np.array_equal(state.logZ,
                              tilted_moments_vec(tp, state.lam, state.gam)[2])


@pytest.fixture(scope="module")
def warm3(tp):
    rng = np.random.default_rng(3)
    model, _ = make_model(rng, 150, 200, tp)
    _, warm = amp_run(model, tp, 8)
    return model, warm


def test_step_carries_over_and_doubles_at_most(tp, warm3):
    # the first line search tries ngd.FIRST_STEP; later ones start from the
    # last accepted step, doubled (capped at 1) after a first-try accept
    model, warm = warm3
    for objective in Objective:
        cfg = NGDConfig(objective=objective)
        trace = ngd_run(model, tp, warm, cfg)
        steps = np.array(trace.steps_used[:-1])  # the last entry is the 0.0 stop
        assert trace.converged and np.all(steps > 0)
        assert steps[0] <= ngd.FIRST_STEP
        assert np.all(steps <= 1.0)
        assert np.all(steps[1:] <= 2.0 * steps[:-1])
        assert np.max(steps) > ngd.FIRST_STEP  # the step grew
        assert np.all(np.diff(trace.f_values) <= 0.0)
        if objective is Objective.MF:
            # a fixed 0.2 step took 728 iterations here; the carried step 190
            assert trace.iterations <= 300


def test_stop_reason_and_backtracks(tp, warm3, monkeypatch):
    model, warm = warm3
    capped = ngd_run(model, tp, warm, NGDConfig(max_iters=3))
    assert capped.stop_reason is StopReason.MAX_ITERS
    assert not capped.converged and capped.iterations == 3

    energies = [0]

    def counted(*args):
        energies[0] += 1
        return tap_energy(*args)

    monkeypatch.setattr(ngd, "tap_energy", counted)
    trace = ngd_run(model, tp, warm, NGDConfig())
    assert trace.stop_reason is StopReason.CONVERGED and trace.converged
    accepted = sum(1 for s in trace.steps_used if s > 0)
    assert trace.backtracks == energies[0] - 1 - accepted
    assert trace.backtracks > 0  # the carried step overshoots now and then

    # every candidate's energy is higher: 60 halvings, then the step floor
    f0 = tap_energy(model, warm)
    monkeypatch.setattr(ngd, "tap_energy",
                        lambda m, state, resid=None: f0 if state is warm else f0 + 1.0)
    floor = ngd_run(model, tp, warm, NGDConfig())
    assert floor.stop_reason is StopReason.STEP_FLOOR and not floor.converged
    assert floor.steps_used.tolist() == [0.0] and floor.backtracks == 60


def test_each_candidate_multiplies_by_x_once(tp, warm3, monkeypatch):
    # y - X m is formed once per candidate for its energy, and the accepted
    # candidate's goes on to its gradient, which multiplies only by X'
    model, warm = warm3
    cfg = NGDConfig(max_iters=300, objective=Objective.MF)
    reference = ngd_run(model, tp, warm, cfg)
    products = {"X m": 0, "X' r": 0}

    class Counted(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul and isinstance(inputs[0], Counted):
                products["X m" if inputs[0].shape == (model.n, model.p) else "X' r"] += 1
            inputs = [x.view(np.ndarray) if isinstance(x, Counted) else x for x in inputs]
            return getattr(ufunc, method)(*inputs, **kwargs)

    counted = LinearModel(X=model.X, y=model.y, sigma2=model.sigma2)
    object.__setattr__(counted, "X", model.X.view(Counted))
    calls = {"mf_energy": 0, "mf_gradient": 0}
    for name in calls:
        def wrapped(*args, name=name, fn=getattr(ngd, name)):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(ngd, name, wrapped)
    trace = ngd_run(counted, tp, warm, cfg)
    assert trace.iterations > 10 and trace.backtracks > 0
    assert products == {"X m": calls["mf_energy"], "X' r": calls["mf_gradient"]}
    assert np.array_equal(trace.f_values, reference.f_values)
    assert np.array_equal(trace.final.m, reference.final.m)


def test_flat_energy_stops_at_the_step_floor(tp, warm3):
    # past float64 resolution every candidate's energy equals the current one;
    # such a candidate is rejected, so the run ends at the step floor instead
    # of taking steps that change nothing until max_iters
    model, warm = warm3
    trace = ngd_run(model, tp, warm, NGDConfig(grad_tol=1e-300, max_iters=3000))
    assert trace.stop_reason is StopReason.STEP_FLOOR and not trace.converged
    assert trace.iterations < 3000
    assert np.all(np.diff(trace.f_values) < 0.0)


@pytest.mark.parametrize("delta", [0.6, 1.0, 1.4])
@pytest.mark.parametrize("desc", ["three-point", "bernoulli-gaussian:0.5,1.0"])
def test_newton_reaches_the_ngd_minimizer(desc, delta):
    model, prior, warm = warm_start(0.3, delta, desc)
    newton = newton_run(model, prior, warm, NGDConfig(objective=Objective.TAP))
    reference = ngd_run(model, prior, warm, NGDConfig(objective=Objective.TAP))
    assert newton.converged and reference.converged
    assert newton.iterations <= 8  # NGD takes 74-175 on these six
    assert np.all(np.diff(newton.f_values) <= 0.0)
    assert np.max(np.abs(newton.final.m - reference.final.m)) <= 1e-4
    assert newton.hessian_matvecs > 0 and reference.hessian_matvecs == 0


def test_negative_curvature_takes_the_ngd_direction(tp, warm3, monkeypatch):
    # with K = -2D, (I + K C) q = -q: CG meets (Cq)'Aq = -q'Cq <= 0 on its
    # first direction, so the dual step is NGD's own, tried from the full step
    model, warm = warm3
    monkeypatch.setattr(ngd, "_k_product", lambda model, state, tap: lambda v, out:
                        -2.0 * _apply_blocks(_entropy_hessian_blocks(tp, state)[0], v))
    first = newton_run(model, tp, warm, NGDConfig(max_iters=1))
    step = first.steps_used[0]
    gm, gs = tap_gradient(model, warm)
    assert step > 0 and first.hessian_matvecs == first.curvature_breaks == 1
    assert np.array_equal(first.final.lam, warm.lam - step * gm)
    assert np.array_equal(first.final.gam, warm.gam + 2.0 * step * gs)
    trace = newton_run(model, tp, warm, NGDConfig(max_iters=30))
    assert trace.hessian_matvecs == trace.curvature_breaks == trace.iterations == 30
    assert np.all(np.diff(trace.f_values) < 0.0)


def test_candidates_outside_the_dual_cap_are_clipped(monkeypatch):
    # with the cap just above the warm start's largest dual, the mean-field
    # descent pushes candidates past it: each is clipped onto the cap and
    # still has to lower the energy to be accepted
    model, prior, warm = warm_start(0.3, 1.0)
    cap = 1.05 * max(np.abs(warm.lam).max(), np.abs(warm.gam).max())
    monkeypatch.setattr(ngd, "DUAL_CAP", cap)
    trace = newton_run(model, prior, warm, NGDConfig(objective=Objective.MF, max_iters=200))
    assert trace.clip_events > 0
    assert np.abs(trace.final.lam).max() <= cap and np.abs(trace.final.gam).max() <= cap
    assert np.all(np.diff(trace.f_values) < 0.0)


def d_form_newton_step(model, prior, state, g):
    """D z, with z from CG on H z = g preconditioned by C = D^-1, stopped as
    ``_newton_direction`` stops on TAP; and the number of products with H."""
    blocks, cov = _entropy_hessian_blocks(prior, state)
    tol = min(ngd.TAP_FORCING_MAX, np.sqrt(np.linalg.norm(g))) * np.linalg.norm(g)
    z, r = np.zeros_like(g), g.copy()
    d = _apply_blocks(cov, r)
    ry = r @ d
    for k in range(1, ngd.CG_ITERS_PER_COORDINATE * model.p + 1):
        Hd = tap_hessian_matvec(model, state, prior, d)
        alpha = ry / (d @ Hd)
        z += alpha * d
        r -= alpha * Hd
        if np.linalg.norm(r) <= tol:
            break
        y = _apply_blocks(cov, r)
        ry, ry_prev = r @ y, ry
        d = y + (ry / ry_prev) * d
    return _apply_blocks(blocks, z), k


@pytest.mark.parametrize("steps", [0, 4])
@pytest.mark.parametrize("delta", [0.6, 1.0])
def test_covariance_metric_step_is_the_d_form_newton_step(delta, steps):
    # (I + K C) u = g in the C inner product builds the Krylov iterates of
    # C-preconditioned CG on H z = g, with u = D z: at the warm start CG takes
    # 7 products at delta = 0.6 and 12 at 1.0, after 4 Newton steps 16 and 22
    model, prior, state = warm_start(0.3, delta)
    if steps:
        state = newton_run(model, prior, state, NGDConfig(max_iters=steps)).final
    gm, gs = tap_gradient(model, state)
    trace = ngd.NGDTrace()
    u = np.concatenate(ngd._newton_direction(model, prior, state, gm, gs, True, trace))
    reference, matvecs = d_form_newton_step(model, prior, state, np.concatenate([gm, gs]))
    assert np.linalg.norm(u - reference) <= 1e-10 * np.linalg.norm(reference)
    assert trace.hessian_matvecs == matvecs


@pytest.mark.parametrize("objective, newton_steps", [(Objective.TAP, 0), (Objective.MF, 13)],
                         ids=["tap", "mf"])
def test_cg_stops_at_the_first_step_that_meets_its_objectives_cap(monkeypatch, objective,
                                                                  newton_steps):
    # CG stops once ||r|| <= min(cap, sqrt(||g||)) ||g||, with the cap 0.02 on
    # TAP and 0.5 on mean-field.  Each residual that misses the rule goes on to
    # C r, so a wrapped _apply_blocks records g and every residual before the
    # last; the last is the residual of the returned direction.  TAP at the
    # warm start takes 14 products; mean-field 13 Newton steps past its
    # handover takes 8, with residuals that rise before they fall
    model, prior, state = warm_start(0.3, 1.4)
    tap = objective is Objective.TAP
    if newton_steps:
        cfg = NGDConfig(objective=objective)
        handover = newton_run(model, prior, state, cfg).ngd_iterations
        cfg = NGDConfig(objective=objective, max_iters=handover + newton_steps)
        state = newton_run(model, prior, state, cfg).final
    gm, gs = tap_gradient(model, state) if tap else mf_gradient(model, state)
    g = np.concatenate([gm, gs])
    apply_blocks = ngd._apply_blocks
    residuals = []

    def recording(blocks, v, out=None):
        residuals.append(np.linalg.norm(v))
        return apply_blocks(blocks, v, out)

    monkeypatch.setattr(ngd, "_apply_blocks", recording)
    trace = ngd.NGDTrace()
    u = np.concatenate(ngd._newton_direction(model, prior, state, gm, gs, tap, trace))
    cov = tilted_cov_vec(prior, state.lam, state.gam)
    Ku = _k_product(model, state, tap)(_apply_blocks(cov, u), np.empty(2 * model.p))
    last = np.linalg.norm(u + Ku - g)
    g_norm = np.linalg.norm(g)
    cap, other = ((ngd.TAP_FORCING_MAX, ngd.MF_FORCING_MAX) if tap
                  else (ngd.MF_FORCING_MAX, ngd.TAP_FORCING_MAX))
    assert np.sqrt(g_norm) > max(cap, other)  # the caps, not sqrt(||g||), set the rule
    assert len(residuals) == trace.hessian_matvecs
    assert residuals[0] == g_norm and min(residuals) > cap * g_norm >= last
    if tap:  # the mean-field rule would have stopped earlier
        assert min(residuals) <= other * g_norm
    else:  # and the TAP rule later
        assert last > other * g_norm


@pytest.mark.parametrize("delta", [1.0, 1.4])
def test_newton_step_where_the_covariance_is_singular(delta):
    # at sigma = 0.1 most tilted laws sit on one or two atoms, so D = C^-1 does
    # not exist there; on those coordinates I + K C is the identity plus
    # coupling, and the completed step solves their equations
    model, prior, warm = warm_start(0.1, delta)
    g = np.concatenate(tap_gradient(model, warm))
    c11, c12, c22 = cov = tilted_cov_vec(prior, warm.lam, warm.gam)
    collapsed = c11 * c22 - c12 * c12 <= 0
    assert collapsed.sum() > model.p // 2
    collapsed = np.tile(collapsed, 2)
    trace = ngd.NGDTrace()
    u = np.concatenate(ngd._newton_direction(model, prior, warm, g[:model.p], g[model.p:],
                                             True, trace))
    Ku = _k_product(model, warm, True)(_apply_blocks(cov, u), np.empty(2 * model.p))
    residual = u + Ku - g
    assert trace.hessian_matvecs > 0
    assert g @ _apply_blocks(cov, u) > 0  # a descent direction
    assert np.linalg.norm(residual[collapsed]) <= 1e-10 * np.linalg.norm(g)


@pytest.mark.parametrize("objective, sigma, delta", [
    (Objective.TAP, 0.3, 1.0), (Objective.TAP, 0.1, 0.8),
    (Objective.MF, 0.3, 1.0), (Objective.MF, 0.1, 0.6),
], ids=["tap", "tap-collapsed", "mf", "mf-collapsed"])
def test_cg_products_are_the_hessian_matvec(monkeypatch, objective, sigma, delta):
    # CG forms the K product's constants once per direction and reuses its
    # buffers across products; each product it takes is that of a fresh
    # K product at its state into a fresh buffer, bit for bit, also where
    # tilted laws have collapsed (det C <= 0)
    model, prior, warm = warm_start(sigma, delta)
    tap = objective is Objective.TAP
    k_product = ngd._k_product
    seen = []

    def recording(model, state, tap):
        product = k_product(model, state, tap)

        def record(v, out):
            v_in = v.copy()
            seen.append((state, v_in, product(v, out).copy()))
            return out
        return record

    monkeypatch.setattr(ngd, "_k_product", recording)
    trace = newton_run(model, prior, warm, NGDConfig(objective=objective))
    assert len(seen) == trace.hessian_matvecs >= 10
    for state, v, got in seen:
        assert np.array_equal(got, k_product(model, state, tap)(v, np.empty(2 * model.p)))
    if sigma == 0.1:
        c11, c12, c22 = tilted_cov_vec(prior, seen[-1][0].lam, seen[-1][0].gam)
        assert np.sum(c11 * c22 - c12 * c12 <= 0) > model.p // 2


def test_low_noise_mf_fit_takes_newton_steps():
    # sigma = 0.1, delta = 0.6: C is singular on most coordinates at the
    # handover state, and Newton still finishes the fit in NGD's basin
    model, prior, warm = warm_start(0.1, 0.6)
    newton = newton_run(model, prior, warm, NGDConfig(objective=Objective.MF))
    reference = ngd_run(model, prior, warm, NGDConfig(objective=Objective.MF))
    assert newton.converged and reference.converged
    assert newton.hessian_matvecs > 0 and newton.ngd_iterations < newton.iterations
    assert np.all(np.diff(newton.f_values) < 0.0)
    assert newton.f_values[-1] <= reference.f_values[-1]
    assert np.max(np.abs(newton.final.m - reference.final.m)) <= 1e-2


def test_newton_runs_ngd_first_on_mf_only(tp, warm3, monkeypatch):
    # a TAP fit is Newton from the start; a mean-field fit takes NGD's
    # directions in the same loop, without calling ngd_run, until a curvature
    # probe passes or ||g||^2/p < MF_NEWTON_ENTRY_GRAD, then Newton's
    model, warm = warm3
    calls = []
    monkeypatch.setattr(ngd, "ngd_run", lambda *args: calls.append(args))
    tap = newton_run(model, tp, warm, NGDConfig())
    assert tap.ngd_iterations == 0 and tap.hessian_matvecs > 0
    cfg = NGDConfig(objective=Objective.MF)
    mf = newton_run(model, tp, warm, cfg)
    assert calls == []
    k = mf.ngd_iterations  # the iterate where it switched takes Newton's step
    assert 0 < k < mf.iterations and mf.hessian_matvecs > 0
    assert min(mf.grad_norm_sq_per_p[:k]) >= ngd.MF_PROBE_GRADS[-1] > ngd.MF_NEWTON_ENTRY_GRAD
    assert mf.grad_norm_sq_per_p[k] < ngd.MF_PROBE_GRADS[0]
    assert mf.converged and mf.grad_norm_sq_per_p[-1] < cfg.grad_tol
    assert np.all(np.diff(mf.f_values) < 0.0)


def test_mf_newton_within_max_iters_and_ngd_stops_as_is(tp, warm3):
    model, warm = warm3
    full = newton_run(model, tp, warm, NGDConfig(objective=Objective.MF))
    capped = newton_run(model, tp, warm,
                        NGDConfig(objective=Objective.MF, max_iters=full.ngd_iterations + 1))
    assert capped.stop_reason is StopReason.MAX_ITERS and not capped.converged
    assert capped.iterations == full.ngd_iterations + 1
    assert np.array_equal(capped.f_values, full.f_values[:len(capped.f_values)])
    # NGD's phase hits the cap: its trace is the fit's, Newton never runs
    early = NGDConfig(objective=Objective.MF, max_iters=5)
    stopped = newton_run(model, tp, warm, early)
    reference = ngd_run(model, tp, warm, early)
    assert stopped.stop_reason is StopReason.MAX_ITERS and stopped.hessian_matvecs == 0
    assert np.array_equal(stopped.f_values, reference.f_values) and stopped.iterations == 5


@pytest.mark.parametrize("grad_tol", [1e-6, 1e-4, 1e-2])
def test_mf_newton_is_ngd_above_the_entry_gradient(tp, warm3, grad_tol):
    # a mean-field fit is ngd_run's, bit for bit, until a curvature probe
    # passes.  Here the probe at the 1e-3 gate meets negative curvature, which
    # changes only the matvec count, and the one at 1e-4 passes: a fit that
    # stops at 1e-4 or above is ngd_run's whole, and one that stops above
    # 1e-3 probes nothing
    model, warm = warm3
    cfg = NGDConfig(objective=Objective.MF, grad_tol=grad_tol)
    newton = newton_run(model, tp, warm, cfg)
    reference = ngd_run(model, tp, warm, cfg)
    assert newton.converged
    k = newton.ngd_iterations
    assert np.array_equal(newton.f_values[:k + 1], reference.f_values[:k + 1])
    assert np.array_equal(newton.steps_used[:k], reference.steps_used[:k])
    assert (newton.hessian_matvecs > 0) == (grad_tol < ngd.MF_PROBE_GRADS[0])
    if grad_tol < ngd.MF_PROBE_GRADS[1]:  # switched to Newton at the 1e-4 gate
        assert ngd.MF_PROBE_GRADS[2] <= newton.grad_norm_sq_per_p[k] < ngd.MF_PROBE_GRADS[1]
        assert newton.iterations < reference.iterations
        return
    for name in ("f_values", "grad_norm_sq_per_p", "steps_used"):
        assert np.array_equal(getattr(newton, name), getattr(reference, name))
    for name in ("iterations", "ngd_iterations", "backtracks", "clip_events", "stop_reason"):
        assert getattr(newton, name) == getattr(reference, name)
    for name in ("m", "s", "lam", "gam", "logZ"):
        assert np.array_equal(getattr(newton.final, name), getattr(reference.final, name))


def test_tap_newton_counts_its_curvature_breaks():
    # three-point, n = 300: at sigma = 0.2 TAP's CG meets non-positive
    # curvature past its first step in 3 directions of the fit at delta = 1,
    # replicate 0, and 18 times over the sweep's 20 TAP fits (5 deltas, 4
    # replicates); at sigma = 0.3 it meets none
    def breaks(sigma, deltas, replicates):
        cfg = ExperimentConfig(prior_descriptor="three-point", n=300, sigma=sigma)
        prior = cfg.prior()
        traces = [fit_free_energy(generate_instance(cfg, rep, delta)[0], prior, cfg,
                                  Objective.TAP, delta=delta)
                  for delta in deltas for rep in range(replicates)]
        assert all(trace.converged for trace in traces)
        return sum(trace.curvature_breaks for trace in traces)

    assert breaks(0.2, [1.0], 1) == 3
    assert breaks(0.3, [1.0], 1) == 0
    assert breaks(0.2, ExperimentConfig().delta_grid, 4) == 18


def test_mf_fit_where_every_probe_fails_switches_at_the_entry_gradient(tp, warm3, monkeypatch):
    # with K = -2D every CG curvature is negative, so each gate's probe fails
    # on its first direction: the fit follows ngd_run until ||g||^2/p falls
    # below MF_NEWTON_ENTRY_GRAD and switches only there
    model, warm = warm3
    cfg = NGDConfig(objective=Objective.MF)
    reference = ngd_run(model, tp, warm, cfg)
    monkeypatch.setattr(ngd, "_k_product", lambda model, state, tap: lambda v, out:
                        -2.0 * _apply_blocks(_entropy_hessian_blocks(tp, state)[0], v))
    trace = newton_run(model, tp, warm, cfg)
    k = trace.ngd_iterations
    assert k < trace.iterations and trace.converged
    assert min(trace.grad_norm_sq_per_p[:k]) >= ngd.MF_NEWTON_ENTRY_GRAD
    assert trace.grad_norm_sq_per_p[k] < ngd.MF_NEWTON_ENTRY_GRAD
    assert np.array_equal(trace.f_values[:k + 1], reference.f_values[:k + 1])
    assert np.array_equal(trace.steps_used[:k], reference.steps_used[:k])
    # one product per Newton iteration, and one per failed probe: here each
    # gate is first crossed at an iterate of its own
    newton_iterations = trace.iterations - 1 - k  # the last record takes no step
    assert trace.hessian_matvecs - newton_iterations == len(ngd.MF_PROBE_GRADS)
    # every Newton direction broke on its first step; a failed probe is no break
    assert trace.curvature_breaks == newton_iterations


# three-point, sigma = 0.3, master seed 0: at n = 300, handing over to Newton
# at ||g||^2/p < 1e-3 without a probe moves the first four to another
# minimizer (max|dm| 0.84-0.91), and the fifth is where gates from 1e-2 were
# seen to move one; at n = 500 (test_6's sweep), a probe held for 10 CG steps
# instead of PROBE_CG_ITERS = 20 moves the sixth (max|dm| 0.91, dF -1.64)
@pytest.mark.parametrize("n, delta, replicate", [(300, 0.8, 14), (300, 0.8, 15),
                                                 (300, 0.8, 19), (300, 1.0, 2),
                                                 (300, 0.6, 7), (500, 1.0, 1)])
def test_gated_mf_handover_keeps_the_ngd_minimizer(n, delta, replicate):
    cfg = ExperimentConfig(sigma=0.3, n=n, seed=0, replicates=replicate + 1)
    prior = cfg.prior()
    model, _ = generate_instance(cfg, replicate, delta)
    _, warm = amp_run(model, prior, AMP_WARM_ITERS, delta=delta)
    newton = newton_run(model, prior, warm, cfg.ngd_config(Objective.MF))
    reference = ngd_run(model, prior, warm, cfg.ngd_config(Objective.MF))
    assert newton.converged and reference.converged
    assert newton.ngd_iterations < reference.iterations
    assert newton.f_values[-1] <= reference.f_values[-1]
    assert np.max(np.abs(newton.final.m - reference.final.m)) <= 1e-2


@pytest.mark.parametrize("objective", [Objective.TAP, Objective.MF])
def test_newton_directions_read_the_covariances_of_their_iterate(tp, warm3, monkeypatch,
                                                                objective):
    # a Newton candidate is tilted with its covariances, and an accepted one
    # carries them to the next direction; a direction tilts them itself only
    # where the fit enters Newton: TAP's first step and each mean-field probe
    # (here the probe at the 1e-3 gate fails and the one at 1e-4 passes)
    model, warm = warm3
    newton_direction = ngd._newton_direction
    received = []

    def spy(model, prior, state, *args, **kwargs):
        received.append((state, kwargs.get("cov")))
        return newton_direction(model, prior, state, *args, **kwargs)

    monkeypatch.setattr(ngd, "_newton_direction", spy)
    trace = newton_run(model, tp, warm, NGDConfig(objective=objective))
    assert trace.converged
    tilted_here = [cov is None for _, cov in received]
    entries = tilted_here.index(False)  # the calls before the first carried one
    assert entries == (1 if objective is Objective.TAP else 2)
    assert not any(tilted_here[entries:]) and len(received) - entries >= 2
    for state, cov in received[entries:]:
        assert np.array_equal(cov, tilted_cov_vec(tp, state.lam, state.gam))


@pytest.mark.parametrize("delta", [0.6, 1.0, 1.4])
@pytest.mark.parametrize("desc", ["three-point", "bernoulli-gaussian:0.5,1.0"])
def test_mf_newton_finish_keeps_the_ngd_minimizer(desc, delta):
    # NGD chooses the mean-field basin; Newton only finishes the fit there
    model, prior, warm = warm_start(0.3, delta, desc)
    newton = newton_run(model, prior, warm, NGDConfig(objective=Objective.MF))
    reference = ngd_run(model, prior, warm, NGDConfig(objective=Objective.MF))
    assert newton.converged and reference.converged
    assert np.all(np.diff(newton.f_values) < 0.0)
    assert newton.f_values[-1] <= reference.f_values[-1]
    assert np.max(np.abs(newton.final.m - reference.final.m)) <= 1e-2
    assert newton.iterations < reference.iterations
