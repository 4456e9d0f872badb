import math
import tracemalloc
import warnings

import numpy as np
import pytest

from taplab import kernels, scalar
from taplab.exceptions import DegenerateTiltError
from taplab.experiments import ExperimentConfig, fit_free_energy, generate_instance
from taplab.free_energy import VariationalState
from taplab.ngd import Objective
from taplab.priors import (
    _gauss_hermite_standard_normal,
    bernoulli_gaussian,
    gaussian_prior,
    parse_prior,
    three_point,
)
from taplab.scalar import DUAL_CAP, DUAL_RESIDUAL_TOL, channel_terms


@pytest.fixture(scope="module")
def batch():
    tp = three_point()
    rng = np.random.default_rng(0)
    lam = rng.uniform(-6, 6, 500)
    gam = rng.uniform(-6, 6, 500)
    return tp._tilt_basis, tp._tilt_powers, lam, gam


def test_tilted_stats_reference_values(batch):
    basis, powers, _, _ = batch
    m, s, logZ, (c11, c12, c22) = kernels.tilted_stats(
        basis, powers, np.array([0.0]), np.array([0.0]), cov=True)
    assert m[0] == pytest.approx(0.0, abs=1e-15)
    assert s[0] == pytest.approx(2.0 / 3.0)
    assert logZ[0] == pytest.approx(0.0, abs=1e-15)
    # cov of (beta, beta^2) under uniform{-1,0,1}: var(beta)=2/3,
    # cov(beta,beta^2)=0, var(beta^2)=2/3-4/9=2/9
    assert c11[0] == pytest.approx(2.0 / 3.0)
    assert c12[0] == pytest.approx(0.0, abs=1e-15)
    assert c22[0] == pytest.approx(2.0 / 9.0)


WIDE_PRIORS = [pytest.param(bernoulli_gaussian(0.5, 1.0), id="bg"),
               pytest.param(gaussian_prior(1.0), id="gauss")]


def _tilt_rows(prior, lam, gam):
    """(6, rows): m, s, logZ and the covariance rows of one covariance tilt."""
    m, s, logZ, c = kernels.tilted_stats(prior._tilt_basis, prior._tilt_powers, lam, gam,
                                         cov=True, bound=prior._tilt_bound)
    return np.vstack([m, s, logZ, c])


SEVERAL_BLOCKS = 3 * kernels.BLOCK_ROWS + 7  # the last one partial


@pytest.mark.parametrize("prior, n", [
    pytest.param(prior, n, id=name if n == SEVERAL_BLOCKS else f"{name}-{n}")
    for name, prior in (("3pt", three_point()), ("bg", bernoulli_gaussian(0.5, 1.0)),
                        ("gauss", gaussian_prior(1.0)))
    for n in (1, 214, kernels.BLOCK_ROWS, SEVERAL_BLOCKS)])
def test_blocks_match_rows_tilted_one_at_a_time(prior, n):
    # batches of one block, the size of a descent's tilts, and of several:
    # every row has the bits it has when tilted alone
    rng = np.random.default_rng(5)
    lam = rng.uniform(-4, 4, n)
    gam = rng.uniform(-1, 4, n)
    batch = _tilt_rows(prior, lam, gam)
    assert all(np.array_equal(b, c) for b, c in
               zip(kernels.tilted_stats(prior._tilt_basis, prior._tilt_powers, lam, gam,
                                        bound=prior._tilt_bound), batch))
    rows = np.array([_tilt_rows(prior, lam[i:i + 1], gam[i:i + 1]) for i in range(n)])[:, :, 0].T
    assert np.array_equal(batch, rows)


@pytest.mark.parametrize("prior", [three_point(), bernoulli_gaussian(0.5, 1.0)],
                         ids=["3pt", "bg"])
def test_prior_tilt_matrices_are_read_only_and_exact(prior):
    basis, powers, bound = prior._tilt_basis, prior._tilt_powers, prior._tilt_bound
    assert not basis.flags.writeable and not powers.flags.writeable
    # three-point is walked whole; the wide prior's bound is its own
    assert (bound is None) == (len(prior.locations) < kernels.WINDOW_MIN_ATOMS)
    assert bound is None or not bound.flags.writeable
    # the matrices built per call, from the locations and log-weights
    a = prior.locations
    ref_powers = np.array([np.ones_like(a), a, a * a])
    ref_basis = np.array([prior.log_weights, -0.5 * ref_powers[2], a]).T
    ref_bound = kernels._bound_rows(ref_basis)
    n = 3 * kernels.BLOCK_ROWS + 7
    rng = np.random.default_rng(5)
    lam = rng.uniform(-4, 4, n)
    gam = rng.uniform(-1, 4, n)
    for cov in (False, True):
        got = kernels.tilted_stats(basis, powers, lam, gam, cov=cov, bound=bound)
        ref = kernels.tilted_stats(ref_basis, ref_powers, lam, gam, cov=cov, bound=ref_bound)
        assert all(np.array_equal(g, r) for g, r in zip(got, ref))


def test_scalar_gam_is_shared_by_every_row(batch):
    basis, powers, lam, _ = batch
    for cov in (False, True):
        shared = kernels.tilted_stats(basis, powers, lam, 0.7, cov=cov)
        full = kernels.tilted_stats(basis, powers, lam, np.full_like(lam, 0.7), cov=cov)
        assert all(np.array_equal(a, b) for a, b in zip(shared, full))


def _window(prior, lam, gam):
    return kernels._atom_window(prior._tilt_bound, np.array([gam, lam], dtype=float))


def _window_reference(basis, gam_lam):
    """The atom window as the kernel first formed it: the bound's rows from
    the basis on every call, and its ends [1, gam_min, lam_min, gam_max,
    lam_max] concatenated."""
    rel = basis - basis[np.argmax(basis[:, 0])]
    rows = np.hstack([rel[:, :1], np.minimum(rel[:, 1:], 0.0), np.maximum(rel[:, 1:], 0.0)])
    ends = np.concatenate(([1.0], np.minimum.reduce(gam_lam, axis=1),
                           np.maximum.reduce(gam_lam, axis=1)))
    bound = rows @ ends
    if not math.isfinite(bound.sum()):
        return 0, len(bound)
    kept = np.flatnonzero(bound >= -kernels.WINDOW_MARGIN)
    j0, j1 = int(kept[0]), int(kept[-1]) + 1
    if j1 - j0 < 2:
        j0, j1 = (j0, j1 + 1) if j1 < len(bound) else (j0 - 1, j1)
    return j0, j1


@pytest.mark.parametrize("prior", WIDE_PRIORS + [pytest.param(parse_prior(
    "point-mass:-2,0.05;-1.5,0.05;-1,0.1;-0.5,0.1;0.7,0.3;1,0.15;1.5,0.1;2,0.1;3,0.05"),
    id="9-atoms")])
def test_atom_window_matches_its_reference(prior):
    # random blocks of fitted-looking, wide, collapsed, NaN and overflowing
    # duals: the window from the prior's bound rows is the reference's
    rng = np.random.default_rng(11)
    specials = [np.nan, np.inf, -np.inf, 1e308, -1e308, 1e200, DUAL_CAP, -DUAL_CAP]
    windows = set()
    heaviest = prior.locations[np.argmax(prior.weights)]
    for k in range(400):
        rows = int(rng.integers(1, 40))
        scale = 10.0 ** rng.uniform(-2, 5)
        gam_lam = np.array([rng.uniform(-0.1, 1, rows), rng.uniform(-1, 1, rows)]) * scale
        if k % 4 == 0:  # one special value somewhere in the block
            gam_lam[rng.integers(2), rng.integers(rows)] = specials[k // 4 % len(specials)]
        elif k % 4 == 1:  # rows collapsed onto the heaviest atom
            gam_lam[0] = 10.0 ** rng.uniform(3, 5) * rng.uniform(1, 1.01, rows)
            gam_lam[1] = gam_lam[0] * heaviest + rng.uniform(-1, 1, rows)
        with np.errstate(over="ignore", invalid="ignore"):
            got = kernels._atom_window(prior._tilt_bound, gam_lam)
            assert got == _window_reference(prior._tilt_basis, gam_lam)
        windows.add(got)
    # the blocks reach whole, partial and two-atom windows
    atoms = len(prior.locations)
    assert (0, atoms) in windows and any(j1 - j0 == 2 for j0, j1 in windows)
    assert any(2 < j1 - j0 < atoms for j0, j1 in windows)


@pytest.mark.parametrize("prior", WIDE_PRIORS)
def test_a_wider_window_leaves_a_rows_bits(prior):
    # rows of fitted states, each tilted alone over its own narrow window,
    # have the bits they have in a block whose spread of lam and gam widens
    # the window to several times as many atoms
    rng = np.random.default_rng(3)
    lam = rng.uniform(-3, 3, 30)
    gam = rng.uniform(2, 8, 30)
    wide_lam = np.concatenate([lam, [-12.0, 12.0]])
    wide_gam = np.concatenate([gam, [0.05, 0.05]])
    j0, j1 = _window(prior, wide_lam, wide_gam)
    assert len(prior.locations) >= kernels.WINDOW_MIN_ATOMS and j1 - j0 > 60
    batch = _tilt_rows(prior, wide_lam, wide_gam)
    for i in range(len(lam)):
        lo, hi = _window(prior, lam[i:i + 1], gam[i:i + 1])
        assert 2 <= hi - lo <= (j1 - j0) // 2
        assert np.array_equal(_tilt_rows(prior, lam[i:i + 1], gam[i:i + 1])[:, 0], batch[:, i])


@pytest.mark.parametrize("prior", WIDE_PRIORS + [pytest.param(parse_prior(
    "point-mass:-2,0.05;-1.5,0.05;-1,0.1;-0.5,0.1;0.7,0.3;1,0.15;1.5,0.1;2,0.1;3,0.05"),
    id="9-atoms")])
def test_a_collapsed_rows_log_partition_does_not_depend_on_its_batch(prior):
    # a row whose mass sits on the heaviest atom c is alone a window of two
    # atoms, never the one-atom product, whose log-weights can differ in the
    # last bit (so on the 9-atom prior, whose c is not 0); its log-partition
    # has the bits it has in a wide block, and its moments differ from c's
    # only by what weights below e^-WINDOW_MARGIN make up, in both
    c = prior.locations[np.argmax(prior.weights)]
    gam = np.array([1e4, 3e4, DUAL_CAP])
    lam = gam * c + np.array([0.3, -0.2, 0.0])
    wide_lam, wide_gam = np.append(lam, [-12.0, 12.0]), np.append(gam, [0.05, 0.05])
    batch = _tilt_rows(prior, wide_lam, wide_gam)
    small = np.exp(-kernels.WINDOW_MARGIN) * np.ptp(prior.locations) ** 4
    for i in range(len(lam)):
        lo, hi = _window(prior, lam[i:i + 1], gam[i:i + 1])
        assert hi - lo == 2 and c in prior.locations[lo:hi]
        alone = _tilt_rows(prior, lam[i:i + 1], gam[i:i + 1])[:, 0]
        assert alone[2] == batch[2, i]
        for row in (alone, batch[:, i]):
            assert np.all(np.abs(np.delete(row, 2) - [c, c * c, 0, 0, 0]) < small)


def _log_sum_exp_reference(prior, lam, gam):
    """(6, rows) as ``_tilt_rows``, one row at a time over every atom, in
    the closed form of the tilted law with no window and no floor."""
    a, logw = prior.locations, prior.log_weights
    out = []
    for lm, gm in zip(lam, gam):
        ell = logw - 0.5 * gm * a * a + lm * a
        top = ell.max()
        p = np.exp(ell - top)
        Z = p.sum()
        p /= Z
        m, s = p @ a, p @ (a * a)
        da, dq = a - m, a * a - s
        out.append([m, s, top + np.log(Z), p @ (da * da), p @ (da * dq), p @ (dq * dq)])
    return np.array(out).T


@pytest.mark.parametrize("prior", WIDE_PRIORS)
def test_extreme_rows_match_the_full_basis(prior):
    # rows on the dual box's edges, at tiny, huge and negative gamma, and far
    # off-centre (their mass on the outermost atoms), alone and in one batch
    lam_values = [-DUAL_CAP, -40.0, -1.5, 0.0, 0.7, 40.0, DUAL_CAP]
    gam_values = [-DUAL_CAP, -0.9, 1e-12, 0.3, 5.0, 1e4, DUAL_CAP]
    lam, gam = (np.array(x).ravel() for x in np.meshgrid(lam_values, gam_values))
    ref = _log_sum_exp_reference(prior, lam, gam)
    # a scale per row of the output: the support's width to the power each
    # moment carries, and the log-partition's size
    width = np.ptp(prior.locations)
    scale = np.array([width, width**2, 1.0, width**2, width**3, width**4])[:, None]
    scale = scale * np.vstack([np.ones((2, len(lam))), np.maximum(1.0, np.abs(ref[2])),
                               np.ones((3, len(lam)))])
    batch = _tilt_rows(prior, lam, gam)
    alone = np.hstack([_tilt_rows(prior, lam[i:i + 1], gam[i:i + 1]) for i in range(len(lam))])
    for got in (batch, alone):
        assert np.all(np.abs(got - ref) <= 1e-9 * scale)


@pytest.mark.parametrize("prior", WIDE_PRIORS)
@pytest.mark.parametrize("lam, gam, ignored", [
    (np.nan, 1.0, ()), (0.3, np.nan, ()),
    # the callers that can overflow a dual switch these off (channel_terms)
    (1e308, 0.0, ("over", "invalid")), (-1e308, 1.0, ("over", "invalid")),
    (1e200, -1e306, ("over", "invalid")),
], ids=["nan-lam", "nan-gam", "lam-overflow", "lam-overflow-neg", "gam-overflow"])
def test_a_non_finite_bound_still_raises(prior, lam, gam, ignored):
    # the window keeps every atom where its bound is not finite, so the
    # check on the log-partition still sees the NaN or overflowing row
    # among the rows of an ordinary fit, and numpy reports nothing on the way
    rng = np.random.default_rng(4)
    lams = np.append(rng.uniform(-2, 2, 20), lam)
    gams = np.append(rng.uniform(1, 4, 20), gam)
    with warnings.catch_warnings(), np.errstate(all="raise", **dict.fromkeys(ignored, "ignore")):
        warnings.simplefilter("error")
        for cov in (False, True):
            with pytest.raises(DegenerateTiltError):
                scalar.tilted_moments_vec(prior, lams, gams, cov=cov)


def _channel_reference(prior, gamma):
    """(i, mmse, E[Var^2]) of the channel, one prior atom beta0 at a time."""
    z, wz = _gauss_hermite_standard_normal(scalar.QUAD_NODES)
    a, logw = prior.locations, prior.log_weights
    info = mse = e_var2 = 0.0
    for b0, w0 in zip(a, prior.weights):
        lam = gamma * b0 + np.sqrt(gamma) * z
        ell = logw[None, :] - 0.5 * gamma * a * a + lam[:, None] * a
        top = ell.max(axis=1)
        q = np.exp(ell - top[:, None])
        Z = q.sum(axis=1)
        q /= Z[:, None]
        m = q @ a
        var = np.sum(q * (a[None, :] - m[:, None]) ** 2, axis=1)
        info += w0 * (wz @ (0.5 * gamma * b0 * b0 - top - np.log(Z)))
        mse += w0 * (wz @ (b0 - m) ** 2)
        e_var2 += w0 * (wz @ var**2)
    return info, mse, e_var2


@pytest.mark.parametrize("prior", [
    gaussian_prior(1.0), three_point(), parse_prior("bernoulli-gaussian:0.5,1.0"),
    parse_prior("point-mass:-2,0.25;-1,0.25;1,0.25;2,0.25"),  # even, symmetric
    parse_prior("point-mass:-1,0.2;0,0.5;2,0.3"),  # asymmetric: not folded
], ids=["gauss", "3pt", "bg", "even", "asym"])
def test_channel_terms_match_reference(prior):
    for gamma in (0.01, 0.1, 0.5, 1.0, 3.0, 20.0, 150.0):
        got = channel_terms(prior, gamma)
        ref = _channel_reference(prior, gamma)
        for g, r in zip(got, ref):
            assert g == pytest.approx(r, rel=1e-12, abs=0)


def test_channel_grid_follows_the_node_count(monkeypatch):
    prior = three_point()
    coarse = channel_terms(prior, 20.0)  # keeps the 61-node grid on the prior
    monkeypatch.setattr("taplab.scalar.QUAD_NODES", 201)
    got = channel_terms(prior, 20.0)
    ref = _channel_reference(prior, 20.0)
    for g, c, r in zip(got, coarse, ref):
        assert g == pytest.approx(r, rel=1e-12, abs=0)
        assert c != pytest.approx(r, rel=1e-12, abs=0)  # a stale grid would show


def test_channel_terms_tilt_the_folded_grid(monkeypatch):
    # a mirror-symmetric prior tilts half of its (atoms x nodes) rows, less
    # those of negligible weight: 1 472 of 6 161 on the 101-atom Gaussian
    rows = []

    def counting(basis, powers, lam, gam, **kwargs):
        rows.append(np.size(lam))
        return tilted_stats(basis, powers, lam, gam, **kwargs)

    tilted_stats = kernels.tilted_stats
    monkeypatch.setattr(kernels, "tilted_stats", counting)
    channel_terms(gaussian_prior(1.0), 1.0)
    assert len(rows) == 1 and rows[0] <= 1600


def test_tilt_memory_stays_within_the_row_blocks():
    # 100 000 rows x 101 atoms: 81 MB per (rows x atoms) array if it were formed
    prior = gaussian_prior(1.0)
    rng = np.random.default_rng(0)
    lam = rng.uniform(-3, 3, 100_000)
    gam = rng.uniform(0, 3, 100_000)
    tracemalloc.start()
    try:
        kernels.tilted_stats(prior._tilt_basis, prior._tilt_powers, lam, gam,
                             bound=prior._tilt_bound)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_dual_newton_roundtrip_flags(batch):
    basis, powers, lam, gam = batch
    m, s, *_ = kernels.tilted_stats(basis, powers, lam, gam)
    lam2, gam2, _, conv, res = kernels.dual_newton(basis, powers, m, s, 0.0, 0.0,
                                                   tol=1e-14, max_iter=200, cap=1e6)
    assert np.all(conv)
    assert np.max(res) < 1e-14
    assert np.max(np.abs(lam2 - lam)) < 1e-8


# A mixed batch for the vectorised Newton solve: interior targets, targets
# outside the moment space of {-1, 0, 1} (s < m^2, |m| > 1), and interior
# targets whose duals lie beyond CAP, so Newton drives gam onto the clip.
CAP = 30.0


@pytest.fixture(scope="module")
def mixed():
    tp = three_point()
    rng = np.random.default_rng(1)
    lam = rng.uniform(-4, 4, 20)
    gam = rng.uniform(-4, 4, 20)
    m, s, *_ = kernels.tilted_stats(tp._tilt_basis, tp._tilt_powers, lam, gam)
    mt = np.concatenate([m, [0.0], [0.5, 1.2, -0.4], [0.0, 0.5]])
    st = np.concatenate([s, [2.0 / 3.0], [0.2, 1.5, 0.1], [1e-12, 1.0 - 1e-12]])
    kinds = np.array(["interior"] * 21 + ["outside"] * 3 + ["clip"] * 2)
    return tp._tilt_basis, tp._tilt_powers, mt, st, kinds


def _dual_newton_row(basis, powers, mt, st, lam, gam, tol=1e-10, max_iter=200, cap=CAP):
    """One row at a time: the reference the vectorised solve must reproduce."""
    def tilt(lam, gam):
        m, s, logZ, (c11, c12, c22) = kernels.tilted_stats(basis, powers, [lam], [gam],
                                                           cov=True)
        g = -0.5 * gam * st + lam * mt - logZ[0]
        return (m[0], s[0], logZ[0], g, c11[0], c12[0], c22[0],
                np.hypot(m[0] - mt, s[0] - st))

    m, s, logZ, g, c11, c12, c22, resid = tilt(lam, gam)
    for _ in range(max_iter):
        det = c11 * c22 - c12 * c12
        if resid < tol or not (det > 0 and np.isfinite(det)):
            break
        d1 = (c22 * (mt - m) - c12 * (st - s)) / det
        d2 = (-c12 * (mt - m) + c11 * (st - s)) / det
        for h in range(60):
            lam_n = np.clip(lam + 0.5**h * d1, -cap, cap)
            gam_n = np.clip(gam - 2.0 * 0.5**h * d2, -cap, cap)
            cand = tilt(lam_n, gam_n)
            if cand[3] >= g or (resid < 1e-6 and cand[7] <= 0.5 * resid):
                progress = cand[3] > g or cand[7] < resid
                lam, gam = lam_n, gam_n
                m, s, logZ, g, c11, c12, c22, resid = cand
                break
        else:
            break
        if not progress:  # neither g rose nor the residual fell
            break
    return lam, gam, logZ, resid < tol, resid


def test_dual_newton_matches_row_reference(mixed):
    basis, powers, mt, st, _ = mixed
    for max_iter in (1, 200):
        batch = kernels.dual_newton(basis, powers, mt, st, 0.0, 0.0,
                                    tol=1e-10, max_iter=max_iter, cap=CAP)
        for i in range(len(mt)):
            lam, gam, logZ, conv, res = _dual_newton_row(basis, powers, mt[i], st[i],
                                                         0.0, 0.0, max_iter=max_iter)
            assert abs(lam - batch[0][i]) <= 1e-12
            assert abs(gam - batch[1][i]) <= 1e-12
            assert abs(logZ - batch[2][i]) <= 1e-12
            assert conv == batch[3][i]
            assert abs(res - batch[4][i]) <= 1e-12


def test_dual_newton_drops_rows_held_on_the_clip(monkeypatch):
    # a row held on the +-cap clip accepts steps that neither raise g nor
    # lower its residual; the batch drops it instead of repeating such
    # steps, and still answers every row as the one-row reference does
    tp = three_point()
    rng = np.random.default_rng(0)
    mt = rng.uniform(-1.2, 1.2, 40)
    st = rng.uniform(0.0, 1.3, 40)
    calls = [0]
    tilt = kernels.tilted_stats

    def counted(*args, **kwargs):
        calls[0] += 1
        return tilt(*args, **kwargs)

    monkeypatch.setattr(kernels, "tilted_stats", counted)
    batch = kernels.dual_newton(tp._tilt_basis, tp._tilt_powers, mt, st, 0.0, 0.0,
                                tol=1e-10, max_iter=30, cap=5.0)
    assert calls[0] <= 600  # 1734 when clipped rows ran every step
    monkeypatch.undo()
    assert np.sum(np.abs(batch[1]) == 5.0) >= 10
    for i in range(len(mt)):
        row = _dual_newton_row(tp._tilt_basis, tp._tilt_powers, mt[i], st[i], 0.0, 0.0,
                               max_iter=30, cap=5.0)
        assert row == tuple(x[i] for x in batch)


def test_dual_newton_rows_independent(mixed):
    basis, powers, mt, st, kinds = mixed
    lam, gam, logZ, conv, res = kernels.dual_newton(basis, powers, mt, st, 0.0, 0.0,
                                                    tol=1e-10, max_iter=200, cap=CAP)
    for i in range(len(mt)):
        l1, g1, z1, c1, r1 = kernels.dual_newton(basis, powers, mt[i:i + 1], st[i:i + 1],
                                                 0.0, 0.0, tol=1e-10, max_iter=200, cap=CAP)
        assert abs(l1[0] - lam[i]) <= 1e-12
        assert abs(g1[0] - gam[i]) <= 1e-12
        assert abs(z1[0] - logZ[i]) <= 1e-12
        assert c1[0] == conv[i]
        assert abs(r1[0] - res[i]) <= 1e-12
    interior = kinds == "interior"
    assert np.all(conv[interior]) and np.max(res[interior]) < 1e-10
    assert not np.any(conv[~interior])
    assert np.all(np.isfinite(res)) and np.all(res[~interior] >= 1e-10)
    assert np.all(np.abs(gam[kinds == "clip"]) == CAP)


@pytest.mark.parametrize("prior", [bernoulli_gaussian(0.5, 1.0), gaussian_prior(1.0)],
                         ids=["bg", "gauss"])
def test_dual_solve_of_a_row_alone_equals_its_row_in_a_batch(prior):
    # the dual Newton solve re-tilts ever smaller subsets of its rows, so a
    # row's answer would depend on its batch if a tilt's bits did
    rng = np.random.default_rng(11)
    lam = rng.uniform(-2, 2, 300)
    gam = rng.uniform(0.1, 4, 300)
    m, s, _ = scalar.tilted_moments_vec(prior, lam, gam)
    batch = scalar.dual_solve_vec(prior, m, s)
    assert np.all(batch[3])
    for i in range(100):
        alone = scalar.dual_solve_vec(prior, m[i:i + 1], s[i:i + 1])
        assert all(np.array_equal(a, b[i:i + 1]) for a, b in zip(alone, batch))


def test_dual_newton_iteration_cap(mixed):
    basis, powers, mt, st, kinds = mixed
    lam, gam, _, conv, res = kernels.dual_newton(basis, powers, mt, st, 0.0, 0.0,
                                                 tol=1e-10, max_iter=1, cap=CAP)
    start = np.hypot(mt - 0.0, st - 2.0 / 3.0)  # residual at the untilted start
    far = start > 0.1
    assert np.sum(far & (kinds == "interior")) >= 10
    assert not np.any(conv[far])
    assert conv[20]  # the untilted target is solved before any step


def test_from_moments_reproduces_converged_tap_states():
    # at delta=1.4 the state is ill-conditioned: the solved duals differ from
    # the NGD state's by O(1) in lam while matching its moments, so the check
    # is on the moment residual, not on recovering lam
    cfg = ExperimentConfig(n=300, seed=0, replicates=1)
    prior = cfg.prior()
    for delta in (0.6, 1.0, 1.4):
        model, _ = generate_instance(cfg, 0, delta)
        trace = fit_free_energy(model, prior, cfg, Objective.TAP, delta=delta)
        assert trace.converged
        state = trace.final
        solved = VariationalState.from_moments(prior, state.m, state.s)
        assert np.max(np.abs(solved.m - state.m)) <= 1e-12
        assert np.max(np.abs(solved.s - state.s)) <= 1e-12
        m, s, *_ = kernels.tilted_stats(prior._tilt_basis, prior._tilt_powers,
                                        solved.lam, solved.gam)
        assert np.max(np.hypot(m - solved.m, s - solved.s)) < DUAL_RESIDUAL_TOL
