"""Diffusion maps and geometric harmonics on plain numpy.

Diffusion maps use the Gaussian kernel exp(-||xi - xj||^2 / (2 eps)) with
density normalization exponent 1 (kernel divided by the product of row
densities) followed by row normalization to a Markov matrix.  Eigenpairs
come from the symmetric conjugate D^(-1/2) K D^(-1/2), so eigenvalues are
real and the trivial pair is lambda_0 = 1 with a constant eigenvector; only
the leading ones are computed, by block subspace iteration.

New points enter by Nystrom restriction; functions defined on the latent
coordinates extend back to ambient space by geometric harmonics (the
double-diffusion-maps lift) using a second, symmetric kernel on the
latent training coordinates, whose pairs above the delta cut come from the
same subspace iteration.

Each n x n stage holds one n x n array, plus for a moment its median's upper
triangle or a block of rows or two: at most 1.8 n^2 doubles for n points.
The kernel arithmetic runs in place, and select_independent builds each
fit's weights, a block of _ROWS rows at a time.  Where the arithmetic is
elementwise, blocking leaves every bit unchanged.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import NumericalFailure

__all__ = [
    "DiffusionMap",
    "GeometricHarmonics",
    "dmaps_fit",
    "select_independent",
    "nystrom_restrict",
    "gh_fit",
    "gh_extend",
]


# Block width of the subspace iteration (and the step by which gh_fit grows
# it), its stopping residual max ||S v - lambda v|| relative to the largest
# eigenvalue, and the step count after which it gives way to a full eigh.
# Under a delta cut the residual must be ten times smaller: the extension
# divides by eigenvalues down to delta sigma_0.  On a ks-dmaps lift, 1e-13
# moved the corrected coefficients 37 times as far from the full eigh's as
# a full eigh of the reordered kernel moves them; 1e-14, 3 times.
_BLOCK = 20
_EIG_TOL = 1e-13
_CUT_EIG_TOL = 1e-14
_MAX_ITERS = 100
# Rows per block of the kernel arithmetic's temporaries
_ROWS = 256
# Condition number past which an equilibrated leave-one-out normal matrix is
# not solved, and that point's fit is solved by least squares on its weighted
# design: below it one refinement step makes the solve as accurate
_COND_RESOLVE = 1e8


def _row_blocks(n, m):
    """(rows, scratch) for each block of n rows, _ROWS rows each but the last,
    which takes the remainder (up to 2 _ROWS - 1 rows): the slice, and a view
    of as many rows of one buffer that every block shares, alive while the
    caller holds its last view."""
    last = max(n // _ROWS - 1, 0) * _ROWS
    scratch = np.empty((n - last, m))
    for start in range(0, last + 1, _ROWS):
        stop = n if start == last else start + _ROWS
        yield slice(start, stop), scratch[: stop - start]


def _sq_dists(a, b):
    """||a_i - b_j||^2 as aa + bb - 2ab, built in place over the product."""
    aa = np.sum(a * a, axis=1)
    bb = np.sum(b * b, axis=1)
    d = a @ b.T
    for rows, tmp in _row_blocks(*d.shape):
        block = d[rows]
        block *= 2.0
        np.subtract(np.add(aa[rows, None], bb, out=tmp), block, out=block)
    np.maximum(d, 0.0, out=d)
    return d


def _upper_median(d2, g=None):
    """Median of g (increasing; the identity by default) over the entries
    above the diagonal of the square matrix d2, as np.median gives it: the
    mean of g at the two middle order statistics, which one partition finds.
    """
    upper = np.concatenate([row[i + 1 :] for i, row in enumerate(d2[:-1])])
    half = upper.size // 2
    kth = [half] if upper.size % 2 else [half - 1, half]
    upper.partition(kth)
    lo, hi = upper[kth[0]], upper[half]
    if g is not None:
        lo, hi = g(lo), g(hi)
    return (lo + hi) / 2


def _gaussian(d2, epsilon):
    """exp(-d2 / (2 epsilon)), overwriting the squared distances d2."""
    np.divide(d2, -2.0 * epsilon, out=d2)
    return np.exp(d2, out=d2)


@dataclass(frozen=True)
class DiffusionMap:
    """Fitted diffusion map: eigenpairs plus what Nystrom restriction needs.

    eigenvectors columns are the phi_i, sorted by descending eigenvalue,
    sign-fixed so the first entry of visible magnitude is positive.
    kept_indices is filled by select_independent (column indices into
    eigenvectors, never 0).
    """

    epsilon: float
    alpha_density: float
    train_points: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)
    point_density: np.ndarray = field(repr=False)
    kept_indices: tuple = ()

    @property
    def n_train(self):
        return self.train_points.shape[0]

    @property
    def n_pairs(self):
        return self.eigenvalues.shape[0]

    def coordinates(self):
        """Latent coordinate block: the kept columns."""
        if len(self.kept_indices) == 0:
            raise ValueError("no coordinate indices selected")
        return self.eigenvectors[:, list(self.kept_indices)]


def _fix_signs(vecs):
    out = vecs.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        big = np.abs(col) > 1e-12 * np.max(np.abs(col))
        first = np.argmax(big)
        if col[first] < 0:
            out[:, j] = -col
    return out


def _leading_eigh(sym, k=None, cut=None):
    """Leading eigenpairs of a symmetric positive semi-definite matrix, by
    descending eigenvalue: the k leading ones, or, given cut instead of k,
    every one above cut times the largest eigenvalue sigma_0.

    Block subspace iteration from a seeded random block (Halko, Martinsson
    and Tropp, SIAM Review 2011): each step multiplies the block by sym,
    takes the Rayleigh-Ritz pairs on it and orthonormalizes by one QR.  It
    stops once every wanted pair has max ||S v - lambda v|| < _EIG_TOL *
    sigma_0.  Under a cut the wanted pairs are those above it and the first
    one below, which fixes where the cut falls, and the bound is
    _CUT_EIG_TOL.  The i-th Ritz value is at most the i-th eigenvalue, so
    while fewer than _BLOCK // 2 Ritz values lie below the cut the block is
    too small to hold it with a margin, and it grows by _BLOCK fresh random
    columns.  A full eigh serves instead when the block is not much smaller
    than the matrix, or when the iteration has not converged in _MAX_ITERS
    steps.
    """
    n = sym.shape[0]
    block = _BLOCK
    tol = _EIG_TOL if cut is None else _CUT_EIG_TOL
    if n >= 10 * block and (cut is not None or k < block):
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((n, block)))
        for _ in range(_MAX_ITERS):
            z = sym @ q
            theta, u = np.linalg.eigh(q.T @ z)
            theta, u = theta[::-1], u[:, ::-1]
            v, z = q @ u, z @ u
            if cut is not None:
                k = int(np.count_nonzero(theta > cut * theta[0]))
                if block - k < _BLOCK // 2:
                    block += _BLOCK
                    if n < 10 * block:
                        break
                    q, _ = np.linalg.qr(np.hstack([z, rng.standard_normal((n, _BLOCK))]))
                    continue
            wanted = k + (cut is not None)
            res = np.linalg.norm(z[:, :wanted] - v[:, :wanted] * theta[:wanted], axis=0)
            if np.max(res) < tol * theta[0]:
                return theta[:k], v[:, :k]
            q, _ = np.linalg.qr(z)
    eigvals, eigvecs = np.linalg.eigh(sym)
    order = np.argsort(eigvals)[::-1]
    if cut is not None:
        k = int(np.count_nonzero(eigvals[order] > cut * eigvals[order[0]]))
    order = order[:k]
    return eigvals[order], eigvecs[:, order]


def dmaps_fit(points, epsilon=None, n_eigs=10):
    """Fit a diffusion map; epsilon defaults to the median squared distance.

    Returns n_eigs + 1 eigenpairs including the trivial one.  Raises
    NumericalFailure when the kernel is disconnected at this epsilon.
    """
    x = np.asarray(points, dtype=float)
    if x.ndim != 2 or x.shape[0] < 3:
        raise ValueError("points must be (n, d) with n >= 3")
    if n_eigs < 1 or n_eigs >= x.shape[0] - 1:
        raise ValueError("n_eigs must be in [1, n_points - 2]")
    d2 = _sq_dists(x, x)
    if epsilon is None:
        epsilon = float(_upper_median(d2))
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")

    a = _gaussian(d2, epsilon)
    p = a.sum(axis=1)
    if np.any(p - 1.0 < 1e-14):
        raise NumericalFailure(
            "kernel is disconnected: some point sees no neighbors; increase epsilon"
        )
    # a becomes the symmetric conjugate D^(-1/2) K D^(-1/2) in place
    for rows, tmp in _row_blocks(*a.shape):
        a[rows] /= np.outer(p[rows], p, out=tmp)
    del tmp  # before the next loop's buffer is built
    d = a.sum(axis=1)
    for rows, tmp in _row_blocks(*a.shape):
        a[rows] /= np.sqrt(np.outer(d[rows], d, out=tmp), out=tmp)
    del tmp
    lam, vecs = _leading_eigh(a, n_eigs + 1)
    phi = _fix_signs(vecs / np.sqrt(d)[:, None])
    return DiffusionMap(
        epsilon=float(epsilon),
        alpha_density=1.0,
        train_points=x.copy(),
        eigenvalues=lam,
        eigenvectors=phi,
        point_density=p,
    )


def nystrom_restrict(dm, x_new):
    """Latent coordinates of new ambient points, one row per point.

    Applies the same density and row normalizations to the new kernel row,
    then averages the training eigenvectors: phi_i(x) = lambda_i^-1 *
    sum_j ktilde(x, x_j) phi_i(x_j).  Columns whose eigenvalue is below
    1e-12 in magnitude cannot be divided out and return NaN.
    """
    x = np.asarray(x_new, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != dm.train_points.shape[1]:
        raise ValueError("ambient dimension does not match the training data")
    a = _gaussian(_sq_dists(x, dm.train_points), dm.epsilon)
    p_new = a.sum(axis=1)
    if np.any(p_new < 1e-300):
        raise ValueError("a query point sees no training neighbors at this epsilon")
    k = a / np.outer(p_new, dm.point_density)
    ktilde = k / k.sum(axis=1)[:, None]
    coords = ktilde @ dm.eigenvectors
    lam = dm.eigenvalues
    reliable = np.abs(lam) > 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        coords = np.where(reliable, coords / lam, np.nan)
    return coords[0] if single else coords


def _loo_weights(d2, bandwidth_factor):
    """Leave-one-out regression weights exp(-d2 / scale^2), zero on the
    diagonal, from the squared distances d2 between the basis rows, as
    (rows, w) for each block of rows; every block's w is the same buffer.

    The scale is the median pairwise distance shrunk by the factor, so the
    regression stays local on the scale of the coordinate cloud.
    """
    scale = _upper_median(d2, np.sqrt) / bandwidth_factor
    for rows, w in _row_blocks(*d2.shape):
        np.exp(np.divide(d2[rows], -scale * scale, out=w), out=w)
        np.fill_diagonal(w[:, rows], 0.0)
        yield rows, w


def _loo_linear_residual(basis, target, weights):
    """Normalized leave-one-out error of local linear prediction.

    Predicts target at each training point from a linear fit on basis (the
    earlier coordinates) weighted by its row of the (rows, w) blocks that
    weights yields, zero on the diagonal, so the point itself is left out.
    A fit reads only its own row, so each block's fits finish, overwriting
    its w, before the next block is drawn.
    """
    n, p = basis.shape
    # moment form: on the mean-shifted design x = [1, basis - mean] one
    # product with w gives every point's normal matrix sum_j w_ij x_j x_j^T
    # (its upper triangle) and right-hand side sum_j w_ij x_j target_j
    x = np.hstack([np.ones((n, 1)), basis - basis.mean(axis=0)])
    ia, ib = np.triu_indices(p + 1)
    data = np.hstack([x[:, ia] * x[:, ib], x * target[:, None]])
    preds = np.empty(n)
    for rows, w in weights:
        moments = w @ data
        normal = np.empty((w.shape[0], p + 1, p + 1))
        normal[:, ia, ib] = normal[:, ib, ia] = moments[:, : ia.size]
        diag = np.einsum("nii->ni", normal)
        s = 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0))
        normal *= s[:, :, None] * s[:, None, :]
        good = np.linalg.cond(normal) <= _COND_RESOLVE
        normal, sg = normal[good], s[good]

        def solve(rhs):
            return np.linalg.solve(normal, (rhs[good] * sg)[..., None])[..., 0] * sg

        coef = np.zeros((w.shape[0], p + 1))
        coef[good] = solve(moments[:, ia.size :])
        bad = np.flatnonzero(~good)
        sqrt_w_bad = np.sqrt(w[bad])
        # forming the normal matrix squares the design's condition number;
        # one refinement step, its residual w_ij (target_j - x_j coef_i)
        # written over w, brings the fit to the accuracy of least squares.
        # A block's products may round apart from the whole ones, as the BLAS
        # picks its kernel by shape; at 2 080 rows these blocks do not
        r = coef @ x.T
        w *= np.subtract(target, r, out=r)
        del r  # before the next block's is built
        coef[good] += solve(w @ x)
        preds[rows] = np.einsum("ni,ni->n", x[rows], coef)
        # past the cut, least squares on the square-root-weighted design
        # centred on the point itself, whose intercept is the prediction
        for i, sw in zip(bad + rows.start, sqrt_w_bad):
            design = np.hstack([np.ones((n, 1)), basis - basis[i]]) * sw[:, None]
            preds[i] = np.linalg.lstsq(design, sw * target, rcond=None)[0][0]
    return float(np.sqrt(np.sum((target - preds) ** 2) / np.sum(target**2)))


def select_independent(dm, bandwidth_factor=3.0, residual_threshold=0.2):
    """Greedy pruning of repeated eigendirections.

    The first nontrivial coordinate phi_1 is always kept (its residual is
    defined as 1).  Each later phi_k is regressed on all earlier nontrivial
    coordinates phi_1 .. phi_(k-1), kept or not, by a kernel-weighted local
    linear fit at every point that leaves the point out; phi_k is kept when
    the normalized leave-one-out residual is above the threshold.  Each
    point's fit is solved from its normal equations, equilibrated by their
    diagonal and refined once against the data, or by least squares on the
    square-root-weighted design where their condition number passes 1e8.
    Returns a new model with the kept column indices, and the residuals.
    """
    if dm.n_pairs < 2:
        raise ValueError("need at least one nontrivial eigenpair")
    phi = dm.eigenvectors
    residuals = [1.0]
    kept = [1]
    # squared distances over phi_1 .. phi_(k-1), one coordinate added per fit
    d2 = np.zeros((dm.n_train, dm.n_train))
    for k in range(2, dm.n_pairs):
        c = phi[:, k - 1]
        for rows, step in _row_blocks(*d2.shape):
            np.subtract.outer(c[rows], c, out=step)
            d2[rows] += np.square(step, out=step)
        del step
        r = _loo_linear_residual(phi[:, 1:k], phi[:, k], _loo_weights(d2, bandwidth_factor))
        residuals.append(r)
        if r > residual_threshold:
            kept.append(k)
    return replace(dm, kept_indices=tuple(kept)), np.array(residuals)


@dataclass(frozen=True)
class GeometricHarmonics:
    """Out-of-sample extension of functions defined on latent coordinates.

    Fitted from a symmetric Gaussian kernel on the latent inputs; only
    eigenpairs with sigma_i > delta * sigma_0 enter the extension.
    """

    epsilon_star: float
    delta: float
    inputs: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)
    coefficients: np.ndarray = field(repr=False)
    in_sample_mse: float = np.nan

    @property
    def n_kept(self):
        return self.eigenvalues.shape[0]

    @property
    def d_out(self):
        return self.coefficients.shape[1]


def gh_fit(inputs, f_values, epsilon_star=None, delta=1e-6):
    """Project f onto the leading kernel eigenspace over the input cloud.

    The kernel is exp(-||xi - xj||^2 / (2 epsilon_star)), epsilon_star
    defaulting to the median squared distance; its eigenpairs with sigma_i >
    delta * sigma_0 come from _leading_eigh, by subspace iteration whose
    block grows until it holds the cut, or by a full eigh for clouds under
    200 points or when that does not converge.
    """
    x = np.asarray(inputs, dtype=float)
    f = np.asarray(f_values, dtype=float)
    if f.ndim == 1:
        f = f[:, None]
    if x.ndim != 2 or f.shape[0] != x.shape[0]:
        raise ValueError("inputs (n, d) and f_values (n, k) must align")
    d2 = _sq_dists(x, x)
    if epsilon_star is None:
        epsilon_star = float(_upper_median(d2))
    if epsilon_star <= 0 or delta <= 0:
        raise ValueError("epsilon_star and delta must be positive")

    sigma, psi = _leading_eigh(_gaussian(d2, epsilon_star), cut=delta)
    if sigma.size == 0:
        raise ValueError("no eigenpairs above the delta cut; decrease delta")
    # contiguous copy so a reloaded model reproduces extensions bit for bit
    psi = np.ascontiguousarray(psi)
    coeffs = psi.T @ f
    in_sample = psi @ coeffs
    mse = float(np.mean((in_sample - f) ** 2))
    return GeometricHarmonics(
        epsilon_star=float(epsilon_star),
        delta=float(delta),
        inputs=x.copy(),
        eigenvalues=sigma,
        eigenvectors=psi,
        coefficients=coeffs,
        in_sample_mse=mse,
    )


def gh_extend(gh, x_new):
    """Evaluate the extension at new latent points: rows of predictions."""
    x = np.asarray(x_new, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != gh.inputs.shape[1]:
        raise ValueError("latent dimension does not match the fitted inputs")
    a = _gaussian(_sq_dists(x, gh.inputs), gh.epsilon_star)
    out = (a @ (gh.eigenvectors / gh.eigenvalues)) @ gh.coefficients
    return out[0] if single else out

