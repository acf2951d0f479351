"""Independent reference for the benchmark's checks; imports nothing from aimrom.

Galerkin right-hand sides come from evaluating each PDE pointwise on a
uniform grid and projecting onto sin(kx) by the trapezoid rule, the route
the quadrature oracle of acceptance criterion 04 takes.  The integrands are
trigonometric polynomials of low degree, for which the trapezoid rule on a
full period (the Dirichlet sine case is half of an odd periodic one) is
exact up to rounding once the grid has more intervals than the degree.

The stepper is scipy's DOP853 at tolerances far below the bounds of the
checks, and a batched classical RK4 that makes the benchmark's own inputs
(on-manifold initial states and held-out snapshots).  Models stored by the
program are read from their JSON documents and evaluated here from scratch.
"""

import numpy as np

CHAFEE_NU = 0.16
KS_NU = 33.0
MAPE_FLOOR = 1e-8


def _trapezoid_basis(length, n_intervals, m):
    x = np.linspace(0.0, length, n_intervals + 1)
    w = np.full(x.shape, length / n_intervals)
    w[[0, -1]] *= 0.5
    k = np.arange(1, m + 1)
    return x, w, k, np.sin(np.outer(x, k))


def chafee_rhs(a, nu=CHAFEE_NU, n_intervals=64):
    """Sine Galerkin field of u_t = nu u_xx + u - u^3 on [0, pi], any mode count."""
    a = np.asarray(a, dtype=float)
    x, w, k, s = _trapezoid_basis(np.pi, n_intervals, a.shape[-1])
    u = a @ s.T
    u_xx = -(a * k**2) @ s.T
    f = nu * u_xx + u - u**3
    return (2.0 / np.pi) * (f * w) @ s


def ks_rhs(a, nu=KS_NU, n_intervals=96):
    """Sine Galerkin field of u_t = -nu (u u_x + u_xx) - 4 u_xxxx, odd on [0, 2 pi]."""
    a = np.asarray(a, dtype=float)
    x, w, k, s = _trapezoid_basis(2.0 * np.pi, n_intervals, a.shape[-1])
    c = np.cos(np.outer(x, k))
    u = a @ s.T
    u_x = (a * k) @ c.T
    u_xx = -(a * k**2) @ s.T
    u_xxxx = (a * k**4) @ s.T
    f = -nu * (u * u_x + u_xx) - 4.0 * u_xxxx
    return (f * w) @ s / np.pi


def chafee_alpha3(a1, a2, nu=CHAFEE_NU):
    """Closed-form backward-Euler slaved third mode of the 2-mode state."""
    return (a1**3 - 3.0 * a1 * a2**2) / (4.0 * (1.0 + 9.0 * nu))


def rk4_batch(f, a0, dt, n_steps):
    """Classical RK4 on a batch of states (b, m); returns (n_steps + 1, b, m)."""
    out = np.empty((n_steps + 1,) + np.shape(a0))
    a = out[0] = np.asarray(a0, dtype=float)
    for i in range(n_steps):
        k1 = f(a)
        k2 = f(a + 0.5 * dt * k1)
        k3 = f(a + 0.5 * dt * k2)
        k4 = f(a + dt * k3)
        a = out[i + 1] = a + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return out


def solve(f, a0, t_end, t_eval=None):
    """DOP853 at rtol 1e-12; returns the states at t_eval, or the final state."""
    from scipy.integrate import solve_ivp

    sol = solve_ivp(lambda t, a: f(a), (0.0, t_end), np.asarray(a0, dtype=float),
                    method="DOP853", rtol=1e-12, atol=1e-13, t_eval=t_eval)
    if not sol.success:
        raise RuntimeError(f"reference solve failed: {sol.message}")
    return sol.y.T if t_eval is not None else sol.y[:, -1]


def field_on_grid(coeffs, length, n_points=65):
    """sum_k a_k sin(kx) on n_points uniform nodes of [0, length]."""
    coeffs = np.asarray(coeffs, dtype=float)
    x = np.linspace(0.0, length, n_points)
    return np.sin(np.outer(x, np.arange(1, coeffs.shape[-1] + 1))) @ coeffs


def mape(predicted, truth):
    """Mean absolute percent error with the 1e-8 denominator floor."""
    return float(np.mean(100.0 * np.abs(predicted - truth) / np.maximum(np.abs(truth), MAPE_FLOOR)))


def _sq_dists(a, b, rows=256):
    # direct differences, row block by row block, to bound memory
    out = np.empty((a.shape[0], b.shape[0]))
    for i in range(0, a.shape[0], rows):
        out[i:i + rows] = np.sum((a[i:i + rows, None, :] - b[None, :, :]) ** 2, axis=2)
    return out


def dmaps_eigenvalues(points, epsilon, n):
    """Leading n eigenvalues of the alpha = 1 diffusion-map Markov matrix.

    Lanczos (ARPACK) on the symmetric conjugate, a different eigensolver from
    the dense one the program uses.
    """
    from scipy.sparse.linalg import eigsh

    kernel = np.exp(-_sq_dists(points, points) / (2.0 * epsilon))
    q = kernel.sum(axis=1)
    kernel /= np.outer(q, q)
    d = kernel.sum(axis=1)
    kernel /= np.sqrt(np.outer(d, d))
    vals = eigsh(kernel, k=n, which="LA", tol=1e-14, return_eigenvectors=False)
    return np.sort(vals)[::-1]


def loo_residual(basis, target, bandwidth_factor):
    """Normalized leave-one-out error of kernel-weighted local linear
    prediction of target from basis, the rule diffusion-map pruning applies.

    Each point i is predicted by the weighted least-squares fit of
    [1, basis - basis_i] on all other points.  The normal equations of all
    points come at once from weighted moments of the basis; where a point's
    normal matrix has a condition number above 1e8, its fit is solved again
    by least squares on the square-root-weighted design, whose condition
    number is the square root of that.  Returns the residual and the largest
    condition number of the points' normal matrices.
    """
    n, p = basis.shape
    d2 = _sq_dists(basis, basis)
    scale = np.median(np.sqrt(d2[np.triu_indices(n, k=1)])) / bandwidth_factor
    w = np.exp(-d2 / (scale * scale))
    np.fill_diagonal(w, 0.0)
    s0 = w.sum(axis=1)
    s1 = w @ basis
    s2 = (w @ (basis[:, :, None] * basis[:, None, :]).reshape(n, p * p)).reshape(n, p, p)
    m1 = s1 - s0[:, None] * basis
    outer = s1[:, :, None] * basis[:, None, :]
    m2 = s2 - outer - outer.transpose(0, 2, 1) + s0[:, None, None] * (
        basis[:, :, None] * basis[:, None, :])
    normal = np.empty((n, p + 1, p + 1))
    normal[:, 0, 0] = s0
    normal[:, 0, 1:] = normal[:, 1:, 0] = m1
    normal[:, 1:, 1:] = m2
    wt = w @ target
    rhs = np.concatenate([wt[:, None], w @ (basis * target[:, None]) - basis * wt[:, None]],
                         axis=1)
    preds = np.linalg.solve(normal, rhs[..., None])[:, 0, 0]
    cond = np.linalg.cond(normal)
    sw = np.sqrt(w)
    for i in np.flatnonzero(cond > 1e8):
        design = np.hstack([np.ones((n, 1)), basis - basis[i]]) * sw[i][:, None]
        preds[i] = np.linalg.lstsq(design, sw[i] * target, rcond=None)[0][0]
    return float(np.sqrt(np.sum((target - preds) ** 2) / np.sum(target**2))), float(cond.max())


def mlp_forward(doc, x):
    """Evaluate a stored mlp-v1 document: tanh hidden layers, linear output."""
    h = (np.asarray(x, dtype=float) - doc["x_shift"]) / np.asarray(doc["x_scale"])
    last = len(doc["weights"]) - 1
    for i, (w, b) in enumerate(zip(doc["weights"], doc["biases"])):
        h = h @ np.asarray(w).T + b
        if i < last:
            h = np.tanh(h)
    return np.asarray(doc["y_shift"]) + np.asarray(doc["y_scale"]) * h


def dmaps_restrict(doc, x):
    """Diffusion coordinates of new points from a stored dmap-v1 document (Nystrom)."""
    train = np.asarray(doc["train_points"])
    a = np.exp(-_sq_dists(np.asarray(x, dtype=float), train) / (2.0 * doc["epsilon"]))
    k = a / np.outer(a.sum(axis=1), doc["point_density"])
    k /= k.sum(axis=1)[:, None]
    return (k @ np.asarray(doc["eigenvectors"])) / np.asarray(doc["eigenvalues"])


def gh_extend(doc, z):
    """Geometric-harmonics extension from a stored gh-v1 document."""
    a = np.exp(-_sq_dists(np.asarray(z, dtype=float), np.asarray(doc["inputs"]))
               / (2.0 * doc["epsilon_star"]))
    psi = np.asarray(doc["eigenvectors"]) / np.asarray(doc["eigenvalues"])
    return (a @ psi) @ np.asarray(doc["coefficients"])
