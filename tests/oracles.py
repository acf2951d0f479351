"""Reference implementations the tests check the library against, and the
paper's explainability checks (criteria 08 and 10), which only tests run."""

from dataclasses import dataclass, field

import numpy as np

from aimrom.nn import _as_batch, _core_backprop, _core_forward, jacobian


def alpha3(a1, a2, nu):
    """Closed-form slaved third mode of the cubic reaction-diffusion model:
    (a1^3 - 3 a1 a2^2) / (4 (1 + 9 nu)), the backward-Euler slaving map at
    tau = 1 from two modes to three."""
    a1 = np.asarray(a1, dtype=float)
    a2 = np.asarray(a2, dtype=float)
    return (a1**3 - 3.0 * a1 * a2**2) / (4.0 * (1.0 + 9.0 * nu))


def ks_rhs_quadrature(a, nu, n_nodes=8193):
    """KS right-hand side by an independent route: evaluate the PDE right
    side pointwise and project by composite trapezoid quadrature; the norm
    of sin(kx) on [0, 2 pi] is pi."""
    x = np.linspace(0.0, 2.0 * np.pi, n_nodes)
    k = np.arange(1, a.shape[0] + 1)
    sines = np.sin(np.outer(x, k))
    cosines = np.cos(np.outer(x, k))
    u = sines @ a
    u_x = cosines @ (k * a)
    u_xx = -(sines @ (k**2 * a))
    u_xxxx = sines @ (k**4 * a)
    rhs = -nu * (u * u_x + u_xx) - 4.0 * u_xxxx
    return np.trapezoid(rhs[:, None] * sines, x, axis=0) / np.pi


def gradient(mlp, x, y_target):
    """Exact parameter gradient of sum ||forward(x) - y_target||^2 through the
    backprop that training runs; a list of (dW, db) pairs, one per layer, in
    raw units."""
    xb, _ = _as_batch(x, mlp.d_in)
    yb, _ = _as_batch(y_target, mlp.d_out)
    if xb.shape[0] != yb.shape[0]:
        raise ValueError("x and y_target must have the same batch size")
    xs = (xb - mlp.x_shift) / mlp.x_scale
    acts = _core_forward(mlp.weights, mlp.biases, xs)
    y = mlp.y_shift + mlp.y_scale * acts[-1]
    delta = 2.0 * (y - yb) * mlp.y_scale
    gw = [np.empty_like(w) for w in mlp.weights]
    gb = [np.empty_like(b) for b in mlp.biases]
    _core_backprop(mlp.weights, acts, delta, gw, gb)
    return list(zip(gw, gb))


class PerArrayAdam:
    """Adam applied array by array, each moment and the step one numpy
    expression: the update that training on one flat vector must reproduce
    bit for bit.  square_first forms the second-moment increment as
    (g g)(1 - beta2), an order that rounds differently."""

    def __init__(self, shapes, cfg, square_first=False):
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]
        self.t = 0
        self.cfg = cfg
        self.square_first = square_first

    def step(self, params, grads):
        c = self.cfg
        self.t += 1
        out = []
        for i, (p, g) in enumerate(zip(params, grads)):
            self.m[i] = c.beta1 * self.m[i] + (1.0 - c.beta1) * g
            if self.square_first:
                self.v[i] = c.beta2 * self.v[i] + g * g * (1.0 - c.beta2)
            else:
                self.v[i] = c.beta2 * self.v[i] + (1.0 - c.beta2) * g * g
            mhat = self.m[i] / (1.0 - c.beta1**self.t)
            vhat = self.v[i] / (1.0 - c.beta2**self.t)
            out.append(p - c.learning_rate * mhat / (np.sqrt(vhat) + c.eps_hat))
        return out


def batch_loss_history(nets, x, y, cfg):
    """Training written plainly, one array at a time: the split and shuffles
    drawn as training draws them, the chain's forward and backward passes on
    per-network weight lists and PerArrayAdam steps.  Returns per epoch
    (train_mse, val_mse): the raw-unit squared error of every batch, taken
    before its step and divided by the training split's entries, and the
    validation split's mean squared error after the epoch (NaN without one)."""
    rng = np.random.default_rng(cfg.seed)
    perm = rng.permutation(x.shape[0])
    n_val = int(round(cfg.validation_fraction * x.shape[0]))
    train_idx, val_idx = perm[n_val:], perm[:n_val]
    x_shift, y_shift = x[train_idx].mean(axis=0), y[train_idx].mean(axis=0)
    x_scale, y_scale = (np.where(s < 1e-12, 1.0, s)
                        for s in (x[train_idx].std(axis=0), y[train_idx].std(axis=0)))
    xs, ys = (x - x_shift) / x_scale, (y - y_shift) / y_scale
    weights = [list(net.weights) for net in nets]
    biases = [list(net.biases) for net in nets]
    opt = PerArrayAdam([a.shape for ws in weights + biases for a in ws], cfg)

    def chain(batch):
        acts = []
        for ws, bs in zip(weights, biases):
            acts.append(_core_forward(ws, bs, batch))
            batch = acts[-1][-1]
        return acts

    def raw_sq_sum(rows, acts):
        return float(np.sum((y_shift + y_scale * acts[-1][-1] - y[rows]) ** 2))

    train_mse, val_mse = [], []
    for _ in range(cfg.epochs):
        order = rng.permutation(train_idx.size)
        total = 0.0
        for start in range(0, train_idx.size, cfg.batch_size):
            rows = train_idx[order[start : start + cfg.batch_size]]
            acts = chain(xs[rows])
            total += raw_sq_sum(rows, acts)
            resid = acts[-1][-1] - ys[rows]
            delta = 2.0 * resid / resid.size
            grads_w = [[np.empty_like(w) for w in ws] for ws in weights]
            grads_b = [[np.empty_like(b) for b in bs] for bs in biases]
            for k in reversed(range(len(nets))):
                delta = _core_backprop(weights[k], acts[k], delta, grads_w[k], grads_b[k])
            flat = opt.step([a for ws in weights + biases for a in ws],
                            [g for gs in grads_w + grads_b for g in gs])
            for ws in weights + biases:
                ws[:], flat = flat[: len(ws)], flat[len(ws) :]
        train_mse.append(total / (train_idx.size * y.shape[1]))
        val_mse.append(raw_sq_sum(val_idx, chain(xs[val_idx])) / (n_val * y.shape[1])
                       if n_val else np.nan)
    return np.array(train_mse), np.array(val_mse)


@dataclass(frozen=True)
class IftSummary:
    """Jacobian determinant sweep used as an implicit-function-theorem check."""

    dets: np.ndarray = field(repr=False)
    majority_sign: float = 0.0
    majority_fraction: float = 0.0

    @property
    def single_sign(self):
        return self.majority_fraction == 1.0


def ift_check(mlp, points):
    """Determinant of the square input-output Jacobian at each point.

    A consistent nonzero sign across the sampled region is the practical
    criterion for local invertibility of the map.
    """
    if mlp.d_in != mlp.d_out:
        raise ValueError("ift_check needs a square Jacobian (d_in == d_out)")
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    dets = np.array([np.linalg.det(jacobian(mlp, p)) for p in pts])
    signs = np.sign(dets)
    n_pos = int(np.sum(signs > 0))
    n_neg = int(np.sum(signs < 0))
    if n_pos == 0 and n_neg == 0:
        return IftSummary(dets=dets, majority_sign=0.0, majority_fraction=0.0)
    majority = 1.0 if n_pos >= n_neg else -1.0
    return IftSummary(
        dets=dets,
        majority_sign=majority,
        majority_fraction=max(n_pos, n_neg) / dets.shape[0],
    )


@dataclass(frozen=True)
class QuadraticFit:
    """Least-squares parabola c2 ~ a*c1^2 + b*c1 + c with its R^2."""

    coeffs: np.ndarray
    r_squared: float

    def __call__(self, c1):
        c1 = np.asarray(c1, dtype=float)
        a, b, c = self.coeffs
        return a * c1**2 + b * c1 + c


def quadratic_fit(c1, c2):
    """Fit the second coefficient as a quadratic function of the first."""
    c1 = np.asarray(c1, dtype=float)
    c2 = np.asarray(c2, dtype=float)
    if c1.shape != c2.shape or c1.ndim != 1 or c1.size < 3:
        raise ValueError("c1 and c2 must be equal-length vectors of size >= 3")
    design = np.stack([c1**2, c1, np.ones_like(c1)], axis=1)
    if np.linalg.matrix_rank(design) < 3:
        raise ValueError("degenerate abscissa: quadratic fit is not identifiable")
    coeffs, *_ = np.linalg.lstsq(design, c2, rcond=None)
    resid = c2 - design @ coeffs
    total = c2 - c2.mean()
    ss_tot = float(total @ total)
    if ss_tot == 0.0:
        r2 = 1.0 if float(resid @ resid) < 1e-28 else 0.0
    else:
        r2 = 1.0 - float(resid @ resid) / ss_tot
    return QuadraticFit(coeffs=coeffs, r_squared=r2)
