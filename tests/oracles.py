"""Reference implementations the tests check the library against."""

import numpy as np

from aimrom.nn import _as_batch, _core_backprop, _core_forward


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
