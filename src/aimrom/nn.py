"""Fully connected networks, written on plain numpy.

Architecture: affine layers with tanh on every layer except the last,
which stays linear.  Training is mini-batch Adam on the summed squared
error.  Per-feature standardization constants (zero mean, unit variance
on the training split) are stored on the model and applied inside
``forward``; gradients and Jacobians are therefore always expressed in
raw data units.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import NumericalFailure

__all__ = [
    "Mlp",
    "TrainConfig",
    "TrainHistory",
    "TrainingDivergedError",
    "Autoencoder",
    "init_mlp",
    "forward",
    "jacobian",
    "train",
    "lead_submodel",
    "decoder_invert",
    "init_autoencoder",
    "train_autoencoder",
]


class TrainingDivergedError(NumericalFailure):
    """Raised when the training loss, the validation loss or a parameter
    stops being finite."""

    def __init__(self, epoch):
        self.epoch = epoch
        super().__init__(f"training loss or parameters became non-finite at epoch {epoch}")


@dataclass(frozen=True)
class Mlp:
    """Weights, biases, and standardization constants of one network.

    weights[i] has shape (fan_out, fan_in); the input is standardized by
    (x - x_shift) / x_scale and the raw output is y_shift + y_scale * core(x).
    Instances are treated as immutable; training returns a new model.
    """

    layer_sizes: tuple
    weights: tuple = field(repr=False)
    biases: tuple = field(repr=False)
    x_shift: np.ndarray = field(repr=False)
    x_scale: np.ndarray = field(repr=False)
    y_shift: np.ndarray = field(repr=False)
    y_scale: np.ndarray = field(repr=False)

    @property
    def d_in(self):
        return self.layer_sizes[0]

    @property
    def d_out(self):
        return self.layer_sizes[-1]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 100
    batch_size: int = 32
    seed: int = 0
    validation_fraction: float = 0.1

    def __post_init__(self):
        if not (0.0 <= self.validation_fraction < 1.0):
            raise ValueError("validation_fraction must lie in [0, 1)")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


@dataclass(frozen=True)
class TrainHistory:
    """Per-epoch mean squared error in raw data units.

    train_mse[e] is epoch e's mean mini-batch loss, each batch's taken before
    its Adam step (it was once a second pass over the training split after
    the epoch); val_mse[e] is the validation split's after epoch e, NaN
    without one.
    """

    train_mse: np.ndarray
    val_mse: np.ndarray


def init_mlp(layer_sizes, seed=0):
    """Glorot-uniform weights, zero biases, identity standardization."""
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError("layer_sizes needs at least input and output width")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return Mlp(
        layer_sizes=sizes,
        weights=tuple(weights),
        biases=tuple(biases),
        x_shift=np.zeros(sizes[0]),
        x_scale=np.ones(sizes[0]),
        y_shift=np.zeros(sizes[-1]),
        y_scale=np.ones(sizes[-1]),
    )


def _core_forward(weights, biases, x):
    """Return the list of activations; x is (n, d_in), no standardization."""
    acts = [x]
    h = x
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = h @ w.T + b
        h = z if i == last else np.tanh(z)
        acts.append(h)
    return acts


def _core_backprop(weights, acts, delta, grads_w, grads_b):
    """Write the parameter gradients for an output-side delta into grads_w
    and grads_b (one array per layer) and return the input gradient.

    delta is dL/d(core output), shape (n, d_out).  Hidden activations are
    the stored tanh outputs, so tanh' = 1 - a^2 needs no extra state.
    """
    for i in range(len(weights) - 1, -1, -1):
        np.matmul(delta.T, acts[i], out=grads_w[i])
        np.add.reduce(delta, axis=0, out=grads_b[i])
        delta = delta @ weights[i]
        if i > 0:
            delta = delta * (1.0 - acts[i] ** 2)
    return delta


def _as_batch(x, d):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        if x.shape[0] != d:
            raise ValueError(f"input width {x.shape[0]} does not match model ({d})")
        return x[None, :], True
    if x.ndim != 2 or x.shape[1] != d:
        raise ValueError(f"input must be (n, {d})")
    return x, False


def forward(mlp, x):
    """Evaluate the network in raw units; accepts (d_in,) or (n, d_in)."""
    xb, single = _as_batch(x, mlp.d_in)
    xs = (xb - mlp.x_shift) / mlp.x_scale
    y = _core_forward(mlp.weights, mlp.biases, xs)[-1]
    y = mlp.y_shift + mlp.y_scale * y
    return y[0] if single else y


def jacobian(mlp, x):
    """d(output)/d(input) at one point, shape (d_out, d_in), raw units."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != mlp.d_in:
        raise ValueError(f"jacobian expects a single point of width {mlp.d_in}")
    xs = (x - mlp.x_shift) / mlp.x_scale
    acts = _core_forward(mlp.weights, mlp.biases, xs[None, :])
    jac = mlp.weights[0] / mlp.x_scale
    for i in range(1, len(mlp.weights)):
        jac = mlp.weights[i] @ ((1.0 - acts[i][0] ** 2)[:, None] * jac)
    return mlp.y_scale[:, None] * jac


def _standardization(data):
    shift = data.mean(axis=0)
    scale = data.std(axis=0)
    scale = np.where(scale < 1e-12, 1.0, scale)
    return shift, scale


# Adam's moment decay rates and the offset added to its denominator
_B1, _B2, _EPS = 0.9, 0.999, 1e-8


class _Adam:
    """Adam on one flat parameter vector, updated in place.

    Every line keeps the per-element order of v = b2 v + ((1 - b2) g) g and
    p - (lr m^) / (sqrt(v^) + eps), so the bits match the same update run
    array by array.
    """

    def __init__(self, size, learning_rate):
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._num = np.empty(size)
        self._den = np.empty(size)
        self.t = 0
        self.learning_rate = learning_rate

    def step(self, params, grad):
        self.t += 1
        num, den = self._num, self._den
        self.m *= _B1
        self.m += np.multiply(1.0 - _B1, grad, out=num)
        self.v *= _B2
        np.multiply(1.0 - _B2, grad, out=num)
        self.v += np.multiply(num, grad, out=num)
        np.divide(self.m, 1.0 - _B1**self.t, out=num)
        num *= self.learning_rate
        np.divide(self.v, 1.0 - _B2**self.t, out=den)
        np.sqrt(den, out=den)
        den += _EPS
        params -= np.divide(num, den, out=num)


def _split_indices(n, cfg):
    rng = np.random.default_rng(cfg.seed)
    perm = rng.permutation(n)
    n_val = int(round(cfg.validation_fraction * n))
    return perm[n_val:], perm[:n_val], rng


def _fit(nets, x, y, cfg):
    """Mini-batch Adam on a chain of networks applied in order.

    Standardization constants come from the training split and sit on the
    chain's input and output; the links between networks stay unscaled.
    The parameters, their gradient and the Adam moments are flat vectors
    holding every weight and then every bias, in chain order; each layer
    trains on views into them.  The optimization runs on standardized
    residuals; the history is raw-unit MSE, its training loss summed from the
    batch passes (see ``TrainHistory``).  Raises TrainingDivergedError at the
    first epoch whose training loss, validation loss or parameters are not
    all finite; with no validation split, also at the last epoch when the
    trained chain's loss on the training split is not finite.  Returns
    (trained networks, history).
    """
    train_idx, val_idx, rng = _split_indices(x.shape[0], cfg)
    if train_idx.size == 0:
        raise ValueError("empty training split")

    x_shift, x_scale = _standardization(x[train_idx])
    y_shift, y_scale = _standardization(y[train_idx])
    xs = (x - x_shift) / x_scale
    ys = (y - y_shift) / y_scale

    bounds, n_w = [], 0
    for net in nets:
        bounds.append((n_w, n_w + len(net.weights)))
        n_w += len(net.weights)
    arrays = [w for net in nets for w in net.weights] + [b for net in nets for b in net.biases]
    ends = np.cumsum([a.size for a in arrays])
    params = np.concatenate([a.ravel() for a in arrays])
    grad = np.empty_like(params)
    opt = _Adam(params.size, cfg.learning_rate)

    def layers(flat):
        """Per network, its (weights, biases) as views into a flat vector."""
        views = [flat[end - a.size : end].reshape(a.shape) for a, end in zip(arrays, ends)]
        return [(views[lo:hi], views[n_w + lo : n_w + hi]) for lo, hi in bounds]

    def chain_forward(nets_wb, batch):
        acts = []
        for w, b in nets_wb:
            acts.append(_core_forward(w, b, batch))
            batch = acts[-1][-1]
        return acts

    nets_wb, grads_wb = layers(params), layers(grad)
    n_train = train_idx.size
    train_hist = np.empty(cfg.epochs)
    val_hist = np.empty(cfg.epochs)
    y_var = y_scale**2

    for epoch in range(cfg.epochs):
        order = rng.permutation(n_train)
        sq_sum = np.zeros(y.shape[1])  # this epoch's squared residuals per output column
        for start in range(0, n_train, cfg.batch_size):
            sel = train_idx[order[start : start + cfg.batch_size]]
            acts = chain_forward(nets_wb, xs[sel])
            resid = acts[-1][-1] - ys[sel]
            sq_sum += np.einsum("ij,ij->j", resid, resid)
            delta = 2.0 * resid / (resid.shape[0] * resid.shape[1])
            for (w, _), (gw, gb), net_acts in zip(reversed(nets_wb), reversed(grads_wb),
                                                   reversed(acts)):
                delta = _core_backprop(w, net_acts, delta, gw, gb)
            opt.step(params, grad)

        train_hist[epoch] = float(sq_sum @ y_var) / (n_train * y.shape[1])
        if val_idx.size:
            predv = chain_forward(nets_wb, xs[val_idx])[-1][-1]
            val_hist[epoch] = float(np.mean((predv - ys[val_idx]) ** 2 * y_var))
        else:
            val_hist[epoch] = np.nan
        if not (np.isfinite(train_hist[epoch]) and np.isfinite(params).all()
                and (np.isfinite(val_hist[epoch]) or not val_idx.size)):
            raise TrainingDivergedError(epoch)
    # no validation pass has run the last step's parameters: check, not record, their loss
    if not val_idx.size:
        predt = chain_forward(nets_wb, xs[train_idx])[-1][-1]
        if not np.isfinite(np.mean((predt - ys[train_idx]) ** 2 * y_var)):
            raise TrainingDivergedError(cfg.epochs - 1)

    last = len(nets) - 1
    trained = []
    for k, (net, (w, b)) in enumerate(zip(nets, nets_wb)):
        x_std = (x_shift, x_scale) if k == 0 else (np.zeros(net.d_in), np.ones(net.d_in))
        y_std = (y_shift, y_scale) if k == last else (np.zeros(net.d_out), np.ones(net.d_out))
        # copies: each model owns its arrays instead of viewing the training buffer
        trained.append(replace(net, weights=tuple(a.copy() for a in w),
                               biases=tuple(a.copy() for a in b),
                               x_shift=x_std[0], x_scale=x_std[1],
                               y_shift=y_std[0], y_scale=y_std[1]))
    return trained, TrainHistory(train_mse=train_hist, val_mse=val_hist)


def train(mlp, x, y, cfg):
    """Mini-batch Adam on mean squared error; returns (trained model, history).

    The network is trained as a chain of one (see ``_fit``): its returned
    copy carries the standardization constants of the training split.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("x (n, d_in) and y (n, d_out) must align")
    if x.shape[1] != mlp.d_in or y.shape[1] != mlp.d_out:
        raise ValueError("data width does not match the model")
    (trained,), history = _fit((mlp,), x, y, cfg)
    return trained, history


def lead_submodel(mlp, k):
    """Restrict the network to its first k output components."""
    if not (1 <= k <= mlp.d_out):
        raise ValueError("k must be between 1 and d_out")
    weights = mlp.weights[:-1] + (mlp.weights[-1][:k],)
    biases = mlp.biases[:-1] + (mlp.biases[-1][:k],)
    return Mlp(
        layer_sizes=mlp.layer_sizes[:-1] + (k,),
        weights=weights,
        biases=biases,
        x_shift=mlp.x_shift,
        x_scale=mlp.x_scale,
        y_shift=mlp.y_shift[:k],
        y_scale=mlp.y_scale[:k],
    )


_GRAD_TOL = 1e-12  # a descent stops once its squared gradient norm falls below this


def decoder_invert(decoder, target_lead, candidates, max_iters=200):
    """Solve argmin_L ||lead(decoder(L)) - target_lead||^2 by multi-start descent.

    candidates holds the starts, one latent vector per row; each start runs
    gradient descent with backtracking line search.  Returns the best latent
    vector found.  Raises NumericalFailure if every start ends non-finite.
    """
    target = np.asarray(target_lead, dtype=float)
    k = target.shape[0]
    sub = lead_submodel(decoder, k)
    cands = np.asarray(candidates, dtype=float)
    if cands.ndim != 2 or cands.shape[1] != decoder.d_in:
        raise ValueError("candidate width does not match the decoder input")

    def objective(latent):
        r = forward(sub, latent) - target
        return float(r @ r)

    best_l, best_val = None, np.inf
    for start in cands:
        latent = start.copy()
        val = objective(latent)
        step = 0.1
        for _ in range(max_iters):
            r = forward(sub, latent) - target
            g = 2.0 * jacobian(sub, latent).T @ r
            gnorm = float(g @ g)
            if gnorm < _GRAD_TOL:
                break
            # backtracking: shrink until the step actually decreases the objective
            improved = False
            for _ in range(40):
                trial = latent - step * g
                tval = objective(trial)
                if np.isfinite(tval) and tval < val:
                    latent, val = trial, tval
                    step *= 1.5
                    improved = True
                    break
                step *= 0.5
            if not improved:
                break
        if np.isfinite(val) and val < best_val:
            best_l, best_val = latent, val
    if best_l is None:
        raise NumericalFailure("all descent starts failed to produce a finite objective")
    return best_l


@dataclass(frozen=True)
class Autoencoder:
    """Encoder and decoder trained jointly on reconstruction error."""

    encoder: Mlp
    decoder: Mlp


def init_autoencoder(d_ambient, d_latent, hidden, seed=0):
    """Symmetric encoder/decoder with the given hidden widths."""
    hidden = tuple(hidden)
    enc = init_mlp((d_ambient,) + hidden + (d_latent,), seed=seed)
    dec = init_mlp((d_latent,) + tuple(reversed(hidden)) + (d_ambient,), seed=seed + 1)
    return Autoencoder(encoder=enc, decoder=dec)


def train_autoencoder(ae, x, cfg):
    """Joint reconstruction training; returns (trained autoencoder, history).

    The encoder and decoder are trained as a chain of two with the input
    as target (see ``_fit``): ambient standardization sits on the encoder
    input and the decoder output, and the bottleneck stays unscaled.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != ae.encoder.d_in:
        raise ValueError("x must be (n, d_ambient)")
    if ae.decoder.d_out != ae.encoder.d_in or ae.decoder.d_in != ae.encoder.d_out:
        raise ValueError("encoder and decoder dimensions do not compose")
    (encoder, decoder), history = _fit((ae.encoder, ae.decoder), x, x, cfg)
    return Autoencoder(encoder=encoder, decoder=decoder), history
