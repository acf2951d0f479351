import hashlib
from dataclasses import replace

import numpy as np
import pytest

from aimrom.nn import (
    Autoencoder,
    Mlp,
    TrainConfig,
    TrainingDivergedError,
    decoder_invert,
    forward,
    init_autoencoder,
    init_mlp,
    jacobian,
    lead_submodel,
    train,
    train_autoencoder,
)
from aimrom.nn import _Adam
from oracles import PerArrayAdam, batch_loss_history, gradient, ift_check


def manual_mlp(weights, biases):
    """Build a model from explicit arrays with identity standardization."""
    sizes = tuple([weights[0].shape[1]] + [w.shape[0] for w in weights])
    return Mlp(
        layer_sizes=sizes,
        weights=tuple(np.asarray(w, dtype=float) for w in weights),
        biases=tuple(np.asarray(b, dtype=float) for b in biases),
        x_shift=np.zeros(sizes[0]),
        x_scale=np.ones(sizes[0]),
        y_shift=np.zeros(sizes[-1]),
        y_scale=np.ones(sizes[-1]),
    )


def num_grad(f, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp.flat[i] += h
        xm.flat[i] -= h
        g.flat[i] = (f(xp) - f(xm)) / (2 * h)
    return g


def test_forward_single_linear_layer_is_affine():
    w = np.array([[2.0, -1.0], [0.5, 3.0]])
    b = np.array([1.0, -2.0])
    mlp = manual_mlp([w], [b])
    x = np.array([0.3, 0.7])
    assert np.allclose(forward(mlp, x), w @ x + b, atol=1e-15)


def test_forward_two_layer_manual():
    w1 = np.array([[1.0], [-2.0]])
    b1 = np.array([0.5, 0.0])
    w2 = np.array([[1.0, 1.0]])
    b2 = np.array([-0.25])
    mlp = manual_mlp([w1, w2], [b1, b2])
    x = np.array([0.8])
    expected = np.tanh(0.8 + 0.5) + np.tanh(-1.6) - 0.25
    assert forward(mlp, x)[0] == pytest.approx(expected, abs=1e-15)


def test_forward_batched_matches_loop():
    mlp = init_mlp((3, 10, 2), seed=5)
    xs = np.random.default_rng(0).normal(size=(7, 3))
    batch = forward(mlp, xs)
    for i in range(7):
        assert np.allclose(batch[i], forward(mlp, xs[i]), atol=1e-14)


def test_init_is_seed_deterministic():
    a = init_mlp((4, 16, 16, 2), seed=9)
    b = init_mlp((4, 16, 16, 2), seed=9)
    c = init_mlp((4, 16, 16, 2), seed=10)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert any(not np.array_equal(wa, wc) for wa, wc in zip(a.weights, c.weights))


def test_gradient_matches_finite_differences():
    mlp = init_mlp((2, 6, 5, 3), seed=1)
    x = np.array([0.4, -0.9])
    y = np.array([0.1, 0.2, -0.3])
    grads = gradient(mlp, x, y)

    def loss_with(layer, which, arr):
        ws = list(mlp.weights)
        bs = list(mlp.biases)
        if which == "w":
            ws[layer] = arr
        else:
            bs[layer] = arr
        m = Mlp(
            layer_sizes=mlp.layer_sizes,
            weights=tuple(ws),
            biases=tuple(bs),
            x_shift=mlp.x_shift,
            x_scale=mlp.x_scale,
            y_shift=mlp.y_shift,
            y_scale=mlp.y_scale,
        )
        r = forward(m, x) - y
        return float(r @ r)

    for layer in range(3):
        dw_num = num_grad(lambda a, l=layer: loss_with(l, "w", a), mlp.weights[layer].copy())
        db_num = num_grad(lambda a, l=layer: loss_with(l, "b", a), mlp.biases[layer].copy())
        dw, db = grads[layer]
        assert np.max(np.abs(dw - dw_num)) < 1e-5
        assert np.max(np.abs(db - db_num)) < 1e-5


def test_gradient_with_standardization_matches_finite_differences():
    base = init_mlp((2, 8, 2), seed=3)
    mlp = Mlp(
        layer_sizes=base.layer_sizes,
        weights=base.weights,
        biases=base.biases,
        x_shift=np.array([0.5, -1.0]),
        x_scale=np.array([2.0, 0.25]),
        y_shift=np.array([1.0, 3.0]),
        y_scale=np.array([0.5, 4.0]),
    )
    x = np.array([1.2, -0.4])
    y = np.array([0.9, 2.5])
    grads = gradient(mlp, x, y)
    # check one weight matrix against finite differences through forward()
    layer = 1

    def loss(arr):
        ws = list(mlp.weights)
        ws[layer] = arr
        m = Mlp(
            layer_sizes=mlp.layer_sizes,
            weights=tuple(ws),
            biases=mlp.biases,
            x_shift=mlp.x_shift,
            x_scale=mlp.x_scale,
            y_shift=mlp.y_shift,
            y_scale=mlp.y_scale,
        )
        r = forward(m, x) - y
        return float(r @ r)

    dw_num = num_grad(loss, np.array(mlp.weights[layer]))
    assert np.max(np.abs(grads[layer][0] - dw_num)) < 1e-5


def test_jacobian_matches_finite_differences():
    mlp = init_mlp((3, 12, 12, 3), seed=2)
    x = np.array([0.1, -0.7, 0.4])
    jac = jacobian(mlp, x)
    for j in range(3):
        def comp(xi, j=j):
            return forward(mlp, xi)[j]
        row = num_grad(comp, x.copy())
        assert np.max(np.abs(jac[j] - row)) < 1e-6


def test_jacobian_respects_standardization():
    base = init_mlp((2, 6, 2), seed=4)
    scaled = Mlp(
        layer_sizes=base.layer_sizes,
        weights=base.weights,
        biases=base.biases,
        x_shift=np.array([0.1, 0.2]),
        x_scale=np.array([3.0, 0.5]),
        y_shift=np.array([0.0, 1.0]),
        y_scale=np.array([2.0, 0.1]),
    )
    x = np.array([0.6, -0.2])
    jac = jacobian(scaled, x)
    for j in range(2):
        def comp(xi, j=j):
            return forward(scaled, xi)[j]
        assert np.max(np.abs(jac[j] - num_grad(comp, x.copy()))) < 1e-6


def test_adam_first_step_moves_by_signed_learning_rate():
    # with m-hat = g and v-hat = g^2 the first update is lr * g / (|g| + eps)
    w = np.array([[0.5]])
    b = np.array([0.0])
    mlp = manual_mlp([w], [b])
    # standardized data: x -> [-1, 1], y -> [-1, 1], so the ideal slope is 1;
    # the single full-batch weight gradient is exactly -1 and the bias
    # gradient is exactly 0
    x = np.array([[0.0], [2.0]])
    y = np.array([[0.0], [4.0]])
    cfg = TrainConfig(learning_rate=0.01, epochs=1, batch_size=2, seed=0, validation_fraction=0.0)
    trained, _ = train(mlp, x, y, cfg)
    assert trained.weights[0][0, 0] == pytest.approx(0.5 + 0.01, rel=1e-6)
    assert trained.biases[0][0] == 0.0


# the closure's chain and the autoencoder's, as training lays them out
ADAM_CHAINS = {"closure": [(2, 24, 24, 1)], "autoencoder": [(8, 32, 32, 3), (3, 32, 32, 8)]}


def _adam_runs(chain, square_first):
    """Per step: (flat update, per-array oracle update flattened) over 50
    steps from the same random parameters and gradients."""
    nets = [init_mlp(sizes, seed=k) for k, sizes in enumerate(chain)]
    shapes = [w.shape for net in nets for w in net.weights]
    shapes += [b.shape for net in nets for b in net.biases]
    rng = np.random.default_rng(11)
    params = [rng.normal(size=s) for s in shapes]
    flat = np.concatenate([p.ravel() for p in params])
    cfg = TrainConfig(learning_rate=3e-3)
    opt, oracle = _Adam(flat.size, cfg.learning_rate), PerArrayAdam(shapes, cfg, square_first)
    for _ in range(50):
        grads = [rng.normal(scale=rng.uniform(1e-3, 10.0), size=s) for s in shapes]
        opt.step(flat, np.concatenate([g.ravel() for g in grads]))
        params = oracle.step(params, grads)
        yield flat, np.concatenate([p.ravel() for p in params])


@pytest.mark.parametrize("chain", sorted(ADAM_CHAINS))
def test_flat_adam_matches_the_per_array_update_bitwise(chain):
    for step, (flat, expected) in enumerate(_adam_runs(ADAM_CHAINS[chain], False)):
        assert np.array_equal(flat, expected), f"step {step}"


@pytest.mark.parametrize("chain", sorted(ADAM_CHAINS))
def test_adam_oracle_tells_the_second_moment_order_apart(chain):
    # (g g)(1 - B2) rounds differently from ((1 - B2) g) g, so the
    # bitwise test above fails if the flat update forms v in that order
    runs = _adam_runs(ADAM_CHAINS[chain], True)
    assert any(not np.array_equal(flat, swapped) for flat, swapped in runs)


def test_trained_models_own_their_arrays():
    x = np.random.default_rng(4).normal(size=(80, 4))
    cfg = TrainConfig(epochs=2, batch_size=16, seed=0)
    trained, _ = train_autoencoder(init_autoencoder(4, 2, (8,), seed=3), x, cfg)
    arrays = [a for net in (trained.encoder, trained.decoder)
              for a in net.weights + net.biases]
    for i, a in enumerate(arrays):
        # disjoint views into one training buffer would pass shares_memory
        # but not owndata
        assert a.flags.owndata
        for b in arrays[i + 1 :]:
            assert not np.shares_memory(a, b)


def test_train_fits_linear_map():
    rng = np.random.default_rng(8)
    x = rng.uniform(-1, 1, (600, 2))
    a = np.array([[1.5, -0.5], [0.25, 2.0]])
    y = x @ a.T + np.array([0.3, -0.1])
    mlp = init_mlp((2, 16, 2), seed=0)
    cfg = TrainConfig(learning_rate=3e-3, epochs=220, batch_size=64, seed=0)
    trained, hist = train(mlp, x, y, cfg)
    pred = forward(trained, x)
    assert float(np.mean((pred - y) ** 2)) < 1e-3
    assert hist.train_mse.shape == (220,)
    assert hist.val_mse.shape == (220,)
    assert hist.train_mse[-1] < hist.train_mse[0]
    assert np.all(np.isfinite(hist.val_mse))


def test_train_is_seed_deterministic():
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, (100, 2))
    y = np.sin(x)
    cfg = TrainConfig(epochs=5, batch_size=16, seed=3)
    m1, h1 = train(init_mlp((2, 8, 2), seed=7), x, y, cfg)
    m2, h2 = train(init_mlp((2, 8, 2), seed=7), x, y, cfg)
    for wa, wb in zip(m1.weights, m2.weights):
        assert np.array_equal(wa, wb)
    assert np.array_equal(h1.train_mse, h2.train_mse)


def test_train_diverges_with_absurd_learning_rate():
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, (64, 1))
    y = 1000.0 * x**3
    # steps of size ~1e180 overflow the linear output layer immediately
    cfg = TrainConfig(learning_rate=1e180, epochs=50, batch_size=8, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError) as err:
            train(init_mlp((1, 8, 1), seed=0), x, y, cfg)
    assert isinstance(err.value.epoch, int)


def test_train_rejects_mismatched_shapes():
    mlp = init_mlp((2, 4, 1), seed=0)
    cfg = TrainConfig(epochs=1)
    with pytest.raises(ValueError):
        train(mlp, np.zeros((10, 3)), np.zeros((10, 1)), cfg)
    with pytest.raises(ValueError):
        train(mlp, np.zeros((10, 2)), np.zeros((9, 1)), cfg)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(validation_fraction=1.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)


def test_lead_submodel_slices_outputs():
    mlp = init_mlp((3, 10, 4), seed=6)
    sub = lead_submodel(mlp, 2)
    x = np.array([0.2, -0.5, 0.9])
    assert np.allclose(forward(sub, x), forward(mlp, x)[:2], atol=1e-15)
    assert np.allclose(jacobian(sub, x), jacobian(mlp, x)[:2], atol=1e-15)
    with pytest.raises(ValueError):
        lead_submodel(mlp, 5)


def test_ift_check_constant_sign_for_linear_map():
    w = np.array([[2.0, 1.0], [0.0, 3.0]])  # det 6 everywhere
    mlp = manual_mlp([w], [np.zeros(2)])
    pts = np.random.default_rng(0).normal(size=(50, 2))
    rep = ift_check(mlp, pts)
    assert rep.single_sign
    assert rep.majority_sign == 1.0
    assert np.allclose(rep.dets, 6.0, atol=1e-12)


def test_ift_check_detects_sign_change():
    # f(x) = tanh(x) - tanh(2x): slope -1 at origin, positive far out
    w1 = np.array([[1.0], [2.0]])
    w2 = np.array([[1.0, -1.0]])
    mlp = manual_mlp([w1, w2], [np.zeros(2), np.zeros(1)])
    pts = np.array([[0.0], [2.0], [3.0], [-2.5]])
    rep = ift_check(mlp, pts)
    assert not rep.single_sign
    assert rep.dets[0] < 0 < rep.dets[1]


def test_ift_check_requires_square_jacobian():
    with pytest.raises(ValueError):
        ift_check(init_mlp((3, 5, 2), seed=0), np.zeros((4, 3)))


def test_decoder_invert_linear_decoder_matches_least_squares():
    # linear decoder 2 -> 3; matching the two lead outputs has an exact answer
    w = np.array([[1.0, 0.5], [-0.25, 2.0], [3.0, 1.0]])
    b = np.array([0.1, -0.2, 0.0])
    dec = manual_mlp([w], [b])
    target = np.array([0.7, 1.1])
    expected = np.linalg.solve(w[:2], target - b[:2])
    rng = np.random.default_rng(5)
    found = decoder_invert(dec, target, rng.normal(size=(6, 2)), max_iters=800)
    assert np.max(np.abs(found - expected)) < 1e-4


def test_decoder_invert_rejects_bad_candidates():
    dec = init_mlp((2, 8, 3), seed=0)
    with pytest.raises(ValueError):
        decoder_invert(dec, np.array([0.1, 0.2]), np.zeros((3, 5)))


def test_autoencoder_shapes_and_composition():
    ae = init_autoencoder(4, 2, hidden=(16, 16), seed=0)
    assert ae.encoder.d_out == 2
    assert ae.encoder.layer_sizes == (4, 16, 16, 2)
    assert ae.decoder.layer_sizes == (2, 16, 16, 4)
    x = np.random.default_rng(1).normal(size=(5, 4))
    recon = forward(ae.decoder, forward(ae.encoder, x))
    assert recon.shape == (5, 4)


def test_autoencoder_learns_line_in_plane():
    # points on a 1D affine subspace of R^2 compress losslessly to 1 latent
    rng = np.random.default_rng(4)
    t = rng.uniform(-1, 1, (800, 1))
    x = np.hstack([2.0 * t + 0.5, -t + 1.0])
    ae = init_autoencoder(2, 1, hidden=(16,), seed=2)
    cfg = TrainConfig(learning_rate=5e-3, epochs=260, batch_size=64, seed=0)
    trained, hist = train_autoencoder(ae, x, cfg)
    recon = forward(trained.decoder, forward(trained.encoder, x))
    assert float(np.mean((recon - x) ** 2)) < 1e-3
    assert hist.train_mse[-1] < hist.train_mse[0]


def test_autoencoder_training_deterministic():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(60, 3))
    cfg = TrainConfig(epochs=4, batch_size=16, seed=1)
    a1, _ = train_autoencoder(init_autoencoder(3, 2, (8,), seed=5), x, cfg)
    a2, _ = train_autoencoder(init_autoencoder(3, 2, (8,), seed=5), x, cfg)
    for wa, wb in zip(a1.encoder.weights, a2.encoder.weights):
        assert np.array_equal(wa, wb)
    for wa, wb in zip(a1.decoder.weights, a2.decoder.weights):
        assert np.array_equal(wa, wb)


def test_autoencoder_diverges_with_absurd_learning_rate():
    x = 1000.0 * np.random.default_rng(2).uniform(-1, 1, (64, 2))
    cfg = TrainConfig(learning_rate=1e180, epochs=50, batch_size=8, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError) as err:
            train_autoencoder(init_autoencoder(2, 1, (8,), seed=0), x, cfg)
    assert isinstance(err.value.epoch, int)


def test_autoencoder_rejects_mismatched_shapes():
    ae = init_autoencoder(3, 2, (8,), seed=0)
    cfg = TrainConfig(epochs=1)
    with pytest.raises(ValueError, match="d_ambient"):
        train_autoencoder(ae, np.zeros((10, 4)), cfg)
    bad = Autoencoder(encoder=ae.encoder, decoder=init_mlp((2, 8, 4), seed=0))
    with pytest.raises(ValueError, match="compose"):
        train_autoencoder(bad, np.zeros((10, 3)), cfg)


def test_autoencoder_standardizes_the_ends_not_the_bottleneck():
    x = np.random.default_rng(6).normal(loc=3.0, scale=2.0, size=(50, 3))
    cfg = TrainConfig(epochs=2, batch_size=16, seed=0)
    trained, _ = train_autoencoder(init_autoencoder(3, 2, (8,), seed=1), x, cfg)
    enc, dec = trained.encoder, trained.decoder
    assert np.array_equal(enc.x_shift, dec.y_shift)
    assert np.array_equal(enc.x_scale, dec.y_scale)
    assert np.allclose(enc.x_shift, 3.0, atol=1.0)
    assert np.allclose(enc.x_scale, 2.0, atol=1.0)
    for arr, value in ((enc.y_shift, 0.0), (enc.y_scale, 1.0), (dec.x_shift, 0.0),
                       (dec.x_scale, 1.0)):
        assert np.array_equal(arr, np.full(2, value))


_AE = init_autoencoder(2, 1, (8,), seed=5)
# each training entry point: the chain it starts from and its target
FITS = {
    "train": ((init_mlp((2, 8, 2), seed=7),), np.sin),
    "train_autoencoder": ((_AE.encoder, _AE.decoder), lambda x: x),
}


def _run(entry, x, cfg):
    """Train entry's chain on x; returns (trained networks, history)."""
    nets, target = FITS[entry]
    if entry == "train":
        trained, hist = train(nets[0], x, target(x), cfg)
        return (trained,), hist
    ae, hist = train_autoencoder(Autoencoder(*nets), x, cfg)
    return (ae.encoder, ae.decoder), hist


@pytest.mark.parametrize("entry", sorted(FITS))
def test_zero_validation_fraction_gives_nan_history(entry):
    x = np.random.default_rng(3).uniform(-1, 1, (40, 2))
    cfg = TrainConfig(epochs=3, batch_size=16, seed=0, validation_fraction=0.0)
    _, hist = _run(entry, x, cfg)
    assert hist.val_mse.shape == (3,)
    assert np.all(np.isnan(hist.val_mse))
    assert np.all(np.isfinite(hist.train_mse))


def _digest(nets, val_mse):
    h = hashlib.sha256()
    for net in nets:
        for a in (*net.weights, *net.biases, net.x_shift, net.x_scale, net.y_shift, net.y_scale):
            h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(val_mse, dtype="<f8").tobytes())
    return h.hexdigest()


PINNED_CFG = TrainConfig(learning_rate=5e-3, epochs=8, batch_size=16, seed=2)
# sha256 of every trained weight, bias and standardization constant and of
# val_mse, taken from the loop that still re-evaluated the whole training
# split after each epoch: taking the training loss from the batches must not
# move one bit of them (numpy 2.4, OpenBLAS 0.3)
PINNED = {
    "train": "cea410eef7c20c19f266dbf38105f15eb1ebfcd59576a04be2b50c0805878e95",
    "train_autoencoder": "f871e4543dc364f783e535bd866afe702cf8e1dd75b0fc5c4b740598dc3fefbe",
}


@pytest.mark.parametrize("entry", sorted(FITS))
def test_trained_weights_and_validation_loss_keep_their_pinned_bits(entry):
    x = np.random.default_rng(3).uniform(-1, 1, (60, 2))
    nets, hist = _run(entry, x, PINNED_CFG)
    assert _digest(nets, hist.val_mse) == PINNED[entry]


@pytest.mark.parametrize("fraction", [0.1, 0.0])
@pytest.mark.parametrize("entry", sorted(FITS))
def test_training_loss_is_the_mean_of_the_batch_losses(entry, fraction):
    # 60 rows: 54 or 60 train in batches of 16, so the last batch is short
    x = np.random.default_rng(3).uniform(-1, 1, (60, 2))
    cfg = replace(PINNED_CFG, validation_fraction=fraction)
    _, hist = _run(entry, x, cfg)
    nets, target = FITS[entry]
    train_mse, val_mse = batch_loss_history(nets, x, target(x), cfg)
    assert np.all(np.isfinite(hist.train_mse))
    assert np.allclose(hist.train_mse, train_mse, rtol=1e-12, atol=0.0)
    if fraction:
        assert np.allclose(hist.val_mse, val_mse, rtol=1e-12, atol=0.0)
    else:
        assert np.all(np.isnan(hist.val_mse)) and np.all(np.isnan(val_mse))


def test_a_last_step_that_overflows_the_parameters_diverges():
    # one epoch of one batch and no validation split: the batch loss is taken
    # before the step (residuals ~1e10, finite), so only the parameters show
    # the step of ~lr * |g| = 1e300 * 2e10 that overflows the weight
    start = manual_mlp([np.array([[1e10]])], [np.zeros(1)])
    x = np.linspace(-1.0, 1.0, 8)[:, None]
    cfg = TrainConfig(learning_rate=1e300, epochs=1, batch_size=8, seed=0,
                      validation_fraction=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError) as err:
            train(start, x, x, cfg)
    assert err.value.epoch == 0


def test_a_last_step_that_overflows_the_output_diverges():
    # no validation split: the last step leaves every weight finite (~1e300)
    # but the trained net's outputs (~4e292) overflow the squared error
    x = np.linspace(-1.0, 1.0, 8)[:, None]
    cfg = TrainConfig(learning_rate=1e300, epochs=1, batch_size=8, seed=0,
                      validation_fraction=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError) as err:
            train(init_mlp((1, 8, 1), seed=0), x, x**2, cfg)
    assert err.value.epoch == 0
