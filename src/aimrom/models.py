"""Galerkin vector fields: reaction-diffusion (cubic), flame-front (quadratic), toy two-scale.

Each Galerkin model is declared once, in MODELS: its domain length L (its
modes are sin(kx) on [0, L]), default parameter nu, default mode counts,
linear diagonal, polynomial nonlinearity and the dissipative diagonal the
slaving map inverts.  One evaluator serves every model at any mode count:

    da/dt = lam * a + weight * T(a, ..., a),

where T is an exact sign-count tensor from the product-to-sum selection
rules (see _sign_counts).  All right-hand sides are autonomous and act on
plain coefficient vectors: shape (..., dim) in, (..., dim) out.
"""

import itertools
import math
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import ConfigurationError

__all__ = [
    "MODELS", "GalerkinModel", "VectorField", "analytic_field", "field_from_name",
    "galerkin_rhs", "chafee_rhs_2", "chafee_rhs_3", "ks_rhs", "toy_rhs", "toy_field",
]

@dataclass(frozen=True)
class VectorField:
    """Autonomous vector field: eval maps (..., dim) -> (..., dim)."""

    dim: int
    eval: callable
    name: str = ""


@dataclass(frozen=True)
class GalerkinModel:
    """A PDE on [0, length] projected onto sin(kx), k = 1..n: da_k/dt =
    linear(k, nu) a_k + weight(k, nu) T_k(a), T_k the degree-`degree` form of
    _sign_counts with test function `test`: "sin" for a power of u, "cos" for
    the x-derivative of one, moved onto sin(kx) by parts.  dissipation(k, nu)
    is the diagonal A of the split da/dt + A a + F(a) = 0 that aim's slaving
    map inverts.
    """

    length: float
    nu: float
    n_low: int
    n_full: int
    linear: callable
    weight: callable
    degree: int
    test: str
    dissipation: callable


MODELS = {
    # u_t = nu u_xx + u - u^3 on [0, pi], Dirichlet: the projection of -u^3
    # onto sin(kx) is -(1/8) times the signed count
    "chafee": GalerkinModel(
        length=math.pi, nu=0.16, n_low=2, n_full=3,
        linear=lambda k, nu: 1.0 - nu * k**2,
        weight=lambda k, nu: -0.125,
        degree=3, test="sin",
        # A = -nu d2/dx2 only: the growth term u joins F, which fixes the
        # closed form alpha3 = (a1^3 - 3 a1 a2^2) / (4 (1 + 9 nu))
        dissipation=lambda k, nu: nu * k**2,
    ),
    # u_t = -nu (u u_x + u_xx) - 4 u_xxxx, odd-periodic on [0, 2 pi]:
    # -nu u u_x = -(nu/2) (u^2)_x projects to -(nu k/8) times the count
    "ks": GalerkinModel(
        length=2.0 * math.pi, nu=33.0, n_low=3, n_full=8,
        linear=lambda k, nu: nu * k**2 - 4.0 * k**4,
        weight=lambda k, nu: -nu * k / 8.0,
        degree=2, test="cos",
        # A = -linear, the whole linear operator (Foias, Jolly, Kevrekidis,
        # Sell & Titi 1988), so A > 0 on the slaved block says each slaved
        # mode is linearly damped; at nu = 33 that holds from k = 3
        dissipation=lambda k, nu: 4.0 * k**4 - nu * k**2,
    ),
}


# entries of the largest dense sign-count tensor built (32 MB)
_MAX_TENSOR = 2**22


@lru_cache(maxsize=None)
def _sign_counts(m, degree, test):
    """Integer tensor S[k, j_1, ..., j_degree] of the product-to-sum rules.

    With sin(jx) = (e^{ijx} - e^{-ijx}) / 2i and cos(kx) = (e^{ikx} +
    e^{-ikx}) / 2, a period's integral of test(kx) sin(j_1 x) ... sin(j_d x)
    keeps the exponentials whose wavenumbers sum to zero.  S counts those
    sign choices s with their sign s_1 ... s_d (times s_0 for a sine test),
    so every entry is exact and every zero of the selection rule is too.
    """
    n = degree + 1
    if m**n > _MAX_TENSOR:
        raise ValueError(f"{m} modes need a {m}^{n}-entry tensor, more than {_MAX_TENSOR}")
    k = np.arange(1, m + 1)
    axes = [k.reshape([-1 if j == i else 1 for j in range(n)]) for i in range(n)]
    out = np.zeros((m,) * n)
    for s in itertools.product((1, -1), repeat=n):
        sign = math.prod(s[1:]) * (s[0] if test == "sin" else 1)
        out += sign * (sum(si * ax for si, ax in zip(s, axes)) == 0)
    return out


@lru_cache(maxsize=256)
def _terms(model, m, nu):
    spec = MODELS[model]
    k = np.arange(1, m + 1)
    letters = "ijlm"[: spec.degree]
    subscripts = ",".join(f"...{c}" for c in letters) + f",k{letters}->...k"
    return spec.linear(k, nu), spec.weight(k, nu), _sign_counts(m, spec.degree, spec.test), subscripts


def galerkin_rhs(model, a, nu):
    """Right-hand side of MODELS[model] at the width of a, one state or a batch.

    The contraction is einsum's own loop, not BLAS: each row's sums run in
    the same order whatever the batch size, so a batch row equals a run of
    its own bit for bit.
    """
    a = np.asarray(a, dtype=float)
    lam, weight, tensor, subscripts = _terms(model, a.shape[-1], nu)
    degree = tensor.ndim - 1
    return lam * a + weight * np.einsum(subscripts, *(a,) * degree, tensor)


# Every Galerkin field evaluates through one of the three functions below,
# which the benchmark's tracer (perfbench/spans.py) counts by name: a 2-mode
# reaction-diffusion field calls chafee_rhs_2, every other width chafee_rhs_3.


def chafee_rhs_3(a, nu):
    """Sine Galerkin truncation of u_t = nu*u_xx + u - u^3 on [0, pi], at the width of a."""
    return galerkin_rhs("chafee", a, nu)


def chafee_rhs_2(a, nu):
    """The same reaction-diffusion right-hand side; the 2-mode truncation's fields call it."""
    return galerkin_rhs("chafee", a, nu)


def ks_rhs(a, nu):
    """Sine Galerkin truncation of u_t = -nu*(u*u_x + u_xx) - 4*u_xxxx, odd-periodic
    on [0, 2 pi], at the width of a."""
    return galerkin_rhs("ks", a, nu)


def toy_rhs(z, epsilon):
    """Two-scale system: x' = 2 - x - y, y' = (x^2 - y) / epsilon.

    The fast variable is slaved to the parabola y = x^2, so reduced
    coordinates of sampled states carry a genuinely quadratic relation.
    (1, 1) is the stable fixed point.
    """
    z = np.asarray(z, dtype=float)
    x, y = z[..., 0], z[..., 1]
    return np.stack([2.0 - x - y, (x * x - y) / epsilon], axis=-1)


def analytic_field(model, n_modes=None, nu=None, epsilon=None):
    """The field a config names: MODELS[model] on its first n_modes sines
    (n_modes and nu default to the model's), or toy (epsilon).  A parameter
    the model does not take raises ValueError."""
    if model == "toy":
        if n_modes is not None or nu is not None:
            raise ValueError("model 'toy' takes epsilon, not n_modes or nu")
        return toy_field(0.01 if epsilon is None else epsilon)
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; choose {', '.join(MODELS)}, or toy")
    if epsilon is not None:
        raise ValueError(f"model {model!r} takes n_modes and nu, not epsilon")
    spec = MODELS[model]
    n_modes = spec.n_full if n_modes is None else n_modes
    nu = spec.nu if nu is None else nu
    if not isinstance(n_modes, (int, np.integer)) or n_modes < 1:
        raise ValueError(f"n_modes must be a positive integer, got {n_modes!r}")
    _terms(model, n_modes, nu)  # a mode count too large fails here, not mid-run

    def eval_(a):
        a = np.asarray(a, dtype=float)
        if a.shape[-1] != n_modes:
            raise ValueError(f"state dimension does not match field dim {n_modes}")
        # looked up at each call, so a wrapper bound over the name sees it
        if model == "ks":
            return ks_rhs(a, nu)
        return chafee_rhs_2(a, nu) if n_modes == 2 else chafee_rhs_3(a, nu)

    return VectorField(int(n_modes), eval_, name=f"{model}-{n_modes}(nu={nu})")


def toy_field(epsilon):
    return VectorField(2, lambda z: toy_rhs(z, epsilon), name=f"toy(eps={epsilon})")


def field_from_name(name):
    """Rebuild a field from its name: 'chafee-2(nu=0.16)', 'ks-8(nu=33.0)', 'toy(eps=0.01)'."""
    m = re.fullmatch(r"(\w+)-(\d+)\(nu=([^)]+)\)", name)
    if m and m[1] in MODELS:
        return analytic_field(m[1], int(m[2]), float(m[3]))
    m = re.fullmatch(r"toy\(eps=([^)]+)\)", name)
    if m:
        return toy_field(float(m[1]))
    raise ConfigurationError(f"cannot rebuild analytic field from name {name!r}")
