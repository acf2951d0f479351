"""Proper orthogonal decomposition of snapshot ensembles."""

from dataclasses import dataclass, field

import numpy as np

__all__ = ["PodModel", "pod_fit", "pod_project", "pod_lift"]


@dataclass(frozen=True)
class PodModel:
    """Orthonormal modes (columns) with singular values and energy content.

    energy_fractions[k] is the cumulative variance captured by the first
    k + 1 modes; the last entry is 1 by construction.
    """

    mean: np.ndarray = field(repr=False)
    modes: np.ndarray = field(repr=False)
    singular_values: np.ndarray = field(repr=False)
    energy_fractions: np.ndarray = field(repr=False)
    centered: bool = True

    @property
    def ambient_dim(self):
        return self.modes.shape[0]

    @property
    def rank(self):
        return self.modes.shape[1]


def pod_fit(snapshots, center=True):
    """SVD of the (optionally centered) snapshot matrix, rows = snapshots.

    Mode signs are fixed so each mode's largest-magnitude entry is positive.
    """
    x = np.asarray(snapshots, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("snapshots must be (n, d) with n >= 2")
    mean = x.mean(axis=0) if center else np.zeros(x.shape[1])
    xc = x - mean
    u, s, vt = np.linalg.svd(xc, full_matrices=False)
    scale = np.max(np.abs(x)) if np.max(np.abs(x)) > 0 else 1.0
    if s[0] < 1e-13 * scale:
        raise ValueError("snapshot matrix has rank 0 after centering")
    modes = vt.T
    for j in range(modes.shape[1]):
        i = np.argmax(np.abs(modes[:, j]))
        if modes[i, j] < 0:
            modes[:, j] = -modes[:, j]
    energy = np.cumsum(s**2) / np.sum(s**2)
    return PodModel(
        mean=mean,
        modes=modes,
        singular_values=s,
        energy_fractions=energy,
        centered=bool(center),
    )


def pod_project(model, x, k=None):
    """Coefficients of x in the first k modes; accepts (d,) or (n, d)."""
    k = model.rank if k is None else int(k)
    if not (1 <= k <= model.rank):
        raise ValueError(f"k must be in [1, {model.rank}]")
    x = np.asarray(x, dtype=float)
    return (x - model.mean) @ model.modes[:, :k]


def pod_lift(model, coeffs):
    """Reconstruct ambient vectors from leading-mode coefficients (..., k);
    the width k of coeffs says how many leading modes they weigh.  Each
    state is its own matrix-vector product, so a batch row has the bits of
    that state alone."""
    c = np.asarray(coeffs, dtype=float)
    k = c.shape[-1]
    if not 1 <= k <= model.rank:
        raise ValueError(f"coefficient width must be in [1, {model.rank}]")
    return (model.modes[:, :k] @ c[..., None])[..., 0] + model.mean
