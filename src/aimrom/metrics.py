"""Error metrics and the four-term truncation/closure error decomposition."""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import NumericalFailure
from .integrate import draw_in_box

__all__ = [
    "mape",
    "mse",
    "mape_series",
    "MetricsBundle",
    "ErrorDecomposition",
    "decompose_errors",
    "ensemble_histogram",
    "EnsembleResult",
]

_MAPE_FLOOR = 1e-8


def mape(predicted, truth):
    """Mean absolute percent error with a 1e-8 denominator floor."""
    p = np.asarray(predicted, dtype=float)
    t = np.asarray(truth, dtype=float)
    if p.shape != t.shape:
        raise ValueError("predicted and truth must have the same shape")
    if p.size == 0:
        raise ValueError("cannot average over an empty array")
    denom = np.maximum(np.abs(t), _MAPE_FLOOR)
    return float(np.mean(100.0 * np.abs(p - t) / denom))


def mse(predicted, truth):
    p = np.asarray(predicted, dtype=float)
    t = np.asarray(truth, dtype=float)
    if p.shape != t.shape:
        raise ValueError("predicted and truth must have the same shape")
    if p.size == 0:
        raise ValueError("cannot average over an empty array")
    return float(np.mean((p - t) ** 2))


def mape_series(pred_rows, truth_rows):
    """Row-wise percent error: one value per time step of a field history."""
    p = np.asarray(pred_rows, dtype=float)
    t = np.asarray(truth_rows, dtype=float)
    if p.shape != t.shape or p.ndim != 2:
        raise ValueError("pred_rows and truth_rows must be matching 2d arrays")
    denom = np.maximum(np.abs(t), _MAPE_FLOOR)
    return np.mean(100.0 * np.abs(p - t) / denom, axis=1)


@dataclass(frozen=True)
class MetricsBundle:
    """Final-time field scores of one reduced run."""

    mape_final: float
    mse_final: float


@dataclass(frozen=True)
class ErrorDecomposition:
    """Four error components at the final time, L2 norms on [0, L].

    delta_low: coefficient-space gap between the reduced run and the
        leading block of the truth.
    delta_closure_mass: size of the appended closure output (the field of
        the tail modes alone).
    delta_truncated: field error of the zero-padded reduced state.
    delta_corrected: field error after post-processing.
    """

    delta_low: float
    delta_closure_mass: float
    delta_truncated: float
    delta_corrected: float


def decompose_errors(full_state, corrected_state, n_low, length):
    """Split the final-time error of a post-processed reduced run.

    full_state is the truth and corrected_state the reduced run with its
    closure's tail appended, both sine coefficient vectors on [0, length] at
    the same final time; the first n_low entries of corrected_state are the
    reduced run.  Each field norm is exact from the coefficients: sqrt(length/2)
    times their 2-norm (Parseval).
    """
    full = np.asarray(full_state, dtype=float)
    corrected = np.asarray(corrected_state, dtype=float)
    if full.shape != corrected.shape or full.ndim != 1:
        raise ValueError("truth and corrected state must be matching coefficient vectors")
    if not 1 <= n_low < full.shape[0]:
        raise ValueError(f"need 1 <= n_low < {full.shape[0]}, got {n_low}")
    red, tail = corrected[:n_low], corrected[n_low:]
    low_gap = full[:n_low] - red
    weight = math.sqrt(length / 2)
    return ErrorDecomposition(
        delta_low=float(np.linalg.norm(low_gap)),
        delta_closure_mass=weight * float(np.linalg.norm(tail)),
        delta_truncated=weight * float(np.linalg.norm(np.concatenate([low_gap, full[n_low:]]))),
        delta_corrected=weight * float(np.linalg.norm(full - corrected)),
    )


@dataclass(frozen=True)
class EnsembleResult:
    """Final-time percent errors across a seeded set of initial conditions.

    ic_indices holds each sample's position in the drawn set, failures the
    (label, position, NumericalFailure) of each failed run."""

    labels: tuple
    samples: tuple = field(repr=False)
    ic_indices: tuple = field(repr=False)
    bin_edges: np.ndarray = field(repr=False)
    counts: tuple = field(repr=False)
    failed: tuple = ()
    failures: tuple = ()


def ensemble_histogram(configs, artifacts, ic_box, n_ic, seed, bins=20, final_time=None):
    """Run each pipeline over one shared set of seeded initial conditions.

    Returns per-config final percent errors binned on a common grid.
    Initial conditions are drawn uniformly in ic_box; a run that fails
    numerically is recorded under failures and skipped in the histogram.
    final_time, when given, replaces each pipeline's.  Each distinct truth
    and each distinct reduced run is integrated once for all pipelines and
    initial conditions.
    """
    # local import: the pipeline runner scores with this module
    from .rom import run_pipelines

    if n_ic < 1:
        raise ValueError("n_ic must be positive")
    if bins < 1:
        raise ValueError("bins must be at least 1")
    ics = draw_in_box(ic_box, n_ic, seed)
    if final_time is not None:
        configs = [replace(cfg, final_time=float(final_time)) for cfg in configs]

    labels, samples, indices, failures = [], [], [], []
    for cfg, batch in zip(configs, run_pipelines(configs, ics, artifacts)):
        errs, kept = [], []
        for k, result in enumerate(batch):
            if isinstance(result, NumericalFailure):
                failures.append((cfg.label(), k, result))
            else:
                errs.append(result.corrected_metrics.mape_final)
                kept.append(k)
        labels.append(cfg.label())
        samples.append(np.array(errs))
        indices.append(tuple(kept))

    finite = np.concatenate([s for s in samples if s.size] or [np.array([0.0])])
    edges = np.linspace(0.0, max(float(finite.max()), 1e-12), bins + 1)
    counts = tuple(np.histogram(s, bins=edges)[0] for s in samples)
    return EnsembleResult(
        labels=tuple(labels),
        samples=tuple(samples),
        ic_indices=tuple(indices),
        bin_edges=edges,
        counts=counts,
        failed=tuple(n_ic - s.size for s in samples),
        failures=tuple(failures),
    )
