"""Eigenvalue clipping: modifications of a Hermitian frequency kernel that
restore positive semi-definiteness (negative eigenvalues to zero) or strict
positive definiteness (eigenvalues floored at a small epsilon)."""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .core import (
    DomainError,
    FrequencyKernel,
    NumericError,
    SpectralEstimate,
    hermitize,
)

__all__ = [
    "eigendecompose",
    "clip_to_psd",
    "clip_to_pd",
    "clip_estimate",
    "min_eigenvalue",
]


def eigendecompose(kernel: FrequencyKernel) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (real, descending) and the matching orthonormal
    eigenvector columns of the Hermitian kernel matrix. Clipping acts on
    these raw matrix eigenvalues; positive scaling by quadrature weights
    commutes with clipping, so nothing is lost by not weighting."""
    try:
        w, v = np.linalg.eigh(kernel.matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    return w[::-1], v[:, ::-1]


def _clip(kernel: FrequencyKernel, floor: float) -> np.ndarray:
    """The kernel matrix with its eigenvalues floored at floor, exactly
    Hermitian."""
    w, v = eigendecompose(kernel)
    return hermitize((v * np.maximum(w, floor)) @ v.conj().T)


def _check_floor(eps) -> float:
    """The eigenvalue floor as a float; DomainError unless finite and positive."""
    eps = float(eps)
    if not (math.isfinite(eps) and eps > 0.0):
        raise DomainError(f"eigenvalue floor must be finite and positive, got {eps}")
    return eps


def clip_to_psd(kernel: FrequencyKernel) -> FrequencyKernel:
    """Replace negative eigenvalues by zero: the Frobenius-norm projection of
    the Hermitian matrix onto the positive semi-definite cone. Idempotent and
    a fixed point on inputs that are already PSD."""
    return FrequencyKernel(_clip(kernel, 0.0))


def clip_to_pd(kernel: FrequencyKernel, eps: float) -> FrequencyKernel:
    """Floor all eigenvalues at a finite eps > 0, producing a strictly
    positive definite matrix; differs from the PSD clip by at most eps per
    clipped eigenvalue. A floor of order 1/T keeps the estimator's accuracy."""
    return FrequencyKernel(_clip(kernel, _check_floor(eps)))


def min_eigenvalue(kernel: FrequencyKernel) -> float:
    """Smallest eigenvalue of the Hermitian kernel matrix."""
    try:
        return float(np.linalg.eigvalsh(kernel.matrix)[0])
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc


def clip_estimate(estimate: SpectralEstimate, mode: str,
                  eps: float | None = None) -> SpectralEstimate:
    """Apply a per-frequency eigenvalue clip to a whole spectral estimate.

    mode is one of ``none``, ``semidefinite``, ``definite``; the latter
    requires an eigenvalue floor eps. A given eps is checked, as
    clip_to_pd checks it, whatever the mode.
    """
    if eps is not None:
        eps = _check_floor(eps)
    if mode == "none":
        return estimate
    if mode == "semidefinite":
        floor = 0.0
    elif mode == "definite":
        if eps is None:
            raise DomainError("mode 'definite' needs an eigenvalue floor eps")
        floor = eps
    else:
        raise DomainError(f"unknown psd mode {mode!r}")
    block = np.empty_like(estimate.matrices)
    for out, kernel in zip(block, estimate.kernels):
        out[...] = _clip(kernel, floor)
    return dataclasses.replace(estimate, matrices=block)
