"""Eigenvalue clipping: modifications of a Hermitian frequency kernel that
restore positive semi-definiteness (negative eigenvalues to zero) or strict
positive definiteness (eigenvalues floored at a small epsilon)."""

from __future__ import annotations

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


def _clip(kernel: FrequencyKernel, floor: float) -> FrequencyKernel:
    w, v = eigendecompose(kernel)
    m = (v * np.maximum(w, floor)) @ v.conj().T
    return FrequencyKernel(hermitize(m))


def clip_to_psd(kernel: FrequencyKernel) -> FrequencyKernel:
    """Replace negative eigenvalues by zero: the Frobenius-norm projection of
    the Hermitian matrix onto the positive semi-definite cone. Idempotent and
    a fixed point on inputs that are already PSD."""
    return _clip(kernel, 0.0)


def clip_to_pd(kernel: FrequencyKernel, eps: float) -> FrequencyKernel:
    """Floor all eigenvalues at a finite eps > 0, producing a strictly
    positive definite matrix; differs from the PSD clip by at most eps per
    clipped eigenvalue. A floor of order 1/T keeps the estimator's accuracy."""
    eps = float(eps)
    if not (math.isfinite(eps) and eps > 0.0):
        raise DomainError(f"eigenvalue floor must be finite and positive, got {eps}")
    return _clip(kernel, eps)


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
    requires an eigenvalue floor eps.
    """
    if mode == "none":
        return estimate
    if mode == "semidefinite":
        kernels = tuple(clip_to_psd(k) for k in estimate.kernels)
    elif mode == "definite":
        if eps is None:
            raise DomainError("mode 'definite' needs an eigenvalue floor eps")
        kernels = tuple(clip_to_pd(k, eps) for k in estimate.kernels)
    else:
        raise DomainError(f"unknown psd mode {mode!r}")
    return SpectralEstimate(estimate.frequencies, kernels, estimate.bandwidth,
                            estimate.kernel_id, estimate.method)
