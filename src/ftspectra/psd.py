"""Eigenvalue clipping: modifications of a Hermitian frequency kernel that
restore positive semi-definiteness (negative eigenvalues to zero) or strict
positive definiteness (eigenvalues floored at a small epsilon)."""

from __future__ import annotations

import dataclasses

import numpy as np

from .core import (
    DomainError,
    FrequencyKernel,
    NumericError,
    SpectralEstimate,
    _check_positive,
    _hermitian_sum,
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
    w, v = _eig(np.linalg.eigh, kernel.matrix)
    return w[::-1], v[:, ::-1]


def _eig(solver, matrices):
    """solver, eigh or eigvalsh, on a Hermitian stack; NumericError if it fails."""
    try:
        return solver(matrices)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc


def _clip(block: np.ndarray, floor: float) -> np.ndarray:
    """A (..., d, d) Hermitian stack with each matrix's eigenvalues floored."""
    w, v = _eig(np.linalg.eigh, block)
    v = v[..., ::-1]  # descending, as eigendecompose
    m = v * np.maximum(w[..., ::-1], floor)[..., None, :]
    v = v.conj()  # drops the eigh output: the product holds three blocks, not four
    m = m @ v.swapaxes(-1, -2)
    m = _hermitian_sum(m.real, m.imag)
    m *= 0.5
    return m


def clip_to_psd(kernel: FrequencyKernel) -> FrequencyKernel:
    """Replace negative eigenvalues by zero: the Frobenius-norm projection of
    the Hermitian matrix onto the positive semi-definite cone. Idempotent and
    a fixed point on inputs that are already PSD."""
    return FrequencyKernel(_clip(kernel.matrix, 0.0))


def clip_to_pd(kernel: FrequencyKernel, eps: float) -> FrequencyKernel:
    """Floor all eigenvalues at a finite eps > 0, producing a strictly
    positive definite matrix; differs from the PSD clip by at most eps per
    clipped eigenvalue. A floor of order 1/T keeps the estimator's accuracy."""
    return FrequencyKernel(_clip(kernel.matrix, _check_positive("eigenvalue floor", eps)))


def min_eigenvalue(kernel: FrequencyKernel) -> float:
    """Smallest eigenvalue of the Hermitian kernel matrix."""
    return float(_eig(np.linalg.eigvalsh, kernel.matrix)[0])


def clip_estimate(estimate: SpectralEstimate, mode: str,
                  eps: float | None = None) -> SpectralEstimate:
    """Apply a per-frequency eigenvalue clip to a whole spectral estimate.

    mode is one of ``none``, ``semidefinite``, ``definite``; the latter
    requires an eigenvalue floor eps. A given eps is checked, as
    clip_to_pd checks it, whatever the mode.
    """
    if eps is not None:
        eps = _check_positive("eigenvalue floor", eps)
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
    return dataclasses.replace(estimate, matrices=_clip(estimate.matrices, floor))
