"""Kernel functions used to build the paper's kernel test matrices.

The paper's K04–K10 are "kernel matrices in six dimensions (Gaussians with
different bandwidths, narrow and wide; Laplacian Green's function,
polynomial and cosine-similarity)", and the machine-learning matrices
(COVTYPE / HIGGS / MNIST) use a Gaussian kernel with a dataset-specific
bandwidth ``h``.

Each kernel is a small callable object: ``kernel(X, Y)`` returns the dense
pairwise block, ``kernel.diagonal(X)`` returns ``k(x, x)`` cheaply.  All of
them are positive (semi-)definite on distinct points; generators that use
potentially rank-deficient kernels add a small diagonal shift when wrapping
them in :class:`repro.matrices.base.KernelMatrix`.

The distance kernels (Gaussian, Laplace, inverse multiquadric, Matérn) are
pointwise functions of the squared distance: ``from_sq_dists(d2)`` is that
function and ``from_sq_dists_inplace(d2, scratch)`` the same expression
evaluated in place, which is how ``KernelMatrix`` evaluates them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "pairwise_sq_dists",
    "GaussianKernel",
    "LaplaceKernel",
    "InverseMultiquadricKernel",
    "PolynomialKernel",
    "CosineKernel",
    "MaternKernel",
]


def pairwise_sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between every row of ``x`` and of ``y``.

    Uses the expansion ``||a-b||² = ||a||² + ||b||² − 2 a·b`` (one GEMM) and
    clips tiny negatives caused by cancellation.  Accepts stacked inputs
    (``(..., p, d)`` against ``(..., k, d)``), returning ``(..., p, k)``.
    :class:`repro.matrices.base.KernelMatrix` evaluates the same expression
    in place, bit for bit; this allocating form is its test oracle.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    xx = np.einsum("...ij,...ij->...i", x, x)[..., :, None]
    yy = np.einsum("...ij,...ij->...i", y, y)[..., None, :]
    d2 = xx + yy - 2.0 * np.matmul(x, np.swapaxes(y, -1, -2))
    np.clip(d2, 0.0, None, out=d2)
    return d2


@dataclass(frozen=True)
class GaussianKernel:
    """Gaussian (RBF) kernel ``k(x, y) = exp(−||x−y||² / (2 h²))``.

    ``bandwidth`` is the paper's ``h``; small ``h`` gives a "narrow" kernel
    whose matrix is nearly diagonal (high off-diagonal rank after
    normalization), large ``h`` gives a "wide", numerically low-rank matrix.
    """

    bandwidth: float = 1.0

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.from_sq_dists(pairwise_sq_dists(x, y))

    def from_sq_dists(self, d2: np.ndarray) -> np.ndarray:
        """Kernel values from squared distances (any shape)."""
        return np.exp(-d2 / (2.0 * self.bandwidth**2))

    def from_sq_dists_inplace(self, d2: np.ndarray, scratch: np.ndarray) -> None:
        """Overwrite ``d2`` with :meth:`from_sq_dists` of it, bit for bit.

        ``scratch`` is a same-shape buffer the kernel may clobber.  Every
        distance kernel keeps its out-of-place expression order here, one
        in-place ufunc per operation.
        """
        np.negative(d2, out=d2)
        np.divide(d2, 2.0 * self.bandwidth**2, out=d2)
        np.exp(d2, out=d2)

    def diagonal(self, x: np.ndarray) -> np.ndarray:
        return np.ones(np.atleast_2d(x).shape[0])


@dataclass(frozen=True)
class LaplaceKernel:
    """Exponential ("Laplace") kernel ``k(x, y) = exp(−||x−y|| / h)``.

    Positive definite in every dimension; decays more slowly than the
    Gaussian so its off-diagonal blocks carry higher numerical rank.
    """

    bandwidth: float = 1.0

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.from_sq_dists(pairwise_sq_dists(x, y))

    def from_sq_dists(self, d2: np.ndarray) -> np.ndarray:
        """Kernel values from squared distances (any shape)."""
        return np.exp(-np.sqrt(d2) / self.bandwidth)

    def from_sq_dists_inplace(self, d2: np.ndarray, scratch: np.ndarray) -> None:
        """Overwrite ``d2`` with :meth:`from_sq_dists` of it, bit for bit."""
        np.sqrt(d2, out=d2)
        np.negative(d2, out=d2)
        np.divide(d2, self.bandwidth, out=d2)
        np.exp(d2, out=d2)

    def diagonal(self, x: np.ndarray) -> np.ndarray:
        return np.ones(np.atleast_2d(x).shape[0])


@dataclass(frozen=True)
class InverseMultiquadricKernel:
    """Inverse multiquadric ``k(x, y) = (||x−y||² + c²)^(−p/2)``.

    This is the positive-definite stand-in for the "Laplacian Green's
    function" kernel of the paper (a Green's function decays like a negative
    power of distance and blows up at the origin; the ``c²`` shift keeps the
    diagonal finite while preserving the long-range algebraic decay that
    makes these matrices hard for pure low-rank methods).
    """

    shift: float = 1.0
    power: float = 1.0

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.from_sq_dists(pairwise_sq_dists(x, y))

    def from_sq_dists(self, d2: np.ndarray) -> np.ndarray:
        """Kernel values from squared distances (any shape)."""
        return np.power(d2 + self.shift**2, -self.power / 2.0)

    def from_sq_dists_inplace(self, d2: np.ndarray, scratch: np.ndarray) -> None:
        """Overwrite ``d2`` with :meth:`from_sq_dists` of it, bit for bit."""
        np.add(d2, self.shift**2, out=d2)
        np.power(d2, -self.power / 2.0, out=d2)

    def diagonal(self, x: np.ndarray) -> np.ndarray:
        n = np.atleast_2d(x).shape[0]
        return np.full(n, self.shift ** (-self.power))


@dataclass(frozen=True)
class PolynomialKernel:
    """Polynomial kernel ``k(x, y) = (γ x·y + c)^p`` (normalized inputs assumed)."""

    gamma: float = 1.0
    coef0: float = 1.0
    degree: int = 2

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.atleast_2d(np.asarray(y, dtype=np.float64))
        return (self.gamma * (x @ y.T) + self.coef0) ** self.degree

    def diagonal(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        sq = np.einsum("ij,ij->i", x, x)
        return (self.gamma * sq + self.coef0) ** self.degree


@dataclass(frozen=True)
class CosineKernel:
    """Cosine-similarity kernel ``k(x, y) = x·y / (||x|| ||y||)``.

    The Gram matrix of normalized vectors is PSD but typically rank-deficient
    (rank ≤ d), so generators wrapping it in a
    :class:`repro.matrices.base.KernelMatrix` add a diagonal regularization
    there — matching how the paper's angle-similarity matrices must be
    regularized to be strictly SPD.  The ``shift`` field is kept only as a
    label of that convention; the kernel itself is the plain cosine
    similarity (diagonal exactly 1).
    """

    shift: float = 1e-3

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.atleast_2d(np.asarray(y, dtype=np.float64))
        nx = np.linalg.norm(x, axis=1)
        ny = np.linalg.norm(y, axis=1)
        nx = np.where(nx == 0.0, 1.0, nx)
        ny = np.where(ny == 0.0, 1.0, ny)
        return (x @ y.T) / nx[:, None] / ny[None, :]

    def diagonal(self, x: np.ndarray) -> np.ndarray:
        return np.ones(np.atleast_2d(x).shape[0])


@dataclass(frozen=True)
class MaternKernel:
    """Matérn-3/2 kernel ``k(r) = (1 + √3 r/h) exp(−√3 r/h)``.

    Not used by the paper's testbed directly but exercised by the extension
    benchmarks; it sits between the Gaussian (smooth, fast rank decay) and
    the exponential (rough, slow rank decay).
    """

    bandwidth: float = 1.0

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.from_sq_dists(pairwise_sq_dists(x, y))

    def from_sq_dists(self, d2: np.ndarray) -> np.ndarray:
        """Kernel values from squared distances (any shape)."""
        scaled = np.sqrt(3.0) * np.sqrt(d2) / self.bandwidth
        return (1.0 + scaled) * np.exp(-scaled)

    def from_sq_dists_inplace(self, d2: np.ndarray, scratch: np.ndarray) -> None:
        """Overwrite ``d2`` with :meth:`from_sq_dists` of it, bit for bit."""
        np.sqrt(d2, out=d2)
        np.multiply(d2, np.sqrt(3.0), out=d2)
        np.divide(d2, self.bandwidth, out=d2)          # d2 holds ``scaled``
        np.negative(d2, out=scratch)
        np.exp(scratch, out=scratch)
        np.add(d2, 1.0, out=d2)
        np.multiply(d2, scratch, out=d2)

    def diagonal(self, x: np.ndarray) -> np.ndarray:
        return np.ones(np.atleast_2d(x).shape[0])
