"""The named SPD matrix testbed: K02–K18, G01–G05, and the ML kernel matrices.

The paper's evaluation runs on 22 generated matrices plus three machine
learning kernel matrices (§3).  This registry maps each name to a generator
function of signature ``(n, seed) -> SPDMatrix`` together with descriptive
metadata so benchmarks can iterate over the whole testbed by name.

The matrices are grouped exactly as in §3:

* K02–K03      inverse (squared) elliptic / Helmholtz operators ("Hessians"),
* K04–K10      kernel matrices on 6-D points (Gaussians of various
               bandwidths, Green's-like, polynomial, cosine similarity),
* K12–K14      variable-coefficient advection–diffusion operators,
* K15–K17      pseudo-spectral operators (high off-diagonal rank),
* K18          3D inverse squared Laplacian with variable coefficients,
* G01–G05      inverse graph Laplacians with no coordinates,
* covtype / higgs / mnist   Gaussian-kernel matrices on ML-like point clouds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import MatrixDefinitionError
from .base import KernelMatrix, SPDMatrix
from .datasets import DATASETS, clustered_points, covtype_like, higgs_like, mnist_like
from .kernels import (
    CosineKernel,
    GaussianKernel,
    InverseMultiquadricKernel,
    LaplaceKernel,
    PolynomialKernel,
)
from .spectral import pseudo_spectral_adr_2d, pseudo_spectral_3d
from .stencils import (
    advection_diffusion_matrix,
    inverse_squared_laplacian_3d,
    regularized_inverse_helmholtz_squared_2d,
    regularized_inverse_squared_laplacian_2d,
)

__all__ = ["MatrixInfo", "build_matrix", "available_matrices", "matrix_info", "MATRIX_GROUPS"]


@dataclass(frozen=True)
class MatrixInfo:
    """Metadata describing one entry of the testbed."""

    name: str
    description: str
    group: str
    has_coordinates: bool
    default_n: int
    compresses_well: bool


def _points_6d(n: int, seed: int) -> np.ndarray:
    """6-D point cloud used by the kernel matrices K04–K10 (clustered, low intrinsic dim)."""
    return clustered_points(n, ambient_dim=6, intrinsic_dim=3, clusters=4, seed=seed)


def _kernel_matrix(n: int, seed: int, kernel, name: str, regularization: float = 1e-6) -> KernelMatrix:
    pts = _points_6d(n, seed)
    return KernelMatrix(pts, kernel, regularization=regularization, name=name)


def _graph_matrix(name: str, n: int, seed: int) -> SPDMatrix:
    # Imported here: the graph generators pull in networkx, which only
    # G01–G05 need, so ``import repro`` does not pay for it.
    from .graphs import graph_matrix

    return graph_matrix(name, n, seed)


_BUILDERS: dict[str, Callable[[int, int], SPDMatrix]] = {
    # -- inverse elliptic operators (Hessian-like) --------------------------
    "K02": lambda n, seed: regularized_inverse_squared_laplacian_2d(n, name="K02"),
    "K03": lambda n, seed: regularized_inverse_helmholtz_squared_2d(n, name="K03"),
    # -- 6-D kernel matrices -------------------------------------------------
    "K04": lambda n, seed: _kernel_matrix(n, seed, GaussianKernel(bandwidth=1.0), "K04"),
    "K05": lambda n, seed: _kernel_matrix(n, seed, GaussianKernel(bandwidth=3.0), "K05"),
    "K06": lambda n, seed: _kernel_matrix(n, seed, GaussianKernel(bandwidth=0.15), "K06", regularization=1e-3),
    "K07": lambda n, seed: _kernel_matrix(n, seed, InverseMultiquadricKernel(shift=1.0, power=1.0), "K07"),
    "K08": lambda n, seed: _kernel_matrix(n, seed, InverseMultiquadricKernel(shift=0.5, power=2.0), "K08"),
    "K09": lambda n, seed: _kernel_matrix(n, seed, PolynomialKernel(gamma=1.0 / 6.0, coef0=1.0, degree=2), "K09", regularization=1e-3),
    "K10": lambda n, seed: _kernel_matrix(n, seed, CosineKernel(shift=1e-2), "K10", regularization=1e-2),
    "K11": lambda n, seed: _kernel_matrix(n, seed, LaplaceKernel(bandwidth=1.0), "K11"),
    # -- advection–diffusion operators ---------------------------------------
    "K12": lambda n, seed: advection_diffusion_matrix(n, diffusion_contrast=100.0, advection_strength=5.0, seed=seed, invert=True, name="K12"),
    "K13": lambda n, seed: advection_diffusion_matrix(n, diffusion_contrast=1000.0, advection_strength=20.0, seed=seed + 1, invert=True, name="K13"),
    "K14": lambda n, seed: advection_diffusion_matrix(n, diffusion_contrast=10000.0, advection_strength=50.0, seed=seed + 2, invert=False, name="K14"),
    # -- pseudo-spectral operators (high rank) --------------------------------
    "K15": lambda n, seed: pseudo_spectral_adr_2d(n, advection=5.0, contrast=50.0, seed=seed, name="K15"),
    "K16": lambda n, seed: pseudo_spectral_adr_2d(n, advection=20.0, contrast=200.0, seed=seed + 1, name="K16"),
    "K17": lambda n, seed: pseudo_spectral_3d(n, contrast=20.0, seed=seed, name="K17"),
    # -- 3D inverse squared Laplacian -----------------------------------------
    "K18": lambda n, seed: inverse_squared_laplacian_3d(n, contrast=10.0, seed=seed, name="K18"),
    # -- graph Laplacians ------------------------------------------------------
    "G01": lambda n, seed: _graph_matrix("G01", n, seed),
    "G02": lambda n, seed: _graph_matrix("G02", n, seed),
    "G03": lambda n, seed: _graph_matrix("G03", n, seed),
    "G04": lambda n, seed: _graph_matrix("G04", n, seed),
    "G05": lambda n, seed: _graph_matrix("G05", n, seed),
    # -- machine-learning kernel matrices --------------------------------------
    "covtype": lambda n, seed: KernelMatrix(
        covtype_like(n, seed), GaussianKernel(bandwidth=DATASETS["covtype"].default_bandwidth), regularization=1e-6, name="covtype"
    ),
    "higgs": lambda n, seed: KernelMatrix(
        higgs_like(n, seed), GaussianKernel(bandwidth=DATASETS["higgs"].default_bandwidth), regularization=1e-6, name="higgs"
    ),
    "mnist": lambda n, seed: KernelMatrix(
        mnist_like(n, seed), GaussianKernel(bandwidth=DATASETS["mnist"].default_bandwidth), regularization=1e-6, name="mnist"
    ),
}


_INFO: dict[str, MatrixInfo] = {
    "K02": MatrixInfo("K02", "2D regularized inverse Laplacian squared (PDE-constrained Hessian)", "hessian", True, 4096, True),
    "K03": MatrixInfo("K03", "2D regularized inverse Helmholtz squared, 10 points/wavelength", "hessian", True, 4096, True),
    "K04": MatrixInfo("K04", "Gaussian kernel in 6D, moderate bandwidth", "kernel6d", True, 4096, True),
    "K05": MatrixInfo("K05", "Gaussian kernel in 6D, wide bandwidth", "kernel6d", True, 4096, True),
    "K06": MatrixInfo("K06", "Gaussian kernel in 6D, narrow bandwidth (high rank)", "kernel6d", True, 4096, False),
    "K07": MatrixInfo("K07", "Green's-function-like inverse multiquadric kernel in 6D", "kernel6d", True, 4096, True),
    "K08": MatrixInfo("K08", "Steeper inverse multiquadric kernel in 6D", "kernel6d", True, 4096, True),
    "K09": MatrixInfo("K09", "Polynomial kernel (degree 2) in 6D", "kernel6d", True, 4096, True),
    "K10": MatrixInfo("K10", "Cosine-similarity kernel in 6D", "kernel6d", True, 4096, True),
    "K11": MatrixInfo("K11", "Exponential (Laplace) kernel in 6D", "kernel6d", True, 4096, True),
    "K12": MatrixInfo("K12", "2D variable-coefficient advection-diffusion, inverse normal form", "advection", True, 4096, True),
    "K13": MatrixInfo("K13", "2D advection-diffusion, higher contrast (rank easily underestimated)", "advection", True, 4096, True),
    "K14": MatrixInfo("K14", "2D advection-diffusion operator (forward normal form)", "advection", True, 4096, True),
    "K15": MatrixInfo("K15", "2D pseudo-spectral advection-diffusion-reaction (high rank)", "spectral", True, 4096, False),
    "K16": MatrixInfo("K16", "2D pseudo-spectral ADR, stronger advection (high rank)", "spectral", True, 4096, False),
    "K17": MatrixInfo("K17", "3D pseudo-spectral operator with variable coefficients (high rank)", "spectral", True, 4096, False),
    "K18": MatrixInfo("K18", "3D inverse squared Laplacian with variable coefficients", "hessian", True, 4096, True),
    "G01": MatrixInfo("G01", "inverse Laplacian of a power-grid-like graph (no coordinates)", "graph", False, 4096, True),
    "G02": MatrixInfo("G02", "inverse Laplacian of a heavy-tailed economic-network-like graph", "graph", False, 4096, True),
    "G03": MatrixInfo("G03", "inverse Laplacian of a random geometric graph", "graph", False, 4096, True),
    "G04": MatrixInfo("G04", "inverse Laplacian of a near-regular small-world graph", "graph", False, 4096, True),
    "G05": MatrixInfo("G05", "inverse Laplacian of a periodic 4D lattice (QCD-like)", "graph", False, 4096, True),
    "covtype": MatrixInfo("covtype", "Gaussian kernel on COVTYPE-like 54D points", "ml", True, 8192, True),
    # The paper itself only reaches eps2 ~ 2e-1 on HIGGS (Table 5, #32-#34):
    # the narrow bandwidth relative to the point spread makes it a hard case.
    "higgs": MatrixInfo("higgs", "Gaussian kernel on HIGGS-like 28D points (narrow bandwidth, hard)", "ml", True, 8192, False),
    "mnist": MatrixInfo("mnist", "Gaussian kernel on MNIST-like 780D points", "ml", True, 8192, True),
}

MATRIX_GROUPS: dict[str, list[str]] = {}
for _name, _info in _INFO.items():
    MATRIX_GROUPS.setdefault(_info.group, []).append(_name)


def available_matrices(group: str | None = None) -> list[str]:
    """Names of the matrices in the testbed (optionally restricted to one group)."""
    if group is None:
        return sorted(_BUILDERS)
    if group not in MATRIX_GROUPS:
        raise MatrixDefinitionError(f"unknown matrix group {group!r}; expected one of {sorted(MATRIX_GROUPS)}")
    return sorted(MATRIX_GROUPS[group])


def matrix_info(name: str) -> MatrixInfo:
    """Metadata for one named matrix."""
    if name not in _INFO:
        raise MatrixDefinitionError(f"unknown matrix {name!r}; expected one of {sorted(_INFO)}")
    return _INFO[name]


def build_matrix(name: str, n: int, seed: int = 0) -> SPDMatrix:
    """Construct the named test matrix at size ``n``.

    Raises :class:`MatrixDefinitionError` for unknown names or invalid sizes.
    """
    if name not in _BUILDERS:
        raise MatrixDefinitionError(f"unknown matrix {name!r}; expected one of {sorted(_BUILDERS)}")
    if n < 4:
        raise MatrixDefinitionError(f"matrix size must be at least 4, got {n}")
    return _BUILDERS[name](int(n), int(seed))
