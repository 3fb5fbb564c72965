"""Matrix-free Q_tilde over CSR training data (linear kernel).

Identical mathematics to :class:`repro.core.qmatrix.ImplicitQMatrix`, but
the kernel matvec ``K_bar @ v = A_bar @ (A_bar.T @ v)`` runs on the CSR
structure in O(nnz) per CG iteration instead of O(m d) — the paper's
"consider sparse data structures for the CG solver" next step, restricted
to the kernel whose Gram factorization makes it possible (for polynomial /
radial kernels the kernel matrix itself is dense regardless of data
sparsity, which is exactly why PLSSVM ships dense-only).
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..core.qmatrix import QMatrixBase
from ..exceptions import DataError, InvalidParameterError
from ..parameter import Parameter
from ..types import KernelType
from .csr import CSRMatrix

__all__ = ["SparseImplicitQMatrix"]


class SparseImplicitQMatrix(QMatrixBase):
    """Q_tilde whose data lives in CSR form (linear kernel only).

    Accepts either a dense array (converted once) or a ready-made
    :class:`CSRMatrix`.
    """

    operator_name = "sparse_implicit"

    def __init__(
        self,
        X: Union[np.ndarray, CSRMatrix],
        y: np.ndarray,
        param: Parameter,
        *,
        ridge: Optional[np.ndarray] = None,
    ) -> None:
        if KernelType.from_name(param.kernel) is not KernelType.LINEAR:
            raise InvalidParameterError(
                "the sparse CG path supports only the linear kernel "
                "(non-linear kernel matrices are dense regardless of data sparsity)"
            )
        if isinstance(X, CSRMatrix):
            csr = X
            dense = X.to_dense()
        else:
            dense = np.asarray(X, dtype=param.dtype)
            if dense.ndim != 2:
                raise DataError("training data must be 2-D")
            csr = CSRMatrix.from_dense(dense)
        # The base class keeps the dense copy for q_bar / prediction model
        # assembly; the per-iteration matvec only ever touches the CSR data.
        super().__init__(dense, y, param, ridge=ridge)
        self.csr = csr
        self.csr_bar = csr.head(csr.shape[0] - 1)

    @property
    def nnz(self) -> int:
        return self.csr.nnz

    @property
    def density(self) -> float:
        return self.csr.density

    def _kernel_matvec(self, v: np.ndarray) -> np.ndarray:
        return self.csr_bar.matvec(self.csr_bar.rmatvec(v))
