"""Multi-kernel fitting: a dictionary expands into parallel blocks and group
sparsity picks among them.

``build_kernel_set`` takes the dictionary and ``admm_fit`` fits it as is.
Each candidate kernel contributes its own Gram stack, so a column sees
(L+1)*N*P blocks in (lag, node, kernel) order.  No explicit kernel weights
are estimated; a kernel's relevance shows up as mass in its blocks, and
``kernel_share`` reports the resulting fractions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .kernels import KernelSpec
from .solver import CoefficientTensor


@dataclass
class MklCoefficientTensor(CoefficientTensor):
    """Coefficients from a dictionary fit, with the kernels they belong to.

    ``kernel_specs[p]`` names the kernel behind slice p of the tensor.
    """

    kernel_specs: tuple[KernelSpec, ...] | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.kernel_specs is not None:
            specs = tuple(self.kernel_specs)
            if len(specs) != self.n_kernels:
                raise ConfigError(
                    f"{len(specs)} kernel specs for {self.n_kernels} tensor slices"
                )
            object.__setattr__(self, "kernel_specs", specs)

    def attribution_table(self) -> list[dict]:
        """Nonzero blocks as rows {src, dst, lag, kernel, block_norm},
        sorted by (lag, src, dst, kernel)."""
        norms = self.block_norms()
        rows = []
        for l in range(self.lag + 1):
            for i in range(self.n_nodes):
                for j in range(self.n_nodes):
                    for p in range(self.n_kernels):
                        v = float(norms[p, l, i, j])
                        if v > 0.0:
                            rows.append(
                                {"src": i, "dst": j, "lag": l, "kernel": p, "block_norm": v}
                            )
        return rows

    def kernel_share(self) -> np.ndarray:
        """Fraction of total block-norm mass carried by each kernel.

        Sums to 1 when any block is nonzero; an all-zero tensor yields the
        all-zero share vector.
        """
        mass = self.block_norms().sum(axis=(1, 2, 3))
        total = mass.sum()
        if total == 0.0:
            return np.zeros(self.n_kernels)
        return mass / total

