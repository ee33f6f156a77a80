"""Multi-kernel fitting: a dictionary expands into parallel blocks and group
sparsity picks among them.

``build_kernel_set`` takes the dictionary and ``admm_fit`` fits it as is.
Each candidate kernel contributes its own block stack, so a column sees
(L+1)*N*P blocks in (lag, node, kernel) order.  No explicit kernel weights
are estimated; a kernel's relevance shows up as mass in its blocks.  The
fitted ``CoefficientTensor`` reports it: ``attribution_table`` lists every
nonzero block with its kernel, ``kernel_share`` gives each kernel's
fraction of the block-norm mass, and ``kernel_specs`` names the kernels.
"""

from __future__ import annotations

from .solver import CoefficientTensor

# a dictionary fit is a plain CoefficientTensor; the name is kept for callers
MklCoefficientTensor = CoefficientTensor
