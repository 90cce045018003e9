"""Distributed 4-step NTT over the modeled computing units.

Executable demonstration of Section 5.3: each computing unit holds a
private slice of the polynomial (slot-based partition, Figure 5(b)); the
4-step NTT runs as *local* sub-NTTs inside each unit, and the only global
data movement is through the transpose register file.

Layout convention (square factorization, ``n = units**2`` — the paper's
N = 16384 over 128 units example):

* coefficient-domain: unit ``u`` holds the contiguous slot block
  ``[u*n2, (u+1)*n2)`` — row ``u`` of the ``n1 x n2`` grid;
* after the forward transform the spectrum is left in *transposed* layout
  (unit ``u`` holds spectrum entries ``k ≡ u (mod n1)``).  Pointwise
  NTT-domain operations are layout-agnostic as long as both operands share
  the layout, and the inverse transform consumes the transposed layout and
  restores block layout — so a multiply costs exactly two transposes in
  and two out, all through the transpose RF.

Every arithmetic step asserts it touches only the executing unit's local
vector; two counters tally the transposes and the words they move, which
is all the global data movement.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.hw.config import AlchemistConfig
from repro.kernels import get_backend
from repro.ntmath.modular import mulmod
from repro.poly.fourstep import FourStepNTT, _matmul_mod


class DistributedFourStepNTT:
    """4-step NTT executed with per-unit local memories + a transpose RF."""

    def __init__(self, config: AlchemistConfig, n: int, q: int):
        units = config.num_units
        if n != units * units:
            raise ValueError(
                f"square factorization required: n = units^2 "
                f"({units}^2 = {units * units}, got n={n})"
            )
        self.config = config
        self.units = units
        self.n = n
        self.q = q
        self.four = FourStepNTT(units, units, q)
        self.transposes_performed = 0
        #: Each transpose streams the polynomial into the RF and out again.
        self.words_through_transpose_rf = 0

    # ------------------------------ data movement ---------------------- #

    def scatter(self, poly: np.ndarray) -> List[np.ndarray]:
        """Distribute a polynomial into per-unit local memories (row u)."""
        poly = np.asarray(poly, dtype=np.uint64)
        if poly.shape != (self.n,):
            raise ValueError(f"expected {self.n} coefficients")
        return [
            poly[u * self.units : (u + 1) * self.units].copy()
            for u in range(self.units)
        ]

    def gather(self, locals_: List[np.ndarray]) -> np.ndarray:
        """Reassemble a polynomial from per-unit memories (row layout)."""
        return np.concatenate(locals_)

    def global_transpose(self, locals_: List[np.ndarray]) -> List[np.ndarray]:
        """Exchange data between units through the transpose RF.

        This is the *only* routine that reads another unit's memory; it
        counts the transpose and the moved words.
        """
        u = self.units
        self.transposes_performed += 1
        self.words_through_transpose_rf += 2 * self.n
        matrix = np.stack(locals_)          # (unit, local_index)
        transposed = matrix.T
        return [transposed[i].copy() for i in range(u)]

    # ------------------------------ local compute ---------------------- #

    def _local_matvec(self, matrix: np.ndarray, vec: np.ndarray) -> np.ndarray:
        if vec.shape != (self.units,):
            raise AssertionError("unit touched non-local data")
        return _matmul_mod(matrix, vec[:, None], self.q)[:, 0]

    # ------------------------------ transforms ------------------------- #

    def forward(self, locals_: List[np.ndarray]) -> List[np.ndarray]:
        """Forward negacyclic NTT; returns the spectrum in transposed
        layout (see module docstring)."""
        four = self.four
        u = self.units
        # step 0 (local): psi-weighting with each unit's slice of the table
        weighted = [
            mulmod(locals_[i], four.weights[i * u : (i + 1) * u], self.q)
            for i in range(u)
        ]
        # global: bring columns into units
        cols = self.global_transpose(weighted)       # unit i2 holds grid[:, i2]
        # step 1 (local): size-n1 column NTT inside each unit
        cols = [self._local_matvec(four.col_matrix, c) for c in cols]
        # step 2 (local): twiddle omega^(i2 * k1); unit i2 owns column i2
        cols = [
            mulmod(cols[i2], four.twiddle[:, i2], self.q) for i2 in range(u)
        ]
        # global: transpose so each unit holds one k1 row
        rows = self.global_transpose(cols)           # unit k1 holds (i2) row
        # step 3 (local): size-n2 row NTT inside each unit
        return [self._local_matvec(four.row_matrix, r) for r in rows]

    def inverse(self, spectrum_locals: List[np.ndarray]) -> List[np.ndarray]:
        """Inverse transform consuming the transposed spectrum layout and
        restoring the block (row) coefficient layout."""
        four = self.four
        u = self.units
        # undo step 3 (local)
        rows = [
            self._local_matvec(four.row_matrix_inv, r)
            for r in spectrum_locals
        ]
        # global: back to column ownership
        cols = self.global_transpose(rows)
        # undo step 2 (local twiddle) — unit i2 owns column i2
        cols = [
            mulmod(cols[i2], four.twiddle_inv[:, i2], self.q)
            for i2 in range(u)
        ]
        # undo step 1 (local)
        cols = [self._local_matvec(four.col_matrix_inv, c) for c in cols]
        # global: back to row ownership
        grid = self.global_transpose(cols)
        # undo step 0 (local): inverse weights include the 1/n factor
        return [
            mulmod(grid[i], four.weights_inv[i * u : (i + 1) * u], self.q)
            for i in range(u)
        ]

    # ------------------------------ pointwise -------------------------- #

    def pointwise_multiply(
        self, a_locals: List[np.ndarray], b_locals: List[np.ndarray]
    ) -> List[np.ndarray]:
        """NTT-domain product — purely local (layout-agnostic)."""
        return [
            mulmod(a, b, self.q) for a, b in zip(a_locals, b_locals)
        ]

    def multiply_polynomials(
        self, a: np.ndarray, b: np.ndarray
    ) -> np.ndarray:
        """Full distributed negacyclic product of two polynomials."""
        fa = self.forward(self.scatter(a))
        fb = self.forward(self.scatter(b))
        prod = self.pointwise_multiply(fa, fb)
        return self.gather(self.inverse(prod))

    # ------------------------------ layout ----------------------------- #

    def spectrum_natural_order(self, spectrum_locals: List[np.ndarray]):
        """Reorder the transposed spectrum layout into the natural-order
        spectrum of :class:`~repro.poly.fourstep.FourStepNTT` (tests only —
        hardware never needs this)."""
        u = self.units
        out = np.empty(self.n, dtype=np.uint64)
        for k1 in range(u):
            # unit k1 holds entries X[k2 * n1 + k1] for all k2
            out[k1::u] = spectrum_locals[k1]
        return out


class DistributedChannelOps:
    """Bconv and DecompPolyMult executed on per-unit slot slices.

    The other two rows of Table 4: under slot partitioning, every unit
    holds *the same slots of every channel and every dnum group*, so base
    conversion (same slot across channels) and the evk accumulation (same
    slot across dnum groups) are embarrassingly unit-local — zero global
    traffic, not even the transpose RF.  This class executes them that way
    and the tests verify the reassembled result equals the global kernels.
    """

    def __init__(self, config: AlchemistConfig, poly_degree: int):
        if poly_degree % config.num_units:
            raise ValueError("degree must divide evenly across the units")
        self.config = config
        self.n = poly_degree
        self.units = config.num_units
        self.slots_per_unit = poly_degree // config.num_units

    def scatter_channels(self, matrix: np.ndarray) -> List[np.ndarray]:
        """Split a ``(channels, n)`` residue matrix into per-unit slices
        holding all channels of the unit's slot block (Figure 5(b))."""
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[1] != self.n:
            raise ValueError(f"expected (channels, {self.n}) matrix")
        s = self.slots_per_unit
        return [matrix[:, u * s : (u + 1) * s].copy()
                for u in range(self.units)]

    def gather_channels(self, locals_: List[np.ndarray]) -> np.ndarray:
        return np.concatenate(locals_, axis=1)

    def bconv(self, x: np.ndarray, source, target) -> np.ndarray:
        """Distributed Bconv: each unit converts only its own slots."""
        backend = get_backend()
        pieces = [
            backend.bconv(local, source, target)
            for local in self.scatter_channels(x)
        ]
        return self.gather_channels(pieces)

    def decomp_poly_mult(
        self, digits: np.ndarray, evk: np.ndarray, q: int
    ) -> np.ndarray:
        """Distributed evk accumulation: ``sum_t digits[t] * evk[t] mod q``
        computed per unit over its slot block (dnum-group access)."""
        digit_slices = self.scatter_channels(digits)
        evk_slices = self.scatter_channels(evk)
        outs = []
        for d_local, e_local in zip(digit_slices, evk_slices):
            prods = mulmod(d_local, e_local, q)
            outs.append(prods.sum(axis=0, dtype=np.uint64) % np.uint64(q))
        return np.concatenate(outs)
