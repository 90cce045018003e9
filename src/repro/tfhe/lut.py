"""CMux-tree lookup: fetch a table entry by an *encrypted* index.

The classic TFHE leveled construction: the index bits are TRGSW
ciphertexts, the table entries are TRLWE ciphertexts (or trivial
encryptions of public data), and a binary tree of ``2^k - 1`` CMux gates
selects the addressed entry without revealing the address — the private
database / encrypted-RAM primitive.  Noise grows only additively with the
tree depth, so no bootstrapping is needed inside the tree.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.tfhe.trgsw import TrgswKey, TrgswSample, trgsw_encrypt
from repro.tfhe.trlwe import TrlweSample


def encrypt_index_bits(
    index: int,
    num_bits: int,
    key: TrgswKey,
    rng: np.random.Generator,
) -> List[TrgswSample]:
    """TRGSW-encrypt the bits of ``index`` (LSB first), as one batch."""
    if not 0 <= index < (1 << num_bits):
        raise ValueError(f"index {index} needs more than {num_bits} bits")
    return trgsw_encrypt([(index >> i) & 1 for i in range(num_bits)], key,
                         rng)


def cmux_tree_lookup(
    index_bits: Sequence[TrgswSample],
    table: Sequence[TrlweSample],
) -> TrlweSample:
    """Select ``table[index]`` with a binary CMux tree.

    ``index_bits`` are LSB-first TRGSW bits; ``table`` has exactly
    ``2**len(index_bits)`` TRLWE entries.  Executes ``2^k - 1`` CMux gates.
    """
    k = len(index_bits)
    if len(table) != (1 << k):
        raise ValueError(
            f"table needs {1 << k} entries for {k} index bits, "
            f"got {len(table)}"
        )
    layer = list(table)
    for bit in index_bits:                       # LSB pairs adjacent entries
        layer = [
            bit.cmux(layer[2 * j], layer[2 * j + 1])
            for j in range(len(layer) // 2)
        ]
    return layer[0]


def public_table_to_trlwe(rows: Sequence[np.ndarray]) -> List[TrlweSample]:
    """Wrap public Torus32 polynomials as trivial (noiseless) TRLWE entries
    — the common case where the database is public but the query is not."""
    return [TrlweSample.trivial(np.asarray(row, dtype=np.uint32))
            for row in rows]
