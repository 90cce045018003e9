"""Number-theoretic substrate: modular arithmetic, primes, reduction dataflows.

This package provides the scalar and vectorized modular arithmetic that every
layer above (polynomial rings, RNS, the FHE schemes and the Meta-OP cost
models) is built on.  All vectorized routines operate on ``numpy.uint64``
arrays and are exact for moduli of at most 42 bits (``MAX_FAST_MODULUS_BITS``;
the paper uses 36-bit RNS primes, following SHARP [11]).
"""

from repro.ntmath.modular import (
    MAX_FAST_MODULUS_BITS,
    addmod,
    submod,
    negmod,
    mulmod,
    mulmod_scalar,
    powmod,
    invmod,
    to_mod_array,
)
from repro.ntmath.primes import (
    is_prime,
    next_prime,
    previous_prime,
    generate_ntt_prime,
    generate_ntt_primes,
    primitive_root,
    root_of_unity,
)
from repro.ntmath.reduction import (
    BarrettReducer,
    MontgomeryReducer,
    OpCounter,
)

__all__ = [
    "MAX_FAST_MODULUS_BITS",
    "addmod",
    "submod",
    "negmod",
    "mulmod",
    "mulmod_scalar",
    "powmod",
    "invmod",
    "to_mod_array",
    "is_prime",
    "next_prime",
    "previous_prime",
    "generate_ntt_prime",
    "generate_ntt_primes",
    "primitive_root",
    "root_of_unity",
    "BarrettReducer",
    "MontgomeryReducer",
    "OpCounter",
]
