"""Bounds for the NTT context caches (the plan-cache rule, applied here).

``get_context``/``get_multi_context`` key on ``(n, q)``/``(n, primes)``;
a serving process that cycles parameter sets walks fresh keys through
them forever, so both must evict (an unbounded ``lru_cache`` of twiddle
tables is a slow memory leak).
"""

import numpy as np

from repro.poly.ntt import get_context, get_multi_context

#: Primes ≡ 1 (mod 16): valid NTT moduli for ring degree 8, in bulk.
_N = 8


def _ntt_primes(count: int):
    out = []
    q = 17
    while len(out) < count:
        if all(q % p for p in range(2, int(q ** 0.5) + 1)):
            out.append(q)
        q += 2 * _N
    return out


def test_context_caches_are_bounded():
    for fn in (get_context, get_multi_context):
        maxsize = fn.cache_info().maxsize
        assert maxsize is not None, f"{fn.__name__}: unbounded lru_cache"
        assert maxsize >= 256, f"{fn.__name__}: bound below working set"


def test_get_context_evicts_at_the_bound():
    get_context.cache_clear()
    maxsize = get_context.cache_info().maxsize
    primes = _ntt_primes(maxsize + 16)
    for q in primes:
        get_context(_N, q)
    info = get_context.cache_info()
    assert info.currsize == maxsize          # bounded, not monotone
    assert info.misses == maxsize + 16
    # the oldest key was evicted: re-asking recomputes (a miss, not a hit)
    get_context(_N, primes[0])
    assert get_context.cache_info().misses == maxsize + 17
    get_context.cache_clear()


def test_get_context_recomputes_identically_after_eviction():
    get_context.cache_clear()
    primes = _ntt_primes(get_context.cache_info().maxsize + 8)
    before = get_context(_N, primes[0]).psi_br.copy()
    for q in primes[1:]:                     # flush primes[0] out
        get_context(_N, q)
    np.testing.assert_array_equal(before, get_context(_N, primes[0]).psi_br)
    get_context.cache_clear()


def test_get_multi_context_evicts_at_the_bound():
    get_multi_context.cache_clear()
    maxsize = get_multi_context.cache_info().maxsize
    primes = _ntt_primes(maxsize + 8)
    for q in primes:
        get_multi_context(_N, (q,))
    info = get_multi_context.cache_info()
    assert info.currsize == maxsize
    assert info.misses == maxsize + 8
    get_multi_context(_N, (primes[0],))
    assert get_multi_context.cache_info().misses == maxsize + 9
    get_multi_context.cache_clear()


def _table_bytes(ctx) -> int:
    return sum(v.nbytes for v in vars(ctx).values() if isinstance(v, np.ndarray))


def test_multi_context_tables_stay_compact():
    """A context holds its stacked ``psi_br`` and ``ipsi_br`` (``2n`` words
    per channel) plus a few per-channel scalars, and transforms add nothing.

    ``ckks-chain`` keeps dozens of contexts (about 1,660 channels at
    n = 256) alive: per-stage twiddle tables, or cached per-batch-shape
    buffers, would cost tens of MiB, so stage twiddles must stay views of
    the stacked tables.
    """
    from repro.ntmath.primes import generate_ntt_primes

    word = np.dtype(np.uint64).itemsize
    scalars = 8                              # per-channel q, 2q, 1/q, n^-1, ...
    for n, channels in ((8, 3), (256, 5)):
        primes = tuple(generate_ntt_primes(36, n, channels))
        ctx = get_multi_context(n, primes)
        bound = channels * (2 * n + scalars) * word
        assert _table_bytes(ctx) <= bound
        rng = np.random.default_rng(n)
        before = _table_bytes(ctx)
        attrs = set(vars(ctx))
        for batch in ((), (3,), (2, 4)):
            x = np.stack([rng.integers(0, q, size=batch + (n,),
                                       dtype=np.uint64) for q in primes])
            ctx.inverse(ctx.forward(x))
        assert _table_bytes(ctx) == before and set(vars(ctx)) == attrs
