"""Bounds and identity guarantees for the kernel plan caches.

The serving layer re-plans per batch shape, so a long-lived process
walks many ``(primes, n, k)`` keys through these caches.  Every cache
must therefore carry an explicit ``maxsize`` — an unbounded ``lru_cache``
on a parameter-keyed function is a slow memory leak.
"""

import numpy as np
import pytest

from repro.kernels import plans
from repro.kernels.plans import (
    automorphism_plan,
    basis_plan,
    ntt_automorphism_plan,
)


def _cached_functions():
    out = []
    for name, obj in vars(plans).items():
        if callable(obj) and hasattr(obj, "cache_info"):
            out.append((name, obj))
    return sorted(out)


def test_module_exposes_the_expected_caches():
    names = [name for name, _ in _cached_functions()]
    assert names == ["automorphism_plan", "basis_plan", "conversion_plan",
                     "moddown_plan", "ntt_automorphism_plan", "rescale_plan"]


@pytest.mark.parametrize("name,fn", _cached_functions())
def test_every_plan_cache_is_bounded(name, fn):
    maxsize = fn.cache_info().maxsize
    assert maxsize is not None, f"{name}: unbounded lru_cache"
    assert maxsize >= 1024, f"{name}: bound {maxsize} below working-set floor"


def test_automorphism_cache_evicts_at_the_bound():
    automorphism_plan.cache_clear()
    maxsize = automorphism_plan.cache_info().maxsize
    for i in range(maxsize + 64):
        automorphism_plan(8 + 2 * i, 3)
    info = automorphism_plan.cache_info()
    assert info.currsize == maxsize          # bounded, not monotone
    assert info.misses == maxsize + 64
    # the oldest key was evicted: re-asking recomputes (a miss, not a hit)
    automorphism_plan(8, 3)
    assert automorphism_plan.cache_info().misses == maxsize + 65
    automorphism_plan.cache_clear()


def test_basis_plan_hits_return_the_same_object():
    basis_plan.cache_clear()
    primes = (97, 193)
    a = basis_plan(primes)
    b = basis_plan(primes)
    assert a is b
    assert basis_plan.cache_info().hits >= 1
    np.testing.assert_array_equal(a.q_col[:, 0], np.array(primes))
    basis_plan.cache_clear()


def test_automorphism_plan_contents_survive_eviction_pressure():
    automorphism_plan.cache_clear()
    dest0, flip0 = (x.copy() for x in automorphism_plan(16, 5))
    maxsize = automorphism_plan.cache_info().maxsize
    for i in range(maxsize + 8):             # flush (16, 5) out
        automorphism_plan(18 + 2 * i, 3)
    dest1, flip1 = automorphism_plan(16, 5)  # recomputed, same math
    np.testing.assert_array_equal(dest0, dest1)
    np.testing.assert_array_equal(flip0, flip1)
    automorphism_plan.cache_clear()


def test_ntt_automorphism_cache_evicts_at_the_bound():
    ntt_automorphism_plan.cache_clear()
    maxsize = ntt_automorphism_plan.cache_info().maxsize
    for i in range(maxsize + 16):
        ntt_automorphism_plan(8, 2 * i + 1)   # k and k + 16 are distinct keys
    info = ntt_automorphism_plan.cache_info()
    assert info.currsize == maxsize
    assert info.misses == maxsize + 16
    ntt_automorphism_plan.cache_clear()
