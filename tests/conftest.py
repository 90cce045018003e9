"""Shared fixtures for the Alchemist reproduction test suite.

Seeding: every stochastic test path derives from one master seed so a whole
run reproduces exactly.  The default keeps the historical per-fixture
streams bit-identical; export ``REPRO_TEST_SEED`` to re-randomize all of
them coherently (the seed in use is printed in the pytest header).

Expensive cryptographic setups (CKKS key generation with rotation keys,
the TFHE bootstrapping kit) are session-scoped and shared by every module
that uses the same parameter set.
"""

import math
import os
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

#: Default master seed (the historical fixture seed of this suite).
DEFAULT_SEED = 0xA1C4E
MASTER_SEED = int(os.environ.get("REPRO_TEST_SEED", str(DEFAULT_SEED)), 0)
_SEED_OVERRIDDEN = "REPRO_TEST_SEED" in os.environ


def pytest_report_header(config):
    origin = "REPRO_TEST_SEED" if _SEED_OVERRIDDEN else "default"
    return f"master test seed: {MASTER_SEED:#x} ({origin})"


def _derive(seed: int) -> np.random.Generator:
    """One deterministic stream per call site, derived from the master seed.

    With the default master seed this reproduces the historical direct
    ``default_rng(seed)`` streams; overriding ``REPRO_TEST_SEED`` reseeds
    every derived stream at once.
    """
    if not _SEED_OVERRIDDEN:
        return np.random.default_rng(seed)
    return np.random.default_rng(np.random.SeedSequence((MASTER_SEED, seed)))


@pytest.fixture
def rng():
    """Deterministic RNG so test failures reproduce exactly."""
    return _derive(MASTER_SEED) if _SEED_OVERRIDDEN else (
        np.random.default_rng(MASTER_SEED))


@pytest.fixture
def rng_factory():
    """Factory for independent deterministic RNG streams."""
    return _derive


# --------------------------- kernel call counting ----------------------- #


class CountingBackend:
    """Delegates every kernel to ``inner`` and counts the calls by name,
    and the channel-rows of each call's first operand: every axis but the
    last, so a ``(C, ..., n)`` NTT input counts ``C * ...`` rows."""

    name = "counting"

    def __init__(self, inner):
        self.inner = inner
        self.calls = Counter()
        self.rows = Counter()

    def __getattr__(self, attr):
        kernel = getattr(self.inner, attr)

        def counted(*args, **kwargs):
            self.calls[attr] += 1
            self.rows[attr] += math.prod(np.shape(args[0])[:-1])
            return kernel(*args, **kwargs)

        return counted


def _counted(fn) -> CountingBackend:
    """Run ``fn`` on a counting wrapper of the active kernel backend."""
    from repro.kernels import backend_scope, get_backend

    counter = CountingBackend(get_backend())
    with backend_scope(counter):
        fn()
    return counter


@pytest.fixture
def kernel_calls():
    """``kernel_calls(fn)`` runs ``fn`` on a counting wrapper of the active
    kernel backend and returns the ``Counter`` of its calls per kernel."""
    return lambda fn: _counted(fn).calls


@pytest.fixture
def kernel_rows():
    """``kernel_rows(fn)`` is ``kernel_calls(fn)`` counting channel-rows."""
    return lambda fn: _counted(fn).rows


# --------------------------- shared CKKS stacks ------------------------- #

# The n=512 evaluation stack shared by tests/ckks/{test_scheme, test_noise,
# test_hoisting}.  Rotation steps cover the union of what those modules
# exercise; step 3 is deliberately absent (missing-key tests rely on it).
CKKS512_ROTATIONS = [1, 2, 4, 5, 17]


@pytest.fixture(scope="session")
def ckks512_stack():
    from repro.ckks.encoder import CKKSEncoder
    from repro.ckks.encryptor import CKKSDecryptor, CKKSEncryptor
    from repro.ckks.evaluator import CKKSEvaluator
    from repro.ckks.keys import CKKSKeyGenerator
    from repro.ckks.params import CKKSParams

    params = CKKSParams(n=512, num_levels=4, dnum=2, hamming_weight=32)
    rng = _derive(0xC0FFEE)
    encoder = CKKSEncoder(params.n, params.scale)
    keygen = CKKSKeyGenerator(params, rng)
    sk = keygen.secret_key()
    gk = keygen.rotation_key(CKKS512_ROTATIONS)
    gk.keys.update(keygen.conjugation_key().keys)
    evaluator = CKKSEvaluator(
        params, encoder, relin_key=keygen.relin_key(), galois_key=gk)
    encryptor = CKKSEncryptor(
        params, encoder, rng, public_key=keygen.public_key(), secret_key=sk)
    decryptor = CKKSDecryptor(params, encoder, sk)
    return SimpleNamespace(
        params=params, encoder=encoder, keygen=keygen,
        encryptor=encryptor, decryptor=decryptor, evaluator=evaluator,
        rng=rng,
    )


@pytest.fixture(scope="session")
def ckks128_keys():
    """Keygen for the small n=128/L=3 parameter set (serialization,
    robustness and the CKKS->TFHE bridge share it)."""
    from repro.ckks.encoder import CKKSEncoder
    from repro.ckks.keys import CKKSKeyGenerator
    from repro.ckks.params import CKKSParams

    params = CKKSParams(n=128, num_levels=3, dnum=2, hamming_weight=16)
    rng = _derive(0x5E4)
    encoder = CKKSEncoder(params.n, params.scale)
    keygen = CKKSKeyGenerator(params, rng)
    return SimpleNamespace(
        params=params, encoder=encoder, keygen=keygen, rng=rng)


# --------------------------- shared TFHE kit ---------------------------- #


@pytest.fixture(scope="session")
def tfhe_kit():
    """One TFHE bootstrapping kit (bootstrapping key + keyswitch key) for
    every module that runs real gates at ``TEST_PARAMS``."""
    from repro.tfhe.bootstrap import BootstrapKit
    from repro.tfhe.params import TEST_PARAMS

    return BootstrapKit(TEST_PARAMS, _derive(99))
