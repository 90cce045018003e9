"""The five workloads of the end-to-end benchmark.

A workload is one kind of request a caller of the library makes.  Each
has four steps:

``setup(seed, rng)``
    Builds keys, evaluators and programs from the generator seeded by
    ``seed``; the returned context holds them.
``inputs(ctx, rng)``
    Draws one request's inputs from that request's own generator, which
    also becomes the encryptor's randomness, so a request's output is a
    function of ``(seed, index)`` alone.  Untimed.
``run(ctx, inputs)``
    The request itself, through the library's public API.  Timed.
``check(ctx, inputs, output)``
    Compares the output with a plaintext reference.  Untimed.

The library only ever sees the generated inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Dict, Tuple

import numpy as np

from benchmarks.e2e.metrics import ROOT


@dataclass(frozen=True)
class Check:
    """The verdict on one request's output."""

    ok: bool
    #: Hash of the output; equal outputs have equal digests.
    digest: str
    #: Maximum slot error of a CKKS result (``None`` for exact schemes).
    error: Any = None


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _approx(output: np.ndarray, expected: np.ndarray, tol: float) -> Check:
    err = float(np.abs(np.asarray(output) - expected).max())
    return Check(err <= tol, _digest(np.asarray(output).tobytes()), err)


def _ckks_stack(params, rng):
    from repro.ckks.encoder import CKKSEncoder
    from repro.ckks.encryptor import CKKSDecryptor, CKKSEncryptor
    from repro.ckks.evaluator import CKKSEvaluator
    from repro.ckks.keys import CKKSKeyGenerator

    encoder = CKKSEncoder(params.n, params.scale)
    keygen = CKKSKeyGenerator(params, rng)
    evaluator = CKKSEvaluator(params, encoder, relin_key=keygen.relin_key())
    return SimpleNamespace(
        params=params, encoder=encoder, keygen=keygen, evaluator=evaluator,
        encryptor=CKKSEncryptor(params, encoder, rng,
                                public_key=keygen.public_key()),
        decryptor=CKKSDecryptor(params, encoder, keygen.secret_key()),
    )


class CkksChain:
    name = "ckks-chain"
    why = ("Cmult+rescale, rotate and add at the paper chain (L=44, dnum=4): "
           "wide-limb NTT, Bconv and Modup/Moddown carry the time")
    tolerance = 1e-4

    def setup(self, seed, rng):
        from repro.ckks.params import CKKSParams

        ctx = _ckks_stack(CKKSParams(n=256, num_levels=44, dnum=4), rng)
        ctx.evaluator.galois_key = ctx.keygen.rotation_key([1])
        return ctx

    def inputs(self, ctx, rng):
        ctx.encryptor.rng = rng
        slots = ctx.params.slots
        return rng.uniform(-1, 1, slots), rng.uniform(-1, 1, slots)

    def run(self, ctx, inputs):
        z, w = inputs
        ev = ctx.evaluator
        prod = ev.multiply_rescale(ctx.encryptor.encrypt_values(z),
                                   ctx.encryptor.encrypt_values(w))
        return ctx.decryptor.decrypt(ev.add(prod, ev.rotate(prod, 1)))

    def check(self, ctx, inputs, output):
        z, w = inputs
        zw = z * w
        return _approx(output, zw + np.roll(zw, -1), self.tolerance)


class CkksBootstrap:
    name = "ckks-bootstrap"
    why = ("a full bootstrap at n=128: hundreds of small-ring rotations, so "
           "per-call overhead and the linear-transform layer dominate")
    tolerance = 2e-2

    def setup(self, seed, rng):
        from repro.ckks.bootstrap import CKKSBootstrapper
        from repro.ckks.params import CKKSParams

        params = CKKSParams(n=128, num_levels=16, dnum=2, hamming_weight=16)
        ctx = _ckks_stack(params, rng)
        ctx.boot = CKKSBootstrapper(params, ctx.encoder,
                                    ctx.evaluator, r=7, taylor_terms=5)
        galois = ctx.keygen.rotation_key(ctx.boot.required_rotations())
        galois.keys.update(ctx.keygen.conjugation_key().keys)
        ctx.evaluator.galois_key = galois
        return ctx

    def inputs(self, ctx, rng):
        ctx.encryptor.rng = rng
        return rng.uniform(-1, 1, ctx.params.slots)

    def run(self, ctx, z):
        ct = ctx.encryptor.encrypt_values(z, level=0)
        return ctx.decryptor.decrypt(ctx.boot.bootstrap(ct))

    def check(self, ctx, z, output):
        return _approx(output, z, self.tolerance)


class TfheInt:
    name = "tfhe-int"
    why = ("4-bit encrypted equality: 7 gate bootstraps on a 2-limb torus "
           "NTT, where limb batching has nothing to batch")
    width = 4

    def setup(self, seed, rng):
        from repro.tfhe.bootstrap import BootstrapKit
        from repro.tfhe.gates import TFHEGates
        from repro.tfhe.integers import EncryptedIntEvaluator
        from repro.tfhe.params import TEST_PARAMS

        kit = BootstrapKit(TEST_PARAMS, rng)
        return SimpleNamespace(kit=kit,
                               ints=EncryptedIntEvaluator(TFHEGates(kit)))

    def inputs(self, ctx, rng):
        ctx.kit.rng = rng
        top = 1 << self.width
        a = int(rng.integers(top))
        # half of the pairs are equal, so both answers are exercised
        b = a if rng.random() < 0.5 else (a + int(rng.integers(1, top))) % top
        return a, b

    def run(self, ctx, inputs):
        a, b = inputs
        ints = ctx.ints
        sample = ints.equal(ints.encrypt(a, self.width),
                            ints.encrypt(b, self.width))
        return ints.gates.decrypt_bit(sample), sample

    def check(self, ctx, inputs, output):
        bit, sample = output
        a, b = inputs
        digest = _digest(bytes([bit]), np.asarray(sample.a).tobytes(),
                         str(int(sample.b)).encode())
        return Check(bit == (a == b), digest)


class BfvMult:
    name = "bfv-mult"
    why = ("BFV tensor product plus relinearization at n=256: bigint work "
           "dominates, RNS kernels take about a tenth")

    def setup(self, seed, rng):
        from repro.bfv import (
            BFVDecryptor,
            BFVEncoder,
            BFVEncryptor,
            BFVEvaluator,
            BFVKeyGenerator,
            BFVParams,
        )

        params = BFVParams(n=256, num_primes=4)
        encoder = BFVEncoder(params.n, params.plain_modulus)
        keygen = BFVKeyGenerator(params, rng)
        return SimpleNamespace(
            params=params,
            encryptor=BFVEncryptor(params, rng, keygen.public_key(), encoder),
            decryptor=BFVDecryptor(params, keygen.secret_key(), encoder),
            evaluator=BFVEvaluator(params, relin_key=keygen.relin_key()),
        )

    def inputs(self, ctx, rng):
        ctx.encryptor.rng = rng
        t, n = ctx.params.plain_modulus, ctx.params.n
        return rng.integers(0, t, n), rng.integers(0, t, n)

    def run(self, ctx, inputs):
        x, y = inputs
        enc = ctx.encryptor
        product = ctx.evaluator.multiply(enc.encrypt_values(x),
                                         enc.encrypt_values(y))
        return ctx.decryptor.decrypt_values(product)

    def check(self, ctx, inputs, output):
        x, y = inputs
        t = ctx.params.plain_modulus
        out = np.asarray(output, dtype=np.int64)
        return Check(bool(np.array_equal(out % t, (x * y) % t)),
                     _digest(out.tobytes()))


#: The committed goldens the ``serve`` and ``faults`` outputs must equal
#: at seed 0.
TOOLCHAIN_GOLDENS = {"serve": "BENCH_serving.json",
                     "faults": "BENCH_faults.json"}


class Toolchain:
    name = "toolchain"
    why = ("host time of repro lint, analyze --check, serve and faults over "
           "all 12 programs: graph walks, verifier, cost model, engine")

    def setup(self, seed, rng):
        from repro import cli

        return SimpleNamespace(main=cli.main, seed=seed, reference=None,
                               modeled={})

    def inputs(self, ctx, rng):
        return None

    def commands(self, seed: int) -> Dict[str, Tuple[str, ...]]:
        return {
            "lint": ("lint",),
            "analyze": ("analyze", "--check", "--json"),
            "serve": ("serve", "--seed", str(seed), "--json"),
            "faults": ("faults", "--seed", str(seed), "--json"),
        }

    def run(self, ctx, _inputs):
        out = {}
        for name, argv in self.commands(ctx.seed).items():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = ctx.main(list(argv))
            out[name] = (code, buf.getvalue())
        return out

    def check(self, ctx, _inputs, output):
        codes = {name: code for name, (code, _) in output.items()}
        ok = (codes["lint"] == 0 and codes["analyze"] == 0
              and codes["serve"] != 2 and codes["faults"] != 2)
        digests = {name: _digest(text.encode())
                   for name, (_, text) in output.items()}
        if ctx.reference is None:
            # the first (warm-up) request sets the reference every later
            # request must reproduce; at seed 0 it must equal the goldens
            ctx.reference = digests
            if ctx.seed == 0:
                for name, golden in TOOLCHAIN_GOLDENS.items():
                    ok &= output[name][1] == (ROOT / golden).read_text()
            ctx.modeled = self._modeled(output)
        ok &= digests == ctx.reference
        return Check(ok, _digest(*(d.encode() for d in digests.values())))

    @staticmethod
    def _modeled(output) -> Dict[str, float]:
        analyze = json.loads(output["analyze"][1])
        serve = json.loads(output["serve"][1])
        steady = serve["profiles"]["steady"]["sweep"]
        return {
            "modeled_cycles": sum(e["pipelined_cycles"] for e in analyze),
            "modeled_p99_us": next(p["p99_us"] for p in steady
                                   if p["rate_rps"] == 8000.0),
        }


#: Every workload by name, in the order ``--all`` runs them.
WORKLOADS = {w.name: w for w in (CkksChain(), CkksBootstrap(), TfheInt(),
                                 BfvMult(), Toolchain())}
