"""Import hygiene: every package imports alone, a scheme stack loads only
itself and the substrate beneath it, the simulators load no telemetry,
and ``repro`` resolves its subpackages on first use.

Each check runs in a fresh interpreter, so ``sys.modules`` holds no
``repro`` module that the rest of the suite imported.  The interpreter
inherits the environment, so ``REPRO_KERNEL_BACKEND`` selects the kernel
backend the scheme requests run on.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The substrate every scheme stack may load besides itself.
SUBSTRATE = {"kernels", "ntmath", "poly", "rns", "seedexp"}

#: The modelling side, which no scheme stack may load.
MODELLING = {"analysis", "apps", "baselines", "bridge", "cli", "compiler",
             "hw", "metaop", "serve", "sim", "telemetry"}

#: One small request of each scheme, set-up included.
REQUESTS = {
    "ckks": """
from repro import ckks
params = ckks.CKKSParams(n=64, num_levels=2, dnum=1)
encoder = ckks.CKKSEncoder(params.n, params.scale)
keygen = ckks.CKKSKeyGenerator(params, rng)
enc = ckks.CKKSEncryptor(params, encoder, rng, public_key=keygen.public_key())
dec = ckks.CKKSDecryptor(params, encoder, keygen.secret_key())
ev = ckks.CKKSEvaluator(params, encoder, relin_key=keygen.relin_key(),
                        galois_key=keygen.rotation_key([1]))
ct = ev.multiply_rescale(enc.encrypt_values([1.0, 2.0]),
                         enc.encrypt_values([3.0, 4.0]))
got = dec.decrypt(ev.rotate(ct, 1))
assert abs(got[0] - 8.0) < 1e-2, got[:2]
""",
    "bfv": """
from repro import bfv
params = bfv.BFVParams(n=64, num_primes=3)
encoder = bfv.BFVEncoder(params.n, params.plain_modulus)
keygen = bfv.BFVKeyGenerator(params, rng)
enc = bfv.BFVEncryptor(params, rng, keygen.public_key(), encoder)
dec = bfv.BFVDecryptor(params, keygen.secret_key(), encoder)
ev = bfv.BFVEvaluator(params, relin_key=keygen.relin_key())
x = np.arange(params.n) % 5
got = dec.decrypt_values(ev.multiply(enc.encrypt_values(x),
                                     enc.encrypt_values(x)))
assert np.array_equal(np.asarray(got) % params.plain_modulus, x * x)
""",
    "tfhe": """
from repro import tfhe
gates = tfhe.TFHEGates(tfhe.BootstrapKit(tfhe.TEST_PARAMS, rng))
out = gates.gate_nand(gates.encrypt_bit(True), gates.encrypt_bit(True))
assert gates.decrypt_bit(out) is False
""",
}


def _python(code: str) -> str:
    """Run ``code`` in a fresh interpreter with ``src`` on the path and
    return what it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _packages():
    return sorted(".".join(init.relative_to(SRC).parent.parts)
                  for init in (SRC / "repro").rglob("__init__.py"))


def test_every_package_imports_alone():
    """A package that imports only after another one (an import cycle the
    other import hides) fails here."""
    packages = _packages()
    assert {"repro", "repro.sim.faults", "repro.telemetry"} <= set(packages)
    failures = json.loads(_python(f"""
import importlib, json, sys
failures = []
for name in {packages!r}:
    for loaded in [m for m in sys.modules if m.split(".")[0] == "repro"]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception as exc:
        failures.append(f"{{name}}: {{exc!r}}")
print(json.dumps(failures))
"""))
    assert failures == []


@pytest.mark.parametrize("scheme", sorted(REQUESTS))
def test_a_scheme_request_loads_only_its_stack(scheme):
    loaded = json.loads(_python(
        "import json, sys\nimport numpy as np\n"
        "rng = np.random.default_rng(0)\n"
        + REQUESTS[scheme]
        + "print(json.dumps(sorted(m for m in sys.modules "
          "if m.split('.')[0] == 'repro')))\n"))
    stacks = {m.split(".")[1] for m in loaded if "." in m}
    assert scheme in stacks
    assert sorted(m for m in loaded
                  if m.count(".") and m.split(".")[1] in MODELLING) == []
    assert stacks <= SUBSTRATE | {scheme}


@pytest.mark.parametrize("package", ["repro.sim", "repro.sim.faults",
                                     "repro.serve"])
def test_the_simulators_load_no_telemetry(package):
    """Dependencies run one way: the trace reads the simulators' records,
    and nothing under ``repro.sim`` or ``repro.serve`` imports it back."""
    loaded = json.loads(_python(
        f"import json, sys\nimport {package}\n"
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m.split('.')[:2] == ['repro', 'telemetry'])))\n"))
    assert loaded == []


def test_import_repro_loads_no_subpackage():
    loaded = json.loads(_python(
        "import json, sys\nimport repro\n"
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m.startswith('repro.'))))\n"))
    assert loaded == []


def test_subpackages_resolve_on_first_access():
    _python("""
import repro
assert repro.tfhe.TEST_PARAMS.ring_degree == 256
from repro import ckks
assert ckks is repro.ckks and ckks.CKKSParams.__module__ == "repro.ckks.params"
""")


def test_the_package_surface():
    surface = json.loads(_python("""
import json
import repro
try:
    repro.nonexistent
    missing = None
except AttributeError as exc:
    missing = str(exc)
star = {}
exec("from repro import *", star)
print(json.dumps({"all": repro.__all__, "dir": dir(repro),
                  "star": sorted(k for k in star if k != "__builtins__"),
                  "missing": missing, "version": repro.__version__}))
"""))
    assert set(surface["all"]) <= set(surface["dir"])
    assert sorted(surface["all"]) == surface["star"]
    assert surface["missing"] == "module 'repro' has no attribute 'nonexistent'"
    assert surface["version"] == "1.0.0"
