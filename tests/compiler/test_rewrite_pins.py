"""Pins of the two program rewrites: elementwise fusion and spill insertion.

Each rewritten program is pinned by the first 16 hex digits of a SHA-256
over every field of every op (``dataclasses.fields`` order, ``OpKind`` by
value; the program name is not hashed):

* the fused program of each of the 12 CLI workloads;
* the spilled program of each workload at 1, 1/4 and 1/64 of the on-chip
  capacity, where 2, 9 and 12 workloads spill, adding 20, 2,036 and
  3,768 ops.

The scratchpad and storm fault campaigns re-spill programs against a
reduced capacity (``FaultInjector.prepare``), so their ``--json`` stdout
is pinned whole.  A change to either rewrite that keeps every pin emits
the same ops, field for field, as before.
"""

import dataclasses
import hashlib

import pytest

from repro.cli import _workloads, main
from repro.compiler import passes
from repro.compiler.ops import OpKind
from repro.hw.config import ALCHEMIST_DEFAULT

CAPACITY = ALCHEMIST_DEFAULT.total_onchip_bytes
WORD = ALCHEMIST_DEFAULT.word_bytes

FUSED = {
    "pmult": "b0b9014c4e285317",
    "hadd": "68ce3f17f9237567",
    "keyswitch": "a5dc6bb2fe698e55",
    "cmult": "6daeb35c0c51fcbb",
    "rotation": "871c0a4b640801c3",
    "bootstrapping": "f96c8c240ebdc8bc",
    "helr": "8f6554ea14d85ebb",
    "lola-enc": "a092d4be0427c46d",
    "lola-plain": "c682c7ac0e6a1393",
    "pbs-i": "01f8ad80c821889b",
    "pbs-ii": "3075a34f30686413",
    "bfv-cmult": "bd6abc8f572a83bc",
}

#: capacity divisor -> (workloads that spill, ops added, digests by name)
SPILLED = {
    1: (2, 20, {
        "pmult": "b0b9014c4e285317",
        "hadd": "68ce3f17f9237567",
        "keyswitch": "24b3a726a3ffc4ea",
        "cmult": "0b607632c2a9fd8e",
        "rotation": "0e85efa9ef8dc73e",
        "bootstrapping": "0def1a16b6410679",
        "helr": "1831636524db6b6a",
        "lola-enc": "34f1deceb8addf64",
        "lola-plain": "bb86c67cfd280c0d",
        "pbs-i": "d377f85bfe293567",
        "pbs-ii": "e3425fa7026aeefd",
        "bfv-cmult": "93eda2f3ef9266b7",
    }),
    4: (9, 2036, {
        "pmult": "992999322a1e54f3",
        "hadd": "2d321d9597e65d32",
        "keyswitch": "640b390fc7433630",
        "cmult": "f62eec70e29153e0",
        "rotation": "871f5ddcb0146f5c",
        "bootstrapping": "b86b1371a12f2ba9",
        "helr": "22f41ede8e7c30af",
        "lola-enc": "34f1deceb8addf64",
        "lola-plain": "bb86c67cfd280c0d",
        "pbs-i": "3a446f06a20983c1",
        "pbs-ii": "6011c67ad5e92dd7",
        "bfv-cmult": "93eda2f3ef9266b7",
    }),
    64: (12, 3768, {
        "pmult": "167b589dc4594552",
        "hadd": "6036aeab4b2680ba",
        "keyswitch": "390f4fc6d265454a",
        "cmult": "5d9d28b52405c9fe",
        "rotation": "6466add67387fa91",
        "bootstrapping": "7ba2b8247fab615a",
        "helr": "9d8f6b7537b54625",
        "lola-enc": "9c79410202ac28b7",
        "lola-plain": "fd7e916165eaccfe",
        "pbs-i": "d0bd9a47fef5ba11",
        "pbs-ii": "6837f7611307c2e6",
        "bfv-cmult": "9dc3898b501992b4",
    }),
}

#: campaign -> SHA-256 of ``repro faults --campaign C --seed 0 --json``.
CAMPAIGNS = {
    "scratchpad":
        "55dbe66a8d19865d601ef8e8d65a3808e788a862e2f713e05e73e6461304b5be",
    "storm":
        "308f578bec4c0a3938bbdbef735b6c3b6a0d5fc5ee40aa29cdc1b308ba99aa59",
}


def _fused(program):
    return passes.fuse_elementwise(program)


def _spilled(program, capacity):
    return passes.insert_spills(program, capacity, WORD)


def _digest(program):
    h = hashlib.sha256()
    for op in program.ops:
        row = tuple(getattr(op, f.name) for f in dataclasses.fields(op))
        row = tuple(v.value if isinstance(v, OpKind) else v for v in row)
        h.update(repr(row).encode() + b"\n")
    return h.hexdigest()[:16]


def test_fused_programs_are_pinned():
    got = {name: _digest(_fused(p)) for name, p in _workloads().items()}
    assert got == FUSED


@pytest.mark.parametrize("divisor", sorted(SPILLED))
def test_spilled_programs_are_pinned(divisor):
    spilling, added, pins = SPILLED[divisor]
    got, grown = {}, []
    for name, program in _workloads().items():
        spilled = _spilled(program, CAPACITY // divisor)
        got[name] = _digest(spilled)
        grown.append(len(spilled.ops) - len(program.ops))
    assert (sum(g > 0 for g in grown), sum(grown)) == (spilling, added)
    assert got == pins


@pytest.mark.parametrize("campaign", sorted(CAMPAIGNS))
def test_respilling_campaigns_are_pinned(campaign, capsys):
    assert main(["faults", "--campaign", campaign, "--seed", "0",
                 "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CAMPAIGNS[campaign]
