"""Byte pins of what ``repro info`` and ``repro trace`` print.

Each pin is the first 16 hex digits of a SHA-256: of ``repro info``'s
stdout, of ``repro trace W --format csv``'s stdout, and of the Chrome
trace's ``traceEvents``, ``otherData.summary.programs`` and
``num_events`` (through ``json.dumps(..., sort_keys=True)``), for each
workload of :func:`repro.cli._workloads`; those two keys are the whole
summary of a fault-free trace.  A change that moves a byte of
any of them fails here; refresh a digest only for a change that means to
move that output.
"""

import hashlib
import json

import pytest

from repro.cli import _workloads, main

INFO_DIGEST = "afc1a3ba3a05f2e6"

#: workload -> (CSV trace digest, Chrome trace digest)
TRACE_DIGESTS = {
    "pmult": ("9e8155b5a06849a8", "3382f7da0a74a86c"),
    "hadd": ("07aaed3fc37abb79", "4a8cc3541374acf1"),
    "keyswitch": ("3be71730b356576a", "b06918c24db70de7"),
    "cmult": ("c67a872f7f7a68a5", "593e83e9779f0598"),
    "rotation": ("59d27467a94ea8b6", "10ced0c600eab33f"),
    "bootstrapping": ("890eab82a593f264", "20a49e5a08dae357"),
    "helr": ("42fc0f0c08236fd1", "57ed704853349d26"),
    "lola-enc": ("6eedb62a76c3acc9", "bf7981a30b214b43"),
    "lola-plain": ("c656188e2140a4b6", "014011f3e99977a5"),
    "pbs-i": ("b6b63e8fa0ae38a7", "944da48d34512f60"),
    "pbs-ii": ("9f259ea3bf72445f", "573f48ffe7167972"),
    "bfv-cmult": ("bf4cf3a36c85ca0b", "ce79ae8e680b2c78"),
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _stdout(capsys, argv) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


def test_every_workload_is_pinned():
    assert set(TRACE_DIGESTS) == set(_workloads())


def test_info_output(capsys):
    assert _digest(_stdout(capsys, ["info"])) == INFO_DIGEST


@pytest.mark.parametrize("workload", sorted(TRACE_DIGESTS))
def test_csv_trace_output(capsys, workload):
    out = _stdout(capsys, ["trace", workload, "--format", "csv"])
    assert _digest(out) == TRACE_DIGESTS[workload][0]


@pytest.mark.parametrize("workload", sorted(TRACE_DIGESTS))
def test_chrome_trace_output(capsys, workload):
    doc = json.loads(_stdout(capsys, ["trace", workload]))
    summary = doc["otherData"]["summary"]
    assert set(summary) == {"num_events", "programs"}
    pinned = {"traceEvents": doc["traceEvents"],
              "programs": summary["programs"],
              "num_events": summary["num_events"]}
    assert (_digest(json.dumps(pinned, sort_keys=True))
            == TRACE_DIGESTS[workload][1])
