"""Tests for cross-request slot batching and its packing contract."""

import pytest

from repro.serve.batching import (
    Batch,
    BatchingError,
    SlotBatcher,
    assert_zero_exchange,
    bfv_add_program,
    ckks_dot_program,
    ckks_scale_program,
    pbs_bucket,
)
from repro.serve.traffic import Request


def _req(rid, scheme="ckks", kind="scale", width=64, sla="standard"):
    return Request(rid=rid, arrival_us=float(rid), scheme=scheme,
                   kind=kind, width=width, sla=sla, payload_seed=rid)


# ------------------------------ Batch ---------------------------------- #


def test_batch_rejects_empty():
    with pytest.raises(BatchingError):
        Batch(scheme="ckks", kind="scale", slots=64, requests=())


def test_batch_rejects_mixed_schemes():
    with pytest.raises(BatchingError, match="schemes must never mix"):
        Batch(scheme="ckks", kind="scale", slots=1024,
              requests=(_req(0), _req(1, scheme="bfv", kind="add")))


def test_batch_rejects_mixed_kinds():
    with pytest.raises(BatchingError, match="one batch executes one"):
        Batch(scheme="ckks", kind="scale", slots=1024,
              requests=(_req(0), _req(1, kind="dot")))


def test_batch_rejects_capacity_overflow():
    with pytest.raises(BatchingError, match="exceeds"):
        Batch(scheme="ckks", kind="scale", slots=100,
              requests=(_req(0, width=64), _req(1, width=64)))


def test_dot_batch_must_be_width_uniform():
    with pytest.raises(BatchingError, match="folds one width"):
        Batch(scheme="ckks", kind="dot", slots=1024,
              requests=(_req(0, kind="dot", width=64),
                        _req(1, kind="dot", width=128)))


def test_batch_offsets_are_cumulative_widths():
    b = Batch(scheme="ckks", kind="scale", slots=1024,
              requests=(_req(0, width=64), _req(1, width=128),
                        _req(2, width=64)))
    assert b.offsets() == (0, 64, 192)
    assert b.total_width == 256
    assert b.occupancy == 3
    assert b.fill_fraction == 256 / 1024


def test_program_key_is_occupancy_independent_for_ckks_and_bfv():
    # the serving shape memo relies on the key's contract: batches that
    # share a key build equal programs
    batcher = SlotBatcher()
    one = Batch(scheme="ckks", kind="scale", slots=1024,
                requests=(_req(0),))
    many = Batch(scheme="ckks", kind="scale", slots=1024,
                 requests=tuple(_req(i) for i in range(8)))
    assert one.program_key() == many.program_key() == "ckks:scale"
    assert batcher.program(one) == batcher.program(many)
    dot = Batch(scheme="ckks", kind="dot", slots=1024,
                requests=(_req(0, kind="dot", width=128),))
    dots = Batch(scheme="ckks", kind="dot", slots=1024,
                 requests=tuple(_req(i, kind="dot", width=128)
                                for i in range(4)))
    assert dot.program_key() == dots.program_key() == "ckks:dot:w128"
    assert batcher.program(dot) == batcher.program(dots)
    for kind in ("add", "mul"):
        bfv = [Batch(scheme="bfv", kind=kind, slots=1024,
                     requests=tuple(_req(i, scheme="bfv", kind=kind)
                                    for i in range(n))) for n in (1, 5)]
        assert bfv[0].program_key() == bfv[1].program_key() == f"bfv:{kind}"
        assert batcher.program(bfv[0]) == batcher.program(bfv[1])


def test_program_key_buckets_tfhe_occupancy():
    def tfhe_batch(n):
        return Batch(scheme="tfhe", kind="gate", slots=128,
                     requests=tuple(_req(i, scheme="tfhe", kind="gate",
                                         width=1) for i in range(n)))
    assert tfhe_batch(1).program_key() == "tfhe:gate:b1"
    assert tfhe_batch(3).program_key() == "tfhe:gate:b4"
    assert tfhe_batch(8).program_key() == "tfhe:gate:b8"
    # one bucket, one program; distinct buckets, distinct programs
    batcher = SlotBatcher()
    assert tfhe_batch(4).program_key() == "tfhe:gate:b4"
    assert batcher.program(tfhe_batch(3)) == batcher.program(tfhe_batch(4))
    assert batcher.program(tfhe_batch(4)) != batcher.program(tfhe_batch(8))


def test_pbs_bucket_rounds_up_to_powers_of_two():
    assert [pbs_bucket(n) for n in (1, 2, 3, 4, 5, 128, 129)] == [
        1, 2, 4, 4, 8, 128, 256]
    with pytest.raises(BatchingError):
        pbs_bucket(0)


# ----------------------------- SlotBatcher ----------------------------- #


def test_pack_singleton():
    batcher = SlotBatcher()
    batch, rest = batcher.pack([_req(0)])
    assert batch.occupancy == 1 and rest == []


def test_pack_fills_in_fifo_order():
    batcher = SlotBatcher(slots={"ckks": 256})
    reqs = [_req(i, width=64) for i in range(6)]
    batch, rest = batcher.pack(reqs)
    assert [r.rid for r in batch.requests] == [0, 1, 2, 3]
    assert [r.rid for r in rest] == [4, 5]


def test_first_nonfitting_compatible_request_closes_the_batch():
    """A later small request must NOT overtake a blocked earlier one —
    that would break FIFO within the class."""
    batcher = SlotBatcher(slots={"ckks": 128})
    reqs = [_req(0, width=64), _req(1, width=128), _req(2, width=64)]
    batch, rest = batcher.pack(reqs)
    assert [r.rid for r in batch.requests] == [0]
    assert [r.rid for r in rest] == [1, 2]


def test_incompatible_requests_stay_queued_without_closing():
    batcher = SlotBatcher(slots={"ckks": 256})
    reqs = [_req(0, width=64), _req(1, scheme="bfv", kind="add", width=16),
            _req(2, width=64)]
    batch, rest = batcher.pack(reqs)
    assert [r.rid for r in batch.requests] == [0, 2]
    assert [r.rid for r in rest] == [1]


def test_dot_packing_keys_on_width():
    batcher = SlotBatcher()
    reqs = [_req(0, kind="dot", width=64), _req(1, kind="dot", width=128),
            _req(2, kind="dot", width=64)]
    batch, rest = batcher.pack(reqs)
    assert [r.rid for r in batch.requests] == [0, 2]
    assert [r.rid for r in rest] == [1]


def test_max_requests_bounds_occupancy():
    batcher = SlotBatcher(max_requests=2)
    batch, rest = batcher.pack([_req(i, width=64) for i in range(5)])
    assert batch.occupancy == 2 and len(rest) == 3


def test_oversized_request_is_unserviceable():
    batcher = SlotBatcher(slots={"ckks": 32})
    with pytest.raises(BatchingError, match="unserviceable"):
        batcher.pack([_req(0, width=64)])


def test_pack_rejects_empty_and_unknown_scheme():
    batcher = SlotBatcher()
    with pytest.raises(BatchingError):
        batcher.pack([])
    with pytest.raises(BatchingError, match="no slot capacity"):
        batcher.capacity("rsa")


def test_constructor_validation():
    with pytest.raises(ValueError):
        SlotBatcher(max_requests=0)
    with pytest.raises(ValueError):
        SlotBatcher(slots={"ckks": 0})


# -------------------------- batch programs ----------------------------- #


@pytest.mark.parametrize("batch", [
    Batch(scheme="ckks", kind="scale", slots=32768, requests=(_req(0),)),
    Batch(scheme="ckks", kind="dot", slots=32768,
          requests=(_req(0, kind="dot", width=256),)),
    Batch(scheme="bfv", kind="add", slots=32768,
          requests=(_req(0, scheme="bfv", kind="add", width=32),)),
    Batch(scheme="bfv", kind="mul", slots=32768,
          requests=(_req(0, scheme="bfv", kind="mul", width=32),)),
    Batch(scheme="tfhe", kind="gate", slots=128,
          requests=(_req(0, scheme="tfhe", kind="gate", width=1),)),
], ids=["ckks-scale", "ckks-dot", "bfv-add", "bfv-mul", "tfhe-gate"])
def test_every_batch_program_survives_the_zero_exchange_lint(batch):
    program = SlotBatcher().program(batch)
    report = assert_zero_exchange(program)
    assert not report.errors


def test_dot_program_grows_with_log_width():
    short = ckks_dot_program(2)
    long = ckks_dot_program(256)
    assert len(long.ops) > len(short.ops)
    # log2(256) = 8 rotate/keyswitch/accumulate stages vs 1
    rotations = [op for op in long.ops if op.label.startswith("rot")
                 and not op.label.endswith("out")]
    assert sum(1 for op in long.ops
               if op.label.startswith("acc")) == 8
    assert len(rotations) > len(
        [op for op in short.ops if op.label.startswith("rot")])


def test_scale_and_add_programs_are_small():
    assert len(ckks_scale_program().ops) >= 2     # pmult + rescale
    assert len(bfv_add_program().ops) == 1


def test_dot_program_rejects_non_pow2_width():
    with pytest.raises(ValueError):
        ckks_dot_program(3)
