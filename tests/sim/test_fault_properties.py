"""Property-based tests for the fault-injection layer.

Hypothesis drives random DAG programs and seeds through the injector and
checks the contracts the layer advertises: zero-overhead with an empty
model, bit-identical replay per seed, makespan monotonicity under faults
(absent aborts), bounded retries, and the zero-exchange invariant
surviving core dropout.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.ckks_programs import keyswitch_program
from repro.compiler.ops import HighLevelOp, OpKind, Program
from repro.compiler.verify import lint_program
from repro.hw.config import ALCHEMIST_DEFAULT
from repro.sim.engine import EventDrivenSimulator
from repro.sim.faults import (
    FaultInjector,
    FaultModel,
    POLICY_PRESETS,
    ResiliencePolicy,
    TransientFaults,
    build_campaign,
)


@st.composite
def random_programs(draw):
    """Random small DAG of element-wise / HBM ops (engine test idiom)."""
    n = draw(st.integers(min_value=1, max_value=10))
    prog = Program("rand")
    for i in range(n):
        uses = draw(st.lists(st.integers(min_value=0, max_value=max(0, i - 1)),
                             max_size=2, unique=True)) if i else []
        kind = draw(st.sampled_from((OpKind.EW_MULT, OpKind.EW_ADD,
                                     OpKind.HBM_LOAD)))
        if kind == OpKind.HBM_LOAD:
            op = HighLevelOp(kind, f"op{i}",
                             bytes_moved=draw(st.integers(1, 1 << 22)),
                             defs=(f"v{i}",),
                             uses=tuple(f"v{j}" for j in uses))
        else:
            op = HighLevelOp(kind, f"op{i}", poly_degree=64,
                             channels=draw(st.integers(1, 32)),
                             defs=(f"v{i}",),
                             uses=tuple(f"v{j}" for j in uses))
        prog.add(op)
    return prog


CAMPAIGN_NAMES = st.sampled_from(("default", "hbm", "dropout", "transient",
                                  "storm"))


@given(random_programs())
@settings(max_examples=40, deadline=None)
def test_empty_model_zero_overhead_on_random_programs(prog):
    engine = EventDrivenSimulator()
    base = engine.run(prog)
    faulted = engine.run(prog, injector=FaultInjector(FaultModel.empty()))
    assert base.makespan_cycles == faulted.makespan_cycles
    assert base.schedule == faulted.schedule


@given(random_programs(), st.integers(min_value=0, max_value=2**31),
       CAMPAIGN_NAMES)
@settings(max_examples=30, deadline=None)
def test_same_seed_replays_bit_identically(prog, seed, campaign):
    engine = EventDrivenSimulator()
    baseline = engine.run(prog).makespan_cycles
    runs = []
    for _ in range(2):
        model = build_campaign(campaign, seed, baseline, ALCHEMIST_DEFAULT)
        injector = FaultInjector(model)
        mix = engine.run(prog, injector=injector)
        runs.append((mix.makespan_cycles, mix.schedule,
                     [e.as_dict() for e in injector.events],
                     injector.counters()))
    assert runs[0] == runs[1]


@given(random_programs(), st.integers(min_value=0, max_value=2**31),
       CAMPAIGN_NAMES)
@settings(max_examples=30, deadline=None)
def test_faults_never_shrink_makespan(prog, seed, campaign):
    """Monotonicity: a retry/degrade policy (never aborts) can only make a
    program slower.  (Aborting policies are excluded — an aborted tenant
    legitimately finishes early.)"""
    engine = EventDrivenSimulator()
    baseline = engine.run(prog).makespan_cycles
    model = build_campaign(campaign, seed, baseline, ALCHEMIST_DEFAULT)
    injector = FaultInjector(model, policy=POLICY_PRESETS["retry-degrade"])
    faulted = engine.run(prog, injector=injector)
    assert not injector.aborted
    assert faulted.makespan_cycles >= baseline - 1e-9
    assert injector.availability == 1.0


@given(st.integers(min_value=0, max_value=2**31),
       st.integers(min_value=1, max_value=5),
       st.floats(min_value=0.05, max_value=0.9))
@settings(max_examples=30, deadline=None)
def test_retries_bounded_by_policy(seed, max_attempts, probability):
    policy = ResiliencePolicy(max_attempts=max_attempts,
                              backoff_base_cycles=8.0)
    model = FaultModel(seed=seed, transient=TransientFaults(probability))
    injector = FaultInjector(model, policy=policy)
    EventDrivenSimulator().run(keyswitch_program(), injector=injector)
    assert injector.max_retries_per_op() <= max_attempts - 1
    for count in injector.retries_by_op.values():
        assert count >= 1


@given(st.integers(min_value=1, max_value=15))
@settings(max_examples=15, deadline=None)
def test_core_dropout_preserves_zero_exchange(cores_lost):
    """Dropout remaps work onto surviving cores of the same units, so the
    slot-partition lint (ALC2xx zero-exchange family) stays clean."""
    config = ALCHEMIST_DEFAULT.with_capacity_loss(cores=cores_lost)
    assert config.total_cores == (ALCHEMIST_DEFAULT.total_cores - cores_lost)
    report = lint_program(keyswitch_program(), config=config)
    assert not [d for d in report.diagnostics if d.code.startswith("ALC2")]
