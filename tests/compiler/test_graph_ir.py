"""Tests for the dataflow-graph IR (defs/uses, dependency edges, linearize,
and the shared :class:`ProgramGraph`)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.bfv_programs import bfv_add_program, bfv_cmult_program
from repro.compiler.ckks_programs import (
    bootstrapping_program,
    cmult_program,
    hadd_program,
    helr_iteration_program,
    keyswitch_program,
    lola_mnist_program,
    pmult_program,
    rescale_program,
    rotation_program,
)
from repro.compiler.cost import analyze_program
from repro.compiler.ops import HighLevelOp, OpKind, Program, ProgramGraph
from repro.compiler.tfhe_programs import pbs_batch_program
from repro.compiler.verify import lint_program
from repro.sim.engine import EventDrivenSimulator

ALL_BUILDERS = (
    pmult_program, hadd_program, keyswitch_program, cmult_program,
    rotation_program, rescale_program, bootstrapping_program,
    helr_iteration_program, lola_mnist_program, pbs_batch_program,
    bfv_cmult_program, bfv_add_program,
)


def _ew(label, defs=(), uses=()):
    return HighLevelOp(OpKind.EW_ADD, label, poly_degree=64, channels=1,
                       defs=tuple(defs), uses=tuple(uses))


# --------------------------- random-DAG property ------------------------- #

@st.composite
def random_dag_programs(draw):
    """A program whose op i defs ``v{i}`` and uses a subset of earlier
    values, presented in a shuffled (non-topological) order."""
    n = draw(st.integers(min_value=1, max_value=24))
    uses = []
    for i in range(n):
        if i == 0:
            uses.append([])
        else:
            uses.append(draw(st.lists(
                st.integers(min_value=0, max_value=i - 1),
                max_size=3, unique=True)))
    perm = draw(st.permutations(range(n)))
    prog = Program("dag")
    for i in perm:
        prog.add(_ew(f"op{i}", defs=[f"v{i}"],
                     uses=[f"v{j}" for j in uses[i]]))
    return prog


@given(random_dag_programs())
@settings(max_examples=100, deadline=None)
def test_linearize_respects_every_edge(prog):
    order = prog.linearize()
    position = {op.label: k for k, op in enumerate(order)}
    assert len(order) == len(prog.ops)
    for op in prog.ops:
        for v in op.uses:
            producer = f"op{v[1:]}"
            assert position[producer] < position[op.label], (
                f"{producer} must precede {op.label}")


@given(random_dag_programs())
@settings(max_examples=25, deadline=None)
def test_linearize_is_deterministic(prog):
    first = prog.linearize()
    second = prog.linearize()
    assert [op.label for op in first] == [op.label for op in second]


def test_linearize_detects_cycles():
    prog = Program("cyclic")
    prog.add(_ew("a", defs=["x"], uses=["y"]))
    prog.add(_ew("b", defs=["y"], uses=["x"]))
    with pytest.raises(ValueError, match="cycle"):
        prog.linearize()


def test_waw_redefinition_is_ordered():
    prog = Program("waw")
    prog.add(_ew("first", defs=["acc"]))
    prog.add(_ew("second", defs=["acc"]))
    prog.add(_ew("reader", uses=["acc"]))
    edges = prog.dependency_edges()
    assert edges[1] == (0,)          # redefinition depends on previous def
    assert edges[2] == (1,)          # the read binds to the closest def


def test_external_inputs_are_not_edges():
    prog = Program("ext")
    prog.add(_ew("a", defs=["out"], uses=["ct_in", "pt_in"]))
    assert prog.dependency_edges() == {}
    assert prog.external_inputs() == ("ct_in", "pt_in")


# ---------------------------- builder programs --------------------------- #

@pytest.mark.parametrize("builder", ALL_BUILDERS,
                         ids=lambda b: b.__name__)
def test_builder_insertion_order_is_topological(builder):
    """Every builder emits producers before consumers, so the deterministic
    linearization is exactly the insertion order (timing-preserving)."""
    prog = builder()
    assert prog.linearize() == prog.ops


@pytest.mark.parametrize("builder", ALL_BUILDERS,
                         ids=lambda b: b.__name__)
def test_builder_ops_are_annotated(builder):
    prog = builder()
    annotated = [op for op in prog.ops if op.defs or op.uses]
    assert len(annotated) == len(prog.ops)


def test_keyswitch_evk_load_is_a_root():
    """Evaluation-key streaming has no data dependencies — the engine may
    overlap it with the Modup digits."""
    prog = keyswitch_program()
    edges = prog.dependency_edges()
    evk = [i for i, op in enumerate(prog.ops)
           if op.kind == OpKind.HBM_LOAD]
    assert evk
    for i in evk:
        assert i not in edges, "evk load must not depend on compute"


def test_keyswitch_digits_are_parallel():
    """The per-digit Modup chains share no edges with each other."""
    prog = keyswitch_program()
    edges = prog.dependency_edges()
    modups = [i for i, op in enumerate(prog.ops)
              if op.kind == OpKind.BCONV and "modup" in op.label]
    assert len(modups) >= 2
    for i in modups:
        preds = set(edges.get(i, ()))
        assert not (preds & set(modups)), "digits must be independent"


# ------------------------------ ProgramGraph ------------------------------ #

def test_graph_waw_chain():
    prog = Program("waw")
    prog.add(_ew("first", defs=["acc"]))
    prog.add(_ew("second", defs=["acc"]))
    prog.add(_ew("reader", uses=["acc"]))
    graph = ProgramGraph(prog)
    assert graph.edges == {1: (0,), 2: (1,)}
    assert graph.succs == {0: [1], 1: [2]}
    assert graph.order == [0, 1, 2]
    assert graph.def_sites == {"acc": [0, 1]}
    assert graph.bindings == {2: [("acc", 1)]}


def test_graph_forward_binding():
    """A use with no earlier def binds to the first later one, so the
    order puts the producer first."""
    prog = Program("fwd")
    prog.add(_ew("reader", defs=["r"], uses=["x"]))
    prog.add(_ew("writer", defs=["x"]))
    graph = ProgramGraph(prog)
    assert graph.edges == {0: (1,)}
    assert graph.bindings == {0: [("x", 1)]}
    assert graph.order == [1, 0]
    assert prog.linearize() == [prog.ops[1], prog.ops[0]]


def test_graph_self_use_reads_the_external_value():
    """An op that reads and first defines ``acc`` reads the external input
    it overwrites: no edge, no binding; a later redefinition chains (WAW)
    and its own read binds to the first def."""
    prog = Program("self")
    prog.add(_ew("init", defs=["acc"], uses=["acc"]))
    prog.add(_ew("step", defs=["acc"], uses=["acc"]))
    graph = ProgramGraph(prog)
    assert graph.edges == {1: (0,)}
    assert graph.bindings == {1: [("acc", 0)]}
    assert prog.external_inputs() == ()


def test_graph_external_input_is_unbound():
    prog = Program("ext")
    prog.add(_ew("a", defs=["out"], uses=["ct_in"]))
    prog.add(_ew("b", defs=["out2"], uses=["out", "pt_in"]))
    graph = ProgramGraph(prog)
    assert graph.edges == {1: (0,)}
    assert graph.bindings == {1: [("out", 0)]}
    assert "ct_in" not in graph.def_sites


def test_graph_cycle_raises_one_message():
    prog = Program("cyclic")
    prog.add(_ew("a", defs=["x"], uses=["y"]))
    prog.add(_ew("b", defs=["y"], uses=["x"]))
    prog.add(_ew("c", defs=["z"]))
    graph = ProgramGraph(prog)
    message = "dependency cycle in program 'cyclic' involving ['a', 'b']"
    for attempt in (lambda: graph.order, lambda: graph.live_bytes(8.0),
                    prog.linearize):
        with pytest.raises(ValueError) as exc:
            attempt()
        assert str(exc.value) == message
    (alc001,) = [d for d in lint_program(prog).diagnostics
                 if d.code == "ALC001"]
    assert alc001.message == message


def test_graph_live_bytes_peaks_with_overlapping_values():
    prog = Program("live")
    prog.add(_ew("a", defs=["a"]))
    prog.add(_ew("b", defs=["b"], uses=["a"]))
    prog.add(_ew("c", defs=["c"], uses=["a", "b"]))
    prog.add(_ew("d", defs=["d"], uses=["c"]))
    per = 64 * 8
    # a+b live at b, a retires after c, b too, c after d
    assert ProgramGraph(prog).live_bytes(8.0) == [per, 2 * per, 3 * per,
                                                  2 * per]


@pytest.fixture
def graph_builds(monkeypatch):
    """Counts ProgramGraph constructions."""
    calls = []
    original = ProgramGraph.__init__

    def counting(self, program):
        calls.append(program.name)
        original(self, program)

    monkeypatch.setattr(ProgramGraph, "__init__", counting)
    return calls


def test_one_graph_per_lint_run(graph_builds):
    program = bootstrapping_program()
    schedule = [(s.index, s.start, s.end)
                for s in EventDrivenSimulator().run(program).schedule]
    graph_builds.clear()
    lint_program(program)
    lint_program(program, schedule=schedule)
    assert graph_builds == ["bootstrapping"] * 2


def test_one_graph_per_analyze_program(graph_builds):
    analyze_program(keyswitch_program())
    assert graph_builds == ["keyswitch"]


def test_one_graph_per_tenant_per_mix(graph_builds):
    """Solo baselines and the audit reuse each tenant's graph."""
    EventDrivenSimulator().run_mix(
        [cmult_program(), pbs_batch_program(), cmult_program()],
        policy="round-robin", audit=True)
    assert graph_builds == ["cmult", "pbs_batch128_N1024", "cmult"]
