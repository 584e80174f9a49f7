"""The DD core against its reference (``tests/dd_oracles.py``), bit for bit.

Single-pass hash-consing, the identity short-circuit in ``mm_multiply``
and the per-manager gate-DD memo must not change a node, a weight or a
plan: root edges and every node below them are repr-equal (node ids and
signed zeros included), the managers hold the same number of nodes, and
every fused gate has the same cost, non-zero count and ELL bytes.  The property tests take their
example count from the Hypothesis profile (``HYPOTHESIS_PROFILE=ci`` runs
more; see ``conftest.py``).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.fusion.bqcs as bqcs
from repro.circuit import Circuit
from repro.circuit.generators import make_circuit
from repro.dd import DDManager, circuit_matrix_dd
from repro.dd.build import gate_key, gate_matrix_dd
from repro.dd.export import reachable_nodes
from repro.ell import ell_from_dd

from .dd_oracles import ReferenceDDManager, reference_gate_matrix_dd

FAMILIES = ("qnn", "supremacy", "vqe", "qft", "graphstate")

#: angles that repeat (so the gate memo hits), signed zeros and exact
#: multiples of pi (so weights land on the snapping values 0, +-1, +-i)
ANGLES = (0.0, -0.0, math.pi, -math.pi, math.pi / 2, -math.pi / 2, 0.3, -1.1)
ONE_Q = ("h", "x", "y", "z", "s", "t", "sx", "id")
ONE_Q_PARAM = ("rx", "ry", "rz", "p")
TWO_Q = ("cx", "cz", "swap")
TWO_Q_PARAM = ("cp", "rzz", "crz")


@st.composite
def circuits(draw, max_qubits: int = 6, max_gates: int = 16) -> Circuit:
    n = draw(st.integers(1, max_qubits))
    circuit = Circuit(n)
    angle = st.one_of(
        st.sampled_from(ANGLES),
        st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False),
    )
    for _ in range(draw(st.integers(1, max_gates))):
        kinds = ["one", "one_param"] + (["two", "two_param"] if n > 1 else [])
        kinds += ["ccx"] if n > 2 else []
        kind = draw(st.sampled_from(kinds))
        if kind == "one":
            circuit.add(draw(st.sampled_from(ONE_Q)), draw(st.integers(0, n - 1)))
        elif kind == "one_param":
            circuit.add(
                draw(st.sampled_from(ONE_Q_PARAM)),
                draw(st.integers(0, n - 1)),
                (draw(angle),),
            )
        else:
            width = 3 if kind == "ccx" else 2
            qubits = draw(st.permutations(range(n)))[:width]
            if kind == "ccx":
                circuit.add("ccx", qubits)
            elif kind == "two":
                circuit.add(draw(st.sampled_from(TWO_Q)), qubits)
            else:
                circuit.add(draw(st.sampled_from(TWO_Q_PARAM)), qubits, (draw(angle),))
    return circuit


@contextmanager
def reference_gates():
    """Route fusion's gate-DD construction through the unmemoized oracle."""
    with mock.patch.object(bqcs, "gate_matrix_dd", reference_gate_matrix_dd):
        yield


def fuse_both(circuit: Circuit):
    """The BQCS plan of ``circuit`` under the production core and under
    the reference, each in a fresh manager."""
    n = circuit.num_qubits
    mgr = DDManager(n)
    plan = bqcs.bqcs_fusion(mgr, circuit)
    ref_mgr = ReferenceDDManager(n)
    with reference_gates():
        ref_plan = bqcs.bqcs_fusion(ref_mgr, circuit)
    return (mgr, plan), (ref_mgr, ref_plan)


def structure(edge) -> list[tuple]:
    """Every node below ``edge``: id, level and the repr of each child edge
    (so a zero child stored as ``0j`` instead of the canonical zero edge,
    or a flipped signed zero, shows)."""
    return sorted(
        (node.nid, node.level, tuple(map(repr, node.children)))
        for node in reachable_nodes(edge)
    )


def signature(plan) -> list[tuple]:
    return [
        (repr(g.dd), structure(g.dd), g.cost, g.nnz, g.gate_indices)
        for g in plan.gates
    ]


@settings(deadline=None)
@given(circuits())
def test_fusion_matches_the_reference_core(circuit):
    (mgr, plan), (ref_mgr, ref_plan) = fuse_both(circuit)
    assert signature(plan) == signature(ref_plan)
    assert mgr.num_nodes == ref_mgr.num_nodes


@settings(deadline=None)
@given(circuits())
def test_circuit_product_matches_the_reference_core(circuit):
    """The running product starts at the identity, so every first multiply
    takes the short-circuit."""
    n = circuit.num_qubits
    mgr, ref_mgr = DDManager(n), ReferenceDDManager(n)
    got = circuit_matrix_dd(mgr, circuit.gates)
    want = ref_mgr.identity()
    for gate in circuit.gates:
        want = ref_mgr.mm_multiply(reference_gate_matrix_dd(ref_mgr, gate), want)
    assert repr(got) == repr(want)
    assert structure(got) == structure(want)
    assert mgr.num_nodes == ref_mgr.num_nodes
    # identity times identity, both ways round
    eye, ref_eye = mgr.identity(), ref_mgr.identity()
    assert repr(mgr.mm_multiply(eye, got)) == repr(ref_mgr.mm_multiply(ref_eye, want))
    assert repr(mgr.mm_multiply(got, eye)) == repr(ref_mgr.mm_multiply(want, ref_eye))
    assert repr(mgr.mm_multiply(eye, eye)) == repr(ref_mgr.mm_multiply(ref_eye, ref_eye))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [5, 7])
def test_family_plans_and_ell_bytes_match_the_reference(family, n):
    for seed in (0, 1):
        circuit = make_circuit(family, n, seed=seed)
        (mgr, plan), (ref_mgr, ref_plan) = fuse_both(circuit)
        assert signature(plan) == signature(ref_plan)
        assert mgr.num_nodes == ref_mgr.num_nodes
        for got, want in zip(plan.gates, ref_plan.gates):
            a = ell_from_dd(got.dd, n, max_nzr=got.cost).ell
            b = ell_from_dd(want.dd, n, max_nzr=want.cost).ell
            assert a.values.tobytes() == b.values.tobytes()
            assert a.cols.tobytes() == b.cols.tobytes()


def test_gate_memo_keeps_signed_zero_and_nan_params_apart():
    mgr = DDManager(2)
    plus = Circuit(2).add("rz", 0, (0.0,)).gates[0]
    minus = Circuit(2).add("rz", 0, (-0.0,)).gates[0]
    assert gate_key(plus) != gate_key(minus)
    ref = ReferenceDDManager(2)
    for gate in (plus, minus, plus):
        assert repr(gate_matrix_dd(mgr, gate)) == repr(
            reference_gate_matrix_dd(ref, gate)
        )
    assert gate_matrix_dd(mgr, plus) is gate_matrix_dd(mgr, plus)
    nan = Circuit(2).add("rz", 0, (math.nan,)).gates[0]
    assert gate_key(nan) is None  # built afresh every time, never memoized
