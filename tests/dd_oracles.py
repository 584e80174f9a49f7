"""Reference DD core the tests hold :mod:`repro.dd` to, bit for bit.

:class:`ReferenceDDManager` keeps the original node construction, DD
addition and matrix multiplication: ``_make`` canonicalizes each child
weight twice, builds a throwaway ``Edge`` per child and rounds every
weight for the hash key; ``mm_multiply`` recurses through identity
operands like any other node; ``_add`` allocates a scaled edge per child.
:func:`reference_gate_matrix_dd` builds a gate DD without the per-manager
memo.  They serve only as oracles: the production core must produce
repr-equal edges (signed zeros and node ids included) and the same node
count.
"""

from __future__ import annotations

from repro.circuit.gates import Gate
from repro.dd.manager import DDManager
from repro.dd.node import Edge, MNode, VNode, WEIGHT_TOL, ZERO_EDGE, weight_key
from repro.errors import DDError

_TOL = WEIGHT_TOL
_ONE_LO, _ONE_HI = 1.0 - WEIGHT_TOL, 1.0 + WEIGHT_TOL


def _snap(x: float) -> float:
    if x > 0.0:
        if x < _TOL:
            return 0.0
        if _ONE_LO < x < _ONE_HI:
            return 1.0
        return x
    if x > -_TOL:
        return 0.0
    if -_ONE_HI < x < -_ONE_LO:
        return -1.0
    return x


def _canon_weight(w: complex) -> complex:
    r = _snap(w.real)
    i = _snap(w.imag)
    if r == w.real and i == w.imag:
        return w
    return complex(r, i)


class ReferenceDDManager(DDManager):
    """A :class:`DDManager` running the original construction and algebra."""

    def make_mnode(self, level, children):
        return self._make(level, tuple(children), self._unique_m, MNode)

    def make_vnode(self, level, children):
        return self._make(level, tuple(children), self._unique_v, VNode)

    def terminal(self, weight: complex) -> Edge:
        w = _canon_weight(complex(weight))
        return ZERO_EDGE if w == 0 else Edge(None, w)

    def _make(self, level, children, table, node_cls) -> Edge:
        if not 0 <= level < self.num_qubits:
            raise DDError(f"level {level} out of range for n={self.num_qubits}")
        cleaned = []
        norm = None
        norm_mag = 0.0
        for child in children:
            w = _canon_weight(child.weight)
            if w == 0:
                cleaned.append(ZERO_EDGE)
                continue
            if child.node is not None and child.node.level != level - 1:
                raise DDError(
                    f"child at level {child.node.level} under node at {level}"
                )
            cleaned.append(Edge(child.node, w))
            mag = abs(w)
            if mag > norm_mag * (1.0 + WEIGHT_TOL):
                norm, norm_mag = w, mag
        if norm is None:
            return ZERO_EDGE
        normalized = []
        key = [level]
        for child in cleaned:
            w = child.weight
            if w != 0:
                if w != norm:
                    w = _canon_weight(w / norm)
                else:
                    w = 1.0 + 0j
                child = Edge(child.node, w)
            normalized.append(child)
            key.append(id(child.node))
            key.append(round(w.real, 10) + 0.0)
            key.append(round(w.imag, 10) + 0.0)
        key = tuple(key)
        node = table.get(key)
        if node is None:
            node = node_cls(level, tuple(normalized), self._next_id)
            self._next_id += 1
            table[key] = node
        return Edge(node, norm)

    def m_add(self, e1: Edge, e2: Edge) -> Edge:
        return self._add(e1, e2, self._cache_madd, self.make_mnode, self.m_add, 4)

    def v_add(self, e1: Edge, e2: Edge) -> Edge:
        return self._add(e1, e2, self._cache_vadd, self.make_vnode, self.v_add, 2)

    def _add(self, e1, e2, cache, make, recurse, fanout) -> Edge:
        if e1.weight == 0:
            return e2
        if e2.weight == 0:
            return e1
        if e1.node is None and e2.node is None:
            return self.terminal(e1.weight + e2.weight)
        if e1.node is None or e2.node is None or e1.node.level != e2.node.level:
            raise DDError("misaligned operands in DD addition")
        ratio = e2.weight / e1.weight
        key = (e1.node.nid, e2.node.nid, weight_key(ratio))
        hit = cache.get(key)
        if hit is None:
            children = tuple(
                recurse(c1, c2.scaled(ratio))
                for c1, c2 in zip(e1.node.children, e2.node.children)
            )
            hit = make(e1.node.level, children)
            cache[key] = hit
        return hit.scaled(e1.weight)

    def mm_multiply(self, e1: Edge, e2: Edge) -> Edge:
        if e1.weight == 0 or e2.weight == 0:
            return ZERO_EDGE
        if e1.node is None and e2.node is None:
            return self.terminal(e1.weight * e2.weight)
        if e1.node is None or e2.node is None or e1.node.level != e2.node.level:
            raise DDError("misaligned operands in matrix multiplication")
        key = (e1.node.nid, e2.node.nid)
        hit = self._cache_mm.get(key)
        if hit is None:
            a, b = e1.node.children, e2.node.children
            children = []
            for i in (0, 1):
                for j in (0, 1):
                    children.append(
                        self.m_add(
                            self.mm_multiply(a[i * 2 + 0], b[0 * 2 + j]),
                            self.mm_multiply(a[i * 2 + 1], b[1 * 2 + j]),
                        )
                    )
            hit = self.make_mnode(e1.node.level, children)
            self._cache_mm[key] = hit
        return hit.scaled(e1.weight * e2.weight)


def reference_gate_matrix_dd(mgr: DDManager, gate: Gate) -> Edge:
    """The gate DD built structurally every call, with no memo."""
    n = mgr.num_qubits
    if max(gate.all_qubits) >= n:
        raise DDError(f"gate {gate} does not fit in {n} qubits")
    base = gate.matrix()
    target_pos = {q: i for i, q in enumerate(gate.qubits)}
    controls = frozenset(gate.controls)
    lowest = min(gate.all_qubits)
    memo: dict[tuple[int, int, int, bool], Edge] = {}

    def rec(level: int, grow: int, gcol: int, ctrl_ok: bool) -> Edge:
        if level < lowest:
            entry = mgr.terminal(
                base[grow, gcol] if ctrl_ok else float(grow == gcol)
            )
            if entry.weight == 0:
                return entry
            return Edge(mgr.identity(level).node, entry.weight)
        key = (level, grow, gcol, ctrl_ok)
        hit = memo.get(key)
        if hit is not None:
            return hit
        children = []
        for r in (0, 1):
            for c in (0, 1):
                if level in target_pos:
                    i = target_pos[level]
                    children.append(
                        rec(level - 1, grow | (r << i), gcol | (c << i), ctrl_ok)
                    )
                elif level in controls:
                    if r != c:
                        children.append(ZERO_EDGE)
                    else:
                        children.append(rec(level - 1, grow, gcol, ctrl_ok and r == 1))
                else:
                    children.append(
                        rec(level - 1, grow, gcol, ctrl_ok) if r == c else ZERO_EDGE
                    )
        result = mgr.make_mnode(level, children)
        memo[key] = result
        return result

    return rec(n - 1, 0, 0, True)
