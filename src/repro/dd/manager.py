"""The :class:`DDManager`: unique tables, normalization, and the native DD
operations the paper builds on (DDAdd, DDMultiply, DDConcatenate).

All node construction goes through :meth:`DDManager.make_mnode` /
:meth:`make_vnode`, which normalize child weights (dividing by the
largest-magnitude child weight) and hash-cons through unique tables, so
structurally equal sub-matrices share one node — the property that makes
DD-based gate fusion and the NZRV algorithm cheap.

Node construction and the algebra are pure Python and set the cost of a
cold compile, so their hot paths are tuned without changing any result
bit: for finite weights every edge, node id and node count equals that of
the plain formulation kept in ``tests/dd_oracles.py``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..errors import DDError
from .node import Edge, MNode, ONE_EDGE, VNode, WEIGHT_TOL, ZERO_EDGE, weight_key


_TOL = WEIGHT_TOL
_ONE_LO, _ONE_HI = 1.0 - WEIGHT_TOL, 1.0 + WEIGHT_TOL
_LEAD = 1.0 + WEIGHT_TOL  # a new normalizer must beat the old by this factor
_ONE = 1.0 + 0j
_ZERO_KEY = (0.0, 0.0)
# _new_edge(Edge, (node, w)) is Edge(node, w) without the NamedTuple's
# Python-level __new__, a measurable cost at hundreds of thousands of edges
_new_edge = tuple.__new__


def _snap(x: float) -> float:
    """Snap a real within tolerance of 0 / +1 / -1 to the exact value."""
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
    """Snap weights within tolerance of 0 / +-1 / +-i to the exact value.

    The chained comparisons accept the common case without a call: each
    part is outside every snapping window or already exact (0 or +-1),
    where snapping is the identity.  A part to snap, or NaN, takes the
    general path.
    """
    r = w.real
    i = w.imag
    if (
        _TOL <= r <= _ONE_LO or -_ONE_LO <= r <= -_TOL or r == 0.0
        or r == 1.0 or r == -1.0 or r >= _ONE_HI or r <= -_ONE_HI
    ) and (
        _TOL <= i <= _ONE_LO or -_ONE_LO <= i <= -_TOL or i == 0.0
        or i == 1.0 or i == -1.0 or i >= _ONE_HI or i <= -_ONE_HI
    ):
        return w
    sr = _snap(r)
    si = _snap(i)
    if sr == r and si == i:
        return w
    return complex(sr, si)


class DDManager:
    """Owns every node of a DD universe plus the operation caches.

    One manager corresponds to one qubit count; mixing edges from different
    managers is a :class:`DDError`.
    """

    def __init__(self, num_qubits: int):
        if num_qubits <= 0:
            raise DDError("DDManager needs at least one qubit")
        self.num_qubits = num_qubits
        self._unique_m: dict[tuple, MNode] = {}
        self._unique_v: dict[tuple, VNode] = {}
        self._next_id = 0
        self._cache_mm: dict[tuple, Edge] = {}
        self._cache_mv: dict[tuple, Edge] = {}
        self._cache_madd: dict[tuple, Edge] = {}
        self._cache_vadd: dict[tuple, Edge] = {}
        # the identity edge per level, None until identity() builds it; the
        # multiply short-circuit checks operands against these nodes
        self._identity_cache: list[Edge | None] = [None] * num_qubits
        # hash-cons key part per canonical weight: the two tolerance-rounded
        # floats, computed once per distinct weight value
        self._weight_keys: dict[complex, tuple[float, float]] = {}
        # gate DDs by gate_key (repro.dd.build.gate_matrix_dd)
        self._cache_gate: dict[tuple, Edge] = {}
        # analysis caches keyed by node id (nodes are hash-consed and live as
        # long as the manager, so nid keys are stable)
        self._cache_nzrv: dict[int, Edge] = {}
        self._cache_vmax: dict[int, float] = {}
        self._cache_vmoments: dict[int, tuple[float, float]] = {}

    # -- construction --------------------------------------------------------

    def make_mnode(self, level: int, children: Sequence[Edge]) -> Edge:
        """Normalized, hash-consed matrix node; returns the entering edge."""
        return self._make(level, children, self._unique_m, MNode)

    def make_vnode(self, level: int, children: Sequence[Edge]) -> Edge:
        """Normalized, hash-consed vector node; returns the entering edge."""
        return self._make(level, children, self._unique_v, VNode)

    def _make(self, level, children, table, node_cls) -> Edge:
        """Normalize ``children`` and hash-cons the node they define.

        One pass canonicalizes every child weight and picks the
        normalizing weight (the largest magnitude, first wins ties); a
        second divides by it and builds the key: per child, its node and
        the tolerance-rounded weight.  Child edges are allocated only when
        the key misses and a new node is stored.
        """
        if not 0 <= level < self.num_qubits:
            raise DDError(f"level {level} out of range for n={self.num_qubits}")
        nodes = []
        weights = []
        norm = None
        norm_mag = 0.0
        below = level - 1
        for node, w in children:
            w = _canon_weight(w)
            if w == 0:
                nodes.append(None)
                weights.append(None)  # the zero edge
                continue
            if node is not None and node.level != below:
                raise DDError(f"child at level {node.level} under node at {level}")
            nodes.append(node)
            weights.append(w)
            # normalize by the maximum-magnitude child (first wins ties) so
            # every stored weight has |w| <= 1 and the absolute weight
            # tolerance stays numerically safe
            mag = abs(w)
            if mag > norm_mag * _LEAD:
                norm, norm_mag = w, mag
        if norm is None:
            return ZERO_EDGE
        weights = [
            w if w is None else _ONE if w == norm else _canon_weight(w / norm)
            for w in weights
        ]
        keys = self._weight_keys
        key = (level, *nodes, *[
            _ZERO_KEY if w is None else keys.get(w) or self._weight_key(w)
            for w in weights
        ])
        node = table.get(key)
        if node is None:
            node = node_cls(
                level,
                tuple([
                    ZERO_EDGE if w is None else _new_edge(Edge, (child, w))
                    for child, w in zip(nodes, weights)
                ]),
                self._next_id,
            )
            self._next_id += 1
            table[key] = node
        return _new_edge(Edge, (node, norm))

    def _weight_key(self, w: complex) -> tuple[float, float]:
        """The hash-cons key part of weight ``w``, memoized: equal weights
        round to equal keys (``+ 0.0`` merges the signed zeros)."""
        part = self._weight_keys[w] = weight_key(w)
        return part

    def terminal(self, weight: complex) -> Edge:
        w = _canon_weight(complex(weight))
        return ZERO_EDGE if w == 0 else _new_edge(Edge, (None, w))

    @property
    def num_nodes(self) -> int:
        """Total unique nodes created (matrix + vector)."""
        return len(self._unique_m) + len(self._unique_v)

    def clear_caches(self) -> None:
        for cache in (
            self._cache_mm,
            self._cache_mv,
            self._cache_madd,
            self._cache_vadd,
            self._cache_nzrv,
            self._cache_vmax,
            self._cache_vmoments,
        ):
            cache.clear()

    # -- identity ------------------------------------------------------------

    def identity(self, up_to_level: int | None = None) -> Edge:
        """Matrix DD of the identity over levels ``0 .. up_to_level``."""
        top = self.num_qubits - 1 if up_to_level is None else up_to_level
        if top < -1:
            raise DDError("identity level below terminal")
        if top == -1:
            return ONE_EDGE
        edge = self._identity_cache[top]
        if edge is None:
            below = self.identity(top - 1)
            edge = self.make_mnode(top, (below, ZERO_EDGE, ZERO_EDGE, below))
            self._identity_cache[top] = edge
        return edge

    # -- DDAdd ---------------------------------------------------------------

    def m_add(self, e1: Edge, e2: Edge) -> Edge:
        """Matrix DD addition."""
        if e1[1] == 0:
            return e2
        if e2[1] == 0:
            return e1
        return self._add(e1, e2, self._cache_madd, self.make_mnode)

    def v_add(self, e1: Edge, e2: Edge) -> Edge:
        """Vector DD addition (the paper's DDAdd on NZRVs)."""
        if e1[1] == 0:
            return e2
        if e2[1] == 0:
            return e1
        return self._add(e1, e2, self._cache_vadd, self.make_vnode)

    def _add(self, e1, e2, cache, make) -> Edge:
        """Sum of two non-zero edges (a zero addend returns its partner
        before getting here)."""
        n1, w1 = e1
        n2, w2 = e2
        if n1 is None and n2 is None:
            return self.terminal(w1 + w2)
        if n1 is None or n2 is None or n1.level != n2.level:
            raise DDError("misaligned operands in DD addition")
        # factor the weights out so the cache key only involves one ratio
        ratio = w2 / w1
        key = (n1.nid, n2.nid, self._weight_keys.get(ratio) or self._weight_key(ratio))
        hit = cache.get(key)
        if hit is None:
            children = []
            for c1, c2 in zip(n1.children, n2.children):
                c2 = _new_edge(Edge, (c2[0], c2[1] * ratio)) if ratio != 0 else ZERO_EDGE
                if c1[1] == 0:
                    children.append(c2)
                elif c2[1] == 0:
                    children.append(c1)
                else:
                    children.append(self._add(c1, c2, cache, make))
            hit = make(n1.level, children)
            cache[key] = hit
        return _new_edge(Edge, (hit[0], hit[1] * w1))

    # -- DDMultiply ----------------------------------------------------------

    def mm_multiply(self, e1: Edge, e2: Edge) -> Edge:
        """Matrix-matrix DD multiplication (``e1 @ e2``).

        An operand on the identity node this manager built for that level
        returns the other operand's node at once: the full recursion would
        rebuild that very node (every sub-product hash-conses to the
        operand's own children) with normalizing weight ``1+0j``, and the
        weight returned here is the same ``(1+0j) * (w1 * w2)`` product,
        so the result is bit-identical without the walk or a compute-table
        entry.
        """
        n1, w1 = e1
        n2, w2 = e2
        if w1 == 0 or w2 == 0:
            return ZERO_EDGE
        if n1 is None and n2 is None:
            return self.terminal(w1 * w2)
        if n1 is None or n2 is None or n1.level != n2.level:
            raise DDError("misaligned operands in matrix multiplication")
        identity = self._identity_cache[n1.level]
        eye = None if identity is None else identity[0]
        if n2 is eye or n1 is eye:
            w = w1 * w2
            if w == 0:
                return ZERO_EDGE
            return _new_edge(Edge, (n1 if n2 is eye else n2, _ONE * w))
        key = (n1.nid, n2.nid)
        hit = self._cache_mm.get(key)
        if hit is None:
            a, b = n1.children, n2.children
            nonzero_a = [c[1] != 0 for c in a]
            nonzero_b = [c[1] != 0 for c in b]
            mul = self.mm_multiply
            add = self.m_add
            children = []
            for i in (0, 2):
                for j in (0, 1):
                    # a zero factor makes the zero edge, as mul() would
                    children.append(add(
                        mul(a[i], b[j])
                        if nonzero_a[i] and nonzero_b[j] else ZERO_EDGE,
                        mul(a[i + 1], b[j + 2])
                        if nonzero_a[i + 1] and nonzero_b[j + 2] else ZERO_EDGE,
                    ))
            hit = self._make(n1.level, children, self._unique_m, MNode)
            self._cache_mm[key] = hit
        w = w1 * w2
        if w == 0:
            return ZERO_EDGE
        return _new_edge(Edge, (hit[0], hit[1] * w))

    def mv_multiply(self, m: Edge, v: Edge) -> Edge:
        """Matrix-vector DD multiplication (``m @ v``)."""
        if m.weight == 0 or v.weight == 0:
            return ZERO_EDGE
        if m.node is None and v.node is None:
            return self.terminal(m.weight * v.weight)
        if m.node is None or v.node is None or m.node.level != v.node.level:
            raise DDError("misaligned operands in matrix-vector multiplication")
        key = (m.node.nid, v.node.nid)
        hit = self._cache_mv.get(key)
        if hit is None:
            a, x = m.node.children, v.node.children
            children = tuple(
                self.v_add(
                    self.mv_multiply(a[i * 2 + 0], x[0]),
                    self.mv_multiply(a[i * 2 + 1], x[1]),
                )
                for i in (0, 1)
            )
            hit = self.make_vnode(m.node.level, children)
            self._cache_mv[key] = hit
        return hit.scaled(m.weight * v.weight)

    # -- DDConcatenate -------------------------------------------------------

    def v_concatenate(self, top: Edge, bottom: Edge, level: int) -> Edge:
        """Stack two vector DDs of size ``2^level`` into one of ``2^(level+1)``.

        This is the paper's native ``DDConcatenate`` used by the NZRV
        algorithm (Figure 3).
        """
        return self.make_vnode(level, (top, bottom))
