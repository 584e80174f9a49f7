"""Minimal OpenQASM 2.0 reader/writer.

Supports the subset used by MQT-Bench exports: a single (or multiple) qreg,
creg declarations, the qelib1 gate set handled by
:mod:`repro.circuit.gates`, ``barrier`` and ``measure`` (both ignored), and
constant parameter expressions built from numbers, ``pi``, ``+ - * /``,
parentheses, and unary minus.

Custom ``gate`` definitions are supported by macro expansion (bodies may
reference the definition's formal parameters and qubits, and may call other
custom gates); ``if`` statements and ``opaque`` declarations are rejected
with a :class:`~repro.errors.QasmError` rather than silently mis-simulated.
"""

from __future__ import annotations

import ast
import math
import re
from typing import Iterable, Mapping

from ..errors import QasmError
from .circuit import Circuit
from .gates import Gate, known_gate_names

_TOKEN_COMMENT = re.compile(r"//[^\n]*")
_IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _eval_param(expr: str, line: int, bindings: Mapping[str, float] | None = None) -> float:
    """Evaluate a constant QASM parameter expression safely.

    ``bindings`` supplies values for the formal parameters of a custom gate
    definition currently being expanded.  An expression that fails to
    evaluate (``0/0``, ``exp(1000)``, ``sqrt(-1)``) or whose value is not a
    finite real (``1e400``, ``(-1)**0.5``) is a :class:`QasmError` on its
    line, never an arithmetic exception or a non-finite angle.
    """
    expr = expr.strip().replace("PI", "pi")
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError:
        raise QasmError(f"bad parameter expression {expr!r}", line) from None

    def walk(node: ast.AST) -> float:
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return float(node.value)
        if isinstance(node, ast.Name) and node.id == "pi":
            return math.pi
        if isinstance(node, ast.Name) and bindings and node.id in bindings:
            return bindings[node.id]
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            v = walk(node.operand)
            return -v if isinstance(node.op, ast.USub) else v
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
        ):
            a, b = walk(node.left), walk(node.right)
            ops = {
                ast.Add: lambda: a + b,
                ast.Sub: lambda: a - b,
                ast.Mult: lambda: a * b,
                ast.Div: lambda: a / b,
                ast.Pow: lambda: a**b,
            }
            return ops[type(node.op)]()
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            fns = {"sin": math.sin, "cos": math.cos, "tan": math.tan,
                   "exp": math.exp, "ln": math.log, "sqrt": math.sqrt}
            if node.func.id in fns and len(node.args) == 1:
                return fns[node.func.id](walk(node.args[0]))
        raise QasmError(f"unsupported parameter expression {expr!r}", line)

    try:
        value = walk(tree)
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        raise QasmError(f"cannot evaluate {expr!r}: {exc}", line) from None
    if not isinstance(value, float) or not math.isfinite(value):
        raise QasmError(f"parameter {expr!r} is not a finite real number", line)
    return value


def _split_gate_call(stmt: str, line: int) -> tuple[str, str | None, str]:
    """Split ``name(params) operands`` with balanced-paren parameter lists.

    Returns (name, params-or-None, operand text).
    """
    m = re.match(r"^([A-Za-z_][A-Za-z0-9_]*)\s*", stmt)
    if not m:
        raise QasmError(f"cannot parse statement {stmt!r}", line)
    name = m.group(1)
    rest = stmt[m.end():]
    params = None
    if rest.startswith("("):
        depth = 0
        for i, ch in enumerate(rest):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    params = rest[1:i]
                    rest = rest[i + 1:]
                    break
        else:
            raise QasmError(f"unbalanced parentheses in {stmt!r}", line)
    return name, params, rest.strip()


def _split_args(text: str) -> list[str]:
    """Split a parameter list on commas outside parentheses."""
    parts: list[str] = []
    depth = 0
    current = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


class _Register:
    def __init__(self, name: str, size: int, offset: int):
        self.name = name
        self.size = size
        self.offset = offset


class _GateDef:
    """A custom ``gate`` definition awaiting macro expansion."""

    def __init__(self, name: str, params: list[str], qubits: list[str], body: str):
        self.name = name
        self.params = params
        self.qubits = qubits
        self.body = body


_GATE_DEF = re.compile(
    r"gate\s+([A-Za-z_][A-Za-z0-9_]*)\s*(\(([^)]*)\))?\s*([^{]*)\{([^}]*)\}",
    re.DOTALL,
)


def _extract_gate_defs(text: str) -> tuple[str, dict[str, _GateDef]]:
    """Pull ``gate ... { ... }`` blocks out of the source text."""
    defs: dict[str, _GateDef] = {}

    def grab(match: re.Match) -> str:
        name = match.group(1).lower()
        params = [p.strip() for p in (match.group(3) or "").split(",") if p.strip()]
        qubits = [q.strip() for q in match.group(4).split(",") if q.strip()]
        defs[name] = _GateDef(name, params, qubits, match.group(5))
        return ""

    return _GATE_DEF.sub(grab, text), defs


_MAX_EXPANSION_DEPTH = 32


def _expand_gate_def(
    definition: _GateDef,
    defs: dict[str, _GateDef],
    params: tuple[float, ...],
    operands: list[int],
    line: int,
    depth: int = 0,
) -> list[Gate]:
    """Expand one custom-gate call into concrete gates."""
    if depth > _MAX_EXPANSION_DEPTH:
        raise QasmError(f"gate '{definition.name}' expansion too deep (cycle?)", line)
    if len(params) != len(definition.params):
        raise QasmError(
            f"gate '{definition.name}' takes {len(definition.params)} "
            f"parameter(s), got {len(params)}", line,
        )
    if len(operands) != len(definition.qubits):
        raise QasmError(
            f"gate '{definition.name}' takes {len(definition.qubits)} "
            f"qubit(s), got {len(operands)}", line,
        )
    bindings = dict(zip(definition.params, params))
    qubit_map = dict(zip(definition.qubits, operands))
    known = known_gate_names()
    out: list[Gate] = []
    for chunk in definition.body.split(";"):
        stmt = " ".join(chunk.split())
        if not stmt or stmt.split()[0] in ("barrier",):
            continue
        gname, params_text, operand_text = _split_gate_call(stmt, line)
        gname = gname.lower()
        call_params = (
            tuple(
                _eval_param(p, line, bindings)
                for p in _split_args(params_text)
                if p.strip()
            )
            if params_text is not None
            else ()
        )
        names = [q.strip() for q in operand_text.split(",") if q.strip()]
        try:
            call_operands = [qubit_map[qn] for qn in names]
        except KeyError as exc:
            raise QasmError(
                f"unknown qubit {exc.args[0]!r} in gate '{definition.name}'", line
            ) from None
        if gname in defs:
            out.extend(
                _expand_gate_def(
                    defs[gname], defs, call_params, call_operands, line, depth + 1
                )
            )
        elif gname in known:
            out.append(Gate.make(gname, call_operands, call_params))
        else:
            raise QasmError(f"unknown gate '{gname}' in definition body", line)
    return out


def parse_qasm(text: str, name: str = "qasm") -> Circuit:
    """Parse OpenQASM 2.0 source text into a :class:`Circuit`.

    Supports the standard-library gates, custom ``gate`` definitions
    (macro-expanded with symbolic parameters), and multiple quantum
    registers (flattened in declaration order); ``barrier``, ``measure``
    and ``reset`` are ignored, and malformed statements raise a
    :class:`QasmError` that carries the offending line.  Example::

        circuit = parse_qasm(
            'OPENQASM 2.0; include "qelib1.inc"; '
            "qreg q[2]; h q[0]; cx q[0], q[1];"
        )
        assert circuit.num_qubits == 2 and len(circuit) == 2
    """
    text = _TOKEN_COMMENT.sub("", text)
    text, gate_defs = _extract_gate_defs(text)
    statements: list[tuple[int, str]] = []
    lineno = 1
    for chunk in text.split(";"):
        stmt = chunk.strip()
        lineno += chunk.count("\n")
        if stmt:
            statements.append((lineno, " ".join(stmt.split())))

    qregs: dict[str, _Register] = {}
    total_qubits = 0
    gates: list[Gate] = []
    known = known_gate_names()

    def resolve(operand: str, line: int) -> list[int]:
        """Map ``reg[i]`` or bare ``reg`` to global qubit indices."""
        operand = operand.strip()
        m = re.match(r"^([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]$", operand)
        if m:
            reg, idx = m.group(1), int(m.group(2))
            if reg not in qregs:
                raise QasmError(f"unknown qreg '{reg}'", line)
            if idx >= qregs[reg].size:
                raise QasmError(f"index {idx} out of range for qreg '{reg}'", line)
            return [qregs[reg].offset + idx]
        if operand in qregs:
            reg = qregs[operand]
            return list(range(reg.offset, reg.offset + reg.size))
        raise QasmError(f"bad operand {operand!r}", line)

    for line, stmt in statements:
        head = stmt.split(maxsplit=1)[0].lower()
        if head == "openqasm":
            continue
        if head == "include":
            continue
        if head == "qreg":
            m = re.match(r"^qreg\s+([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]$", stmt)
            if not m:
                raise QasmError(f"bad qreg declaration {stmt!r}", line)
            qregs[m.group(1)] = _Register(m.group(1), int(m.group(2)), total_qubits)
            total_qubits += int(m.group(2))
            continue
        if head == "creg":
            continue
        if head in ("barrier", "measure", "reset"):
            continue
        if head in ("opaque", "if"):
            raise QasmError(f"unsupported statement kind '{head}'", line)

        gname, params_text, operand_text = _split_gate_call(stmt, line)
        gname = gname.lower()
        if gname not in known and gname not in gate_defs:
            raise QasmError(f"unknown gate '{gname}'", line)
        params = (
            tuple(
                _eval_param(p, line)
                for p in _split_args(params_text)
                if p.strip()
            )
            if params_text is not None
            else ()
        )
        operand_lists = [resolve(op, line) for op in operand_text.split(",") if op.strip()]
        if not operand_lists:
            raise QasmError(f"gate '{gname}' missing operands", line)
        # broadcast whole-register operands (all must have equal lengths or 1)
        width = max(len(ops) for ops in operand_lists)
        for ops in operand_lists:
            if len(ops) not in (1, width):
                raise QasmError("mismatched register broadcast widths", line)
        for i in range(width):
            operands = [ops[i if len(ops) > 1 else 0] for ops in operand_lists]
            if gname in gate_defs:
                gates.extend(
                    _expand_gate_def(gate_defs[gname], gate_defs, params, operands, line)
                )
            else:
                gates.append(Gate.make(gname, operands, params))

    if total_qubits == 0:
        raise QasmError("no qreg declared")
    return Circuit(total_qubits, gates, name=name)


def load_qasm(path: str) -> Circuit:
    """Read a ``.qasm`` file from disk.

    Convenience wrapper over :func:`parse_qasm`: reads the file as
    UTF-8 and records its path as the circuit name, so errors and bench
    reports identify the source file.  Example::

        circuit = load_qasm("circuits/ghz4.qasm")
        assert circuit.name.endswith("ghz4.qasm")
    """
    with open(path, "r", encoding="utf-8") as fh:
        return parse_qasm(fh.read(), name=path)


def to_qasm(circuit: Circuit) -> str:
    """Serialize a circuit as OpenQASM 2.0 using register ``q``."""
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circuit.num_qubits}];",
    ]
    for gate in circuit.gates:
        lines.append(_gate_to_qasm(gate))
    return "\n".join(lines) + "\n"


def _gate_to_qasm(gate: Gate) -> str:
    name = gate.name
    operands = list(gate.qubits)
    if gate.controls:
        prefix_names = {
            ("x", 1): "cx", ("x", 2): "ccx", ("y", 1): "cy", ("z", 1): "cz",
            ("z", 2): "ccz", ("h", 1): "ch", ("p", 1): "cp", ("rx", 1): "crx",
            ("ry", 1): "cry", ("rz", 1): "crz", ("u3", 1): "cu3",
            ("swap", 1): "cswap", ("s", 1): "cs", ("sx", 1): "csx",
        }
        key = (gate.name, len(gate.controls))
        if key not in prefix_names:
            raise QasmError(f"cannot serialize controlled gate {gate}")
        name = prefix_names[key]
        operands = list(gate.controls) + operands
    params = ",".join(repr(p) for p in gate.params)
    head = f"{name}({params})" if params else name
    args = ",".join(f"q[{q}]" for q in operands)
    return f"{head} {args};"
