"""Classical reversible-circuit construction for linear models.

A linear model is solved by inspecting coefficient signs, and that is
expressible as a tiny CNOT circuit: load each coefficient into a two's
complement register, copy its sign bit onto a fresh output qubit, and
measure the outputs.  The measured string is exactly the optimal
bitstring.  Emitted as a plain text program so the claim can be checked
by an interpreter with no quantum machinery at all.

Format, one instruction per line:

    init q<i> <0|1>
    cnot q<control> q<target>
    measure q<i> -> c<k>

Qubit layout: coefficient k (zero-based) occupies qubits
[k*width, (k+1)*width) least significant bit first, so its sign bit is
qubit (k+1)*width - 1; one output qubit per coefficient follows all
registers.
"""

from __future__ import annotations

import re

from .errors import ResourceLimitError, positive_int
from .ising import LinearIsing

# Every finite float is below 2**1024, so 1025 bits hold any integer
# coefficient; a wider register would only add sign bits.
MAX_REGISTER_WIDTH = 1025


def twos_complement_bits(value: int, width: int) -> tuple[int, ...]:
    """Bits of value in width-bit two's complement, least significant first.

    A width above MAX_REGISTER_WIDTH raises ResourceLimitError.
    """
    width = positive_int(width, "register width")
    if width > MAX_REGISTER_WIDTH:
        raise ResourceLimitError(
            f"register width {width} is above MAX_REGISTER_WIDTH = {MAX_REGISTER_WIDTH}"
        )
    lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
    if not lo <= value <= hi:
        raise ValueError(
            f"value {value} does not fit in {width}-bit two's complement "
            f"(range {lo}..{hi})"
        )
    masked = value % (1 << width)
    return tuple((masked >> i) & 1 for i in range(width))


def emit_linear_solver_circuit(model: LinearIsing, register_width: int) -> str:
    """Text circuit whose measured bits are the model's optimal string.

    Requires integer coefficients that fit the register width; rejects
    anything else by naming the offending coefficient.
    """
    register_width = positive_int(register_width, "register width")
    registers = []
    for i, a in enumerate(model.coeffs):
        if a != int(a):
            raise ValueError(
                f"coefficient {i + 1} (= {a!r}) is not an integer; "
                "the register encoding needs integer coefficients"
            )
        try:
            registers.append(twos_complement_bits(int(a), register_width))
        except ValueError as exc:
            raise ValueError(f"coefficient {i + 1}: {exc}") from None
    n = model.n
    out_base = n * register_width
    lines = []
    for k, bits in enumerate(registers):
        for offset, bit in enumerate(bits):
            lines.append(f"init q{k * register_width + offset} {bit}")
    for k in range(n):
        lines.append(f"init q{out_base + k} 0")
    for k in range(n):
        sign_qubit = (k + 1) * register_width - 1
        lines.append(f"cnot q{sign_qubit} q{out_base + k}")
    for k in range(n):
        lines.append(f"measure q{out_base + k} -> c{k}")
    return "\n".join(lines) + "\n"


_INIT_RE = re.compile(r"^init q(\d+) ([01])$")
_CNOT_RE = re.compile(r"^cnot q(\d+) q(\d+)$")
_MEASURE_RE = re.compile(r"^measure q(\d+) -> c(\d+)$")


def interpret_circuit(text: str) -> tuple[int, ...]:
    """Run a text circuit classically; returns classical bits c0, c1, ...

    Uninitialized qubits read as 0; blank lines and # comments are
    skipped.  Raises ValueError on malformed lines or gaps in the
    measured classical indices.
    """
    qubits: dict[int, int] = {}
    classical: dict[int, int] = {}
    for lineno, raw in enumerate(str(text).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if m := _INIT_RE.match(line):
            qubits[int(m.group(1))] = int(m.group(2))
        elif m := _CNOT_RE.match(line):
            control, target = int(m.group(1)), int(m.group(2))
            if control == target:
                raise ValueError(f"line {lineno}: cnot control equals target")
            qubits[target] = qubits.get(target, 0) ^ qubits.get(control, 0)
        elif m := _MEASURE_RE.match(line):
            classical[int(m.group(2))] = qubits.get(int(m.group(1)), 0)
        else:
            raise ValueError(f"line {lineno}: cannot parse {raw!r}")
    if not classical:
        raise ValueError("circuit measures nothing")
    bits = []
    for k in range(len(classical)):
        if k not in classical:
            raise ValueError(f"classical bit c{k} is never written")
        bits.append(classical[k])
    return tuple(bits)
