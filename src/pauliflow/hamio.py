"""Line-oriented text format for qubit Hamiltonians.

    # comment
    qubits: 4
    -0.32760814690970097 I
    -0.04919764473153209 X0 X1 Y2 Y3
    0.13716573744910343 Z0

One header line, then one term per line: a finite decimal coefficient
followed by either sparse Pauli tokens (0-based qubit indices, strictly
ascending) or the single token "I" for the identity contribution. Terms are
parsed by PauliWord.from_text, so a dense letter string of the declared width
("XIZY") is read as well; writing always uses sparse tokens. "#" lines and
blank lines are ignored. UTF-8; LF or CRLF accepted on read, LF written.
Loading canonicalizes (duplicates merged, identity folded into the offset,
sub-tolerance terms pruned), so load(write(h)) == h for canonical h.
"""
from __future__ import annotations

import io
import math
import os
import re
from typing import IO, Union

from .pauli import DEFAULT_PRUNE_TOL, DimensionError, PauliFormatError, PauliWord, QubitHamiltonian

Source = Union[str, os.PathLike, IO[bytes], IO[str]]

_HEADER = re.compile(r"^qubits:\s*(\d+)\s*$")


class HamiltonianParseError(ValueError):
    """Malformed Hamiltonian file; message carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _read_text(source: Source) -> str:
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as f:
            data = f.read()
    else:
        data = source.read()
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as err:
            line_no = data.count(b"\n", 0, err.start) + 1
            raise HamiltonianParseError(line_no, f"not UTF-8 ({err.reason})") from None
    return data


def _parse_word(spec: str, n_qubits: int, line_no: int) -> PauliWord | None:
    """Returns None for the identity token."""
    if spec == "I":
        return None
    try:
        return PauliWord.from_text(spec, n_qubits)
    except (PauliFormatError, DimensionError) as err:
        raise HamiltonianParseError(line_no, str(err)) from None


def load_hamiltonian(source: Source, prune_tol: float = DEFAULT_PRUNE_TOL) -> QubitHamiltonian:
    """Parse and canonicalize a Hamiltonian from a path, text, or byte stream."""
    text = _read_text(source)
    n_qubits = None
    terms: list[tuple[float, PauliWord]] = []
    offset = 0.0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n_qubits is None:
            m = _HEADER.match(line)
            if m is None:
                raise HamiltonianParseError(line_no, f"expected 'qubits: <n>' header, got {line!r}")
            n_qubits = int(m.group(1))
            if n_qubits == 0:
                raise HamiltonianParseError(line_no, "qubit count must be positive")
            continue
        fields = line.split(None, 1)
        if len(fields) != 2:
            raise HamiltonianParseError(line_no, f"expected '<coefficient> <pauli-spec>', got {line!r}")
        try:
            coeff = float(fields[0])
        except ValueError:
            raise HamiltonianParseError(line_no, f"non-numeric coefficient {fields[0]!r}") from None
        if not math.isfinite(coeff):
            raise HamiltonianParseError(line_no, f"non-finite coefficient {fields[0]!r}")
        word = _parse_word(fields[1].strip(), n_qubits, line_no)
        if word is None:
            offset += coeff
        else:
            terms.append((coeff, word))
    if n_qubits is None:
        raise HamiltonianParseError(1, "missing 'qubits: <n>' header")
    return QubitHamiltonian(n_qubits, terms, identity_offset=offset, prune_tol=prune_tol)


def dump_hamiltonian(h: QubitHamiltonian) -> str:
    """Render the canonical text form (offset line first when nonzero)."""
    lines = [f"qubits: {h.n_qubits}"]
    if h.identity_offset != 0.0:
        lines.append(f"{h.identity_offset!r} I")
    for coeff, word in h.terms:
        lines.append(f"{coeff!r} {word.to_sparse()}")
    return "\n".join(lines) + "\n"


def write_hamiltonian(h: QubitHamiltonian, sink: Union[str, os.PathLike, IO[bytes], IO[str]]) -> None:
    """Write the canonical text form to a path or stream (UTF-8, LF)."""
    text = dump_hamiltonian(h)
    if isinstance(sink, (str, os.PathLike)):
        with open(sink, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
    elif isinstance(sink, (io.RawIOBase, io.BufferedIOBase)) or (
        hasattr(sink, "mode") and "b" in getattr(sink, "mode", "")
    ):
        sink.write(text.encode("utf-8"))
    else:
        try:
            sink.write(text)
        except TypeError:
            sink.write(text.encode("utf-8"))


def loads_hamiltonian(text: str, prune_tol: float = DEFAULT_PRUNE_TOL) -> QubitHamiltonian:
    """Parse from an in-memory string."""
    return load_hamiltonian(io.StringIO(text), prune_tol=prune_tol)


def bundled_path(name: str) -> str:
    """Path to a Hamiltonian shipped with the package (see pauliflow/fixtures)."""
    path = os.path.join(os.path.dirname(__file__), "fixtures", name)
    if not os.path.exists(path):
        raise FileNotFoundError(f"no bundled Hamiltonian named {name!r}")
    return path
