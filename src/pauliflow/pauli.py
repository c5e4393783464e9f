"""Pauli words, commutation predicates, and the qubit-Hamiltonian container.

A Pauli word is a tensor product of single-qubit operators from {I, X, Y, Z},
stored in symplectic form: two bit vectors (x, z) of length n_qubits with

    (x, z) = (0, 0) -> I, (1, 0) -> X, (1, 1) -> Y, (0, 1) -> Z.

Two words fully commute iff their symplectic inner product
sum_q (x_a z_b + z_a x_b) is even; they qubit-wise commute iff on every qubit
the factors are equal or at least one is the identity.
"""
from __future__ import annotations

import re
from typing import Iterable, Sequence

import numpy as np

DEFAULT_PRUNE_TOL = 1e-12

_LETTER_TO_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_TO_LETTER = {v: k for k, v in _LETTER_TO_BITS.items()}
_SPARSE_TOKEN = re.compile(r"^([XYZ])(\d+)$")


class DimensionError(ValueError):
    """Operands act on different numbers of qubits."""


class PauliFormatError(ValueError):
    """Text does not describe a valid Pauli word."""


class PauliWord:
    """Immutable tensor product of single-qubit Paulis in symplectic form."""

    __slots__ = ("n_qubits", "x_bits", "z_bits", "_hash")

    def __init__(self, n_qubits: int, x_bits, z_bits):
        if n_qubits <= 0:
            raise ValueError(f"n_qubits must be positive, got {n_qubits}")
        x = np.asarray(x_bits, dtype=bool)
        z = np.asarray(z_bits, dtype=bool)
        if x.shape != (n_qubits,) or z.shape != (n_qubits,):
            raise DimensionError(
                f"bit vectors must have length {n_qubits}, got {x.shape} and {z.shape}"
            )
        x.setflags(write=False)
        z.setflags(write=False)
        object.__setattr__(self, "n_qubits", n_qubits)
        object.__setattr__(self, "x_bits", x)
        object.__setattr__(self, "z_bits", z)
        object.__setattr__(self, "_hash", hash((n_qubits, x.tobytes(), z.tobytes())))

    def __setattr__(self, name, value):
        raise AttributeError("PauliWord is immutable")

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliWord":
        return cls(n_qubits, np.zeros(n_qubits, bool), np.zeros(n_qubits, bool))

    @classmethod
    def from_letters(cls, letters: Sequence[str]) -> "PauliWord":
        """Build from per-qubit letters, qubit 0 first (e.g. "XIZ")."""
        n = len(letters)
        if n == 0:
            raise PauliFormatError("empty Pauli letter sequence")
        x = np.zeros(n, bool)
        z = np.zeros(n, bool)
        for q, letter in enumerate(letters):
            try:
                xb, zb = _LETTER_TO_BITS[letter]
            except KeyError:
                raise PauliFormatError(f"invalid Pauli letter {letter!r}") from None
            x[q], z[q] = xb, zb
        return cls(n, x, z)

    @classmethod
    def from_text(cls, text: str, n_qubits: int | None = None) -> "PauliWord":
        """Parse either a dense string ("XIZ") or sparse tokens ("X0 Z2").

        The sparse form needs an explicit n_qubits and strictly ascending
        qubit indices, as to_sparse writes them; the token "I" denotes the
        all-identity word (n_qubits required). This is the package's one
        sparse-token parser: loads_hamiltonian parses every term with it.
        """
        text = text.strip()
        if not text:
            raise PauliFormatError("empty Pauli text")
        if text == "I" and n_qubits is not None:
            return cls.identity(n_qubits)
        if not any(ch.isdigit() for ch in text):
            word = cls.from_letters(text)
            if n_qubits is not None and word.n_qubits != n_qubits:
                raise DimensionError(
                    f"dense word {text!r} has {word.n_qubits} qubits, expected {n_qubits}"
                )
            return word
        if n_qubits is None:
            raise PauliFormatError("sparse Pauli text needs an explicit n_qubits")
        x = np.zeros(n_qubits, bool)
        z = np.zeros(n_qubits, bool)
        last = -1
        for token in text.split():
            m = _SPARSE_TOKEN.match(token)
            if m is None:
                raise PauliFormatError(f"invalid Pauli token {token!r}")
            q = int(m.group(2))
            if q >= n_qubits:
                raise PauliFormatError(f"qubit index {q} out of range for {n_qubits} qubits")
            if q == last:
                raise PauliFormatError(f"qubit {q} repeated in {text!r}")
            if q < last:
                raise PauliFormatError(f"qubit indices must be ascending in {text!r}")
            last = q
            x[q], z[q] = _LETTER_TO_BITS[m.group(1)]
        return cls(n_qubits, x, z)

    def letter(self, q: int) -> str:
        return _BITS_TO_LETTER[(int(self.x_bits[q]), int(self.z_bits[q]))]

    def to_dense(self) -> str:
        """Per-qubit letters, qubit 0 first (e.g. "XIZ")."""
        return "".join(self.letter(q) for q in range(self.n_qubits))

    def to_sparse(self) -> str:
        """Space-separated non-identity tokens, ascending qubit ("X0 Z2"); "I" if all identity."""
        tokens = [
            f"{self.letter(q)}{q}"
            for q in range(self.n_qubits)
            if self.x_bits[q] or self.z_bits[q]
        ]
        return " ".join(tokens) if tokens else "I"

    def is_identity(self) -> bool:
        return not (self.x_bits.any() or self.z_bits.any())

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliWord):
            return NotImplemented
        return (
            self.n_qubits == other.n_qubits
            and np.array_equal(self.x_bits, other.x_bits)
            and np.array_equal(self.z_bits, other.z_bits)
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"PauliWord({self.to_dense()!r})"


def _check_same_size(a: PauliWord, b: PauliWord) -> None:
    if a.n_qubits != b.n_qubits:
        raise DimensionError(f"qubit counts differ: {a.n_qubits} vs {b.n_qubits}")


def commutes_fc(a: PauliWord, b: PauliWord) -> bool:
    """Full commutation: symplectic inner product sum_q (x_a z_b + z_a x_b) is even."""
    _check_same_size(a, b)
    parity = np.count_nonzero(a.x_bits & b.z_bits) + np.count_nonzero(a.z_bits & b.x_bits)
    return parity % 2 == 0


def commutes_qwc(a: PauliWord, b: PauliWord) -> bool:
    """Qubit-wise commutation: every pair of single-qubit factors equal or one identity."""
    _check_same_size(a, b)
    both_act = (a.x_bits | a.z_bits) & (b.x_bits | b.z_bits)
    differ = (a.x_bits ^ b.x_bits) | (a.z_bits ^ b.z_bits)
    return not bool(np.any(both_act & differ))


class QubitHamiltonian:
    """Weighted sum of non-identity Pauli words plus a scalar identity offset.

    Construction canonicalizes: duplicate words are merged by coefficient
    addition, all-identity words fold into identity_offset (summed in term
    order; this is the package's only identity fold), and terms with
    |coefficient| below DEFAULT_PRUNE_TOL are dropped. Term order is
    first-appearance order after merging.
    """

    def __init__(self, n_qubits: int, terms: Iterable[tuple[float, PauliWord]] = ()):
        if n_qubits <= 0:
            raise ValueError(f"n_qubits must be positive, got {n_qubits}")
        offset = 0.0
        merged: dict[PauliWord, float] = {}
        for coeff, word in terms:
            if word.n_qubits != n_qubits:
                raise DimensionError(
                    f"term {word.to_sparse()!r} has {word.n_qubits} qubits, expected {n_qubits}"
                )
            if word.is_identity():
                offset += float(coeff)
            else:
                merged[word] = merged.get(word, 0.0) + float(coeff)
        self.n_qubits = n_qubits
        self.terms: tuple[tuple[float, PauliWord], ...] = tuple(
            (c, w) for w, c in merged.items() if abs(c) >= DEFAULT_PRUNE_TOL
        )
        self.identity_offset = offset

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def coefficients(self) -> np.ndarray:
        return np.array([c for c, _ in self.terms], dtype=float)

    def words(self) -> tuple[PauliWord, ...]:
        return tuple(w for _, w in self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QubitHamiltonian):
            return NotImplemented
        return (
            self.n_qubits == other.n_qubits
            and self.identity_offset == other.identity_offset
            and dict((w, c) for c, w in self.terms) == dict((w, c) for c, w in other.terms)
        )

    def __repr__(self) -> str:
        return (
            f"QubitHamiltonian(n_qubits={self.n_qubits}, n_terms={self.n_terms}, "
            f"identity_offset={self.identity_offset!r})"
        )
