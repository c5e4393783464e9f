import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauliflow.pauli import (
    DimensionError,
    PauliFormatError,
    PauliWord,
    QubitHamiltonian,
    commutes_fc,
    commutes_qwc,
)

from oracles import all_words, commutes_dense, qwc_dense

words = lambda n: st.text(alphabet="IXYZ", min_size=n, max_size=n)


def w(text, n=None):
    return PauliWord.from_text(text, n)


class TestPauliWord:
    def test_encoding(self):
        word = w("IXYZ")
        assert list(word.x_bits) == [False, True, True, False]
        assert list(word.z_bits) == [False, False, True, True]

    def test_dense_round_trip(self):
        for text in ("XIZ", "I", "YYYY", "IZXI"):
            assert w(text).to_dense() == text

    def test_sparse_round_trip(self):
        word = w("X0 Z2", 3)
        assert word.to_dense() == "XIZ"
        assert word.to_sparse() == "X0 Z2"
        assert w(word.to_sparse(), 3) == word

    def test_identity_token(self):
        word = w("I", 4)
        assert word.is_identity()
        assert word.to_sparse() == "I"

    @given(st.integers(1, 6).flatmap(lambda n: words(n)))
    def test_text_round_trips(self, text):
        word = w(text)
        n = word.n_qubits
        assert PauliWord.from_text(word.to_dense()) == word
        assert PauliWord.from_text(word.to_sparse(), n) == word

    def test_bad_text(self):
        with pytest.raises(PauliFormatError):
            w("XQ")
        with pytest.raises(PauliFormatError):
            w("X0 X0", 2)
        with pytest.raises(PauliFormatError):
            w("X5", 2)
        with pytest.raises(PauliFormatError, match="ascending"):
            w("Z1 X0", 2)  # to_sparse writes indices in ascending order only
        with pytest.raises(PauliFormatError):
            w("X0")  # sparse without n_qubits
        with pytest.raises(PauliFormatError):
            w("")

    def test_immutability_and_hash(self):
        word = w("XZ")
        with pytest.raises(AttributeError):
            word.n_qubits = 3
        assert hash(w("XZ")) == hash(word)
        assert w("XZ") == word
        assert w("ZX") != word


class TestCommutation:
    def test_paper_pair_fc_but_not_qwc(self):
        # X on qubits 0,1 vs Y on qubits 0,1: commute as matrices, not qubit-wise
        a, b = w("XX"), w("YY")
        assert commutes_fc(a, b)
        assert not commutes_qwc(a, b)

    def test_identity_commutes_with_everything(self):
        ident = PauliWord.identity(3)
        for text in all_words(3):
            assert commutes_fc(ident, w(text))
            assert commutes_qwc(ident, w(text))

    def test_qwc_per_qubit_factors(self):
        assert commutes_qwc(w("XI"), w("IZ"))
        assert qwc_dense("XI", "IZ")

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            commutes_fc(w("X"), w("XX"))
        with pytest.raises(DimensionError):
            commutes_qwc(w("X"), w("XX"))

    def test_fc_matches_dense_oracle_two_qubits(self):
        for ta in all_words(2):
            for tb in all_words(2):
                assert commutes_fc(w(ta), w(tb)) == commutes_dense(ta, tb)

    def test_qwc_matches_dense_oracle_two_qubits(self):
        for ta in all_words(2):
            for tb in all_words(2):
                assert commutes_qwc(w(ta), w(tb)) == qwc_dense(ta, tb)

    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(words(n), words(n))))
    def test_predicates_symmetric_reflexive(self, pair):
        a, b = w(pair[0]), w(pair[1])
        assert commutes_fc(a, a) and commutes_qwc(a, a)
        assert commutes_fc(a, b) == commutes_fc(b, a)
        assert commutes_qwc(a, b) == commutes_qwc(b, a)

    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(words(n), words(n))))
    def test_qwc_implies_fc(self, pair):
        a, b = w(pair[0]), w(pair[1])
        if commutes_qwc(a, b):
            assert commutes_fc(a, b)

    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(words(n), words(n))))
    def test_symplectic_parity_identity(self, pair):
        a, b = w(pair[0]), w(pair[1])
        p1 = np.count_nonzero(a.x_bits & b.z_bits) % 2
        p2 = np.count_nonzero(a.z_bits & b.x_bits) % 2
        assert commutes_fc(a, b) == (p1 == p2)


class TestQubitHamiltonian:
    def test_merging_and_identity_folding(self):
        h = QubitHamiltonian(
            2,
            [(0.5, w("II")), (0.5, w("ZI")), (1.0, w("II")), (0.25, w("ZI")), (0.1, w("XI"))],
        )
        assert h.n_terms == 2
        assert h.identity_offset == pytest.approx(1.5)
        assert h.terms[0] == (0.75, w("ZI"))

    def test_prune_cancelling_terms(self):
        h = QubitHamiltonian(2, [(0.3, w("XI")), (-0.3, w("XI"))])
        assert h.n_terms == 0

    def test_mismatched_qubit_count(self):
        with pytest.raises(DimensionError):
            QubitHamiltonian(3, [(1.0, w("XX"))])

    @settings(max_examples=50)
    @given(
        st.lists(
            st.tuples(st.floats(-2, 2, allow_nan=False), words(3)),
            min_size=0,
            max_size=8,
        )
    )
    def test_canonical_invariants(self, raw):
        h = QubitHamiltonian(3, [(c, w(t)) for c, t in raw])
        seen = set()
        for coeff, word in h.terms:
            assert not word.is_identity()
            assert abs(coeff) >= 1e-12
            assert word not in seen
            seen.add(word)
