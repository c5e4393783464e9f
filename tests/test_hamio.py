import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauliflow.hamio import (
    HamiltonianParseError,
    bundled_path,
    dump_hamiltonian,
    load_hamiltonian,
    loads_hamiltonian,
    write_hamiltonian,
)
from pauliflow.pauli import PauliWord, QubitHamiltonian


def test_basic_parse():
    h = loads_hamiltonian("qubits: 2\n0.5 Z0\n0.25 Z0 Z1\n")
    assert h.n_qubits == 2
    assert h.n_terms == 2
    assert h.identity_offset == 0.0
    assert h.terms[0] == (0.5, PauliWord.from_text("Z0", 2))


def test_identity_folding():
    h = loads_hamiltonian("qubits: 1\n1.0 I\n0.1 X0\n")
    assert h.n_terms == 1
    assert h.terms[0][0] == pytest.approx(0.1)
    assert h.identity_offset == pytest.approx(1.0)


def test_merge_to_zero_prunes():
    h = loads_hamiltonian("qubits: 2\n0.3 X0\n-0.3 X0\n")
    assert h.n_terms == 0


def test_comments_blank_lines_crlf():
    h = loads_hamiltonian("# header comment\r\nqubits: 2\r\n\r\n0.5 Z1\r\n# trailing\r\n")
    assert h.n_terms == 1


def test_byte_stream_and_path(tmp_path):
    text = "qubits: 3\n0.5 X0 Y2\n"
    assert load_hamiltonian(io.BytesIO(text.encode())).n_terms == 1
    p = tmp_path / "h.ham"
    p.write_text(text)
    assert load_hamiltonian(p).n_terms == 1


def test_empty_hamiltonian_dump():
    assert dump_hamiltonian(QubitHamiltonian(3)) == "qubits: 3\n"
    assert "I" in dump_hamiltonian(QubitHamiltonian(3, identity_offset=1.25))


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("0.5 Z0\n", "header"),
        ("qubits: 2\n0.5\n", "coefficient"),
        ("qubits: 2\nabc Z0\n", "non-numeric"),
        ("qubits: 2\n0.5 Z5\n", "out of range"),
        ("qubits: 2\n0.5 X0 Z0\n", "repeated"),
        ("qubits: 2\n0.5 Z1 X0\n", "ascending"),
        ("qubits: 2\n0.5 Q0\n", "token"),
        ("qubits: 0\n", "positive"),
        ("", "header"),
        ("qubits: 2\nnan Z0\n0.3 X1\n", "line 2: non-finite"),
        ("qubits: 2\n0.3 X1\ninf Z0\n", "line 3: non-finite"),
        ("qubits: 2\n1e999 Z0\n", "line 2: non-finite"),
        ("qubits: 2\nnan I\n0.3 X1\n", "line 2: non-finite"),
        ("qubits: 2\n0.3 X1\n-inf I\n", "line 3: non-finite"),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(HamiltonianParseError, match=fragment):
        loads_hamiltonian(text)


def test_error_line_number():
    with pytest.raises(HamiltonianParseError, match="line 4"):
        loads_hamiltonian("# c\nqubits: 2\n0.5 Z0\n0.5 Q1\n")


def test_non_utf8_byte_names_its_line(tmp_path):
    data = b"qubits: 2\r\n0.5 Z0\r\n0.3 X\xff1\r\n"
    with pytest.raises(HamiltonianParseError, match="line 3: not UTF-8"):
        load_hamiltonian(io.BytesIO(data))
    p = tmp_path / "h.ham"
    p.write_bytes(data)
    with pytest.raises(HamiltonianParseError, match="line 3: not UTF-8"):
        load_hamiltonian(p)


def test_terms_parse_as_pauli_words():
    """Terms go through PauliWord.from_text, so a dense word of the declared
    width reads as its sparse form, and its errors carry the line number."""
    h = loads_hamiltonian("qubits: 3\n0.5 XIZ\n0.25 Y1\n")
    assert h.terms[0] == (0.5, PauliWord.from_text("X0 Z2", 3))
    with pytest.raises(HamiltonianParseError, match="line 3"):
        loads_hamiltonian("qubits: 3\n0.5 Z0\n0.25 XY\n")


words3 = st.text(alphabet="IXYZ", min_size=3, max_size=3).filter(lambda t: t != "III")


@settings(max_examples=60)
@given(
    st.lists(st.tuples(st.floats(-5, 5, allow_nan=False), words3), max_size=8),
    st.floats(-3, 3, allow_nan=False),
)
def test_round_trip_property(raw, offset):
    h = QubitHamiltonian(3, [(c, PauliWord.from_text(t)) for c, t in raw], identity_offset=offset)
    assert loads_hamiltonian(dump_hamiltonian(h)) == h


def test_write_to_binary_stream_round_trip(tmp_path):
    h = QubitHamiltonian(2, [(0.125, PauliWord.from_text("XZ"))], identity_offset=-1.5)
    buf = io.BytesIO()
    write_hamiltonian(h, buf)
    assert load_hamiltonian(io.BytesIO(buf.getvalue())) == h
    p = tmp_path / "out.ham"
    write_hamiltonian(h, p)
    assert p.read_bytes().endswith(b"\n")
    assert b"\r" not in p.read_bytes()
    assert load_hamiltonian(p) == h


def test_h2_fixture_shape():
    h = load_hamiltonian(bundled_path("h2_sto3g_1A_jw.ham"))
    assert h.n_qubits == 4
    assert h.n_terms == 14  # identity excluded from the term list
    assert h.identity_offset != 0.0
    # full-precision round trip
    assert loads_hamiltonian(dump_hamiltonian(h)) == h


def test_h4_fixture_shape():
    h = load_hamiltonian(bundled_path("h4_chain_sto3g_1A_jw.ham"))
    assert h.n_qubits == 8
    assert h.n_terms == 184
