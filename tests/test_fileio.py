import os

import numpy as np
import pytest

from gerk.errors import ParseError
from gerk.fileio import (
    VECTOR_CSV_VERSION,
    atomic_write,
    read_matrix_market,
    read_vector_csv,
    write_matrix_market,
    write_vector_csv,
)
from gerk.rng import RngStream


def test_matrix_roundtrip_real(tmp_path):
    rng = RngStream(300)
    M = rng.normal_array(12).reshape(3, 4)
    path = tmp_path / "m.mtx"
    write_matrix_market(path, M)
    back = read_matrix_market(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, M)


def test_matrix_roundtrip_complex(tmp_path):
    rng = RngStream(301)
    M = rng.complex_normal_array(10).reshape(5, 2)
    path = tmp_path / "m.mtx"
    write_matrix_market(path, M)
    back = read_matrix_market(path)
    assert back.dtype == np.complex128
    assert np.array_equal(back, M)


def test_matrix_coordinate_format(tmp_path):
    path = tmp_path / "c.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "% sparse sample\n"
        "3 4 2\n"
        "1 2 5.5\n"
        "3 4 -1.0\n"
    )
    M = read_matrix_market(path)
    expected = np.zeros((3, 4))
    expected[0, 1] = 5.5
    expected[2, 3] = -1.0
    assert np.array_equal(M, expected)


def test_matrix_integer_field(tmp_path):
    path = tmp_path / "i.mtx"
    path.write_text("%%MatrixMarket matrix array integer general\n2 2\n1\n2\n3\n4\n")
    M = read_matrix_market(path)
    assert M.dtype == np.float64
    assert np.array_equal(M, np.array([[1.0, 3.0], [2.0, 4.0]]))


def test_matrix_missing_file(tmp_path):
    path = tmp_path / "nope.mtx"
    with pytest.raises(ParseError) as exc:
        read_matrix_market(path)
    assert f"{path}:0:" in str(exc.value)


def test_matrix_bad_header(tmp_path):
    path = tmp_path / "h.mtx"
    path.write_text("%%NotMatrixMarket whatever\n1 1\n0.0\n")
    with pytest.raises(ParseError) as exc:
        read_matrix_market(path)
    assert f"{path}:1:" in str(exc.value)
    assert "header" in str(exc.value)


def test_matrix_symmetric_rejected(tmp_path):
    path = tmp_path / "s.mtx"
    path.write_text("%%MatrixMarket matrix array real symmetric\n2 2\n1\n2\n3\n4\n")
    with pytest.raises(ParseError) as exc:
        read_matrix_market(path)
    assert "symmetry" in str(exc.value)
    assert ":1:" in str(exc.value)


def test_matrix_bad_size_line(tmp_path):
    path = tmp_path / "z.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n% com\n2 x\n")
    with pytest.raises(ParseError) as exc:
        read_matrix_market(path)
    assert f"{path}:3:" in str(exc.value)


def test_matrix_size_line_needs_ascii_digits(tmp_path):
    # str.isdigit() and int() accept the superscript two
    path = tmp_path / "z.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2\u00b2 1\n1\n2\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        read_matrix_market(path)
    assert f"{path}:2: size line must hold 2 integers" in str(exc.value)


def test_byte_that_is_not_utf8_names_its_line(tmp_path):
    path = tmp_path / "u.mtx"
    for text, line in ((b"%%MatrixMarket matrix array real general\n% caf\xe9\n2 1\n1\n2\n", 2),
                       (b"%%MatrixMarket matrix array real general\r\n2 1\r\n1\r\n2\xff\r\n", 4)):
        path.write_bytes(text)
        with pytest.raises(ParseError) as exc:
            read_matrix_market(path)
        assert f"{path}:{line}: byte 0x" in str(exc.value)
        assert "is not UTF-8" in str(exc.value)
    path = tmp_path / "u.csv"
    path.write_bytes(b"value\n1.0\n\n2.0\xfe\n")
    with pytest.raises(ParseError) as exc:
        read_vector_csv(path)
    assert f"{path}:4: byte 0xfe is not UTF-8" in str(exc.value)


def test_matrix_malformed_entry_line_number(tmp_path):
    path = tmp_path / "e.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 1\n1.0\nbroken\n")
    with pytest.raises(ParseError) as exc:
        read_matrix_market(path)
    assert f"{path}:4:" in str(exc.value)


def test_matrix_wrong_entry_count(tmp_path):
    path = tmp_path / "n.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n3.0\n")
    with pytest.raises(ParseError) as exc:
        read_matrix_market(path)
    assert "expected 4 entries, found 3" in str(exc.value)


def test_matrix_coordinate_index_range(tmp_path):
    path = tmp_path / "r.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n")
    with pytest.raises(ParseError) as exc:
        read_matrix_market(path)
    assert "out of range" in str(exc.value)


def test_vector_roundtrip_real(tmp_path):
    v = np.array([1.5, -2.25, 1e-17, 3.0])
    path = tmp_path / "v.csv"
    write_vector_csv(path, v)
    text = path.read_text()
    assert text.startswith(VECTOR_CSV_VERSION + "\n")
    assert "value" in text.splitlines()[1]
    assert np.array_equal(read_vector_csv(path), v)


def test_vector_roundtrip_complex(tmp_path):
    rng = RngStream(302)
    v = rng.complex_normal_array(7)
    path = tmp_path / "v.csv"
    write_vector_csv(path, v)
    assert "re,im" in path.read_text().splitlines()[1]
    assert np.array_equal(read_vector_csv(path), v)


def test_vector_bad_header(tmp_path):
    path = tmp_path / "v.csv"
    path.write_text("bogus\n1.0\n")
    with pytest.raises(ParseError) as exc:
        read_vector_csv(path)
    assert "header" in str(exc.value)


def test_vector_malformed_entry(tmp_path):
    path = tmp_path / "v.csv"
    path.write_text("value\n1.0\nnot-a-number\n")
    with pytest.raises(ParseError) as exc:
        read_vector_csv(path)
    assert f"{path}:3:" in str(exc.value)


def test_vector_empty(tmp_path):
    path = tmp_path / "v.csv"
    path.write_text("value\n")
    with pytest.raises(ParseError):
        read_vector_csv(path)
    path.write_text("")
    with pytest.raises(ParseError):
        read_vector_csv(path)


def test_atomic_write_no_tempfile_left(tmp_path):
    path = tmp_path / "sub" / "out.txt"
    atomic_write(path, "hello\n")
    assert path.read_text() == "hello\n"
    leftovers = [f for f in os.listdir(tmp_path / "sub") if f != "out.txt"]
    assert leftovers == []


def test_atomic_write_replaces_existing(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write(path, "first\n")
    atomic_write(path, "second\n")
    assert path.read_text() == "second\n"


def test_rewrite_is_byte_identical(tmp_path):
    rng = RngStream(303)
    M = rng.normal_array(30).reshape(6, 5)
    a, b = tmp_path / "a.mtx", tmp_path / "b.mtx"
    write_matrix_market(a, M)
    write_matrix_market(b, M)
    assert a.read_bytes() == b.read_bytes()
    v = rng.complex_normal_array(11)
    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    write_vector_csv(c, v)
    write_vector_csv(d, v)
    assert c.read_bytes() == d.read_bytes()


def test_duplicate_coordinate_entries_sum(tmp_path):
    path = tmp_path / "d.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 3\n"
        "1 1 1\n"
        "2 2 -0.0\n"
        "1 1 5\n"
    )
    M = read_matrix_market(path)
    assert M[0, 0] == 6.0
    assert np.signbit(M[1, 1])  # a lone entry is stored as written
    assert np.count_nonzero(M) == 1


def test_duplicate_sum_overflow_rejected(tmp_path):
    path = tmp_path / "o.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate complex general\n"
        "2 2 3\n"
        "2 1 1e308 0\n"
        "% the next entry adds to (2, 1)\n"
        "2 1 1e308 0\n"
        "1 1 1 1\n"
    )
    with pytest.raises(ParseError) as exc:
        read_matrix_market(path)
    assert f"{path}:5: duplicate entries at (2, 1) sum to a non-finite value" in str(exc.value)


@pytest.mark.parametrize("token", ["nan", "-inf", "Infinity", "1e999"])
@pytest.mark.parametrize("layout", ["array", "coordinate"])
def test_matrix_non_finite_entry_rejected(tmp_path, token, layout):
    path = tmp_path / "f.mtx"
    if layout == "coordinate":
        size, entries = "2 1 2", ["1 1 0.5 1", f"2 1 2.0 {token}"]
    else:
        size, entries = "2 1", ["0.5 1", f"2.0 {token}"]
    path.write_text(
        f"%%MatrixMarket matrix {layout} complex general\n{size}\n"
        + "\n".join(entries[:1] + ["% comment", ""] + entries[1:]) + "\n"
    )
    with pytest.raises(ParseError) as exc:
        read_matrix_market(path)
    assert f"{path}:6: non-finite entry" in str(exc.value)


def test_vector_non_finite_entry_rejected(tmp_path):
    path = tmp_path / "v.csv"
    path.write_text("value\n1.0\n# comment\nnan\n")
    with pytest.raises(ParseError) as exc:
        read_vector_csv(path)
    assert f"{path}:4: non-finite entry" in str(exc.value)
    path.write_text("re,im\n1.0,2.0\n3.0,-inf\n")
    with pytest.raises(ParseError) as exc:
        read_vector_csv(path)
    assert f"{path}:3: non-finite entry" in str(exc.value)


def test_comment_after_data_rejected(tmp_path):
    path = tmp_path / "t.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 1\n1.0\n2.0 % note\n")
    with pytest.raises(ParseError) as exc:
        read_matrix_market(path)
    assert f"{path}:4: malformed array entry" in str(exc.value)
    path = tmp_path / "t.csv"
    path.write_text("value\n1.0 # note\n2.0\n")
    with pytest.raises(ParseError) as exc:
        read_vector_csv(path)
    assert f"{path}:2: malformed vector entry" in str(exc.value)


def test_number_syntax_is_ascii_without_separators(tmp_path):
    # float() and int() accept these; the one-pass parser does not
    for body, line in (("1_0\n2\n", 3), ("1\n\u0662\n", 4)):
        path = tmp_path / "s.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 1\n" + body)
        with pytest.raises(ParseError) as exc:
            read_matrix_market(path)
        assert f"{path}:{line}: malformed array entry" in str(exc.value)
    path = tmp_path / "s.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1_0 3.0\n")
    with pytest.raises(ParseError) as exc:
        read_matrix_market(path)
    assert f"{path}:3: malformed coordinate entry" in str(exc.value)


def test_vector_blank_and_comment_lines(tmp_path):
    path = tmp_path / "v.csv"
    path.write_text("value\n1.0\n   \n  # indented\n\t2.0\n")
    assert np.array_equal(read_vector_csv(path), [1.0, 2.0])
    # a comma-split body reads leading whitespace as a field
    path.write_text("re,im\n1.0,2.0\n   \n3.0,4.0\n")
    with pytest.raises(ParseError) as exc:
        read_vector_csv(path)
    assert f"{path}:3: whitespace before a comment or on a blank line" in str(exc.value)
    path.write_text("re,im\n\n# note\n 1.0 , 2.0\n")
    assert np.array_equal(read_vector_csv(path), [1.0 + 2.0j])


@pytest.mark.parametrize("layout", ["array", "coordinate", "vector"])
def test_complex_entries_keep_the_signed_zeros_of_re_plus_1j_im(tmp_path, layout):
    # every pair of these parts, and random ones, read bit-equal to
    # re + 1j*im of the parsed parts, the expression the readers once used
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1.0, -1.0]
    pairs = [(re, im) for re in special for im in special]
    rng = RngStream(320)
    pairs += list(zip(rng.normal_array(36).tolist(), rng.normal_array(36).tolist()))
    parts = np.array(pairs)
    expected = parts[:, 0] + 1j * parts[:, 1]
    if layout == "vector":
        path = tmp_path / "z.csv"
        path.write_text("re,im\n" + "".join(f"{re!r},{im!r}\n" for re, im in pairs))
        assert read_vector_csv(path).tobytes() == expected.tobytes()
        return
    m, n = 10, len(pairs) // 10
    lines = [f"{re!r} {im!r}" for re, im in pairs]
    if layout == "coordinate":
        lines = [f"{k % m + 1} {k // m + 1} {line}" for k, line in enumerate(lines)]
        size = f"{m} {n} {len(pairs)}"
    else:
        size = f"{m} {n}"
    path = tmp_path / "z.mtx"
    path.write_text(f"%%MatrixMarket matrix {layout} complex general\n{size}\n"
                    + "\n".join(lines) + "\n")
    expected = expected.reshape(n, m).T
    assert read_matrix_market(path).tobytes() == np.ascontiguousarray(expected).tobytes()


@pytest.mark.parametrize("text, line, message", [
    ("", 1, "empty file, expected a MatrixMarket header"),
    ("%%MatrixMarket vector array real general\n1 1\n0\n", 1, "unsupported object 'vector'"),
    ("%%MatrixMarket matrix list real general\n1 1\n0\n", 1, "unsupported format 'list'"),
    ("%%MatrixMarket matrix array pattern general\n1 1\n0\n", 1, "unsupported field 'pattern'"),
    ("%%MatrixMarket matrix array real general\n% a comment\n\n", 3, "missing size line"),
    ("%%MatrixMarket matrix array real general\n0 3\n", 2, "dimensions must be positive"),
])
def test_matrix_header_and_size_line_errors(tmp_path, text, line, message):
    path = tmp_path / "m.mtx"
    path.write_text(text)
    with pytest.raises(ParseError) as exc:
        read_matrix_market(path)
    assert str(exc.value) == f"{path}:{line}: {message}"


def test_atomic_write_onto_a_directory_raises_and_leaves_no_tempfile(tmp_path):
    (tmp_path / "out").mkdir()
    with pytest.raises(OSError):
        atomic_write(tmp_path / "out", "text\n")
    assert os.listdir(tmp_path) == ["out"]
    assert os.listdir(tmp_path / "out") == []
