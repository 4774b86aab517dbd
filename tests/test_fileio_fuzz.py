"""Differential fuzz of the file readers against per-line reference readers.

The references below are the per-line readers that `gerk.fileio` used
before its bodies were parsed in one pass.  Files are generated from an
RngStream: both MatrixMarket layouts; real, integer and complex fields;
comment and blank lines inside the body; and corruptions.  On every file the
two readers must return the same array bits or raise the same ParseError.
The documented differences are checked on their own terms:

- non-finite entries are rejected (the references accept them);
- duplicate coordinate entries are summed (the references keep the last);
- numbers follow np.loadtxt's syntax, so `1_0` and non-ASCII digits, which
  float() and int() accept, are rejected;
- in a complex (`re,im`) CSV, a blank or comment line may not start with
  whitespace (the references skip such lines).
"""

import os

import numpy as np
import pytest

from gerk.errors import ParseError
from gerk.fileio import read_matrix_market, read_vector_csv
from gerk.rng import RngStream


# ------------------------------------------------------------ reference readers


def reference_read_matrix_market(path):
    path = os.fspath(path)
    try:
        with open(path, "r") as fh:
            raw = fh.readlines()
    except OSError as exc:
        raise ParseError(path, 0, f"cannot read file: {exc.strerror}") from exc
    if not raw:
        raise ParseError(path, 1, "empty file, expected a MatrixMarket header")

    header = raw[0].strip().split()
    if len(header) != 5 or header[0] != "%%MatrixMarket":
        raise ParseError(path, 1, "malformed MatrixMarket header")
    _, obj, layout, field, symmetry = (t.lower() for t in header)
    if obj != "matrix":
        raise ParseError(path, 1, f"unsupported object {obj!r}")
    if layout not in ("array", "coordinate"):
        raise ParseError(path, 1, f"unsupported format {layout!r}")
    if field not in ("real", "integer", "complex"):
        raise ParseError(path, 1, f"unsupported field {field!r}")
    if symmetry != "general":
        raise ParseError(path, 1, f"unsupported symmetry {symmetry!r} (only 'general')")
    complex_field = field == "complex"

    # skip comments and blank lines before the size line
    pos = 1
    while pos < len(raw) and (raw[pos].lstrip().startswith("%") or not raw[pos].strip()):
        pos += 1
    if pos >= len(raw):
        raise ParseError(path, len(raw), "missing size line")

    size_line = pos
    parts = raw[size_line].split()
    want = 3 if layout == "coordinate" else 2
    if len(parts) != want or not all(p.isdigit() for p in parts):
        raise ParseError(path, size_line + 1, f"size line must hold {want} integers")
    if layout == "coordinate":
        m, n, nnz = (int(p) for p in parts)
    else:
        m, n = (int(p) for p in parts)
        nnz = m * n
    if m <= 0 or n <= 0:
        raise ParseError(path, size_line + 1, "dimensions must be positive")

    M = np.zeros((m, n), dtype=np.complex128 if complex_field else np.float64)
    count = 0
    per_entry = 2 if complex_field else 1
    for lineno in range(size_line + 1, len(raw)):
        stripped = raw[lineno].strip()
        if not stripped or stripped.startswith("%"):
            continue
        if count >= nnz:
            raise ParseError(path, lineno + 1, f"more than {nnz} entries")
        parts = stripped.split()
        try:
            if layout == "coordinate":
                if len(parts) != 2 + per_entry:
                    raise ValueError
                i, j = int(parts[0]) - 1, int(parts[1]) - 1
                vals = [float(p) for p in parts[2:]]
            else:
                if len(parts) != per_entry:
                    raise ValueError
                i, j = count % m, count // m  # array format is column-major
                vals = [float(p) for p in parts]
        except ValueError:
            raise ParseError(path, lineno + 1, f"malformed {layout} entry") from None
        if not (0 <= i < m and 0 <= j < n):
            raise ParseError(path, lineno + 1, f"index ({i + 1}, {j + 1}) out of range")
        M[i, j] = vals[0] + 1j * vals[1] if complex_field else vals[0]
        count += 1
    if count != nnz:
        raise ParseError(path, len(raw), f"expected {nnz} entries, found {count}")
    return M


def reference_read_vector_csv(path):
    path = os.fspath(path)
    try:
        with open(path, "r") as fh:
            raw = fh.readlines()
    except OSError as exc:
        raise ParseError(path, 0, f"cannot read file: {exc.strerror}") from exc
    rows = [
        (i + 1, line.strip())
        for i, line in enumerate(raw)
        if line.strip() and not line.strip().startswith("#")
    ]
    if not rows:
        raise ParseError(path, 1, "no header row, expected 'value' or 're,im'")
    header_no, header = rows[0]
    header = header.replace(" ", "").lower()
    if header == "value":
        complex_field = False
    elif header == "re,im":
        complex_field = True
    else:
        raise ParseError(path, header_no, f"unknown vector header {header!r}")
    out = []
    for lineno, line in rows[1:]:
        parts = [p.strip() for p in line.split(",")]
        try:
            if complex_field:
                if len(parts) != 2:
                    raise ValueError
                out.append(float(parts[0]) + 1j * float(parts[1]))
            else:
                if len(parts) != 1:
                    raise ValueError
                out.append(float(parts[0]))
        except ValueError:
            raise ParseError(path, lineno, "malformed vector entry") from None
    if not out:
        raise ParseError(path, header_no, "vector has no entries")
    dtype = np.complex128 if complex_field else np.float64
    return np.asarray(out, dtype=dtype)


# ------------------------------------------------------------------ generators

# tokens that float() and np.loadtxt read alike, down to the bit
NUMBERS = (
    "0", "-0", "0.0", "-0.0", "1", "+2", "-3", "007", "1.5", "-2.25", ".5", "5.", "+.5e1",
    "1e3", "1E-3", "-4.9e-324", "2.2250738585072014e-308", "1e-320", "1e-400",
    "1.7976931348623157e308", "0.1000000000000000055511151231257827",
    "1234567890123456789012345", "3.14159265358979323846264338", "6.02214076E+23",
)
INTEGERS = ("0", "-0", "1", "+2", "-3", "007", "42", "-123456789")
# rejected by both readers, on the same line
BAD_NUMBERS = ("abc", "1.2.3", "--1", "0x10", "1d0", "1,5", "e5", ".", "1e", "+", "1.0%")
BAD_INDICES = ("1.5", "1.0", "1e0", "x", "", "0x1", "--1")
# documented differences
NONFINITE = ("nan", "-nan", "inf", "-Infinity", "1e999", "NaN")
SYNTAX = ("1_0", "1_000.5", "\u0661", "\uff12", "1e1_0")  # Arabic-Indic 1, fullwidth 2
WHITESPACE = (" ", "\t", "  \t ", "\x0c", "\u00a0")


def _pick(rng, seq):
    return seq[rng.integer_below(len(seq))]


def _number(rng, field):
    if field == "integer":
        return _pick(rng, INTEGERS)
    if rng.random() < 0.5:
        return repr(float(rng.normal_array(1)[0] * 10.0 ** (rng.integer_below(9) - 4)))
    return _pick(rng, NUMBERS)


def _filler(rng, comment):
    """A line that both readers skip."""
    return _pick(rng, ("", comment, f"{comment} note", f"  {comment} indented", "   ", "\t"))


def _join(rng, lines, plain=False):
    sep = "\r\n" if rng.random() < 0.1 else "\n"
    text = sep.join(lines)
    return text + sep if plain or rng.random() < 0.8 else text


def random_matrix_market(rng, plain=False):
    """(text, kind): kind is 'same', 'duplicate', 'nonfinite' or 'syntax'.

    A plain file, for readers with a narrower syntax, writes no `+` sign,
    no index with leading zeros, no comment or blank line in the body, no
    whitespace before an entry, and a line break at the end.  (scipy 1.17.1's
    mmread crashes on an array file whose last line is indented and not
    ended by a line break.)
    """
    layout = _pick(rng, ("array", "coordinate"))
    field = _pick(rng, ("real", "integer", "complex"))
    m, n = 1 + rng.integer_below(4), 1 + rng.integer_below(4)
    per_entry = 2 if field == "complex" else 1

    def number():
        token = _number(rng, field)
        return token.lstrip("+") if plain else token

    if layout == "array":
        entries = [[number() for _ in range(per_entry)] for _ in range(m * n)]
        size = f"{m} {n}"
    else:
        flat = rng.choice_without_replacement(m * n, rng.integer_below(m * n + 1))
        if rng.random() < 0.5:
            flat = flat[::-1]
        entries = [
            [("" if plain else _pick(rng, ("", "+", "0"))) + str(p // n + 1), str(p % n + 1)]
            + [number() for _ in range(per_entry)]
            for p in flat
        ]
        size = f"{m} {n} {len(entries)}"
    body = [
        " ".join(e) if plain or rng.random() < 0.8 else "  " + "\t".join(e) + " "
        for e in entries
    ]
    kind = "same"

    roll = rng.random()
    k = rng.integer_below(len(body)) if body else 0
    if roll < 0.08 and body:
        body[k] = body[k].rsplit(" ", 1)[0] + " " + _pick(rng, BAD_NUMBERS)
    elif roll < 0.14 and body:
        body[k] = body[k] + " " + _number(rng, field)  # one token too many
    elif roll < 0.20 and body:
        body[k] = body[k].split()[0] if len(body[k].split()) > 1 else ""  # too few
    elif roll < 0.26 and body:
        del body[k]  # missing entry
    elif roll < 0.32:
        body.append(body[k] if body else " ".join(["1"] * (per_entry + 2)))  # extra entry
    elif roll < 0.40 and body and layout == "coordinate":
        parts = body[k].split()
        out_of_range = ("0", "-1", str(m + n + 1), "99999999999999999999")
        parts[rng.integer_below(2)] = _pick(rng, out_of_range)
        body[k] = " ".join(parts)
    elif roll < 0.46 and body and layout == "coordinate":
        parts = body[k].split()
        parts[rng.integer_below(2)] = _pick(rng, BAD_INDICES)
        body[k] = " ".join(parts)
    elif roll < 0.50 and body:
        body[k] = body[k] + _pick(rng, (" % trailing", "%", " %"))
    elif roll < 0.56 and body:
        parts = body[k].split()
        parts[-1] = _pick(rng, NONFINITE)
        body[k] = " ".join(parts)
        kind = "nonfinite"
    elif roll < 0.60 and body:
        parts = body[k].split()
        parts[-1 if layout == "array" or rng.random() < 0.5 else 0] = _pick(rng, SYNTAX)
        body[k] = " ".join(parts)
        kind = "syntax"
    elif roll < 0.68 and len(body) >= 1 and layout == "coordinate":
        dup = body[k].split()[:2] + [number() for _ in range(per_entry)]
        body.insert(rng.integer_below(len(body) + 1), " ".join(dup))
        size = f"{m} {n} {len(body)}"
        kind = "duplicate"

    # comment and blank lines anywhere in the body
    for _ in range(0 if plain else rng.integer_below(4)):
        body.insert(rng.integer_below(len(body) + 1), _filler(rng, "%"))
    head = [f"%%MatrixMarket matrix {layout} {field} general"]
    head += [_filler(rng, "%") for _ in range(rng.integer_below(3))]
    return _join(rng, head + [size] + body, plain), kind


def random_vector_csv(rng):
    """(text, kind): kind is 'same', 'nonfinite', 'syntax' or 'whitespace'."""
    complex_field = rng.random() < 0.5
    per_entry = 2 if complex_field else 1
    count = 1 + rng.integer_below(6)
    rows = [
        _pick(rng, (",", ", ", " , ")).join(_number(rng, "real") for _ in range(per_entry))
        for _ in range(count)
    ]
    kind = "same"
    roll = rng.random()
    k = rng.integer_below(len(rows))
    if roll < 0.1:
        rows[k] = rows[k].rsplit(",", 1)[0] + "," + _pick(rng, BAD_NUMBERS) if complex_field \
            else _pick(rng, BAD_NUMBERS)
    elif roll < 0.2:
        rows[k] = rows[k] + "," + _number(rng, "real")
    elif roll < 0.25:
        rows[k] = rows[k] + _pick(rng, (" # trailing", "#"))
    elif roll < 0.3:
        rows = []
    elif roll < 0.36:
        rows[k] = rows[k].split(",")[0] + "," + _pick(rng, NONFINITE) if complex_field \
            else _pick(rng, NONFINITE)
        kind = "nonfinite"
    elif roll < 0.4:
        rows[k] = _pick(rng, SYNTAX) + ("," + _number(rng, "real") if complex_field else "")
        kind = "syntax"
    elif roll < 0.45:
        rows.insert(k, _pick(rng, WHITESPACE) + _pick(rng, ("", "# indented")))
        kind = "whitespace" if complex_field else "same"
    for _ in range(rng.integer_below(3)):
        rows.insert(rng.integer_below(len(rows) + 1), _pick(rng, ("", "# note")))
    header = _pick(rng, ("re,im", "re, im", "RE,IM") if complex_field else ("value", "Value"))
    head = [_pick(rng, ("# gerk-vector-csv v1", "", "# other"))
            for _ in range(rng.integer_below(3))]
    return _join(rng, head + [header] + rows), kind


# --------------------------------------------------------------------- checks


def _outcome(reader, path):
    try:
        return reader(path)
    except ParseError as exc:
        return exc


def _same(a, b):
    if isinstance(a, ParseError) or isinstance(b, ParseError):
        return str(a) == str(b) and type(a) is type(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _documented_rejection(new, ref):
    """A new rejection: a ParseError no later than any error of the reference."""
    if not isinstance(new, ParseError):
        return False
    return not isinstance(ref, ParseError) or new.line <= ref.line or str(new) == str(ref)


def _summed(path):
    """Dense matrix of a valid coordinate file with duplicates summed in file order."""
    lines = [ln.split() for ln in path.read_text().splitlines()]
    complex_field = lines[0][3] == "complex"
    lines = [p for p in lines[1:] if p and not p[0].startswith("%")]
    (m, n, _), entries = map(int, lines[0]), lines[1:]
    M = np.zeros((m, n), dtype=np.complex128 if complex_field else np.float64)
    seen = set()
    for p in entries:
        i, j = int(p[0]) - 1, int(p[1]) - 1
        v = float(p[2]) + 1j * float(p[3]) if complex_field else float(p[2])
        with np.errstate(over="ignore", invalid="ignore"):
            M[i, j] = M[i, j] + v if (i, j) in seen else v
        seen.add((i, j))
    return M


def test_matrix_market_reader_matches_reference(tmp_path):
    rng = RngStream(4242)
    path = tmp_path / "f.mtx"
    kinds = {}
    for case in range(600):
        text, kind = random_matrix_market(rng)
        path.write_bytes(text.encode())
        new = _outcome(read_matrix_market, path)
        ref = _outcome(reference_read_matrix_market, path)
        kinds[kind] = kinds.get(kind, 0) + 1
        where = f"case {case} ({kind}):\n{text}"
        if kind == "same":
            assert _same(new, ref), f"{where}\nnew {new!r}\nref {ref!r}"
        elif kind == "duplicate":
            if isinstance(ref, ParseError):
                assert _same(new, ref), where
            elif np.isfinite(_summed(path)).all():
                assert _same(new, _summed(path)), where
            else:
                assert "sum to a non-finite value" in str(new), where
        else:
            assert _documented_rejection(new, ref), f"{where}\nnew {new!r}\nref {ref!r}"
            if kind == "nonfinite" and not isinstance(ref, ParseError):
                assert "non-finite entry" in str(new), where
    assert min(kinds.values()) >= 15, kinds


def test_vector_csv_reader_matches_reference(tmp_path):
    rng = RngStream(4343)
    path = tmp_path / "v.csv"
    kinds = {}
    for case in range(400):
        text, kind = random_vector_csv(rng)
        path.write_bytes(text.encode())
        new = _outcome(read_vector_csv, path)
        ref = _outcome(reference_read_vector_csv, path)
        kinds[kind] = kinds.get(kind, 0) + 1
        where = f"case {case} ({kind}):\n{text}"
        if kind == "same":
            assert _same(new, ref), f"{where}\nnew {new!r}\nref {ref!r}"
        else:
            assert _documented_rejection(new, ref), f"{where}\nnew {new!r}\nref {ref!r}"
    assert min(kinds.values()) >= 15, kinds


def test_matrix_market_reader_matches_scipy(tmp_path):
    sio = pytest.importorskip("scipy.io")
    rng = RngStream(4444)
    path = tmp_path / "s.mtx"
    checked = 0
    while checked < 150:
        text, kind = random_matrix_market(rng, plain=True)
        path.write_bytes(text.encode())
        ours = _outcome(read_matrix_market, path)
        if kind not in ("same", "duplicate") or isinstance(ours, ParseError):
            continue
        theirs = sio.mmread(path)
        theirs = theirs.toarray() if hasattr(theirs, "toarray") else np.asarray(theirs)
        assert theirs.shape == ours.shape and np.array_equal(theirs, ours), text
        checked += 1
