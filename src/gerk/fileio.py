"""File formats: MatrixMarket matrices, CSV vectors, atomic writes.

Files are read as UTF-8.  Parse failures, a byte that is not UTF-8
included, raise ParseError whose message names the file and the 1-based
line number.  All writers go through atomic_write (temp file in the target
directory, then rename), and every CSV starts with a version comment line.

Matrix files use the MatrixMarket array or coordinate format, real, integer
or complex, symmetry qualifier `general` only.  Vector CSVs have one header
row: `value` for real data or `re,im` for complex data.

Both readers parse the body (the lines after the header) in one C-level pass
of np.loadtxt and form the array with whole-array numpy operations.  Only
when that pass or a whole-array check fails do they rescan the lines, to
name the first offending one.  The body rules:

- A number is what float() reads, written in ASCII without `_` separators.
  A coordinate index is an ASCII integer with an optional sign, and a size
  line holds ASCII digits only.
- NaN and infinite entries are rejected, and so are overflowing ones (1e999).
- Blank lines are skipped.  A comment (`%` in MatrixMarket files, `#` in
  CSVs) takes a whole line; data before it on the line is an error.  In a
  complex (`re,im`) CSV, whose body is split on commas, a blank or comment
  line may not start with whitespace.
- Duplicate coordinate entries are summed in file order, which is the dense
  form of what scipy.io.mmread returns.  A single entry is stored as written
  (a -0.0 stays -0.0), and a sum that overflows is an error.
"""

import functools
import itertools
import math
import os
import re
import tempfile
import warnings

import numpy as np

from .errors import ParseError
from .linalg import as_matrix, as_vector

VECTOR_CSV_VERSION = "# gerk-vector-csv v1"
BAND_CSV_VERSION = "# gerk-band-csv v1"
SPARSITY_CSV_VERSION = "# gerk-sparsity-csv v1"
METRICS_CSV_VERSION = "# gerk-metrics-csv v1"
CERTIFICATE_VERSION = "# gerk-certificate v1"


def atomic_write(path, text):
    """Write text to path via a temp file in the same directory plus rename."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x):
    # repr of a float round-trips and is platform-stable for IEEE doubles
    return repr(float(x))


# ------------------------------------------------------------------ body parse


_INDEX = re.compile(r"[+-]?[0-9]+")


def _number(token):
    """float(token), limited to the syntax np.loadtxt accepts."""
    if not token.isascii() or "_" in token:
        raise ValueError(token)
    return float(token)


def _index(token):
    """int(token), limited to the syntax np.loadtxt accepts (any size)."""
    if not _INDEX.fullmatch(token):
        raise ValueError(token)
    return int(token)


def _comment_after_data(fh, comment):
    """True if a line left in fh holds data before a `comment` character.

    Only whole-line comments are allowed; np.loadtxt would drop a trailing one.
    """
    c = re.escape(comment)
    trailing = re.compile(rf"^[^\S\n]*[^\s{c}][^\n{c}]*{c}", re.MULTILINE)
    while chunk := fh.read(1 << 20):
        chunk += fh.readline()  # end each chunk at a line break
        if comment in chunk and trailing.search(chunk):
            return True
    return False


def _read_body(fh, path, skip, comment, delimiter, dtype):
    """Parse every line of path after the first `skip` in one C-level pass.

    fh is the open file, positioned after those lines.  Returns one record
    per data line (blank and `comment` lines are skipped), or None when a
    line does not parse as `dtype`; the caller then rescans the lines to
    name the first bad one.  No Python object is made per line.
    """
    if _comment_after_data(fh, comment):
        return None
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            return np.loadtxt(
                path, dtype=dtype, comments=comment, delimiter=delimiter, skiprows=skip, ndmin=1,
                encoding="utf-8",
            )
    except ValueError:
        return None


def _entry_line(path, skip, comment, k):
    """Error path only: line number of data line k (0-based) after the first `skip`."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(itertools.islice(fh, skip, None), skip + 1):
            stripped = line.strip()
            if stripped and not stripped.startswith(comment):
                if k == 0:
                    return lineno
                k -= 1
    raise IndexError(k)


def _names_undecodable_line(read):
    """Make read(path) raise ParseError naming the line of a byte that is not UTF-8."""

    @functools.wraps(read)
    def reader(path):
        try:
            return read(path)
        except UnicodeDecodeError:
            # no UTF-8 sequence holds a line break byte, so lines decode alone
            with open(path, "rb") as fh:
                for lineno, line in enumerate(fh, 1):
                    try:
                        line.decode("utf-8")
                    except UnicodeDecodeError as exc:
                        byte = line[exc.start]
                        raise ParseError(path, lineno, f"byte 0x{byte:02x} is not UTF-8") from None
            raise

    return reader


# ---------------------------------------------------------------- MatrixMarket


def write_matrix_market(path, M, comment="written by gerk"):
    """Write a dense matrix in MatrixMarket array format (column-major body)."""
    M = as_matrix(M)
    complex_field = np.iscomplexobj(M)
    field = "complex" if complex_field else "real"
    lines = [f"%%MatrixMarket matrix array {field} general", f"% {comment}"]
    m, n = M.shape
    lines.append(f"{m} {n}")
    for j in range(n):
        for i in range(m):
            v = M[i, j]
            if complex_field:
                lines.append(f"{_fmt(v.real)} {_fmt(v.imag)}")
            else:
                lines.append(_fmt(v))
    atomic_write(path, "\n".join(lines) + "\n")


@_names_undecodable_line
def read_matrix_market(path):
    """Read a MatrixMarket file (array or coordinate, real/integer/complex)."""
    path = os.fspath(path)
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ParseError(path, 0, f"cannot read file: {exc.strerror}") from exc
    with fh:
        first = fh.readline()
        if not first:
            raise ParseError(path, 1, "empty file, expected a MatrixMarket header")
        header = first.strip().split()
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
        size_line = 1
        line = fh.readline()
        while line and (line.lstrip().startswith("%") or not line.strip()):
            size_line += 1
            line = fh.readline()
        if not line:
            raise ParseError(path, size_line, "missing size line")
        size_line += 1

        parts = line.split()
        want = 3 if layout == "coordinate" else 2
        if len(parts) != want or not all(p.isascii() and p.isdigit() for p in parts):
            raise ParseError(path, size_line, f"size line must hold {want} integers")
        if layout == "coordinate":
            m, n, nnz = (int(p) for p in parts)
        else:
            m, n = (int(p) for p in parts)
            nnz = m * n
        if m <= 0 or n <= 0:
            raise ParseError(path, size_line, "dimensions must be positive")

        per_entry = 2 if complex_field else 1
        columns = [("v", np.float64, (per_entry,))]
        if layout == "coordinate":
            columns = [("i", np.int64), ("j", np.int64)] + columns
        data = _read_body(fh, path, size_line, "%", None, np.dtype(columns))

    if data is not None and len(data) == nnz and np.isfinite(data["v"]).all():
        v = data["v"]
        vals = v[:, 0] + 1j * v[:, 1] if complex_field else v[:, 0]
        if layout == "array":  # column-major body
            return np.array(vals.reshape(n, m).T, order="C")
        i, j = data["i"], data["j"]
        if np.all((i >= 1) & (i <= m) & (j >= 1) & (j <= n)):
            M = np.zeros((m, n), dtype=vals.dtype)
            flat = (i - 1) * n + (j - 1)
            later = _sum_into(M.reshape(-1), flat, vals)
            overflow = later[~np.isfinite(M.reshape(-1)[flat[later]])]
            if overflow.size:
                k = overflow[0]
                raise ParseError(
                    path,
                    _entry_line(path, size_line, "%", k),
                    f"duplicate entries at ({i[k]}, {j[k]}) sum to a non-finite value",
                )
            return M
    _rescan_matrix_market(path, size_line, layout, per_entry, m, n, nnz)
    # not reached: the rescan applies np.loadtxt's number syntax
    raise ParseError(path, size_line + 1, "body rejected by the number parser")


def _sum_into(out, flat, vals):
    """out[flat] = vals, where entries that share a position sum in file order.

    Returns the indices of the entries added to an earlier one.
    """
    first = np.zeros(flat.size, dtype=bool)
    first[np.unique(flat, return_index=True)[1]] = True
    out[flat[first]] = vals[first]
    later = np.flatnonzero(~first)
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(out, flat[later], vals[later])
    return later


def _rescan_matrix_market(path, size_line, layout, per_entry, m, n, nnz):
    """Error path only: raise the ParseError of the first offending body line."""
    count = 0
    lineno = size_line
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(itertools.islice(fh, size_line, None), size_line + 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("%"):
                continue
            if count >= nnz:
                raise ParseError(path, lineno, f"more than {nnz} entries")
            parts = stripped.split()
            try:
                if layout == "coordinate":
                    if len(parts) != 2 + per_entry:
                        raise ValueError
                    i, j = _index(parts[0]) - 1, _index(parts[1]) - 1
                    vals = [_number(p) for p in parts[2:]]
                else:
                    if len(parts) != per_entry:
                        raise ValueError
                    i, j = count % m, count // m  # array format is column-major
                    vals = [_number(p) for p in parts]
            except ValueError:
                raise ParseError(path, lineno, f"malformed {layout} entry") from None
            if not (0 <= i < m and 0 <= j < n):
                raise ParseError(path, lineno, f"index ({i + 1}, {j + 1}) out of range")
            if not all(map(math.isfinite, vals)):
                raise ParseError(path, lineno, "non-finite entry")
            count += 1
    if count != nnz:
        raise ParseError(path, lineno, f"expected {nnz} entries, found {count}")


# ------------------------------------------------------------------ vector CSV


def write_vector_csv(path, v):
    """Write a vector as CSV: header `value` (real) or `re,im` (complex)."""
    v = as_vector(v)
    lines = [VECTOR_CSV_VERSION]
    if np.iscomplexobj(v):
        lines.append("re,im")
        lines.extend(f"{_fmt(z.real)},{_fmt(z.imag)}" for z in v)
    else:
        lines.append("value")
        lines.extend(_fmt(x) for x in v)
    atomic_write(path, "\n".join(lines) + "\n")


@_names_undecodable_line
def read_vector_csv(path):
    """Read a vector CSV written by write_vector_csv (header `value` or `re,im`)."""
    path = os.fspath(path)
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ParseError(path, 0, f"cannot read file: {exc.strerror}") from exc
    with fh:
        # the header is the first line that is neither blank nor a comment
        for header_no, line in enumerate(iter(fh.readline, ""), 1):
            header = line.strip()
            if header and not header.startswith("#"):
                break
        else:
            raise ParseError(path, 1, "no header row, expected 'value' or 're,im'")
        header = header.replace(" ", "").lower()
        if header == "value":
            complex_field = False
        elif header == "re,im":
            complex_field = True
        else:
            raise ParseError(path, header_no, f"unknown vector header {header!r}")
        per_entry = 2 if complex_field else 1
        # one-column bodies split on whitespace, which also skips indented comments
        delimiter = "," if complex_field else None
        dtype = np.dtype([("v", np.float64, (per_entry,))])
        data = _read_body(fh, path, header_no, "#", delimiter, dtype)

    if data is not None and np.isfinite(data["v"]).all():
        v = data["v"]
        if not len(v):
            raise ParseError(path, header_no, "vector has no entries")
        return v[:, 0] + 1j * v[:, 1] if complex_field else v[:, 0].copy()
    _rescan_vector_csv(path, header_no, per_entry)
    # not reached: the rescan applies np.loadtxt's number syntax
    raise ParseError(path, header_no + 1, "body rejected by the number parser")


def _rescan_vector_csv(path, header_no, per_entry):
    """Error path only: raise the ParseError of the first offending body line."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(itertools.islice(fh, header_no, None), header_no + 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                # split on commas, np.loadtxt reads leading whitespace as a field
                if per_entry == 2 and line.rstrip("\n")[:1].isspace():
                    raise ParseError(path, lineno, "whitespace before a comment or on a blank line")
                continue
            parts = [p.strip() for p in line.split(",")]
            try:
                if len(parts) != per_entry:
                    raise ValueError
                vals = [_number(p) for p in parts]
            except ValueError:
                raise ParseError(path, lineno, "malformed vector entry") from None
            if not all(map(math.isfinite, vals)):
                raise ParseError(path, lineno, "non-finite entry")
