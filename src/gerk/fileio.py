"""File formats: MatrixMarket matrices, CSV vectors, JSON configs, atomic writes.

Files are read as UTF-8.  Parse failures, a byte that is not UTF-8
included, raise ParseError whose message names the file and the 1-based
line number.  Every output file is formatted here and written by atomic_write
(temp file in the target directory, then rename).  write_csv is the one table
writer: a version comment line, a header row, then integers in decimal and
floats by repr, which round-trips.  format_record formats a record alike.

Matrix files use the MatrixMarket array or coordinate format, real, integer
or complex, symmetry qualifier `general` only.  Vector CSVs have one header
row: `value` for real data or `re,im` for complex data.  A config is a JSON object.

The array readers parse the body (the lines after the header) in one C-level
pass of np.loadtxt and form the array with whole-array numpy operations.  Only
when that pass or a whole-array check fails do they rescan the lines, to
name the first offending one.  A file of SPLIT_BYTES or more, when
forks.usable() (a fork, no other Python thread, a second CPU), is parsed in
two parts at once: a child forked by forks.spawn, the helper behind every
fork of gerk (also the solver's z-chain worker), parses the head while this
process parses the tail, and the parts are joined in file order.  Where the
head ends is found from the raw bytes by _head, when the body is ASCII with
no comment character and no head line starts with a byte <= 0x20 (a blank
or indented line); lines end in \\n, \\r\\n or a lone \\r.  Every other
body is read in one pass.  The array is the same bytes as the one pass
gives, and when either part fails the read falls back to the one pass,
so every error is the same too.  The body rules:

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
import json
import math
import os
import re
import tempfile
import warnings

import numpy as np

from . import forks
from .errors import ParseError
from .linalg import as_matrix, as_vector

VECTOR_CSV_VERSION = "# gerk-vector-csv v1"
BAND_CSV_VERSION = "# gerk-band-csv v1"
SPARSITY_CSV_VERSION = "# gerk-sparsity-csv v1"
METRICS_CSV_VERSION = "# gerk-metrics-csv v1"
CERTIFICATE_VERSION = "# gerk-certificate v1"

SPLIT_BYTES = 1 << 20  # smaller files parse in one pass: a fork and join cost a few ms
# the share of a split file's bytes the child parses, set by measurement:
# the parent skips those lines, at a small fraction of the cost of parsing one
HEAD_SHARE = 0.55
BYTE_CHUNK = 1 << 17  # the head search's read: its check arrays stay in a core's cache


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


def _cell(v):
    """A value as written: text as is, an integer in decimal, else a float by _fmt."""
    if isinstance(v, float) or not isinstance(v, (str, int, np.integer)):  # most cells are floats
        return _fmt(v)
    return v if isinstance(v, str) else str(int(v))


def write_csv(path, version, header, rows):
    """Write a table: its version comment line, the header's names, then the rows' _cells."""
    lines = [version, ",".join(header)]
    lines.extend(",".join(map(_cell, row)) for row in rows)
    atomic_write(path, "\n".join(lines) + "\n")


def format_record(version, fields):
    """A record's text: its version comment line, then `name = _cell(value)` per field."""
    return "\n".join([version] + [f"{name} = {_cell(v)}" for name, v in fields]) + "\n"


def _open(path):
    """path opened for reading as UTF-8; ParseError naming it when it cannot be."""
    try:
        return open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ParseError(path, 0, f"cannot read file: {exc.strerror}") from exc


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


def _head(fd, skip, comment, head_bytes):
    """The number of lines of the body (the file fd after its first `skip`
    lines) that start in its first head_bytes bytes, from the raw bytes read
    in chunks of whole lines, or 0 unless a line follows them.  None, for the
    one-pass read, where the body holds the `comment` byte or a byte that is
    not ASCII, or one of those lines starts with a byte <= 0x20 (so it may be
    blank): np.loadtxt's max_rows counts data lines only.  A line ends in
    \\n, \\r\\n or a lone \\r, as np.loadtxt and a text-mode readline count
    lines, so the body starts after the skip-th line break.
    """
    size = os.fstat(fd).st_size
    buf = bytearray(min(BYTE_CHUNK, size))
    u8 = np.frombuffer(buf, np.uint8)
    pos, head, left, head_end = 0, 0, head_bytes, size
    while got := os.preadv(fd, [buf], pos):
        cr = buf.find(b"\r", 0, got) >= 0
        last = got if pos + got >= size else got - 1  # a \r at its end may start a \r\n
        if skip:  # in the header: the body starts after its skip-th line break
            ends = np.flatnonzero(_breaks(u8[:got], cr)[:last])
            pos += int(ends[skip - 1]) + 1 if skip <= len(ends) else last
            skip = max(skip - len(ends), 0)
            continue
        # a chunk of the body ends with its last line break
        n = got if last == got else max(
            buf.rfind(b"\n", 0, got), buf.rfind(b"\r", 0, last) if cr else -1) + 1
        if not n or buf.find(comment, 0, n) >= 0 or u8[:n].max() >= 0x80:
            return None
        pos += n
        if left <= 0:
            continue
        v = u8[:n]
        breaks = _breaks(v, cr)
        # the head ends with the line that holds its last byte
        after = np.flatnonzero(breaks[left - 1:]) if left < n else ()
        end = left + int(after[0]) if len(after) else n
        v, breaks = v[:end], breaks[:end]
        if v[0] <= 0x20 or (breaks[:-1] & (v[1:] <= 0x20)).any():
            return None
        head += int(np.count_nonzero(breaks))
        left -= n
        head_end = pos - n + end
    return head if head_end < size else 0  # 0 unless a line follows the head


def _breaks(v, cr):
    """Where the bytes v end a line: each \\n, and, when v holds a \\r (cr),
    each \\r that no \\n follows."""
    breaks = v == 0x0A
    if cr:
        lone = v == 0x0D
        lone[:-1] &= ~breaks[1:]
        breaks |= lone
    return breaks


def _comment_after_data(fh, comment):
    """True if a line left in fh, read in 1 MiB text-mode chunks, holds data
    before a `comment` character.  Only whole-line comments are allowed;
    np.loadtxt would drop a trailing one.
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
    name the first bad one.  No Python object is made per line.  A large
    body may be parsed in two parts at once (_split_load; module docstring).
    """
    size = os.fstat(fh.fileno()).st_size
    head = (_head(fh.fileno(), skip, comment.encode(), int(HEAD_SHARE * size))
            if size >= SPLIT_BYTES and forks.usable() else None)
    if head is None and _comment_after_data(fh, comment):
        return None
    load = functools.partial(np.loadtxt, path, dtype=dtype, comments=comment,
                             delimiter=delimiter, ndmin=1, encoding="utf-8")
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = _split_load(load, skip, head) if head else None
            return load(skiprows=skip) if data is None else data
    except ValueError:
        return None


def _split_load(load, skip, head):
    """load(skiprows=skip), its first `head` lines parsed in a forked child
    while this process parses the rest; None when the fork, either part or
    the child fails.

    Every line of the head holds data (_head), so the child's max_rows ends
    it where the parent's skiprows starts.  The child writes its records
    into a shared mmap, and the two parts are joined in file order.  The
    child is reaped before this returns, and killed first unless the
    parent's part parsed.
    """
    def child():
        rows = load(skiprows=skip, max_rows=head)
        if len(rows) != head:
            raise ValueError("the head part ended early")
        out[:] = rows

    try:
        out = forks.shared((head,), load.keywords["dtype"])
        pid = forks.spawn(child)
    except OSError:
        return None
    tail = None
    try:
        tail = load(skiprows=skip + head)
    except ValueError:
        pass
    finally:
        code = forks.reap(pid, kill=tail is None)
    return None if tail is None or code else np.concatenate([out, tail])


def _body_lines(path, skip, comment):
    """Error path only: yield (line number, line, stripped line or None if blank or comment)."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(itertools.islice(fh, skip, None), skip + 1):
            data = line.strip()
            yield lineno, line, (data if data and not data.startswith(comment) else None)


def _entry_line(path, skip, comment, k):
    """Error path only: line number of data line k (0-based) after the first `skip`."""
    data_lines = (lineno for lineno, _, data in _body_lines(path, skip, comment) if data)
    return next(itertools.islice(data_lines, k, None))


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


@_names_undecodable_line
def read_config(path):
    """A JSON config file's object, its numbers kept as their text."""
    with _open(path) as fh:
        try:
            data = json.load(fh, parse_int=str, parse_float=str, parse_constant=str)
        except json.JSONDecodeError as exc:
            raise ParseError(path, exc.lineno, f"invalid JSON: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ParseError(path, 1, "config must be a JSON object")
    return data


# ---------------------------------------------------------------- MatrixMarket


def write_matrix_market(path, M):
    """Write a dense matrix in MatrixMarket array format (column-major body)."""
    M = as_matrix(M)
    field = "complex" if np.iscomplexobj(M) else "real"
    lines = [f"%%MatrixMarket matrix array {field} general", "% written by gerk", "%d %d" % M.shape]
    body = M.T.reshape(-1).tolist()  # column-major
    if field == "complex":
        lines.extend(f"{_fmt(v.real)} {_fmt(v.imag)}" for v in body)
    else:
        lines.extend(map(_fmt, body))
    atomic_write(path, "\n".join(lines) + "\n")


def _as_complex(v):
    """The (re, im) records of an (N, 2) float view in place, as N complex values.

    The signed zeros are those of re + 1j*im, which adds copysign(0, im) to re
    and 0 to im, without its temporaries.
    """
    v[:, 0] += np.copysign(0.0, v[:, 1])
    v[:, 1] += 0.0
    return v.view(np.complex128)[:, 0]


@_names_undecodable_line
def read_matrix_market(path):
    """Read a MatrixMarket file (array or coordinate, real/integer/complex)."""
    path = os.fspath(path)
    with _open(path) as fh:
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
        vals = _as_complex(v) if complex_field else v[:, 0]
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
    for lineno, _, data in _body_lines(path, size_line, "%"):
        if data is None:
            continue
        if count >= nnz:
            raise ParseError(path, lineno, f"more than {nnz} entries")
        parts = data.split()
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
    header, columns = (("re", "im"), (v.real, v.imag)) if np.iscomplexobj(v) else (("value",), (v,))
    write_csv(path, VECTOR_CSV_VERSION, header, zip(*(c.tolist() for c in columns)))


@_names_undecodable_line
def read_vector_csv(path):
    """Read a vector CSV written by write_vector_csv (header `value` or `re,im`)."""
    path = os.fspath(path)
    with _open(path) as fh:
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
        return _as_complex(v) if complex_field else v[:, 0].copy()
    _rescan_vector_csv(path, header_no, per_entry)
    # not reached: the rescan applies np.loadtxt's number syntax
    raise ParseError(path, header_no + 1, "body rejected by the number parser")


def _rescan_vector_csv(path, header_no, per_entry):
    """Error path only: raise the ParseError of the first offending body line."""
    for lineno, line, data in _body_lines(path, header_no, "#"):
        if data is None:
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
