"""The split read: a large body parsed in two parts, the head in a forked child.

Every read is compared with the one-pass read, forced by making
`forks.usable` false: the same array bytes, or the same ParseError.
"""

import contextlib
import os
import re
import signal
import threading
import time

import numpy as np
import pytest

import gerk.fileio as fileio
import gerk.forks as forks
from gerk.errors import ParseError
from gerk.fileio import read_matrix_market, read_vector_csv, write_matrix_market, write_vector_csv
from gerk.rng import RngStream
from test_fileio_fuzz import random_matrix_market, random_vector_csv


def counted_fork(pids, fork=os.fork):
    """os.fork, listing the pid of every child in pids."""
    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    return counted


@pytest.fixture
def forked(monkeypatch):
    """List the pid of every fork."""
    pids = []
    monkeypatch.setattr(os, "fork", counted_fork(pids))
    return pids


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def outcome(reader, path):
    try:
        return reader(path)
    except ParseError as exc:
        return exc


def same(a, b):
    if isinstance(a, ParseError) or isinstance(b, ParseError):
        return type(a) is type(b) and (a.path, a.line, str(a)) == (b.path, b.line, str(b))
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def one_pass(reader, path, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(forks, "usable", lambda: False)
        return outcome(reader, path)


def big_matrix(path, rows=20000, cols=2):
    """A complex MatrixMarket file above SPLIT_BYTES: rows*cols lines of about 40 bytes."""
    rng = RngStream(2600)
    A = rng.gaussian_array(rows * cols, "complex").reshape(rows, cols)
    write_matrix_market(path, A)
    assert os.path.getsize(path) >= fileio.SPLIT_BYTES
    return A


def test_a_large_body_forks_and_reads_the_same(tmp_path, forked, two_cpus, monkeypatch):
    A = big_matrix(tmp_path / "A.mtx")
    got = read_matrix_market(tmp_path / "A.mtx")
    assert len(forked) == 1
    assert_no_child()
    assert got.tobytes() == A.tobytes()
    assert same(got, one_pass(read_matrix_market, tmp_path / "A.mtx", monkeypatch))
    # a CSV body splits too
    write_vector_csv(tmp_path / "b.csv", A.reshape(-1))
    got = read_vector_csv(tmp_path / "b.csv")
    assert len(forked) == 2
    assert_no_child()
    assert got.tobytes() == A.reshape(-1).tobytes()


@pytest.mark.parametrize("case", ["below", "one_cpu", "thread", "no_fork"])
def test_no_fork_without_a_second_cpu_or_below_the_threshold(case, tmp_path, forked, two_cpus,
                                                             monkeypatch):
    A = big_matrix(tmp_path / "A.mtx")
    if case == "below":
        monkeypatch.setattr(fileio, "SPLIT_BYTES", os.path.getsize(tmp_path / "A.mtx") + 1)
    elif case == "one_cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    elif case == "no_fork":
        monkeypatch.delattr(os, "fork")
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    if case == "thread":
        thread.start()
    try:
        got = read_matrix_market(tmp_path / "A.mtx")
    finally:
        release.set()
        if case == "thread":
            thread.join()
    assert forked == []
    assert got.tobytes() == A.tobytes()
    # negative control: the same read forks once the condition is gone
    monkeypatch.undo()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", counted_fork(forked))
    assert read_matrix_market(tmp_path / "A.mtx").tobytes() == A.tobytes()
    assert len(forked) == 1
    assert_no_child()


def corrupt(path, at, token):
    """Replace the entry line at fraction `at` of the body with `token`."""
    lines = path.read_bytes().split(b"\n")
    k = 3 + int(at * (len(lines) - 4))
    lines[k] = token
    path.write_bytes(b"\n".join(lines))
    return k + 1


@pytest.mark.parametrize("at", [0.1, 0.9])
@pytest.mark.parametrize("token", [b"1.0 x", b"1.0 \xff"])
def test_a_bad_line_in_either_part_gives_the_one_pass_error(at, token, tmp_path, forked,
                                                            two_cpus, monkeypatch):
    path = tmp_path / "A.mtx"
    big_matrix(path)
    lineno = corrupt(path, at, token)
    got = outcome(read_matrix_market, path)
    assert isinstance(got, ParseError) and got.line == lineno
    assert_no_child()
    assert same(got, one_pass(read_matrix_market, path, monkeypatch))
    # an undecodable byte stops the scan, which decodes the body, before a fork
    assert len(forked) == (0 if token.endswith(b"\xff") else 1)


def test_a_killed_child_sends_the_read_back_to_one_pass(tmp_path, two_cpus, monkeypatch):
    A = big_matrix(tmp_path / "A.mtx")
    fork, killed = os.fork, []

    def fork_and_kill():
        pid = fork()
        if pid:
            time.sleep(0.005)  # the child is parsing its part
            os.kill(pid, signal.SIGKILL)
            killed.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork_and_kill)
    assert read_matrix_market(tmp_path / "A.mtx").tobytes() == A.tobytes()
    assert len(killed) == 1
    assert_no_child()


def test_keyboard_interrupt_mid_parse_leaves_no_child(tmp_path, forked, two_cpus, monkeypatch):
    big_matrix(tmp_path / "A.mtx")
    loadtxt, parent = np.loadtxt, os.getpid()

    def interrupted(*args, **kwargs):
        if os.getpid() == parent and "max_rows" not in kwargs:  # the parent's part
            os.kill(parent, signal.SIGINT)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", interrupted)
    with pytest.raises(KeyboardInterrupt):
        read_matrix_market(tmp_path / "A.mtx")
    assert len(forked) == 1
    assert_no_child()


def test_universal_newlines_split_where_loadtxt_counts(tmp_path, forked, two_cpus, monkeypatch):
    # \r\n and a lone \r each end a line, for the scan and for np.loadtxt
    rng = RngStream(2610)
    v = rng.gaussian_array(2000, "real")
    ends = ["\n", "\r\n", "\r"]
    text = "value" + "".join(ends[k % 3] + repr(float(x)) for k, x in enumerate(v)) + "\n"
    (tmp_path / "v.csv").write_bytes(text.encode())
    monkeypatch.setattr(fileio, "SPLIT_BYTES", 0)
    assert read_vector_csv(tmp_path / "v.csv").tobytes() == v.tobytes()
    assert len(forked) == 1
    assert_no_child()


# ------------------------------------------------------------ differential fuzz


def lines_of(body):
    r"""The lines of the bytes `body`, each with its line break: \n, \r\n or a
    lone \r, as np.loadtxt counts lines."""
    return re.findall(rb"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+\Z", body)


def body_of(reader, path, monkeypatch):
    """The bytes of path after the lines the reader's header takes, or None
    when the header does not parse."""
    found = []
    with monkeypatch.context() as m:
        m.setattr(fileio, "SPLIT_BYTES", 0)
        m.setattr(forks, "usable", lambda: True)
        m.setattr(fileio, "_head", lambda fd, skip, comment, head_bytes: found.append(skip))
        outcome(reader, path)
    return after_lines(path.read_bytes(), found[0]) if found else None


def after_lines(data, skip):
    """The bytes of data after its first `skip` lines."""
    return data[len(b"".join(lines_of(data)[:skip])):]


@contextlib.contextmanager
def split_at(monkeypatch, at):
    """Every body splits, whatever its size, with its head ending at the
    line that holds its byte number `at`, where _head allows a split."""
    head = fileio._head
    with monkeypatch.context() as m:
        m.setattr(fileio, "SPLIT_BYTES", 0)
        m.setattr(forks, "usable", lambda: True)
        m.setattr(fileio, "_head",
                  lambda fd, skip, comment, head_bytes: head(fd, skip, comment, at))
        yield


def split_points(body, comment):
    """Heads, as byte offsets, worth splitting the body at: the end of each
    line next to a blank, indented or comment line (before it and after it),
    of the line before the last, of the last line, and of one in the middle."""
    lines = lines_of(body)
    ends = np.cumsum([len(line) for line in lines]).tolist()
    heads = {len(lines) // 2, len(lines) - 1, len(lines)}
    for k, line in enumerate(lines):
        if line[:1].isspace() or line.strip().startswith(comment.encode()):
            heads.update((k, k + 1))
    return [ends[h - 1] for h in sorted(heads) if h > 0]


@pytest.mark.parametrize("kind", ["mtx", "csv"])
def test_split_reads_match_one_pass_reads(kind, tmp_path, forked, monkeypatch):
    rng = RngStream(4545 if kind == "mtx" else 4646)
    path = tmp_path / ("f.mtx" if kind == "mtx" else "v.csv")
    reader = read_matrix_market if kind == "mtx" else read_vector_csv
    comment = "%" if kind == "mtx" else "#"
    splits = 0
    for case in range(400):
        text, _ = random_matrix_market(rng) if kind == "mtx" else random_vector_csv(rng)
        path.write_bytes(text.encode())
        want = one_pass(reader, path, monkeypatch)
        body = body_of(reader, path, monkeypatch)
        before = len(forked)
        for at in split_points(body, comment) if body is not None else []:
            with split_at(monkeypatch, at):
                got = outcome(reader, path)
            assert same(got, want), f"case {case}, head {at}:\n{text}\ngot {got!r}\nwant {want!r}"
        splits += len(forked) > before
    assert_no_child()
    assert splits >= 60, splits


def test_a_fork_that_fails_sends_the_read_back_to_one_pass(tmp_path, forked, two_cpus,
                                                           monkeypatch):
    A = big_matrix(tmp_path / "A.mtx")
    spawned = []

    def spawn(*args):
        spawned.append(args)
        raise OSError("no fork to be had")

    monkeypatch.setattr(forks, "spawn", spawn)
    got = read_matrix_market(tmp_path / "A.mtx")
    assert len(spawned) == 1 and forked == []
    assert got.tobytes() == A.tobytes()
    assert same(got, one_pass(read_matrix_market, tmp_path / "A.mtx", monkeypatch))


# ---------------------------------------------------------------- head search


def heads_of(body, comment):
    """What _head may answer for a head of 1, 2, ... bytes of body, up to one
    past its end: the number of lines that start in them, or 0 unless a line
    follows; None where the body holds `comment` or a byte that is not ASCII,
    or a head line may be blank."""
    if comment.encode() in body or not body.isascii():
        return [None] * (len(body) + 1)
    heads, count, blank = [], 0, False
    for line in lines_of(body):
        count, blank = count + 1, blank or line[0] <= 0x20
        heads += [None if blank else count] * len(line)
    return [0 if h == count else h for h in heads] + [None if blank else 0]


def read_body(path, skip, comment):
    """_read_body's records of path after its first `skip` lines, as bytes,
    for two numbers per line (None, or the error it raises)."""
    with open(path, encoding="utf-8") as fh:
        try:
            for _ in range(skip):
                fh.readline()
            data = fileio._read_body(fh, path, skip, comment, None,
                                     np.dtype([("v", np.float64, (2,))]))
        except UnicodeDecodeError as exc:
            return type(exc)
    return data if data is None else data.tobytes()


def byte_cases():
    """(data, comment, skip): the fuzz generators' files, and a small body with
    each byte that stops a split put at every place in it."""
    rng = RngStream(4747)
    for _ in range(30):
        yield random_matrix_market(rng)[0].encode(), "%", 1
        yield random_vector_csv(rng)[0].encode(), "#", 1
    for ending in (b"\n", b"\r\n", b"\r"):
        body = ending.join([b"1.5 -2", b"3 4e-1", b"-5 .6", b"7 0", b"8e1 9"])
        for pad in range(18):  # a header line break at, and past, a 16-byte chunk's end
            yield b"%" * pad + ending + b"value" + ending + body + ending, "#", 2
        for end in (ending, b""):  # the last line with its break and without
            yield b"value" + ending + body + end, "#", 1
            for byte in (b"%", b"\r", b"\n", b"\t", b" ", b"\x0c", b"\x1c", b"\x1f", b"\xc3\xa9",
                         b"\x80", b"\xff"):
                text = body + end
                for at in range(len(text) + 1):
                    yield text[:at] + byte + text[at:], "%", 0


@pytest.mark.parametrize("chunk", [16, fileio.BYTE_CHUNK])
def test_head_search_splits_as_the_one_pass_read_at_every_offset(chunk, tmp_path, forked,
                                                                 monkeypatch):
    # _head at every head offset of every case, against the lines counted here; at 16
    # bytes a head spans chunks, and a body line of 16 bytes or more reads in one pass.
    # The split read at one offset of every 8th case with a split, against the one-pass
    # read
    monkeypatch.setattr(fileio, "BYTE_CHUNK", chunk)
    path = tmp_path / "body.txt"
    answers, with_split, parsed = [], 0, 0
    for data, comment, skip in byte_cases():
        path.write_bytes(data)
        heads = {}
        body = after_lines(data, skip)
        long_line = max(map(len, lines_of(body)), default=0) >= chunk
        with open(path, "rb") as fh:
            for at, want in enumerate(heads_of(body, comment), 1):
                got = fileio._head(fh.fileno(), skip, comment.encode(), at)
                assert got == want or (got is None and long_line), f"{data!r}, head {at}"
                answers.append(got)
                heads.setdefault(got, at)
        splits = sorted(at for head, at in heads.items() if head)
        with_split += bool(splits)
        if splits and with_split % 8 == 1:
            want = read_body(path, skip, comment)
            with split_at(monkeypatch, splits[with_split // 8 % len(splits)]):
                assert read_body(path, skip, comment) == want, f"{data!r}"
            parsed += want is not None
    # heads split and not, and bodies left to the one-pass read
    assert answers.count(None) >= 1000 and answers.count(0) >= 1000
    assert sum(1 for a in answers if a) >= 1000 and parsed >= 50 and len(forked) >= 100
    assert_no_child()


def test_a_clean_body_forks_without_the_text_scan(tmp_path, forked, two_cpus, monkeypatch):
    # gerk's own MatrixMarket output, with \n, \r\n or lone \r line breaks, splits
    # from its bytes: the text-mode check for data before a comment character never
    # runs.  After a header line that ends in a lone \r, the text file's tell() is no
    # byte offset, so the body is found by counting the header's lines in the bytes
    def refused(*args):
        raise AssertionError("the comment check ran")

    A = big_matrix(tmp_path / "A.mtx")
    data = (tmp_path / "A.mtx").read_bytes()
    monkeypatch.setattr(fileio, "_comment_after_data", refused)
    for copy in (data, data.replace(b"\n", b"\r\n"), data.replace(b"\n", b"\r")):
        (tmp_path / "A.mtx").write_bytes(copy)
        before = len(forked)
        assert read_matrix_market(tmp_path / "A.mtx").tobytes() == A.tobytes()
        assert len(forked) == before + 1
        assert_no_child()
    # negative controls: a copy with an indented line, and one with a comment
    # line, are left to the comment check and read in one pass
    monkeypatch.undo()
    checked = []
    check = fileio._comment_after_data
    monkeypatch.setattr(fileio, "_comment_after_data", lambda *args: checked.append(1) or check(*args))
    lines = data.split(b"\n")
    mid = len(lines) // 2
    indented = lines[:mid] + [b" " + lines[mid]] + lines[mid + 1:]
    commented = lines[:mid] + [b"% a note"] + lines[mid:]
    for copy in (b"\n".join(indented), b"\n".join(commented)):
        (tmp_path / "A.mtx").write_bytes(copy)
        before = len(forked)
        assert read_matrix_market(tmp_path / "A.mtx").tobytes() == A.tobytes()
        assert len(forked) == before
    assert len(checked) == 2


@pytest.mark.parametrize("kind", ["mtx-real", "mtx-complex", "csv-value", "csv-re-im"])
def test_the_files_gerk_writes_split_without_the_comment_check(kind, tmp_path, forked, two_cpus,
                                                               monkeypatch):
    # write_matrix_market and write_vector_csv put their comments in the header, so
    # their bodies (and perfbench's write_mtx's, of the same shape) split from the bytes
    def refused(*args):
        raise AssertionError("the comment check ran")

    field = "complex" if kind.endswith(("complex", "re-im")) else "real"
    want = RngStream(2620).gaussian_array(60000 if field == "real" else 30000, field)
    path = tmp_path / ("A.mtx" if kind.startswith("mtx") else "b.csv")
    if kind.startswith("mtx"):
        want = want.reshape(-1, 100)
        write_matrix_market(path, want)
    else:
        write_vector_csv(path, want)
    assert os.path.getsize(path) >= fileio.SPLIT_BYTES
    monkeypatch.setattr(fileio, "_comment_after_data", refused)
    got = (read_matrix_market if kind.startswith("mtx") else read_vector_csv)(path)
    assert len(forked) == 1
    assert_no_child()
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
