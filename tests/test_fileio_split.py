"""The split read: a large body parsed in two parts, the head in a forked child.

Every read is compared with the one-pass read, forced by making
`forks.usable` false: the same array bytes, or the same ParseError.
"""

import io
import os
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


def split_points(rest, comment):
    """Heads, in lines, worth splitting the body text `rest` at: next to
    each blank or comment line (before it and after it), before and at the
    last line, and one in the middle."""
    lines = rest.split("\n")
    if lines[-1] == "":
        lines.pop()
    heads = {len(lines) // 2, len(lines) - 1, len(lines)}
    for k, line in enumerate(lines):
        if not line.strip() or line.strip().startswith(comment):
            heads.update((k, k + 1))
    return sorted(h for h in heads if h > 0)


def split_reads(reader, path, comment, monkeypatch):
    """(head, outcome) of the reader at each of split_points, with the split
    forced on: the scan is given the head that ends at that line."""
    scan, bodies, head = fileio._scan, [], []

    def at_line(fh, comment_, head_chars):
        rest = fh.read()
        bodies.append(rest)
        ends = np.cumsum([len(line) for line in io.StringIO(rest)])
        return scan(io.StringIO(rest), comment_, int(ends[head[-1] - 1]) if head else 0)

    with monkeypatch.context() as m:
        m.setattr(fileio, "SPLIT_BYTES", 0)
        m.setattr(forks, "usable", lambda: True)
        m.setattr(fileio, "_scan", at_line)
        outcome(reader, path)  # no head: finds the body, if the header parses
        for h in split_points(bodies[0], comment) if bodies else []:
            head.append(h)
            yield h, outcome(reader, path)


@pytest.mark.parametrize("kind", ["mtx", "csv"])
def test_split_reads_match_one_pass_reads(kind, tmp_path, forked, monkeypatch):
    rng = RngStream(4545 if kind == "mtx" else 4646)
    path = tmp_path / ("f.mtx" if kind == "mtx" else "v.csv")
    reader = read_matrix_market if kind == "mtx" else read_vector_csv
    splits = 0
    for case in range(150):
        text, _ = random_matrix_market(rng) if kind == "mtx" else random_vector_csv(rng)
        path.write_bytes(text.encode())
        want = one_pass(reader, path, monkeypatch)
        before = len(forked)
        for head, got in split_reads(reader, path, "%" if kind == "mtx" else "#", monkeypatch):
            assert same(got, want), f"case {case}, head {head}:\n{text}\ngot {got!r}\nwant {want!r}"
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


# ------------------------------------------------------------------ byte scan


def scan_both(path, skip, comment):
    """(head_chars, got, want) at every head_chars from 1 to one past the body's
    end: _scan on the open file, after its first `skip` lines, and on an
    io.StringIO of the text the file reads there (or the error each raises)."""
    def result(scan):
        try:
            return scan()
        except UnicodeDecodeError as exc:
            return type(exc)

    with open(path, encoding="utf-8") as fh:
        for _ in range(skip):
            fh.readline()
        start = fh.tell()
        rest = result(fh.read)
        heads = range(1, len(rest) + 2) if isinstance(rest, str) else range(1, 4)
        for head_chars in heads:
            fh.seek(start)
            got = result(lambda: fileio._scan(fh, comment, head_chars))
            want = result(lambda: fileio._scan(io.StringIO(rest), comment, head_chars)) \
                if isinstance(rest, str) else rest
            yield head_chars, got, want


def byte_cases():
    """(data, comment, skip): the fuzz generators' files, and a small body with
    each byte the byte scan leaves to the text scan put at every place in it."""
    rng = RngStream(4747)
    for _ in range(30):
        yield random_matrix_market(rng)[0].encode(), "%", 1
        yield random_vector_csv(rng)[0].encode(), "#", 1
    for ending in (b"\n", b"\r\n"):
        body = ending.join([b"1.5 -2", b"3 4e-1", b"-5 .6", b"7", b"8e1 9"])
        for end in (ending, b""):  # the last line with its break and without
            yield b"value" + ending + body + end, "#", 1
            for byte in (b"%", b"\r", b"\n", b"\t", b" ", b"\x0c", b"\x1c", b"\x1f", b"\xc3\xa9",
                         b"\x80", b"\xff"):
                text = body + end
                for at in range(len(text) + 1):
                    yield text[:at] + byte + text[at:], "%", 0


@pytest.mark.parametrize("chunk", [16, fileio.BYTE_CHUNK])
def test_byte_scan_matches_text_scan_at_every_split_point(chunk, tmp_path, monkeypatch):
    # at 16 bytes a head spans chunks, and a line longer than one is left to the text scan
    monkeypatch.setattr(fileio, "BYTE_CHUNK", chunk)
    path = tmp_path / "body.txt"
    answered = []
    scan_bytes = fileio._scan_bytes
    monkeypatch.setattr(fileio, "_scan_bytes",
                        lambda *args: answered.append(scan_bytes(*args)) or answered[-1])
    splits = 0
    for data, comment, skip in byte_cases():
        path.write_bytes(data)
        for head_chars, got, want in scan_both(path, skip, comment):
            # repr: an equal head of another type (np.int64) fails too
            assert repr(got) == repr(want), f"{data!r}, head_chars {head_chars}"
            splits += isinstance(got, tuple) and got[1] > 0
    # the byte scan answered (heads split and not), and left the rest to the text scan
    found = [a for a in answered if a is not None]
    assert len(found) >= 1000 and any(a[1] for a in found) and any(not a[1] for a in found)
    assert answered.count(None) >= 1000 and splits >= 1000


def test_a_clean_body_forks_without_the_text_scan(tmp_path, forked, two_cpus, monkeypatch):
    # a clean ASCII body with \n line breaks is split from its bytes: the text
    # scan's blank-line search never runs
    class Refused:
        def search(self, *args):
            raise AssertionError("the text scan ran")

        match = search

    A = big_matrix(tmp_path / "A.mtx")
    data = (tmp_path / "A.mtx").read_bytes()
    monkeypatch.setattr(fileio, "_BLANK", Refused())
    monkeypatch.setattr(fileio, "_FIRST_BLANK", Refused())
    assert read_matrix_market(tmp_path / "A.mtx").tobytes() == A.tobytes()
    assert len(forked) == 1
    assert_no_child()
    # negative controls: \r\n line breaks, and an indented line, are left to the text scan
    lines = data.split(b"\n")
    lines[len(lines) // 2] = b" " + lines[len(lines) // 2]
    for copy in (data.replace(b"\n", b"\r\n"), b"\n".join(lines)):
        (tmp_path / "A.mtx").write_bytes(copy)
        with pytest.raises(AssertionError, match="the text scan ran"):
            read_matrix_market(tmp_path / "A.mtx")
