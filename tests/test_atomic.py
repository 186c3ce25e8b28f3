"""A command's files: whole-file writes that make their directory, and SHA-256 identity."""

from __future__ import annotations

import hashlib

import pytest

from gazeshift.atomic import open_atomic, read_text, write_text


def test_open_atomic_makes_missing_parents(tmp_path):
    path = tmp_path / "run" / "stage" / "file.txt"
    with open_atomic(path) as fh:
        fh.write("x")
    assert path.read_bytes() == b"x"


def test_text_reaches_the_file_as_given(tmp_path):
    # no newline translation on any platform: "\r\n" stays two bytes, "\n" one
    text = "a\r\nb\nc\r caf\u00e9 \u03b8 \U0001f600\n"
    path = tmp_path / "text.txt"
    with open_atomic(path) as fh:
        fh.write(text)
    assert path.read_bytes() == text.encode("utf-8")
    write_text(path, text[::-1])
    assert path.read_bytes() == text[::-1].encode("utf-8")


def test_a_block_that_raises_keeps_the_old_contents_and_no_temporary(tmp_path):
    path = tmp_path / "file.txt"
    path.write_bytes(b"old\n")
    with pytest.raises(RuntimeError, match="midway"):
        with open_atomic(path) as fh:
            fh.write("new, half written")
            fh.flush()
            raise RuntimeError("midway")
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["file.txt"]


def test_write_and_read_digests_are_those_of_the_file_bytes(tmp_path):
    path = tmp_path / "doc.json"
    text = '{"note": "caf\u00e9"}\r\n'
    digest = write_text(path, text)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert read_text(path) == (text, digest)


def test_read_text_refuses_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"ok \xff")
    with pytest.raises(UnicodeDecodeError):
        read_text(path)


def test_read_text_of_a_missing_path_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_text(tmp_path / "missing.txt")
