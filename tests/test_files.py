import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbsdecode import DataError, load_embeddings
from cbsdecode.files import read_lines


def text_mode_lines(path):
    with open(path, encoding="utf-8") as fh:
        return list(fh)


class TestReadLines:
    @pytest.mark.parametrize(
        "data",
        [
            b"cat 1 2\r\ndog 3 4\r\n",
            b"cat 1 2\rdog 3 4\r",
            b"cat 1 2\rdog 3 4\r\nemu\n\r\n\rlast",
            b"\xef\xbb\xbfcat 1 2\r\n",
            "a\x0cb\x1cc\x85d\u2028e\rf\n".encode(),
        ],
        ids=["crlf", "cr-only", "mixed", "bom", "unicode-breaks"],
    )
    def test_lines_as_text_mode_reads_them(self, tmp_path, data):
        path = tmp_path / "f.txt"
        path.write_bytes(data)
        assert list(read_lines(path)) == text_mode_lines(path)

    @given(st.lists(st.sampled_from(["a", " ", "\r", "\n", "\r\n", "\x0c", "\x85", "\u2028", "é"]), max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_generated_files_read_as_text_mode_reads_them(self, tmp_path_factory, parts):
        path = tmp_path_factory.mktemp("lines") / "f.txt"
        path.write_bytes("".join(parts).encode())
        assert list(read_lines(path)) == text_mode_lines(path)

    @pytest.mark.parametrize(
        "data,line",
        [
            (b"cat 1\ndog \xe9\n", 2),
            (b"cat 1\r\ndog 2\r\n\xe9\r\n", 3),
            (b"cat 1\rdog 2\remu \xe9\rfox\r", 3),
            (b"\xe9", 1),
        ],
    )
    def test_undecodable_line_is_named(self, tmp_path, data, line):
        path = tmp_path / "f.txt"
        path.write_bytes(data)
        with pytest.raises(DataError, match=f"is not UTF-8 text at line {line}:"):
            list(read_lines(path))

    def test_lines_before_an_undecodable_one_are_read_first(self, tmp_path):
        """A malformed line reports before a bad byte on the line after it."""
        path = tmp_path / "vec.txt"
        path.write_bytes(b"cat 1.0 oops\ndog 1.0 \xe9\n")
        with pytest.raises(DataError, match=":1: bad float"):
            load_embeddings(path)
        path.write_bytes(b"cat 1.0 2.0\ndog 1.0 \xe9\n")
        with pytest.raises(DataError, match="is not UTF-8 text at line 2"):
            load_embeddings(path)
