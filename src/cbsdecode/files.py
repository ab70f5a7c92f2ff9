"""Reading the package's input files. Every input file is UTF-8; one that
does not decode, or a JSON file that does not parse, is a DataError naming
the file."""

from __future__ import annotations

import io
import json
from contextlib import contextmanager
from typing import Iterator

from .errors import DataError


def read_lines(path) -> Iterator[str]:
    """The lines of a UTF-8 text file as text mode reads them, decoded one by one."""
    n = 0
    with open(path, "rb", buffering=1 << 16) as fh:
        for raw in fh:
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as e:
                n += 1 + raw.count(b"\r", 0, e.start)
                raise DataError(f"{path} is not UTF-8 text at line {n}: {e}") from e
            lines = io.StringIO(text, newline=None).readlines() if "\r" in text else [text]
            n += len(lines)
            yield from lines


def read_json(path):
    """The JSON document held in a UTF-8 file."""
    try:
        return json.loads("".join(read_lines(path)))
    except json.JSONDecodeError as e:
        raise DataError(f"invalid JSON in {path}: {e}") from e


@contextmanager
def in_file(path) -> Iterator[None]:
    """Prefix `path` to the message of a DataError raised in the block, for
    checks on a file's content that do not know which file it came from."""
    try:
        yield
    except DataError as e:
        raise DataError(f"{path}: {e}") from e
