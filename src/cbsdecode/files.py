"""Reading the package's input files. Every input file is UTF-8; one that
does not decode, or a JSON file that does not parse, is a DataError naming
the file."""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Iterator

from .errors import DataError


def read_lines(path) -> Iterator[str]:
    """The lines of a UTF-8 text file, each with its line ending."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield from fh
    except UnicodeDecodeError as e:
        raise DataError(f"{path} is not UTF-8 text: {e}") from e


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
