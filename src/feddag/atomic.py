"""All-or-nothing artifact files.

Every file the CLI writes goes through atomic_open, so a run that is killed
or fails while writing leaves either the complete new file or whatever was
there before, never a truncated one.  Every CSV goes through write_csv.
"""

from __future__ import annotations

import csv
import os
from collections.abc import Iterable
from contextlib import contextmanager


@contextmanager
def atomic_open(path: str, newline: str | None = None):
    """A text file opened for writing that appears at path only once complete.

    Writes go to a temporary file in the same directory, which os.replace
    moves over path when the block ends.  If the block raises, the temporary
    file is removed and an earlier file at path is left as it was.
    """
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_csv(path: str, header: list[str], rows: Iterable[list]) -> None:
    """A CSV file of header and rows, written through atomic_open.

    rows is consumed while the file is written, so a generator never holds
    all rows at once.  If it raises, an earlier file at path is left as it was.
    """
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
