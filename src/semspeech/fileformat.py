"""How artifacts are framed on disk, and how a damaged one is rejected.

A binary artifact is a 4-byte magic, a u16 version and the format's u32
fields, then, if the format has one, a u32 length and that many bytes of
UTF-8 JSON object, then little-endian float32 runs. Text artifacts are UTF-8;
TSV rows are non-blank lines of tab-separated fields, and CSV tables a header
row then data rows, CRLF-terminated. Every fault is a ``FileFormatError``, at
its byte offset where one is known. Every artifact is written to a
temporary file beside its path and then renamed over it, so a reader never
sees a half-written artifact, and a failed write leaves the old one.
"""

from __future__ import annotations

import csv
import io
import json
import os
import struct
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import FileFormatError


def _write_atomically(path: str | Path, write: Callable[[BinaryIO], None]) -> None:
    """``write`` to a temporary file beside ``path``, then rename it over
    ``path``; if anything raises, the temporary file goes and ``path`` keeps
    what it held. No fsync: the rename orders the write, not its durability."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            write(f)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_binary(path: str | Path, magic: bytes, version: int, fields: Sequence[int],
                 doc: dict | None = None, arrays: Iterable[np.ndarray] = ()) -> None:
    """Write the framing above, with ``doc`` as compact sorted-key JSON and
    ``arrays`` streamed one after another, with no joined copy."""
    head = magic + struct.pack(f"<H{len(fields)}I", version, *fields)
    if doc is not None:
        doc_bytes = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
        head += struct.pack("<I", len(doc_bytes)) + doc_bytes

    def write(f: BinaryIO) -> None:
        f.write(head)
        for arr in arrays:
            f.write(np.ascontiguousarray(arr, dtype="<f4"))

    _write_atomically(path, write)


class BinaryReader:
    """A read cursor over one binary artifact, open until ``close`` or the
    end of its ``with`` block.

    Opening checks the magic (offset 0), that the fixed header is all there
    (offset: the file's length), and the version (offset 4), then reads the
    ``n_fields`` u32 fields into ``fields`` and, with ``has_doc``, the JSON
    object into ``doc``. ``payload_at`` is where the payload starts. A read
    starts at ``offset``, which begins there, and moves it past what it
    read; a caller may set it to read elsewhere. Only what is read is loaded.
    """

    def __init__(self, path: str | Path, magic: bytes, version: int, n_fields: int,
                 has_doc: bool = False):
        self._file = open(path, "rb")
        try:
            self.size = os.fstat(self._file.fileno()).st_size
            n_u32 = n_fields + has_doc
            self.offset = 6 + 4 * n_u32
            head = self._file.read(self.offset)
            if head[:4] != magic:
                raise FileFormatError(f"bad magic {head[:4]!r}, expected {magic!r}", offset=0)
            if len(head) < self.offset:
                raise FileFormatError("truncated header", offset=len(head))
            found, *u32s = struct.unpack_from(f"<H{n_u32}I", head, 4)
            if found != version:
                raise FileFormatError(f"unsupported version {found}", offset=4)
            self.fields = u32s[:n_fields]
            self.doc = self._doc(u32s[-1]) if has_doc else None
            self.payload_at = self.offset
        except BaseException:
            self._file.close()
            raise

    def __enter__(self) -> BinaryReader:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self._file.close()

    def _doc(self, length: int) -> dict:
        at, end = self.offset, self.offset + length
        if self.size < end:
            raise FileFormatError("truncated JSON block", offset=self.size)
        try:
            doc = json.loads(self._file.read(length).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise FileFormatError(f"bad JSON block: {e}", offset=at) from e
        if not isinstance(doc, dict):
            raise FileFormatError("JSON block is not an object", offset=at)
        self.offset = end
        return doc

    def expect_payload(self, nbytes: int) -> None:
        """The rest of the file is ``nbytes`` long."""
        short = self.offset + nbytes - self.size
        if short > 0:
            raise FileFormatError(f"truncated: {short} bytes missing", offset=self.size)
        if short < 0:
            raise FileFormatError(f"{-short} trailing bytes", offset=self.offset + nbytes)

    def floats(self, count: int, what: str) -> np.ndarray:
        """The next ``count`` float32s, as a new array; all must be finite."""
        at = self.offset
        nbytes = 4 * count
        if self.size < at + nbytes:
            raise FileFormatError(f"truncated {what}", offset=self.size)
        arr = np.empty(count, dtype="<f4")
        self._file.seek(at)
        if self._file.readinto(arr) != nbytes:  # the file shrank since it was opened
            raise FileFormatError(f"truncated {what}", offset=self._file.tell())
        if not np.isfinite(arr).all():
            bad = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise FileFormatError(f"non-finite value in {what}", offset=at + 4 * bad)
        self.offset = at + nbytes
        return arr

    def end(self) -> None:
        """Nothing follows what has been read."""
        self.expect_payload(0)


def read_text(path: str | Path) -> str:
    """A UTF-8 text file with its line ends made ``\\n``, as text-mode ``open``
    gives; an undecodable byte is a ``FileFormatError`` at its offset."""
    blob = Path(path).read_bytes()
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as e:
        raise FileFormatError(f"{path} is not UTF-8 text: {e.reason}", offset=e.start) from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def read_rows(
    path: str | Path, n_fields: int, header: Sequence[str] | None = None
) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each non-blank line of a UTF-8 TSV file that
    has ``n_fields`` fields; the first line must be ``header`` if one is given."""
    lines = read_text(path).split("\n")
    start = 0
    if header is not None:
        if lines[0].split("\t") != list(header):
            raise FileFormatError(f"{path}: header {lines[0]!r}, expected {'<TAB>'.join(header)!r}")
        start = 1
    for line_no, line in enumerate(lines[start:], start + 1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != n_fields:
            raise FileFormatError(
                f"{path} line {line_no}: {len(fields)} tab-separated fields, expected {n_fields}"
            )
        yield line_no, fields


def write_text(path: str | Path, text: str) -> None:
    """``text`` as UTF-8, its line ends written as they are."""
    blob = text.encode("utf-8")
    _write_atomically(path, lambda f: f.write(blob))


def write_id_ints(path: str | Path, rows: Iterable[tuple[str, Sequence[int]]]) -> None:
    """One ``<id><TAB><space-separated ints>`` line per row."""
    write_text(path, "".join(f"{row_id}\t{' '.join(map(str, ints))}\n" for row_id, ints in rows))


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A UTF-8 CSV table with ``csv.writer``'s CRLF line ends. It writes a
    float as its shortest round-tripping digits, so it reads back the same."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    write_text(path, buf.getvalue())


def read_id_ints(path: str | Path, make: Callable[[list[int], str], object]) -> list:
    """``make(ints, id)`` for each row ``write_id_ints`` wrote; a bad int or a
    ``ValidationError`` from ``make`` is a ``FileFormatError`` naming the line,
    and an id on two lines one naming both."""
    out = []
    first_line: dict[str, int] = {}
    for line_no, (row_id, ints) in read_rows(path, 2):
        first = first_line.setdefault(row_id, line_no)
        if first != line_no:
            raise FileFormatError(f"{path} lines {first} and {line_no}: repeated id {row_id!r}")
        try:
            out.append(make([int(x) for x in ints.split()], row_id))
        except ValueError as e:  # ValidationError included
            raise FileFormatError(f"{path} line {line_no}: {e}") from e
    return out
