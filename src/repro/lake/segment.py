"""Append-only on-disk segments of the evaluation lake.

One segment file is the unit of atomicity: a flush serializes a batch
of records into a temporary file and publishes it with ``os.replace``,
so concurrent readers (and concurrent writer *processes* — every
writer owns uniquely-named segments) either see a complete segment or
none of it.  There is no shared mutable file, no locking, and no
cross-process coordination beyond the directory listing.

Layout::

    <file>      ::= FILE_MAGIC <record>*
    <record>    ::= REC_MAGIC crc32 payload_len timestamp
                    structure_key library_digest vector_digest
                    payload

The CRC covers the payload; the per-record magic frames the header so
a scan can tell a truncated tail or bit-rotted header apart from real
records.  Every anomaly degrades to "skip the rest of this segment
with a warning" — a corrupt cache can cost recomputation, never a
crash and never a wrong result (readers re-validate the key triple
and the CRC again at :func:`read_record` time, so even an index built
from a stale scan cannot serve mismatched bytes).
"""

from __future__ import annotations

import os
import struct
import warnings
import zlib
from typing import Iterable, List, Optional, Tuple

#: First bytes of every segment file; bump the digit on layout changes.
FILE_MAGIC = b"REVLAKE1"

#: Frames every record header inside a segment.
REC_MAGIC = b"REC1"

#: magic, crc32(payload), payload length, timestamp, key triple.
_HEADER = struct.Struct("<4sIId16s16s16s")
HEADER_SIZE = _HEADER.size

#: (structure_key, library_digest, vector_digest) — all 16 bytes.
KeyTriple = Tuple[bytes, bytes, bytes]

#: What a scan yields per live record: key triple, header offset,
#: payload length, timestamp.
ScanEntry = Tuple[KeyTriple, int, int, float]


def _warn(message: str) -> None:
    warnings.warn(message, RuntimeWarning, stacklevel=3)


#: Name prefix of a file still being written (published by
#: ``os.replace`` onto its final name).  Directory listings skip it: a
#: temp file belongs to its writer until the rename.
TMP_PREFIX = ".tmp-"


def write_segment(
    directory: str,
    records: Iterable[Tuple[KeyTriple, float, bytes]],
    name: str,
) -> Optional[str]:
    """Atomically publish one segment holding ``records``.

    ``records`` yields ``((skey, lib, vec), timestamp, payload)``.
    Returns the final path, or ``None`` when there was nothing to
    write.  The temp file lives in the same directory so the final
    ``os.replace`` is a same-filesystem rename.
    """
    final = os.path.join(directory, name)
    tmp = os.path.join(directory, TMP_PREFIX + name)
    wrote = False
    with open(tmp, "wb") as f:
        f.write(FILE_MAGIC)
        for (skey, lib, vec), timestamp, payload in records:
            f.write(
                _HEADER.pack(
                    REC_MAGIC,
                    zlib.crc32(payload) & 0xFFFFFFFF,
                    len(payload),
                    timestamp,
                    skey,
                    lib,
                    vec,
                )
            )
            f.write(payload)
            wrote = True
    if not wrote:
        os.unlink(tmp)
        return None
    os.replace(tmp, final)
    return final


def scan_segment(path: str) -> List[ScanEntry]:
    """Index one segment's records without reading their payloads.

    Walks header to header, trusting only headers whose magic matches
    and whose payload fits inside the file.  A truncated tail or a
    framing mismatch abandons the rest of the segment with a warning
    (framing is lost beyond the first bad header); payload CRCs are
    deliberately *not* checked here — that work is deferred to
    :func:`read_record` so a scan stays O(records), not O(bytes).
    """
    entries: List[ScanEntry] = []
    try:
        size = os.path.getsize(path)
        with open(path, "rb") as f:
            if f.read(len(FILE_MAGIC)) != FILE_MAGIC:
                _warn(f"evaluation lake: {path} has no segment magic; ignored")
                return []
            offset = len(FILE_MAGIC)
            while offset + HEADER_SIZE <= size:
                f.seek(offset)
                header = f.read(HEADER_SIZE)
                if len(header) < HEADER_SIZE:
                    _warn(
                        f"evaluation lake: truncated record header in "
                        f"{path} at {offset}; rest of segment skipped"
                    )
                    break
                magic, _crc, length, timestamp, skey, lib, vec = (
                    _HEADER.unpack(header)
                )
                if magic != REC_MAGIC:
                    _warn(
                        f"evaluation lake: bad record framing in {path} "
                        f"at {offset}; rest of segment skipped"
                    )
                    break
                if offset + HEADER_SIZE + length > size:
                    _warn(
                        f"evaluation lake: truncated record payload in "
                        f"{path} at {offset}; rest of segment skipped"
                    )
                    break
                entries.append(
                    ((skey, lib, vec), offset, length, timestamp)
                )
                offset += HEADER_SIZE + length
            if offset != size and not (offset + HEADER_SIZE > size > offset):
                pass  # trailing partial header already warned above
    except OSError as exc:
        _warn(f"evaluation lake: cannot scan {path} ({exc}); ignored")
        return entries
    return entries


def read_record(
    path: str, offset: int, triple: KeyTriple
) -> Optional[bytes]:
    """Read and verify one record's payload; ``None`` on any mismatch.

    Re-validates the header magic, the stored key triple against the
    *requested* one, and the payload CRC — so a stale index entry
    (compacted segment, drifted offset, tampered or bit-rotted bytes)
    can only ever turn into a miss, never into wrong bytes.
    """
    try:
        with open(path, "rb") as f:
            f.seek(offset)
            header = f.read(HEADER_SIZE)
            if len(header) < HEADER_SIZE:
                _warn(
                    f"evaluation lake: short read in {path} at {offset}; "
                    "treated as a miss"
                )
                return None
            magic, crc, length, _timestamp, skey, lib, vec = (
                _HEADER.unpack(header)
            )
            if magic != REC_MAGIC or (skey, lib, vec) != triple:
                _warn(
                    f"evaluation lake: record at {path}:{offset} does not "
                    "match its index entry (stale or mismatched digests); "
                    "treated as a miss"
                )
                return None
            payload = f.read(length)
    except OSError as exc:
        _warn(
            f"evaluation lake: cannot read {path}:{offset} ({exc}); "
            "treated as a miss"
        )
        return None
    if len(payload) != length or (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
        _warn(
            f"evaluation lake: CRC mismatch at {path}:{offset}; "
            "treated as a miss"
        )
        return None
    return payload
