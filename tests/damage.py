"""Damaged files for the loader tests: a Hypothesis strategy of damaged
blobs, and a NaN written into one utterance's frames of a saved corpus."""

import json
import struct
from pathlib import Path

from hypothesis import strategies as st


@st.composite
def damaged(draw, blob: bytes) -> bytes:
    """``blob`` cut short at any byte, or with any one byte set to any value."""
    at = draw(st.integers(0, len(blob) - 1))
    if draw(st.booleans()):
        return blob[:at]
    return blob[:at] + bytes([draw(st.integers(0, 255))]) + blob[at + 1 :]


def poison_frame(corpus_dir: Path, utt_id: str, frame: int = 1, col: int = 2) -> int:
    """Set value ``col`` of frame ``frame`` of ``utt_id``, in the feature file
    its manifest line names, to NaN; returns that value's byte offset."""
    for line in (corpus_dir / "manifest.jsonl").read_text().splitlines():
        rec = json.loads(line)
        if rec["id"] == utt_id:
            break
    else:
        raise KeyError(utt_id)
    path = corpus_dir / rec["path"]
    blob = bytearray(path.read_bytes())
    dim = struct.unpack_from("<I", blob, 10)[0]
    start = rec.get("rows", [0])[0]
    at = 14 + 4 * ((start + frame) * dim + col)
    struct.pack_into("<f", blob, at, float("nan"))
    path.write_bytes(bytes(blob))
    return at
