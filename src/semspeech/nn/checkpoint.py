"""Model checkpoint file: magic "SEMM", version u16=1, u32 header length,
UTF-8 JSON header {"kind", "config", "params": [[name, shape], ...]}, then the
float32 parameter buffers concatenated in header order."""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from ..errors import FileFormatError
from .optim import ParamStore

CHECKPOINT_MAGIC = b"SEMM"
CHECKPOINT_VERSION = 1
HEADER_OFFSET = 10  # where the JSON header starts


def save_checkpoint(path: str | Path, kind: str, config: dict, store: ParamStore) -> None:
    header = {
        "kind": kind,
        "config": config,
        "params": [[name, list(p.shape)] for name, p in store.items()],
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<H", CHECKPOINT_VERSION))
        f.write(struct.pack("<I", len(header_bytes)))
        f.write(header_bytes)
        for _, p in store.items():
            f.write(np.ascontiguousarray(p.data, dtype="<f4").tobytes())


def _is_param_entry(entry) -> bool:
    """[name, shape] with a string name and a list of non-negative ints."""
    return (
        isinstance(entry, list)
        and len(entry) == 2
        and isinstance(entry[0], str)
        and isinstance(entry[1], list)
        and all(type(n) is int and n >= 0 for n in entry[1])
    )


def load_checkpoint(path: str | Path) -> tuple[str, dict, dict[str, np.ndarray]]:
    """Returns (kind, config, name -> float32 array)."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise FileFormatError(
            f"bad magic {blob[:4]!r}, expected {CHECKPOINT_MAGIC!r}", offset=0
        )
    if len(blob) < HEADER_OFFSET:
        raise FileFormatError("truncated header", offset=len(blob))
    (version,) = struct.unpack_from("<H", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise FileFormatError(f"unsupported version {version}", offset=4)
    (header_len,) = struct.unpack_from("<I", blob, 6)
    end = HEADER_OFFSET + header_len
    if len(blob) < end:
        raise FileFormatError("truncated JSON header", offset=len(blob))
    try:
        header = json.loads(blob[HEADER_OFFSET:end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FileFormatError(f"bad JSON header: {e}", offset=HEADER_OFFSET) from e
    if not isinstance(header, dict):
        raise FileFormatError("header is not a JSON object", offset=HEADER_OFFSET)
    for key, kind in (("kind", str), ("config", dict), ("params", list)):
        if not isinstance(header.get(key), kind):
            raise FileFormatError(
                f"header key {key!r} missing or not a {kind.__name__}", offset=HEADER_OFFSET
            )
    for entry in header["params"]:
        if not _is_param_entry(entry):
            raise FileFormatError(
                f"parameter entry {entry!r} is not [name, shape]", offset=HEADER_OFFSET
            )

    params: dict[str, np.ndarray] = {}
    offset = end
    for name, shape in header["params"]:
        count = math.prod(shape)
        nbytes = 4 * count
        if len(blob) < offset + nbytes:
            raise FileFormatError(
                f"truncated buffer for parameter {name!r}", offset=len(blob)
            )
        arr = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
        if not np.all(np.isfinite(arr)):
            bad = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise FileFormatError(
                f"non-finite value in parameter {name!r}", offset=offset + 4 * bad
            )
        params[name] = arr.reshape(shape).copy()
        offset += nbytes
    if offset != len(blob):
        raise FileFormatError(
            f"{len(blob) - offset} trailing bytes after parameter buffers", offset=offset
        )
    return header["kind"], header["config"], params


def load(path: str | Path, *classes):
    """The model a ``.semm`` holds, as an instance of one of ``classes``.

    Each class names its checkpoints with ``KIND``, rebuilds an untrained
    model from a header's config with ``from_config``, and holds its
    parameters in ``store``, into which the file's buffers are copied;
    parameters of the file that the model lacks are dropped. A kind outside
    ``classes``, a config the class cannot build from, or a parameter the
    file lacks or shapes differently raises ``FileFormatError`` at the
    header's offset.
    """
    kind, config, params = load_checkpoint(path)
    by_kind = {cls.KIND: cls for cls in classes}
    if kind not in by_kind:
        expected = " or ".join(repr(k) for k in by_kind)
        raise FileFormatError(
            f"checkpoint kind {kind!r}, expected {expected}", offset=HEADER_OFFSET
        )
    try:
        model = by_kind[kind].from_config(config)
        model.store.load_state_dict(params)
    except (KeyError, TypeError, ValueError) as e:
        raise FileFormatError(
            f"{kind} checkpoint header does not describe a model: {type(e).__name__}: {e}",
            offset=HEADER_OFFSET,
        ) from e
    return model
