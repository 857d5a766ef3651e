"""Model checkpoint file: magic "SEMM", version u16=1, u32 header length,
UTF-8 JSON header {"kind", "config", "params": [[name, shape], ...]}, then the
float32 parameter buffers concatenated in header order."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from ..errors import FileFormatError
from ..fileformat import BinaryReader, write_binary
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
    arrays = [p.data for _, p in store.items()]
    write_binary(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, (), header, arrays)


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
    with BinaryReader(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, n_fields=0,
                      has_doc=True) as reader:
        header = reader.doc
        for key, kind in (("kind", str), ("config", dict), ("params", list)):
            if not isinstance(header.get(key), kind):
                raise FileFormatError(
                    f"header {key!r} missing or not a {kind.__name__}", HEADER_OFFSET
                )
        for entry in header["params"]:
            if not _is_param_entry(entry):
                raise FileFormatError(
                    f"parameter entry {entry!r} is not [name, shape]", HEADER_OFFSET
                )
        params = {
            name: reader.floats(math.prod(shape), f"parameter {name!r}").reshape(shape)
            for name, shape in header["params"]
        }
        reader.end()
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
