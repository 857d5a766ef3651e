"""Pipeline configuration: a sectioned key=value text document.

Every tunable of every stage lives in one flat schema; unknown keys are
rejected so a typo cannot silently fall back to a default. Each run writes the
fully resolved document next to its outputs.
"""

from __future__ import annotations

import configparser
import io
import math
from pathlib import Path

from .errors import ConfigError
from .fileformat import read_text, write_text

# key -> (type tag, default); type tags: int, float, str
SCHEMA: dict[str, tuple[str, object]] = {
    "run.seed": ("int", 0),
    "corpus.alphabet_size": ("int", 16),
    "corpus.feature_dim": ("int", 16),
    "corpus.frames_per_symbol_min": ("int", 2),
    "corpus.frames_per_symbol_max": ("int", 5),
    "corpus.n_speakers": ("int", 4),
    "corpus.speaker_offset_scale": ("float", 0.05),
    "corpus.noise_scale": ("float", 0.05),
    "corpus.utterance_len_min": ("int", 3),
    "corpus.utterance_len_max": ("int", 10),
    "corpus.n_utterances": ("int", 2000),
    "corpus.max_frames": ("int", 1000),
    "pairs.n_dev": ("int", 200),
    "pairs.n_test": ("int", 200),
    "quantizer.clusters": ("int", 100),
    "quantizer.max_iters": ("int", 100),
    "quantizer.tol": ("float", 1e-6),
    "quantizer.max_training_frames": ("int", 0),  # 0 = use every frame
    "tokenizer.vocab_size": ("int", 1000),
    "encoder.layers": ("int", 2),
    "encoder.model_dim": ("int", 64),
    "encoder.heads": ("int", 4),
    "encoder.ff_dim": ("int", 128),
    "encoder.dropout": ("float", 0.1),
    "encoder.max_positions": ("int", 1024),
    "wavembed.epochs": ("int", 10),
    "wavembed.lr": ("float", 5e-4),
    "wavembed.batch_size": ("int", 16),
    "wavembed.weight_decay": ("float", 0.01),
    "wavembed.dev_fraction": ("float", 0.1),
    "mlm.steps": ("int", 500),
    "mlm.lr": ("float", 5e-4),
    "mlm.batch_size": ("int", 16),
    "mlm.mask_rate": ("float", 0.15),
    "tsdae.deletion_ratio": ("float", 0.6),
    "tsdae.epochs": ("int", 10),
    "tsdae.lr": ("float", 5e-4),
    "tsdae.batch_size": ("int", 32),
    "tsdae.dev_fraction": ("float", 0.1),
    "simcse.dropout": ("float", 0.1),
    "simcse.tau": ("float", 0.05),
    "simcse.lr": ("float", 5e-4),
    "simcse.batch_size": ("int", 32),
    "simcse.epochs": ("int", 10),
    "simcse.patience": ("int", 80),
    "simcse.eval_every_steps": ("int", 10),
    "distill.loss": ("str", "infonce"),
    "distill.tau": ("float", 0.05),
    "distill.lr": ("float", 1e-4),
    "distill.batch_size": ("int", 32),
    "distill.epochs": ("int", 10),
    "distill.bank_capacity": ("int", 256),
    "distill.pooling": ("str", "self_attention"),
    "distill.weight_decay": ("float", 0.01),
    "eval.pos_threshold": ("float", 4.0),
}


def _cast(key: str, raw: str) -> object:
    tag = SCHEMA[key][0]
    raw = raw.strip()
    try:
        value = {"int": int, "float": float}.get(tag, str)(raw)
    except ValueError:
        raise ConfigError(
            f"value {raw!r} for key {key!r} is not a valid {tag}", key=key
        ) from None
    if tag == "float" and not math.isfinite(value):
        raise ConfigError(f"value {raw!r} for key {key!r} is not a finite float", key=key)
    return value


def _format(value: object) -> str:
    return repr(value) if isinstance(value, float) else str(value)


class PipelineConfig:
    """Resolved configuration: every schema key bound to a typed value."""

    def __init__(self, values: dict[str, object]):
        self.values = values

    def __getitem__(self, key: str) -> object:
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}", key=key)
        return self.values[key]

    def set(self, key: str, raw: str | object) -> None:
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}", key=key)
        self.values[key] = _cast(key, raw) if isinstance(raw, str) else raw

    def to_text(self) -> str:
        """Canonical rendering: sorted sections, sorted keys, one per line."""
        by_section: dict[str, list[tuple[str, object]]] = {}
        for key in sorted(self.values):
            section, name = key.split(".", 1)
            by_section.setdefault(section, []).append((name, self.values[key]))
        out = io.StringIO()
        for i, section in enumerate(sorted(by_section)):
            if i:
                out.write("\n")
            out.write(f"[{section}]\n")
            for name, value in by_section[section]:
                out.write(f"{name} = {_format(value)}\n")
        return out.getvalue()

    def write(self, path: str | Path) -> None:
        write_text(path, self.to_text())


def default_config() -> PipelineConfig:
    return PipelineConfig({key: default for key, (_, default) in SCHEMA.items()})


def parse_config(text: str) -> PipelineConfig:
    """Defaults overlaid with the document's entries; unknown keys rejected."""
    parser = configparser.ConfigParser(
        interpolation=None, delimiters=("=",), comment_prefixes=("#",)
    )
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"malformed config: {e}") from e
    known_sections = {key.split(".", 1)[0] for key in SCHEMA}
    cfg = default_config()
    for section in parser.sections():
        if section not in known_sections:
            raise ConfigError(f"unknown config section {section!r}", key=section)
        for name, raw in parser.items(section):
            key = f"{section}.{name}"
            if key not in SCHEMA:
                raise ConfigError(f"unknown config key {key!r}", key=key)
            cfg.values[key] = _cast(key, raw)
    return cfg


def load_config(path: str | Path) -> PipelineConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    return parse_config(read_text(p))
