"""Config document: strict schema, typed values, canonical rendering."""

import re
from pathlib import Path

import pytest

from semspeech import cli
from semspeech.config import SCHEMA, default_config, load_config, parse_config
from semspeech.errors import ConfigError


def test_defaults_cover_schema():
    cfg = default_config()
    assert set(cfg.values) == set(SCHEMA)
    assert cfg["run.seed"] == 0
    assert cfg["corpus.n_utterances"] == 2000
    assert cfg["distill.loss"] == "infonce"


def test_every_schema_key_is_read_by_a_stage():
    """A key no stage handler reads would be a knob that changes nothing."""
    read = set(re.findall(r'cfg\["([^"]+)"\]', Path(cli.__file__).read_text()))
    assert sorted(set(SCHEMA) - read) == []
    assert sorted(read - set(SCHEMA)) == []


def test_text_round_trip_is_exact():
    cfg = default_config()
    cfg.set("wavembed.lr", "0.00035")
    cfg.set("quantizer.tol", "1e-07")
    text = cfg.to_text()
    again = parse_config(text)
    assert again.values == cfg.values
    assert again.to_text() == text


def test_partial_file_overlays_defaults():
    cfg = parse_config("[corpus]\nn_utterances = 60\n\n[run]\nseed = 7\n")
    assert cfg["corpus.n_utterances"] == 60
    assert cfg["run.seed"] == 7
    assert cfg["corpus.alphabet_size"] == 16  # untouched default


def test_unknown_key_rejected_by_name():
    # keys that nothing acts on are left out of the schema
    for section, name in [("wavembed", "lrr"), ("wavembed", "target_mode"), ("eval", "recall_ks")]:
        with pytest.raises(ConfigError) as e:
            parse_config(f"[{section}]\n{name} = 1\n")
        assert f"{section}.{name}" in str(e.value)
        assert e.value.key == f"{section}.{name}"


def test_unknown_section_rejected():
    with pytest.raises(ConfigError) as e:
        parse_config("[wavmebed]\nlr = 0.001\n")
    assert "wavmebed" in str(e.value)


def test_bad_value_type_rejected():
    with pytest.raises(ConfigError) as e:
        parse_config("[corpus]\nn_utterances = plenty\n")
    assert "corpus.n_utterances" in str(e.value)


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_non_finite_float_rejected_by_name(raw):
    float_keys = [key for key, (tag, _) in SCHEMA.items() if tag == "float"]
    assert len(float_keys) == 19
    for key in float_keys:
        section, name = key.split(".")
        with pytest.raises(ConfigError) as e:
            parse_config(f"[{section}]\n{name} = {raw}\n")
        assert str(e.value) == f"value {raw!r} for key {key!r} is not a finite float"
        assert e.value.key == key


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError):
        parse_config("[run]\nseed = 1\nseed = 2\n")


def test_key_outside_section_rejected():
    with pytest.raises(ConfigError):
        parse_config("seed = 1\n")


def test_comments_and_blanks_tolerated():
    cfg = parse_config("# toy setup\n\n[run]\nseed = 3\n\n# done\n")
    assert cfg["run.seed"] == 3


def test_set_validates_key_and_value():
    cfg = default_config()
    with pytest.raises(ConfigError):
        cfg.set("run.sede", 1)
    with pytest.raises(ConfigError):
        cfg.set("run.seed", "three")
    cfg.set("run.seed", "3")
    assert cfg["run.seed"] == 3


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.cfg")


def test_write_and_load(tmp_path):
    cfg = default_config()
    cfg.set("run.seed", 42)
    path = tmp_path / "pipeline.cfg"
    cfg.write(path)
    assert load_config(path).values == cfg.values
