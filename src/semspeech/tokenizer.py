"""BPE re-tokenization of unit sequences into larger vocabularies.

Token id layout: PAD=0, CLS=1, SEP=2, UNK=3, MASK=4, then the sorted base
alphabet, then merged tokens in merge order.
"""

from __future__ import annotations

import heapq
import json
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FileFormatError, ValidationError
from .fileformat import read_id_ints, read_text, write_id_ints, write_text
from .quantizer import UnitSequence

PAD, CLS, SEP, UNK, MASK = 0, 1, 2, 3, 4
SPECIALS = {"PAD": PAD, "CLS": CLS, "SEP": SEP, "UNK": UNK, "MASK": MASK}
N_SPECIALS = 5


@dataclass
class TokenSequence:
    tokens: list[int]
    source_id: str = ""

    def __post_init__(self):
        if len(self.tokens) < 2:
            raise ValidationError("token sequence must have length >= 2", field="tokens")
        if self.tokens[0] != CLS:
            raise ValidationError("token sequence must begin with CLS", field="tokens")
        if self.tokens[-1] != SEP:
            raise ValidationError("token sequence must end with SEP", field="tokens")
        for t in self.tokens[1:-1]:
            if t in (PAD, CLS, SEP, MASK):
                raise ValidationError(
                    f"interior token {t} is a special other than UNK", field="tokens"
                )


def token_array(seq) -> np.ndarray:
    """A TokenSequence or a list of ids as a 1-D int64 array."""
    arr = np.asarray(getattr(seq, "tokens", seq), dtype=np.int64)
    if arr.ndim != 1 or arr.shape[0] < 2:
        raise ValidationError("expected a 1-D token sequence of length >= 2", field="tokens")
    return arr


@dataclass
class BpeModel:
    alphabet: list[int]  # sorted base unit ids
    merges: list[tuple[int, int]]  # (left, right) token-id pairs, in merge order
    _unit_to_token: dict[int, int] = field(default_factory=dict, repr=False)
    _expansions: list[list[int]] = field(default_factory=list, repr=False)
    _merge_rank: dict[tuple[int, int], int] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if sorted(set(self.alphabet)) != list(self.alphabet):
            raise ValidationError("alphabet must be sorted and unique", field="alphabet")
        self._unit_to_token = {u: N_SPECIALS + i for i, u in enumerate(self.alphabet)}
        # expansions indexed by token id; specials expand to nothing
        exp: list[list[int]] = [[] for _ in range(N_SPECIALS)]
        exp.extend([u] for u in self.alphabet)
        for rank, (left, right) in enumerate(self.merges):
            new_id = N_SPECIALS + len(self.alphabet) + rank
            if not (N_SPECIALS <= left < new_id and N_SPECIALS <= right < new_id):
                raise ValidationError(
                    f"merge {rank} references token ids ({left},{right}) not yet defined",
                    field="merges",
                )
            exp.append(exp[left] + exp[right])
        self._expansions = exp
        self._merge_rank = {pair: r for r, pair in enumerate(self.merges)}

    @property
    def vocab_size(self) -> int:
        return N_SPECIALS + len(self.alphabet) + len(self.merges)

    def token_for_unit(self, unit: int) -> int:
        return self._unit_to_token.get(unit, UNK)

    def expansion(self, token: int) -> list[int]:
        if not 0 <= token < self.vocab_size:
            raise ValidationError(f"unknown token id {token}", field="tokens")
        if token == UNK:
            return [-1]
        return list(self._expansions[token])


def _merge_once(seq: list[int], pair: tuple[int, int], new_id: int) -> list[int]:
    """Replace occurrences of `pair` left to right, skipping overlaps."""
    out = []
    i = 0
    n = len(seq)
    while i < n:
        if i + 1 < n and seq[i] == pair[0] and seq[i + 1] == pair[1]:
            out.append(new_id)
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return out


def _pair_counts(seq: list[int]) -> dict[tuple[int, int], int]:
    # overlapping occurrences each count: "x x x" holds (x,x) twice
    counts: dict[tuple[int, int], int] = {}
    for p in zip(seq, seq[1:]):
        counts[p] = counts.get(p, 0) + 1
    return counts


def train_bpe(units: list[UnitSequence], vocab_size: int) -> BpeModel:
    """Greedy highest-frequency adjacent-pair merging, never across utterances.

    Stops when vocab_size is reached or no pair occurs at least twice.
    Frequency ties break to the lexicographically smallest (left, right) pair.
    """
    if not units:
        raise ValidationError("cannot train on an empty unit corpus", field="units")
    alphabet = sorted({u for seq in units for u in seq.units})
    if vocab_size < N_SPECIALS + len(alphabet):
        raise ValidationError(
            f"vocab_size {vocab_size} below alphabet ({len(alphabet)}) + {N_SPECIALS} specials",
            field="vocab_size",
        )
    model = BpeModel(alphabet=alphabet, merges=[])
    seqs = [[model.token_for_unit(u) for u in seq.units] for seq in units]

    # each sequence's own pair counts, kept from merge to merge: a merge
    # counts a touched sequence's pairs once, after merging, and applies the
    # difference from the kept counts
    held = [_pair_counts(s) for s in seqs]
    counts: dict[tuple[int, int], int] = {}
    where: dict[tuple[int, int], set[int]] = defaultdict(set)
    for idx, own in enumerate(held):
        for p, c in own.items():
            counts[p] = counts.get(p, 0) + c
            where[p].add(idx)

    # max-count pair first, ties to the smallest pair; an entry whose count is
    # not the pair's current count is stale and skipped when it surfaces
    heap = [(-c, p) for p, c in counts.items()]
    heapq.heapify(heap)

    merges: list[tuple[int, int]] = []
    next_id = N_SPECIALS + len(alphabet)
    while next_id < vocab_size and counts:
        neg, best_pair = heapq.heappop(heap)
        while counts.get(best_pair) != -neg:
            neg, best_pair = heapq.heappop(heap)
        if -neg < 2:
            break
        merges.append(best_pair)
        # net count change per pair; only a pair whose count moved gets a new
        # heap entry
        delta: dict[tuple[int, int], int] = {}
        for idx in list(where[best_pair]):
            seqs[idx] = _merge_once(seqs[idx], best_pair, next_id)
            before, after = held[idx], _pair_counts(seqs[idx])
            held[idx] = after
            for p, c in after.items():
                d = c - before.pop(p, 0)
                if d:
                    delta[p] = delta.get(p, 0) + d
                    if d == c:  # new to this sequence
                        where[p].add(idx)
            # what is left of before is gone from the sequence
            for p, c in before.items():
                delta[p] = delta.get(p, 0) - c
                where[p].discard(idx)
        for p, d in delta.items():
            if d:
                c = counts.get(p, 0) + d
                if c > 0:
                    counts[p] = c
                    heapq.heappush(heap, (-c, p))
                else:
                    del counts[p]
        next_id += 1

    return BpeModel(alphabet=alphabet, merges=merges)


def encode(units: UnitSequence, model: BpeModel) -> TokenSequence:
    """Apply merges in training order and wrap with CLS/SEP."""
    seq = [model.token_for_unit(u) for u in units.units]
    rank = model._merge_rank
    base = N_SPECIALS + len(model.alphabet)
    # merging the lowest-rank pair present reproduces replay in training
    # order: a merge can only create pairs involving its (newer) output token
    while len(seq) > 1:
        best_rank, best_pair = None, None
        for p in zip(seq, seq[1:]):
            r = rank.get(p)
            if r is not None and (best_rank is None or r < best_rank):
                best_rank, best_pair = r, p
        if best_pair is None:
            break
        seq = _merge_once(seq, best_pair, base + best_rank)
    return TokenSequence(tokens=[CLS] + seq + [SEP], source_id=units.source_id)


def decode(tokens: TokenSequence, model: BpeModel) -> list[int]:
    """Expand tokens back to unit ids; specials drop, UNK becomes -1."""
    out: list[int] = []
    for t in tokens.tokens:
        out.extend(model.expansion(t))
    if not out:
        raise ValidationError("token sequence expands to no units", field="tokens")
    return out


def wrap_units(units, alphabet_size: int) -> TokenSequence:
    """Treat raw unit ids as the token alphabet: CLS + (unit + specials) + SEP.

    The matching decoder vocabulary is alphabet_size + N_SPECIALS.
    """
    arr = [int(u) for u in (units.units if isinstance(units, UnitSequence) else units)]
    if not arr:
        raise ValidationError("cannot wrap an empty unit sequence", field="units")
    for u in arr:
        if not 0 <= u < alphabet_size:
            raise ValidationError(
                f"unit id {u} outside alphabet of size {alphabet_size}", field="units"
            )
    return TokenSequence([CLS] + [u + N_SPECIALS for u in arr] + [SEP])


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def save_bpe_model(model: BpeModel, path: str | Path) -> None:
    doc = {
        "alphabet": model.alphabet,
        "merges": [list(p) for p in model.merges],
        "specials": SPECIALS,
    }
    write_text(path, json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def load_bpe_model(path: str | Path) -> BpeModel:
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as e:
        raise FileFormatError(f"model file {path} is not valid JSON: {e}") from e
    if type(doc) is not dict:
        raise FileFormatError(f"model file {path} is not a JSON object")
    for key in ("alphabet", "merges", "specials"):
        if key not in doc:
            raise FileFormatError(f"model file {path} missing key {key!r}")
    if doc["specials"] != SPECIALS:
        raise FileFormatError(f"unexpected special-token layout {doc['specials']!r}")
    try:
        return BpeModel(
            alphabet=[int(u) for u in doc["alphabet"]],
            merges=[(int(left), int(right)) for left, right in doc["merges"]],
        )
    except (TypeError, ValueError, OverflowError) as e:
        raise FileFormatError(f"malformed model file {path}: {e}") from e


def save_token_corpus(seqs: list[TokenSequence], path: str | Path) -> None:
    """Same TSV line format as the unit corpus."""
    write_id_ints(path, ((seq.source_id, seq.tokens) for seq in seqs))


def load_token_corpus(path: str | Path) -> list[TokenSequence]:
    return read_id_ints(path, TokenSequence)
