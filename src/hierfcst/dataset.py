"""Pre-order demand data: CSV ingestion, validation, caching, synthesis.

A record (item, delivery_period t, lead_time h, quantity) holds the total
volume ordered h periods ahead of delivery period t.  The cube of all
records for an item is the raw input of every downstream stage.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import zipfile
import zlib
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import DomainError, DuplicateKeyError, HierfcstError, ParseError

CSV_HEADER = ("item_id", "delivery_period", "lead_time", "quantity")

# Lead-time slots kept by default; pre-orders further out carry little
# signal for next-period demand and the reference layout uses 3-4 columns.
DEFAULT_MAX_LEAD = 4

CACHE_VERSION = 1

# Bytes of records that load_csv splits, converts and checks at a time: a
# block's arrays are the parse's only per-record temporaries.
_BLOCK_BYTES = 1 << 20


@dataclass
class PreorderTensor:
    """Dense item x period x lead cube with an observed-entry mask.

    ``values[i, t, h]`` is the quantity ordered h periods ahead for
    delivery by end of period t.  Missing records are stored as 0 with
    ``observed_mask`` False, so factorization can treat them as unobserved
    while regressors read them as zero orders.  Instances are immutable by
    convention: no method mutates ``values`` after construction.
    """

    items: list[str]
    values: np.ndarray        # (n_items, T, H)
    observed_mask: np.ndarray  # same shape, bool

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.observed_mask = np.asarray(self.observed_mask, dtype=bool)
        if self.values.shape != self.observed_mask.shape:
            raise HierfcstError("values and observed_mask shapes differ")
        if self.values.ndim != 3 or self.values.shape[0] != len(self.items):
            raise HierfcstError(f"expected (n_items, T, H) cube, got {self.values.shape}")
        if np.any(self.values < 0) or not np.all(np.isfinite(self.values)):
            raise DomainError("quantities must be finite and >= 0")

    @property
    def n_items(self) -> int:
        return len(self.items)

    @property
    def n_periods(self) -> int:
        return self.values.shape[1]

    @property
    def n_leads(self) -> int:
        return self.values.shape[2]

    def gross_series(self, item: int) -> np.ndarray:
        """Total demand series q^0 for one item (the primary target)."""
        return self.values[item, :, 0]

    def zero_fraction(self) -> float:
        return float(np.mean(self.values == 0))


def is_known_at(tensor: PreorderTensor, item: int, t: int, h: int, now: int) -> bool:
    """True iff cell (item, t, h) is available by the end of period ``now``.

    An h-period-ahead pre-order for delivery period t accumulates by the
    end of period t - h, so the cell is known exactly when t - h <= now.
    """
    if not 0 <= item < tensor.n_items:
        raise IndexError(f"item index {item} out of range")
    if not 0 <= t < tensor.n_periods:
        raise IndexError(f"period {t} out of range")
    if not 0 <= h < tensor.n_leads:
        raise IndexError(f"lead {h} out of range")
    return t - h <= now


def _line_blocks(data, start):
    """The records of data[start:], text with one record per line ended by
    b"\\n", in blocks of whole lines of at least _BLOCK_BYTES bytes (the
    last may hold fewer): (line numbers, field counts, the block's bytes,
    and the start and end offsets of its fields in them) per block.
    data[start:] starts at line 2, after at least _WIDTH bytes of header; a
    block's bytes are a read-only view of data from _WIDTH bytes before its
    first record on."""
    raw = np.frombuffer(data, dtype=np.uint8)
    line = 2
    while start < len(data):
        # Past the first line end from _BLOCK_BYTES - 1 bytes on, if any.
        stop = data.find(b"\n", start + _BLOCK_BYTES - 1) + 1 or len(data)
        buf = raw[start:stop]
        # ',' and '\n' are single bytes in UTF-8, so bytes find them.
        ends = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
        line_ends = np.flatnonzero(buf[ends] == ord("\n"))
        counts = np.diff(line_ends, prepend=-1)
        if buf[-1] != ord("\n"):       # the last line has no terminator
            counts = np.append(counts, ends.size - (line_ends[-1] if line_ends.size else -1))
            ends = np.append(ends, buf.size)
        ends += _WIDTH
        starts = np.concatenate(([_WIDTH], ends[:-1] + 1))
        yield np.arange(line, line + counts.size), counts, raw[start - _WIDTH:stop], starts, ends
        line += counts.size
        start = stop


def _reader_blocks(reader):
    """The records csv.reader yields, in blocks closed once their fields
    hold _BLOCK_BYTES characters, as _line_blocks gives them: the fields
    UTF-8 encoded one after the other, after _WIDTH zero bytes and before
    one more (so that even an empty last field has a first byte).  A
    reader error is raised after the block of the records before it."""
    while True:
        rows, line_no, size, error = [], [], 0, None
        try:
            for row in reader:
                rows.append(row)
                line_no.append(reader.line_num)
                size += sum(map(len, row))
                if size >= _BLOCK_BYTES:
                    break
        except csv.Error as exc:
            error = exc
        if rows:
            fields = [field.encode() for field in chain.from_iterable(rows)]
            lengths = np.fromiter(map(len, fields), int, len(fields))
            ends = _WIDTH + np.cumsum(lengths)
            yield (np.array(line_no), np.array([len(row) for row in rows], dtype=int),
                   np.frombuffer(b"".join([bytes(_WIDTH), *fields, b"\0"]), dtype=np.uint8),
                   ends - lengths, ends)
        if error is not None:
            raise error
        if size < _BLOCK_BYTES:
            return


def _records(path):
    """The header's fields of the CSV file at path and an iterator over its
    later records in blocks, split as csv.reader splits them.

    Text without quotes or NULs holds one record per physical line (ended
    by \\n, \\r or \\r\\n), split by _line_blocks; other text goes through
    csv.reader.  The file is read as bytes, and invalid UTF-8 fails here,
    as reading it as text would."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data:
        raise ParseError("empty file", line_number=1)
    if not data.isascii():
        data.decode("utf-8")        # raises on invalid UTF-8
    if b'"' in data or b"\0" in data:
        reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))
        return next(reader, []), _reader_blocks(reader)
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    cut = data.find(b"\n")
    if cut < 0:
        return data.decode("utf-8").split(","), iter(())
    return data[:cut].decode("utf-8").split(","), _line_blocks(data, cut + 1)


# A field is read from the _WIDTH bytes up to its end, as three
# little-endian words: a block's bytes hold at least _WIDTH bytes before
# its first field.
_WIDTH = 24
_BYTES = 0x0101010101010101         # a byte value times this is in every byte
# _MASKS[n] keeps the last n bytes of a window.
_MASKS = ((np.arange(_WIDTH) >= _WIDTH - np.arange(_WIDTH + 1)[:, None])
          .astype(np.uint8) * np.uint8(255)).view(f"V{_WIDTH}").ravel()
_TENS = np.uint64(10) ** np.arange(20, dtype=np.uint64)
# long double division is correctly rounded to a significand of at least 64
# bits: x87 extended (63 stored bits) or IEEE quad (112).  A double-double
# long double (105) is not, nor is one that is float64.
_LONG_QUOTIENT = np.finfo(np.longdouble).nmant in (63, 112)
_POWERS = _TENS[:19].astype(np.longdouble)


def _text(buf, start, end):
    return buf[start:end].tobytes().decode("utf-8")


def _field_words(buf, starts, ends):
    """The _WIDTH bytes of buf up to each end as (n, 3) little-endian words,
    with the bytes before the field zeroed; and the mask that zeroed them."""
    windows = np.ndarray((buf.size - _WIDTH + 1,), f"V{_WIDTH}", buf, strides=(1,))
    words = windows[ends - _WIDTH].view("<u8").reshape(-1, 3)
    mask = _MASKS[np.minimum(ends - starts, _WIDTH)].view("<u8").reshape(-1, 3)
    words &= mask
    return words, mask


def _digits(buf, starts, ends):
    """The number each field buf[start:end] spells if it is at most _WIDTH
    ASCII digits (uint64; exact up to 19 digits), and which fields are."""
    lengths = ends - starts
    words, mask = _field_words(buf, starts, ends)
    words ^= mask & 0x30 * _BYTES
    # A byte is now a digit iff it is at most 9: adding 0x76 to its low
    # seven bits sets the high bit of the others.
    high = (((words & 0x7F * _BYTES) + 0x76 * _BYTES) | words) & 0x80 * _BYTES
    digits = (lengths <= _WIDTH) & ((high[:, 0] | high[:, 1] | high[:, 2]) == 0)
    # Eight digits a word: pairs, then fours, then the eight (Lemire 2021).
    words = (words * 2561) >> 8
    words = ((words & 0x00FF00FF00FF00FF) * 6553601) >> 16
    words = ((words & 0x0000FFFF0000FFFF) * 42949672960001) >> 32
    return (words[:, 0] * 10 ** 8 + words[:, 1]) * 10 ** 8 + words[:, 2], digits


def _integers(buf, starts, ends):
    """Fields of 1-18 ASCII digits as int64, and which fields those are."""
    value, digits = _digits(buf, starts, ends)
    lengths = ends - starts
    return value.astype(np.int64), digits & (lengths >= 1) & (lengths <= 18)


def _quantities(buf, starts, ends):
    """Fields digits[.digits] of at most 19 bytes as float64, and which
    fields those are.

    Such a field is m / 10**k with m < 10**19 < 2**64, so the long double
    quotient is m / 10**k correctly rounded to a 64-bit significand.  Its
    float64 cast then equals float(field), the correctly rounded value,
    unless the quotient is a float64 midpoint, where the second rounding
    may go the wrong way; those fields are left out."""
    if not _LONG_QUOTIENT:
        return np.zeros(ends.size), np.zeros(ends.size, dtype=bool)
    dots = np.append(np.flatnonzero(buf == ord(".")), [buf.size, buf.size])
    first = np.searchsorted(dots, starts)       # each field's first '.', if any
    point = np.minimum(dots[first], ends)
    count = (point < ends).astype(int) + (dots[first + 1] < ends)      # 2: two or more
    after = np.minimum(point + 1, ends)
    whole, whole_digits = _digits(buf, starts, point)
    part, part_digits = _digits(buf, after, ends)
    scale = np.minimum(ends - after, 18)
    lengths = ends - starts
    exact = (whole_digits & part_digits & (count <= 1) & (lengths > count)
             & (lengths <= 19))
    quotient = (whole * _TENS[scale] + part).astype(np.longdouble) / _POWERS[scale]
    values = quotient.astype(float)
    # Only the float64 neighbour on the quotient's side can bound a
    # midpoint equal to it.
    toward = np.where(quotient > values, np.inf, -np.inf)
    exact &= quotient != (values + np.nextafter(values, toward).astype(np.longdouble)) / 2
    return values, exact


def _column(buf, starts, ends, convert):
    """The fields buf[starts[k]:ends[k]] converted by convert (int or float)
    to an int64 or float64 array, and {position: message} of the fields
    that convert rejects or that overflow int64 (those are 0 in the
    array).  buf holds at least _WIDTH bytes before the first field.  The
    fields of plain digits are converted as arrays; the others go through
    convert one by one."""
    values, exact = (_integers if convert is int else _quantities)(buf, starts, ends)
    values[~exact] = 0
    bad = {}
    for k in np.flatnonzero(~exact).tolist():
        try:
            values[k] = convert(_text(buf, starts[k], ends[k]))
        except (ValueError, OverflowError) as exc:
            bad[k] = str(exc)
    return values, bad


def _visible(byte):
    return (byte > ord(" ")) & (byte < 127)


def _same_as_previous(buf, starts, ends):
    """For each field after the first: whether its bytes equal those of the
    field before it.  Fields over _WIDTH bytes never do."""
    lengths = ends - starts
    words, _ = _field_words(buf, starts, ends)
    differ = words[1:] ^ words[:-1]
    return (((differ[:, 0] | differ[:, 1] | differ[:, 2]) == 0)
            & (lengths[1:] == lengths[:-1]) & (lengths[1:] <= _WIDTH))


def _check_block(line_no, counts, buf, starts, ends, index, max_lead):
    """One block of records (as _records gives them), checked: the kept
    records as arrays (item codes, t, h, q, line numbers), and (line, error)
    of the first record that fails each check.  Names of kept items that
    index lacks get the next codes in it."""
    blank = counts == 0
    single = np.flatnonzero(counts == 1)
    first = np.cumsum(counts) - counts
    blank[single] = [not _text(buf, starts[k], ends[k]).strip()
                     for k in first[single].tolist()]
    good = counts == 4
    errors = []
    wrong = np.flatnonzero(~good & ~blank)
    if wrong.size:
        line = int(line_no[wrong[0]])
        errors.append((line, ParseError(f"expected 4 fields, got {counts[wrong[0]]}",
                                        line_number=line)))
    lines = line_no[good]
    first = first[good]
    fields = [(starts[first + c], ends[first + c]) for c in range(4)]
    # An item whose first and last bytes are visible ASCII is its own
    # stripped name; others are stripped here.
    s, e = fields[0]
    plain = (e > s) & _visible(buf[s]) & _visible(buf[e - 1])
    stripped = {k: _text(buf, s[k], e[k]).strip() for k in np.flatnonzero(~plain).tolist()}
    t, t_bad = _column(buf, *fields[1], int)
    h, h_bad = _column(buf, *fields[2], int)
    q, q_bad = _column(buf, *fields[3], float)

    def flagged(bad):
        mask = np.zeros(len(lines), dtype=bool)
        mask[list(bad)] = True
        return mask

    # Every check a record goes through, in order: (failing records, error).
    checks = [
        (flagged(k for k, name in stripped.items() if not name),
         lambda k, line: ParseError("empty item_id", line_number=line)),
        (flagged(t_bad), lambda k, line: ParseError(t_bad[k], line_number=line)),
        (flagged(h_bad), lambda k, line: ParseError(h_bad[k], line_number=line)),
        (flagged(q_bad), lambda k, line: ParseError(q_bad[k], line_number=line)),
        (t < 0, lambda k, line: ParseError(f"delivery_period must be >= 0, got {t[k]}",
                                           line_number=line)),
        (h < 0, lambda k, line: ParseError(f"lead_time must be >= 0, got {h[k]}",
                                           line_number=line)),
        (~np.isfinite(q) | (q < 0), lambda k, line: DomainError(
            f"line {line}: quantity must be finite and >= 0, got {q[k]}")),
    ]
    for mask, make in checks:
        if mask.any():
            k = int(np.argmax(mask))
            errors.append((int(lines[k]), make(k, int(lines[k]))))
    kept = ~np.logical_or.reduce([mask for mask, _ in checks]) & (h < max_lead)
    # A kept record whose plain item repeats the one before it takes its
    # code; the others are named and coded through index.
    kept = np.flatnonzero(kept)
    named = np.ones(kept.size, dtype=bool)
    named[1:] = ~(_same_as_previous(buf, s[kept], e[kept])
                  & plain[kept[1:]] & plain[kept[:-1]])
    names = [stripped[k] if k in stripped else _text(buf, s[k], e[k])
             for k in kept[named].tolist()]
    codes = np.fromiter((index.setdefault(name, len(index)) for name in names),
                        int, len(names))
    return (codes[np.cumsum(named) - 1], t[kept], h[kept], q[kept], lines[kept]), errors


def load_csv(path, missing_as_zero: bool = True,
             max_lead: int = DEFAULT_MAX_LEAD) -> PreorderTensor:
    """Load a pre-order CSV into a dense tensor.

    The file must be UTF-8 with header ``item_id,delivery_period,lead_time,
    quantity`` and one record per line.  Dimensions are inferred from the
    data maxima.  Records with lead_time >= max_lead are dropped (the
    default cap keeps the 4 actionable lead columns; pass a larger
    ``max_lead`` to keep more).

    With ``missing_as_zero`` (default) absent (item, t, h) combinations
    load as quantity 0 with observed_mask False.  With it off, any absent
    combination inside the grid is an error, which is useful as a
    completeness check on export pipelines.

    The records are parsed block by block, each about _BLOCK_BYTES of text
    ending at a line end: each block's fields are bounds in its bytes (the
    file's own bytes when no field is quoted), converted column by column as
    arrays (only fields that are not plain digits, or items that need a
    strip, go through int(), float() or str.strip() one by one) and
    checked, and only its kept records' item codes, periods, leads,
    quantities and line numbers outlive it.  So beyond the file's bytes,
    memory holds one block's arrays plus about 40 bytes per record.
    Values and messages are those of int() and float() field by field.
    Repeated keys are found by one
    sort of encoded keys at the end.  The first malformed record in file
    order raises its ParseError, DomainError or DuplicateKeyError with its
    line number; a period or lead beyond int64 is a ParseError.
    """
    header, blocks = _records(path)
    if [c.strip() for c in header] != list(CSV_HEADER):
        raise ParseError(
            f"expected header {','.join(CSV_HEADER)!r}, got {','.join(header)!r}",
            line_number=1)

    index = {}      # item name -> code, in order of first appearance
    # Item codes, t, h, q and line numbers of the kept records, by block.
    columns = [[np.zeros(0, dtype)] for dtype in (int, np.int64, np.int64, float, int)]
    errors, reader_error = [], None
    try:
        for block in blocks:
            arrays, errors = _check_block(*block, index, max_lead)
            for column, array in zip(columns, arrays):
                column.append(array)
            if errors:
                break       # a later record cannot fail first
    except csv.Error as exc:
        reader_error = exc
    blocks = block = None       # and with them the file's bytes
    for k, column in enumerate(columns):
        columns[k] = np.concatenate(column)
    codes, t, h, q, lines = columns
    names = sorted(index)
    rank = dict(zip(names, range(len(names))))
    codes = np.array([rank[name] for name in index], dtype=int)[codes]

    T = 1 + int(t.max(initial=-1))
    H = 1 + int(h.max(initial=-1))
    fits = len(names) * T * H < 2 ** 63     # else no tensor could hold the cells
    if fits:
        # A repeated (item, period, lead) key fails on its second record.
        _, firsts = np.unique((codes * T + t) * H + h, return_index=True)
        repeated = np.ones(codes.size, dtype=bool)
        repeated[firsts] = False
        if repeated.any():
            k = int(np.argmax(repeated))
            errors.append((int(lines[k]), DuplicateKeyError(
                f"line {lines[k]}: duplicate record for item={names[codes[k]]!r}, "
                f"delivery_period={t[k]}, lead_time={h[k]}")))
    if errors:
        # The first failing record; on one record, its first failed check.
        raise min(errors, key=lambda e: e[0])[1]
    if reader_error is not None:
        raise reader_error
    if not fits:
        raise HierfcstError(f"{len(names)} items x {T} periods x {H} leads "
                            "do not fit in one tensor")
    if not codes.size:
        raise ParseError("no data rows", line_number=1)

    values = np.zeros((len(names), T, H))
    mask = np.zeros((len(names), T, H), dtype=bool)
    values[codes, t, h] = q
    mask[codes, t, h] = True

    if not missing_as_zero and not mask.all():
        n_missing = int(mask.size - mask.sum())
        raise HierfcstError(
            f"{n_missing} grid cells have no record and missing_as_zero is off")

    return PreorderTensor(items=names, values=values, observed_mask=mask)


def save_csv(tensor: PreorderTensor, path) -> None:
    """Write observed cells back out in the load_csv schema.

    Quantities are printed with repr precision, so load(save(tensor))
    reproduces the tensor exactly as long as the boundary cells are
    observed (dimensions are re-inferred from data maxima on load).
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for i, item in enumerate(tensor.items):
            ts, hs = np.nonzero(tensor.observed_mask[i])
            for t, h in zip(ts.tolist(), hs.tolist()):
                writer.writerow([item, t, h, repr(float(tensor.values[i, t, h]))])


@contextlib.contextmanager
def _atomic_file(path):
    """A binary file handle whose content lands at exactly ``path`` when the
    block exits normally: it writes ``<path>.tmp`` and renames it over
    ``path``.  On an error the earlier file at ``path`` stays as it was and
    the ``.tmp`` file is removed."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def _write_npz(path, **arrays) -> None:
    """Write arrays as an npz file of stored (not deflated) members, atomically
    at exactly ``path`` (no ``.npz`` is appended)."""
    with _atomic_file(path) as fh:
        np.savez(fh, **arrays)


def _read_npz(path, kind: str, version: int, members) -> dict:
    """Every array of the npz cache at ``path``, checked to hold ``members``
    and to be a ``kind`` cache of ``version``.  Stored and deflated members
    load alike.  A file that cannot be read as such a cache raises
    HierfcstError naming the path."""
    # The except clause lists what reading raises on a missing file, a
    # damaged archive or a member np.load refuses.
    try:
        with open(path, "rb") as fh:
            if not zipfile.is_zipfile(fh):
                raise ValueError("not an npz archive")
            fh.seek(0)
            with np.load(fh, allow_pickle=False) as data:
                arrays = {name: data[name] for name in data.files}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile, zlib.error) as exc:
        raise HierfcstError(f"cannot read cache {path}: {exc}") from exc
    found = arrays.get("cache_version")
    if found is None or found.shape != () or found.item() != version:
        raise HierfcstError(f"unsupported or missing cache version in {path}")
    if str(arrays.get("kind")) != kind:
        raise HierfcstError(f"{path} is not a {kind} cache")
    missing = sorted(set(members) - set(arrays))
    if missing:
        raise HierfcstError(f"{kind} cache {path} lacks {missing}")
    return arrays


def save_cache(tensor: PreorderTensor, path) -> None:
    """Binary tensor cache (versioned npz container) at exactly ``path``."""
    _write_npz(
        path,
        cache_version=np.array(CACHE_VERSION),
        kind=np.array("preorder_tensor"),
        items=np.array(tensor.items, dtype=str),
        values=tensor.values,
        observed_mask=tensor.observed_mask,
    )


def load_cache(path) -> PreorderTensor:
    data = _read_npz(path, "preorder_tensor", CACHE_VERSION,
                     ("items", "values", "observed_mask"))
    return PreorderTensor(
        items=[str(s) for s in data["items"]],
        values=data["values"],
        observed_mask=data["observed_mask"],
    )


REGIMES = ("smooth", "sparse-spiky", "anticipatory")


def synthesize(seed: int, n_items: int, T: int, H: int = DEFAULT_MAX_LEAD,
               regime: str = "smooth") -> PreorderTensor:
    """Generate a deterministic synthetic pre-order tensor.

    Regimes:
      smooth        -- positive level + trend + seasonality, fully observed.
      sparse-spiky  -- heavy-tailed spikes on a mostly-zero cube; at least
                       half the cells are zero orders and zeros are left
                       unobserved, mimicking sporadically requested items.
      anticipatory  -- an i.i.d. positive driver shared by all lead columns,
                       so one-period-ahead pre-orders all but determine the
                       next period's gross demand (corr(q^0, q^1) >= 0.9 by
                       construction) while the gross series itself has no
                       usable autocorrelation.
    """
    if n_items < 1 or T < 1 or H < 1:
        raise HierfcstError("n_items, T and H must all be >= 1")
    if regime not in REGIMES:
        raise HierfcstError(f"unknown regime {regime!r}; expected one of {REGIMES}")

    rng = np.random.default_rng(seed)
    items = [f"item{idx:04d}" for idx in range(n_items)]
    values = np.zeros((n_items, T, H))
    mask = np.ones((n_items, T, H), dtype=bool)
    t_axis = np.arange(T)

    if regime == "smooth":
        for i in range(n_items):
            base = rng.uniform(20.0, 120.0)
            slope = rng.uniform(-0.3, 0.6)
            amp = rng.uniform(0.05, 0.3)
            phase = rng.uniform(0, 2 * np.pi)
            level = base + slope * t_axis + base * amp * np.sin(2 * np.pi * t_axis / 12 + phase)
            level = np.maximum(level, 0.5)
            for h in range(H):
                noise = 1.0 + 0.02 * rng.standard_normal(T)
                values[i, :, h] = np.maximum(level * 0.9 ** h * noise, 0.0)

    elif regime == "sparse-spiky":
        # Exactly 35% of cells carry an order, so the zero fraction is a
        # guaranteed 65% regardless of dimensions.
        n_cells = n_items * T * H
        n_nonzero = max(1, int(0.35 * n_cells))
        flat = rng.choice(n_cells, size=n_nonzero, replace=False)
        magnitudes = np.exp(rng.normal(2.0, 1.2, size=n_nonzero)) + 1.0
        values.reshape(-1)[flat] = magnitudes
        mask = values > 0

    else:  # anticipatory
        for i in range(n_items):
            base = rng.uniform(30.0, 150.0)
            driver = base * np.exp(0.5 * rng.standard_normal(T))
            fade = np.maximum(1.0 - 0.2 * np.maximum(np.arange(H) - 1, 0), 0.2)
            for h in range(H):
                noise = 1.0 + 0.03 * rng.standard_normal(T)
                values[i, :, h] = np.maximum(driver * fade[h] * noise, 0.0)

    return PreorderTensor(items=items, values=values, observed_mask=mask)
