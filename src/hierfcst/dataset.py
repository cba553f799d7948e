"""Pre-order demand data: CSV ingestion, validation, caching, synthesis.

A record (item, delivery_period t, lead_time h, quantity) holds the total
volume ordered h periods ahead of delivery period t.  The cube of all
records for an item is the raw input of every downstream stage.
"""

from __future__ import annotations

import contextlib
import csv
import io
import operator
import os
import zipfile
import zlib
from dataclasses import dataclass, field
from itertools import chain, compress

import numpy as np

from .errors import DomainError, DuplicateKeyError, HierfcstError, ParseError

CSV_HEADER = ("item_id", "delivery_period", "lead_time", "quantity")

# Lead-time slots kept by default; pre-orders further out carry little
# signal for next-period demand and the reference layout uses 3-4 columns.
DEFAULT_MAX_LEAD = 4

CACHE_VERSION = 1


@dataclass(frozen=True)
class PreorderRecord:
    """One (item, delivery period, lead time) -> quantity observation."""

    item_id: str
    delivery_period: int
    lead_time: int
    quantity: float

    def __post_init__(self):
        if self.delivery_period < 0:
            raise DomainError(f"delivery_period must be >= 0, got {self.delivery_period}")
        if self.lead_time < 0:
            raise DomainError(f"lead_time must be >= 0, got {self.lead_time}")
        if self.quantity < 0:
            raise DomainError(f"quantity must be >= 0, got {self.quantity}")


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
    _index: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.observed_mask = np.asarray(self.observed_mask, dtype=bool)
        if self.values.shape != self.observed_mask.shape:
            raise HierfcstError("values and observed_mask shapes differ")
        if self.values.ndim != 3 or self.values.shape[0] != len(self.items):
            raise HierfcstError(f"expected (n_items, T, H) cube, got {self.values.shape}")
        if np.any(self.values < 0) or not np.all(np.isfinite(self.values)):
            raise DomainError("quantities must be finite and >= 0")
        self._index = {item: i for i, item in enumerate(self.items)}

    @property
    def n_items(self) -> int:
        return len(self.items)

    @property
    def n_periods(self) -> int:
        return self.values.shape[1]

    @property
    def n_leads(self) -> int:
        return self.values.shape[2]

    def item_index(self, item_id: str) -> int:
        try:
            return self._index[item_id]
        except KeyError:
            raise KeyError(f"unknown item_id {item_id!r}") from None

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


def _records(text):
    """Split CSV text as csv.reader does: the header's fields, then the line
    number, field count and fields (one flat list) of every later record.

    Text without quotes or NULs holds one record per physical line (ended
    by \n, \r or \r\n): its fields come from one str.split, and each
    line's field count from the commas between its line ends.  Other text
    goes through csv.reader.  A reader error is returned, not raised, so
    that errors in the records before it are reported first.
    """
    if not text:
        raise ParseError("empty file", line_number=1)
    if '"' not in text and "\0" not in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
        # ',' and '\n' are single bytes in UTF-8, so bytes count them.
        raw = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
        ends = np.flatnonzero(raw == ord("\n"))
        commas = np.flatnonzero(raw == ord(","))
        del raw
        counts = np.diff(np.searchsorted(commas, ends), prepend=0, append=commas.size) + 1
        flat = text.replace("\n", ",").split(",")
        if text.endswith("\n"):
            counts = counts[:-1]        # the terminator of the last line
            flat.pop()
        header = flat[:counts[0]]
        del flat[:counts[0]]
        return header, np.arange(2, counts.size + 1), counts[1:], flat, None
    reader = csv.reader(io.StringIO(text, newline=""))
    rows, line_no, error = [], [], None
    try:
        for row in reader:
            rows.append(row)
            line_no.append(reader.line_num)
    except csv.Error as exc:
        error = exc
    if not rows:
        raise error
    counts = np.array([len(row) for row in rows[1:]], dtype=int)
    return (rows[0], np.array(line_no[1:], dtype=int), counts,
            list(chain.from_iterable(rows[1:])), error)


def _column(col, dtype, convert):
    """col as a dtype array, and {position: message} of the entries that
    convert rejects or that overflow dtype (those are 0 in the array)."""
    try:
        return np.array(col, dtype=dtype), {}
    except (ValueError, OverflowError):
        pass
    out = np.zeros(len(col), dtype=dtype)
    bad = {}
    for k, text in enumerate(col):
        try:
            out[k] = convert(text)
        except (ValueError, OverflowError) as exc:
            bad[k] = str(exc)
    return out, bad


def load_csv(path, missing_as_zero: bool = True, max_lead: int = DEFAULT_MAX_LEAD,
             periods: int | None = None, leads: int | None = None) -> PreorderTensor:
    """Load a pre-order CSV into a dense tensor.

    The file must be UTF-8 with header ``item_id,delivery_period,lead_time,
    quantity`` and one record per line.  Dimensions are inferred from the
    data maxima unless ``periods``/``leads`` pin them explicitly.  Records
    with lead_time >= max_lead are dropped (the default cap keeps the 4
    actionable lead columns; pass a larger ``max_lead`` to keep more).

    With ``missing_as_zero`` (default) absent (item, t, h) combinations
    load as quantity 0 with observed_mask False.  With it off, any absent
    combination inside the grid is an error, which is useful as a
    completeness check on export pipelines.

    The records are parsed column by column (one split, numpy conversions,
    one sort of encoded keys for duplicates).  The first malformed record
    in file order raises its ParseError, DomainError or DuplicateKeyError
    with its line number; a period or lead beyond int64 is a ParseError.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        header, line_no, counts, flat, reader_error = _records(fh.read())
    if [c.strip() for c in header] != list(CSV_HEADER):
        raise ParseError(
            f"expected header {','.join(CSV_HEADER)!r}, got {','.join(header)!r}",
            line_number=1)

    starts = np.cumsum(counts) - counts
    blank = counts == 0
    single = np.flatnonzero(counts == 1)
    blank[single] = [not flat[k].strip() for k in starts[single].tolist()]
    good = counts == 4
    if good.all():
        cols = [flat[c::4] for c in range(4)]
    else:
        fields = np.array(flat, dtype=object)
        cols = [fields[starts[good] + c].tolist() for c in range(4)]
    lines = line_no[good]
    item = list(map(str.strip, cols[0]))
    t, t_bad = _column(cols[1], np.int64, int)
    h, h_bad = _column(cols[2], np.int64, int)
    q, q_bad = _column(cols[3], float, float)

    def flagged(bad):
        mask = np.zeros(len(lines), dtype=bool)
        mask[list(bad)] = True
        return mask

    def at(k):
        return int(lines[k])

    # Every check a record goes through, in order: (failing records, error).
    checks = [
        (np.fromiter(map(operator.not_, item), bool, len(item)),
         lambda k: ParseError("empty item_id", line_number=at(k))),
        (flagged(t_bad), lambda k: ParseError(t_bad[k], line_number=at(k))),
        (flagged(h_bad), lambda k: ParseError(h_bad[k], line_number=at(k))),
        (flagged(q_bad), lambda k: ParseError(q_bad[k], line_number=at(k))),
        (t < 0, lambda k: ParseError(f"delivery_period must be >= 0, got {t[k]}",
                                     line_number=at(k))),
        (h < 0, lambda k: ParseError(f"lead_time must be >= 0, got {h[k]}",
                                     line_number=at(k))),
        (~np.isfinite(q) | (q < 0), lambda k: DomainError(
            f"line {at(k)}: quantity must be finite and >= 0, got {q[k]}")),
    ]
    kept = ~np.logical_or.reduce([mask for mask, _ in checks])
    kept &= (h < max_lead) | (leads is not None)
    # Copies: every parsed field dies with this call, and one kept alive
    # would hold its whole allocator arena in memory.
    names = [name.encode().decode() for name in sorted(set(compress(item, kept)))]
    codes = np.fromiter(map(dict(zip(names, range(len(names)))).__getitem__,
                            compress(item, kept)), int, int(kept.sum()))
    T = 1 + int(t[kept].max(initial=-1))
    H = 1 + int(h[kept].max(initial=-1))
    fits = len(names) * T * H < 2 ** 63     # else no tensor could hold the cells
    if fits:
        # A repeated (item, period, lead) key fails on its second record.
        _, firsts = np.unique((codes * T + t[kept]) * H + h[kept], return_index=True)
        repeated = np.ones(codes.size, dtype=bool)
        repeated[firsts] = False
        repeats = np.zeros(len(lines), dtype=bool)
        repeats[np.flatnonzero(kept)[repeated]] = True
        checks.append((repeats, lambda k: DuplicateKeyError(
            f"line {at(k)}: duplicate record for item={item[k]!r}, "
            f"delivery_period={t[k]}, lead_time={h[k]}")))

    errors = [(at(int(np.argmax(mask))), make(int(np.argmax(mask))))
              for mask, make in checks if mask.any()]
    wrong = np.flatnonzero(~good & ~blank)
    if wrong.size:
        line = int(line_no[wrong[0]])
        errors.insert(0, (line, ParseError(f"expected 4 fields, got {counts[wrong[0]]}",
                                           line_number=line)))
    if errors:
        # The first failing record; on one record, its first failed check.
        raise min(errors, key=lambda e: e[0])[1]
    if reader_error is not None:
        raise reader_error
    if not fits:
        raise HierfcstError(f"{len(names)} items x {T} periods x {H} leads "
                            "do not fit in one tensor")
    if not kept.any():
        raise ParseError("no data rows", line_number=1)

    if periods is not None:
        if periods < T:
            raise HierfcstError(f"periods={periods} below observed maximum {T}")
        T = periods
    if leads is not None:
        if leads < H:
            raise HierfcstError(f"leads={leads} below observed maximum {H}")
        H = leads

    values = np.zeros((len(names), T, H))
    mask = np.zeros((len(names), T, H), dtype=bool)
    values[codes, t[kept], h[kept]] = q[kept]
    mask[codes, t[kept], h[kept]] = True

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
