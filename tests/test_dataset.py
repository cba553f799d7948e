import csv
import io
import os
import re
import tracemalloc
import zipfile
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierfcst import dataset as ds
from hierfcst.errors import (DomainError, DuplicateKeyError, HierfcstError,
                             ParseError)

from oracles import load_csv_rows


def write_csv(path, rows, header="item_id,delivery_period,lead_time,quantity"):
    lines = [header] + rows
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestLoadCsv:
    def test_single_record(self, tmp_path):
        p = write_csv(tmp_path / "one.csv", ["A,2,1,5"])
        t = ds.load_csv(p)
        assert t.items == ["A"]
        assert t.n_periods == 3 and t.n_leads == 2
        assert t.values[0, 2, 1] == 5.0
        assert t.observed_mask[0, 2, 1]
        rest = t.values.copy()
        rest[0, 2, 1] = 0.0
        assert np.all(rest == 0)
        assert t.observed_mask.sum() == 1

    def test_duplicate_key_rejected(self, tmp_path):
        p = write_csv(tmp_path / "dup.csv", ["A,2,1,5", "A,2,1,7"])
        with pytest.raises(DuplicateKeyError):
            ds.load_csv(p)

    def test_negative_quantity_rejected(self, tmp_path):
        p = write_csv(tmp_path / "neg.csv", ["A,1,0,-3"])
        with pytest.raises(DomainError):
            ds.load_csv(p)

    def test_malformed_row_carries_line_number(self, tmp_path):
        p = write_csv(tmp_path / "bad.csv", ["A,1,0,5", "B,x,0,1"])
        with pytest.raises(ParseError) as err:
            ds.load_csv(p)
        assert err.value.line_number == 3

    def test_wrong_field_count(self, tmp_path):
        p = write_csv(tmp_path / "short.csv", ["A,1,0"])
        with pytest.raises(ParseError):
            ds.load_csv(p)

    def test_bad_header(self, tmp_path):
        p = write_csv(tmp_path / "hdr.csv", ["A,1,0,5"], header="a,b,c,d")
        with pytest.raises(ParseError) as err:
            ds.load_csv(p)
        assert err.value.line_number == 1

    def test_lead_cap_drops_far_preorders(self, tmp_path):
        p = write_csv(tmp_path / "cap.csv", ["A,1,0,5", "A,9,9,1"])
        t = ds.load_csv(p)  # default cap keeps leads < 4
        assert t.n_leads == 1
        t2 = ds.load_csv(p, max_lead=10)
        assert t2.n_leads == 10

    @pytest.mark.parametrize("max_lead", [0, -1])
    def test_max_lead_below_one_rejected(self, tmp_path, max_lead):
        p = write_csv(tmp_path / "cap.csv", ["A,1,0,5"])
        with pytest.raises(HierfcstError, match=f"max_lead must be >= 1, got {max_lead}"):
            ds.load_csv(p, max_lead=max_lead)

    def test_strict_mode_requires_full_grid(self, tmp_path):
        p = write_csv(tmp_path / "sparse.csv", ["A,0,0,1", "A,1,1,2"])
        with pytest.raises(HierfcstError):
            ds.load_csv(p, missing_as_zero=False)


class TestRoundTrip:
    @pytest.mark.parametrize("regime", ds.REGIMES)
    def test_save_load_identity(self, tmp_path, regime):
        t = ds.synthesize(3, 4, 12, 3, regime)
        path = tmp_path / "out.csv"
        ds.save_csv(t, path)
        back = ds.load_csv(str(path))
        # Dimensions are the observed maxima: past them nothing is observed.
        T, H = back.n_periods, back.n_leads
        assert not t.observed_mask[:, T:].any() and not t.observed_mask[:, :, H:].any()
        assert back.items == t.items
        np.testing.assert_array_equal(back.values, t.values[:, :T, :H])
        np.testing.assert_array_equal(back.observed_mask, t.observed_mask[:, :T, :H])

    def test_cache_round_trip(self, tmp_path):
        t = ds.synthesize(1, 3, 8, 2, "smooth")
        path = tmp_path / "t.npz"
        ds.save_cache(t, path)
        back = ds.load_cache(path)
        assert back.items == t.items
        np.testing.assert_array_equal(back.values, t.values)

    def test_cache_version_checked(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, cache_version=np.array(999), kind=np.array("preorder_tensor"),
                 items=np.array(["a"]), values=np.zeros((1, 2, 1)),
                 observed_mask=np.ones((1, 2, 1), bool))
        with pytest.raises(HierfcstError):
            ds.load_cache(path)


class FailingArray:
    """Converts to an array by raising, after checking that the cache
    write it belongs to had begun: a write that fails partway."""

    def __init__(self, tmp):
        self.tmp = tmp

    def __array__(self, dtype=None, copy=None):
        assert os.path.getsize(self.tmp) > 0
        raise OSError("No space left on device")


class TestCacheFiles:
    def test_stored_at_exact_path(self, tmp_path):
        t = ds.synthesize(2, 3, 8, 2, "sparse-spiky")
        path = tmp_path / "t.cache"
        ds.save_cache(t, path)
        assert os.listdir(tmp_path) == ["t.cache"]
        with zipfile.ZipFile(path) as zf:
            assert {info.compress_type for info in zf.infolist()} == {zipfile.ZIP_STORED}
        back = ds.load_cache(path)
        assert back.items == t.items
        np.testing.assert_array_equal(back.values, t.values)
        np.testing.assert_array_equal(back.observed_mask, t.observed_mask)

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "t.cache"
        ds.save_cache(ds.synthesize(1, 3, 8, 2), path)
        before = path.read_bytes()
        broken = SimpleNamespace(items=["a"], values=np.zeros((1, 2, 1)),
                                 observed_mask=FailingArray(f"{path}.tmp"))
        with pytest.raises(OSError, match="No space left"):
            ds.save_cache(broken, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["t.cache"]

    def test_compressed_cache_of_earlier_layout_loads(self, tmp_path):
        t = ds.synthesize(4, 3, 8, 2, "sparse-spiky")
        path = tmp_path / "old.npz"
        np.savez_compressed(path, cache_version=np.array(1),
                            kind=np.array("preorder_tensor"),
                            items=np.array(t.items, dtype=str), values=t.values,
                            observed_mask=t.observed_mask)
        back = ds.load_cache(path)
        assert back.items == t.items
        np.testing.assert_array_equal(back.values, t.values)
        np.testing.assert_array_equal(back.observed_mask, t.observed_mask)

    @pytest.mark.parametrize("content", [b"", b"item_id,delivery_period\n", "npy",
                                         "truncated", "wrong kind", "missing member"])
    def test_unreadable_cache_raises_naming_the_file(self, tmp_path, content):
        good = tmp_path / "good.npz"
        t = ds.synthesize(1, 2, 6, 2)
        ds.save_cache(t, good)
        path = tmp_path / "bad.npz"
        if content == "npy":
            with open(path, "wb") as fh:
                np.save(fh, t.values)
        elif content == "truncated":
            path.write_bytes(good.read_bytes()[:-40])
        elif content == "wrong kind":
            np.savez(path, cache_version=np.array(1), kind=np.array("supervised_set"))
        elif content == "missing member":
            np.savez(path, cache_version=np.array(1), kind=np.array("preorder_tensor"),
                     items=np.array(t.items), values=t.values)
        else:
            path.write_bytes(content)
        with pytest.raises(HierfcstError, match="bad.npz"):
            ds.load_cache(path)


class TestPreorderTensor:
    @pytest.mark.parametrize("values, mask, error, message", [
        (np.zeros((2, 3, 2)), np.zeros((2, 3, 3)), HierfcstError,
         "values and observed_mask shapes differ"),
        (np.zeros((2, 3)), np.zeros((2, 3)), HierfcstError, "expected (n_items, T, H) cube"),
        (np.full((2, 3, 2), -1.0), np.ones((2, 3, 2)), DomainError, "finite and >= 0"),
        (np.full((2, 3, 2), np.inf), np.ones((2, 3, 2)), DomainError, "finite and >= 0"),
        (np.full((2, 3, 2), np.nan), np.ones((2, 3, 2)), DomainError, "finite and >= 0")],
        ids=["mask_shape", "not_3d", "negative", "infinite", "nan"])
    def test_tensor_rejects_a_bad_cube(self, values, mask, error, message):
        with pytest.raises(error, match=re.escape(message)):
            ds.PreorderTensor(items=["a", "b"], values=values, observed_mask=mask)


class TestIsKnownAt:
    @pytest.fixture
    def tensor(self):
        return ds.synthesize(0, 2, 10, 6, "smooth")

    def test_one_period_ahead_known(self, tensor):
        assert ds.is_known_at(tensor, 0, 5, 1, now=4)

    def test_current_period_demand_unknown_beforehand(self, tensor):
        assert not ds.is_known_at(tensor, 0, 5, 0, now=4)

    def test_boundary_exactly_now(self, tensor):
        assert ds.is_known_at(tensor, 0, 5, 5, now=0)

    def test_range_checks(self, tensor):
        with pytest.raises(IndexError):
            ds.is_known_at(tensor, 5, 0, 0, 0)
        with pytest.raises(IndexError):
            ds.is_known_at(tensor, 0, 99, 0, 0)
        with pytest.raises(IndexError):
            ds.is_known_at(tensor, 0, 0, 99, 0)

    def test_monotone_in_now(self, tensor):
        for t in range(tensor.n_periods):
            for h in range(tensor.n_leads):
                flags = [ds.is_known_at(tensor, 0, t, h, now)
                         for now in range(tensor.n_periods)]
                assert flags == sorted(flags)  # False..False,True..True


class TestSynthesize:
    def test_deterministic(self):
        a = ds.synthesize(1, 4, 20, 3, "anticipatory")
        b = ds.synthesize(1, 4, 20, 3, "anticipatory")
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.observed_mask, b.observed_mask)

    def test_seed_changes_output(self):
        a = ds.synthesize(1, 4, 20, 3, "smooth")
        b = ds.synthesize(2, 4, 20, 3, "smooth")
        assert not np.array_equal(a.values, b.values)

    def test_anticipatory_correlation(self):
        t = ds.synthesize(11, 20, 45, 4, "anticipatory")
        for i in range(t.n_items):
            c = np.corrcoef(t.values[i, :, 0], t.values[i, :, 1])[0, 1]
            assert c >= 0.9

    def test_sparse_spiky_zero_fraction(self):
        t = ds.synthesize(5, 10, 45, 4, "sparse-spiky")
        assert t.zero_fraction() >= 0.5
        # zero orders stay unobserved, mirroring missing records
        assert not t.observed_mask[t.values == 0].any()

    def test_bad_arguments(self):
        with pytest.raises(HierfcstError):
            ds.synthesize(0, 0, 5, 2, "smooth")
        with pytest.raises(HierfcstError):
            ds.synthesize(0, 1, 5, 2, "nope")

    def test_quantities_nonnegative(self):
        for regime in ds.REGIMES:
            t = ds.synthesize(9, 3, 30, 4, regime)
            assert np.all(t.values >= 0)


# One bad record per kind, as (item, period, lead, quantity) fields.
BAD_RECORDS = {
    "field_count": ["a", "1", "0"],
    "too_many_fields": ["a", "1", "0", "2", "9"],
    "empty_item": ["  ", "1", "0", "2"],
    "period_not_int": ["a", "1.5", "0", "2"],
    "lead_not_int": ["a", "1", "x", "2"],
    "quantity_not_float": ["a", "1", "0", "many"],
    "negative_period": ["a", "-1", "0", "2"],
    "negative_lead": ["a", "1", "-2", "2"],
    "negative_quantity": ["a", "1", "0", "-3.5"],
    "nan_quantity": ["a", "1", "0", "nan"],
    "inf_quantity": ["a", "1", "0", "inf"],
}

ITEMS = ["a", "b", "item 7", "c,d", 'e"f', "g\nh", " pad ",
         "\tx", "x\x1f", "\u00a0y", "\u00e9"]

# Quantity fields that repr(float) does not write, for the loader's
# per-field route and the edges of its array route.
ODD_QUANTITIES = ["1e-05", "5e-324", "1.7976931348623157e+308", "+2", "2_0",
                  "\u0663", "123456789012345678901", "5.", ".5", "007.250",
                  "9999999999999999999", "0.000000000000000001"]


def _row_text(fields, quote):
    if not quote and not any(c in f for f in fields for c in ',"\n'):
        return ",".join(fields)
    out = io.StringIO()
    csv.writer(out, lineterminator="", quoting=quote or csv.QUOTE_MINIMAL).writerow(fields)
    return out.getvalue()


@st.composite
def csv_files(draw):
    """CSV text of random records, with blank lines, padded fields, quoted
    fields, odd quantities, CRLF, LF or CR line ends and, maybe, one bad
    record or a repeated key in the second half of the file; plus load_csv
    keyword arguments."""
    n = draw(st.integers(1, 25))
    rows = []
    for _ in range(n):
        item = draw(st.sampled_from(ITEMS))
        t, h = draw(st.integers(0, 6)), draw(st.integers(0, 6))
        q = draw(st.floats(0, 1e6, allow_nan=False))
        fields = [item, str(t), str(h), repr(q)]
        if draw(st.integers(0, 4)) == 0:
            fields[3] = draw(st.sampled_from(ODD_QUANTITIES))
        if draw(st.booleans()):
            fields = [f" {f} " if "\n" not in f else f for f in fields]
        rows.append(fields)
    bad = draw(st.sampled_from([None, "duplicate"] + sorted(BAD_RECORDS)))
    if bad is not None:
        at = draw(st.integers(n // 2, n))
        rows.insert(at, list(rows[draw(st.integers(0, n - 1))]) if bad == "duplicate"
                    else BAD_RECORDS[bad])
    quote = draw(st.sampled_from([None, None, csv.QUOTE_ALL, csv.QUOTE_MINIMAL]))
    lines = ["item_id, delivery_period ,lead_time,quantity"]
    for fields in rows:
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
        lines.append(_row_text(fields, quote if draw(st.booleans()) else None))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(lines) + (end if draw(st.booleans()) else "")
    kwargs = draw(st.sampled_from([{}, {"max_lead": 2}, {"max_lead": 10}]))
    return text, kwargs


def _outcome(load, path, kwargs):
    try:
        t = load(path, **kwargs)
    except HierfcstError as exc:
        return type(exc), str(exc), getattr(exc, "line_number", None)
    return t.items, t.values.tolist(), t.observed_mask.tolist()


class TestLoadCsvMatchesRowReader:
    @settings(max_examples=150, deadline=None)
    @given(csv_files())
    def test_same_tensor_or_same_error(self, tmp_path_factory, case):
        text, kwargs = case
        path = tmp_path_factory.mktemp("csv") / "orders.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _outcome(ds.load_csv, str(path), kwargs) == \
            _outcome(load_csv_rows, str(path), kwargs)

    @pytest.mark.parametrize("kind", sorted(BAD_RECORDS) + ["duplicate"])
    def test_late_bad_record(self, tmp_path, kind):
        rows = [f"i{k % 7},{k // 7},{k % 3},{k}.5" for k in range(400)]
        rows.insert(380, "i1,0,1,2" if kind == "duplicate" else ",".join(BAD_RECORDS[kind]))
        path = write_csv(tmp_path / "late.csv", rows)
        got = _outcome(ds.load_csv, path, {})
        assert got == _outcome(load_csv_rows, path, {})
        assert got[2] == 382 or "line 382" in got[1]    # the header is line 1

    @pytest.mark.parametrize("bad", [None, "quantity_not_float"])
    def test_reader_error_after_earlier_records(self, tmp_path, bad):
        # csv.reader fails on a field over its size limit, 30 records in; a
        # bad record before it (line 12) is reported first.
        rows = [f'"i{k % 7}",{k // 7},{k % 3},{k}.5' for k in range(40)]
        rows.insert(30, '"' + "x" * (csv.field_size_limit() + 1) + '",1,0,2')
        if bad is not None:
            rows.insert(10, ",".join(BAD_RECORDS[bad]))
        path = write_csv(tmp_path / "long.csv", rows)

        def outcome(load):
            try:
                return _outcome(load, path, {})
            except csv.Error as exc:
                return type(exc), str(exc)

        assert outcome(ds.load_csv) == outcome(load_csv_rows)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert _outcome(ds.load_csv, str(path), {}) == \
            _outcome(load_csv_rows, str(path), {})

    @pytest.mark.parametrize("end", ["", "\n", "\n\n", "\r\n\r\n"])
    def test_header_only(self, tmp_path, end):
        path = tmp_path / "header.csv"
        path.write_bytes(f"{','.join(ds.CSV_HEADER)}{end}".encode())
        got = _outcome(ds.load_csv, str(path), {})
        assert got == _outcome(load_csv_rows, str(path), {})
        assert got == (ParseError, "line 1: no data rows", 1)

    def test_quoted_file_ending_in_empty_fields(self, tmp_path):
        # The last record's four fields are empty: its item starts where
        # the block's field bytes end.
        path = tmp_path / "end.csv"
        path.write_text(f'{",".join(ds.CSV_HEADER)}\n"a",1,0,2\n"",,,\n')
        assert _outcome(ds.load_csv, str(path), {}) == \
            _outcome(load_csv_rows, str(path), {})


class TestLoadCsvInSmallBlocks(TestLoadCsvMatchesRowReader):
    """The same comparisons with load_csv's blocks cut at budgets of 1, 2
    and 7 bytes, so that blank lines, CRLF ends, quoted fields with
    newlines, bad records and repeated keys straddle block ends."""

    @pytest.fixture(autouse=True, scope="class", params=[1, 2, 7])
    def block_bytes(self, request):
        with mock.patch.object(ds, "_BLOCK_BYTES", request.param):
            yield request.param


def test_load_csv_memory_is_bounded_by_blocks(tmp_path):
    """With small blocks the parse holds no per-record strings: its traced
    peak stays within a few times the file's bytes (splitting the whole
    file's fields at once takes about 11 times)."""
    path = str(tmp_path / "catalog.csv")
    ds.save_csv(ds.synthesize(0, 280, 45, 4, "anticipatory"), path)  # 50400 records
    with mock.patch.object(ds, "_BLOCK_BYTES", 32768):
        tracemalloc.start()
        try:
            ds.load_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 6 * os.path.getsize(path)


@pytest.mark.parametrize("block_bytes", [ds._BLOCK_BYTES, 32768])
@pytest.mark.parametrize("long_quotient", [True, False])
def test_catalog_loads_bit_identically(tmp_path, block_bytes, long_quotient):
    """A realistic catalog (repr quantities, sorted items) loads as the row
    reader loads it, bit for bit, with and without the long double route."""
    path = str(tmp_path / "catalog.csv")
    ds.save_csv(ds.synthesize(0, 280, 45, 4, "anticipatory"), path)
    with mock.patch.object(ds, "_BLOCK_BYTES", block_bytes), \
            mock.patch.object(ds, "_LONG_QUOTIENT", long_quotient):
        got = ds.load_csv(path)
    want = load_csv_rows(path)
    assert got.items == want.items
    np.testing.assert_array_equal(got.values.view(np.int64), want.values.view(np.int64))
    np.testing.assert_array_equal(got.observed_mask, want.observed_mask)


def _fields(texts):
    """texts as a block of UTF-8 bytes with the bounds of each, after
    _WIDTH bytes of digits and points that a field's conversion must not
    read."""
    parts = [text.encode() for text in texts]
    lengths = np.array([len(part) for part in parts], dtype=int)
    ends = np.cumsum(lengths) + ds._WIDTH
    lead = b"7." * (ds._WIDTH // 2)
    return np.frombuffer(b"".join([lead, *parts]), dtype=np.uint8), ends - lengths, ends


def _per_field(texts, convert, dtype):
    """Each text through convert into a dtype array: its value bits, or the
    message it fails with."""
    out = []
    for text in texts:
        cell = np.zeros(1, dtype=dtype)
        try:
            cell[0] = convert(text)
        except (ValueError, OverflowError) as exc:
            out.append(str(exc))
        else:
            out.append(int(cell.view(np.int64)[0]))
    return out


def _converted(texts, convert, dtype):
    values, bad = ds._column(*_fields(texts), convert)
    return [bad[k] if k in bad else int(v) for k, v in enumerate(values.view(np.int64))]


def _float_reprs():
    bits = st.integers(0, 0x7FEFFFFFFFFFFFFF)   # every finite float64 >= 0
    return st.one_of(bits.map(lambda b: repr(float(np.int64(b).view(np.float64)))),
                     st.floats(0, 1e19).map(repr))


def _decimals():
    """1-25 digits with at most one point anywhere among them."""
    return st.tuples(st.text("0123456789", min_size=1, max_size=25), st.integers(-1, 25)) \
        .map(lambda dp: dp[0] if dp[1] < 0 else dp[0][:dp[1]] + "." + dp[0][dp[1]:])


_FIELD_TEXT = st.one_of(st.sampled_from(["", ".", "..5", "1.2.3", " 7", "7 ", "-0", "+1",
                                         "1_0", "1e3", "nan", "inf", "\u0663", "\u00e9",
                                         "9" * 18, "9" * 19, "1" + "0" * 18,
                                         "9223372036854775807", "9223372036854775808",
                                         "99999999999999999999999"]),
                        st.text(max_size=6))


class TestFieldConverter:
    """The array route of load_csv's numeric columns gives what int() and
    float() give field by field: the same value bits or the same message."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(_float_reprs(), _decimals(), _FIELD_TEXT), max_size=40))
    @pytest.mark.parametrize("long_quotient", [True, False])
    def test_quantities_match_float(self, long_quotient, texts):
        with mock.patch.object(ds, "_LONG_QUOTIENT", long_quotient):
            assert _converted(texts, float, float) == _per_field(texts, float, float)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.integers(0, 2 ** 70).map(str), _decimals(), _FIELD_TEXT),
                    max_size=40))
    def test_periods_and_leads_match_int(self, texts):
        assert _converted(texts, int, np.int64) == _per_field(texts, int, np.int64)

    def test_midpoint_quotients_take_float(self):
        # The long double quotients of the first two lie on a float64
        # midpoint, and the second rounding would go the wrong way; that of
        # 2**53 + 1 is a midpoint that float64 rounding gets right.
        texts = ["5.376532436955062", "0.135959382530615", str(2 ** 53 + 1), "0.1"]
        if ds._LONG_QUOTIENT:
            twice = [float(np.longdouble(int(text.replace(".", "")))
                           / np.longdouble(10 ** 15)) for text in texts[:2]]
            assert twice != [float(text) for text in texts[:2]]
        _, exact = ds._quantities(*_fields(texts))
        assert exact.tolist() == [False, False, False, ds._LONG_QUOTIENT]
        assert _converted(texts, float, float) == _per_field(texts, float, float)
