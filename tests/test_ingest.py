import csv
import hashlib
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trackcast
from trackcast import ingest
from trackcast.core import RawTable
from trackcast.errors import DataFormatError, InvalidArgumentError, SchemaError
from trackcast.ingest import (
    METERS_PER_MILEAGE,
    METERS_STEP,
    CsvSchema,
    SynthConfig,
    generate_synthetic,
    read_csv,
    write_csv,
)
from trackcast.core import pearson
from trackcast.rng import keyed_uniform


def small_cfg(**kw):
    base = dict(
        n_rows=2000,
        n_features=12,
        constant_feature_count=2,
        irrelevant_feature_count=3,
        seed=3,
    )
    base.update(kw)
    return SynthConfig(**base)


class TestSynthConfig:
    def test_reserved_columns_must_fit(self):
        with pytest.raises(InvalidArgumentError):
            SynthConfig(n_rows=10, n_features=12)  # default counts need 22

    def test_rates_bounded(self):
        with pytest.raises(InvalidArgumentError):
            small_cfg(outlier_rate=1.5)

    def test_minimum_feature_count(self):
        with pytest.raises(InvalidArgumentError):
            SynthConfig(n_rows=10, n_features=5,
                        constant_feature_count=0, irrelevant_feature_count=0)


class TestGenerator:
    def test_column_layout(self):
        t = generate_synthetic(small_cfg())
        assert t.column_names[0] == "mileage"
        assert t.column_names[1] == "meters"
        assert t.column_names[4] == "left_height"
        assert t.column_names[5] == "right_height"
        assert t.column_names[2] == "f1"
        assert t.column_names[6] == "f3"
        assert t.id_columns == (0, 1)
        assert t.column_names[t.target_column] == "left_height"

    def test_identifier_law(self):
        n = 9000
        t = generate_synthetic(small_cfg(n_rows=n))
        i = np.arange(n)
        assert np.array_equal(t.rows[:, 0], 100.0 + i // METERS_PER_MILEAGE)
        assert np.array_equal(t.rows[:, 1], (i % METERS_PER_MILEAGE) * METERS_STEP)

    def test_deterministic(self):
        a = generate_synthetic(small_cfg())
        b = generate_synthetic(small_cfg())
        assert np.array_equal(a.rows, b.rows)

    def test_row_values_independent_of_total_length(self):
        """Values are keyed by coordinates, so a longer run extends a
        shorter one instead of reshuffling it."""
        a = generate_synthetic(small_cfg(n_rows=500))
        b = generate_synthetic(small_cfg(n_rows=1200))
        assert np.array_equal(a.rows, b.rows[:500])

    def test_prefix_differs_only_in_outlier_cells(self):
        """Injected outliers take the mean and std of the whole channel,
        so only their rows change when the table grows."""
        rate, n = 0.02, 400
        a = generate_synthetic(small_cfg(n_rows=n, outlier_rate=rate))
        b = generate_synthetic(small_cfg(n_rows=3 * n, outlier_rate=rate))
        rows = np.arange(n)
        outlier = np.zeros(n, dtype=bool)
        for stream in (ingest._S_OUT_MASK_L, ingest._S_OUT_MASK_R):
            outlier |= keyed_uniform(3, rows, stream) < rate
        assert outlier.any()
        assert np.array_equal(a.rows[~outlier], b.rows[:n][~outlier])
        assert not np.array_equal(a.rows[outlier], b.rows[:n][outlier])

    def test_seed_changes_output(self):
        a = generate_synthetic(small_cfg(seed=1))
        b = generate_synthetic(small_cfg(seed=2))
        assert not np.array_equal(a.rows[:, 4], b.rows[:, 4])

    def test_constant_features_are_constant(self):
        t = generate_synthetic(small_cfg())
        # slots fill in order f1, f2, ... with constants first
        for col in (2, 3):
            assert np.all(t.rows[:, col] == t.rows[0, col])

    def test_noise_features_uncorrelated(self):
        t = generate_synthetic(small_cfg(n_rows=5000))
        left = t.rows[:, 4]
        for col in (6, 7, 8):  # the three noise slots in this config
            assert abs(pearson(left, t.rows[:, col])) < 0.1

    def test_engineered_features_track_left_height(self):
        t = generate_synthetic(small_cfg(n_rows=5000))
        left = t.rows[:, 4]
        for col in (9, 10, 11):  # remaining slots are affine transforms
            assert abs(pearson(left, t.rows[:, col])) >= 0.6

    def test_no_outliers_without_injection(self):
        """Rough patches are bounded; only injected corruption may pass
        |z| = 8 on a height channel."""
        t = generate_synthetic(small_cfg(n_rows=30000, outlier_rate=0.0,
                                         uneven_segment_rate=0.05))
        for col in (4, 5):
            x = t.rows[:, col]
            z = np.abs(x - x.mean()) / x.std(ddof=1)
            assert z.max() < 8.0

    def test_injected_outliers_exceed_z8(self):
        rate = 0.002
        n = 50000
        t = generate_synthetic(small_cfg(n_rows=n, outlier_rate=rate))
        for col in (4, 5):
            x = t.rows[:, col]
            z = np.abs(x - x.mean()) / x.std(ddof=1)
            count = int(np.count_nonzero(z > 8.0))
            expected = rate * n
            assert expected * 0.3 <= count <= expected * 2.5

    def test_rough_patches_raise_local_variance(self):
        calm = generate_synthetic(small_cfg(n_rows=20000, outlier_rate=0.0,
                                            uneven_segment_rate=0.0))
        rough = generate_synthetic(small_cfg(n_rows=20000, outlier_rate=0.0,
                                             uneven_segment_rate=0.10))
        def top_window_var(x):
            w = np.lib.stride_tricks.sliding_window_view(x, 8)
            return np.quantile(w.var(axis=1), 0.999)
        assert top_window_var(rough.rows[:, 4]) > 4.0 * top_window_var(calm.rows[:, 4])


class TestCsvRoundTrip:
    def test_exact_value_round_trip(self, tmp_path):
        t = generate_synthetic(small_cfg(n_rows=300))
        path = tmp_path / "t.csv"
        write_csv(t, path)
        back = read_csv(path)
        assert back.column_names == t.column_names
        assert np.array_equal(back.rows, t.rows)
        assert back.id_columns == t.id_columns
        assert back.target_column == t.target_column

    def test_write_is_byte_deterministic(self, tmp_path):
        t = generate_synthetic(small_cfg(n_rows=100))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(t, p1)
        write_csv(t, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestReadCsvErrors:
    def _write(self, tmp_path, text):
        p = tmp_path / "bad.csv"
        p.write_text(text)
        return p

    def test_missing_required_column(self, tmp_path):
        p = self._write(tmp_path, "mileage,meters,other\n1,2,3\n")
        with pytest.raises(SchemaError, match="left_height"):
            read_csv(p)

    def test_custom_schema_names(self, tmp_path):
        p = self._write(tmp_path, "km,pos,h\n1,2,3\n")
        t = read_csv(p, CsvSchema(mileage_column="km", meters_column="pos", target_column="h"))
        assert t.n_rows == 1
        assert t.target_column == 2

    def test_ragged_row(self, tmp_path):
        p = self._write(tmp_path, "mileage,meters,left_height\n1,2,3\n1,2\n")
        with pytest.raises(DataFormatError, match="row 2"):
            read_csv(p)

    def test_unparseable_cell_cites_position(self, tmp_path):
        p = self._write(tmp_path, "mileage,meters,left_height\n1,2,3\n1,abc,3\n")
        with pytest.raises(DataFormatError, match="row 2, column 2"):
            read_csv(p)

    def test_non_finite_cell(self, tmp_path):
        p = self._write(tmp_path, "mileage,meters,left_height\n1,2,inf\n")
        with pytest.raises(DataFormatError, match="row 1, column 3"):
            read_csv(p)

    def test_empty_file(self, tmp_path):
        p = self._write(tmp_path, "")
        with pytest.raises(DataFormatError, match="header"):
            read_csv(p)

    def test_header_whitespace_stripped(self, tmp_path):
        p = self._write(tmp_path, "mileage , meters , left_height\n1,2,3\n")
        t = read_csv(p)
        assert t.column_names == ("mileage", "meters", "left_height")


class TestAr2Recursion:
    def test_matches_lfilter_bitwise(self):
        from scipy.signal import lfilter

        a1, a2 = ingest._AR_COEFFS
        rng = np.random.default_rng(0)
        for n in (0, 1, 2, 3, 5000):
            for scale in (1e-300, 0.05, 1.0, 1e200):
                x = rng.normal(size=n) * scale
                want = lfilter([1.0], [1.0, -a1, -a2], x)
                assert ingest._ar2_series(x).tobytes() == want.tobytes()

    def test_cli_import_leaves_out_scipy_signal(self):
        src = os.path.dirname(os.path.dirname(trackcast.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = (
            "import sys, trackcast.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )  # no scipy module at all, scipy.signal included
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"

    def test_synth_csv_bytes_are_pinned(self, tmp_path):
        path = tmp_path / "synth.csv"
        write_csv(generate_synthetic(SynthConfig(n_rows=5000, seed=5)), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "758f08fcfed42fc357e6a74deda8c69e6b4ed2c34f6ac76c86f6dd8bf8db2e45"


HEADER = "mileage,meters,left_height"


def _outcome(reader, path):
    """Everything a reader returns, bit for bit, or the error it raises."""
    try:
        t = reader(path)
    except Exception as exc:  # the comparison is the point, whatever the type
        return ("raised", type(exc), str(exc))
    return ("table", t.column_names, t.rows.shape, t.rows.tobytes(), t.id_columns, t.target_column)


def _per_cell(path):
    return ingest._read_csv_per_cell(path, CsvSchema())


def _read_tracking_fallback(path):
    """read_csv's outcome, and whether it fell back to the per-cell parse."""
    with mock.patch.object(ingest, "_read_csv_per_cell", wraps=ingest._read_csv_per_cell) as spy:
        outcome = _outcome(read_csv, path)
    return outcome, spy.called


class TestBulkReadMatchesPerCell:
    """read_csv parses in bulk only where that provably equals the
    per-cell parse; elsewhere it falls back to it."""

    @pytest.mark.parametrize("text, falls_back", [
        (HEADER + "\n1,2,3\n4,5,6\n", False),
        (HEADER + "\n1,2,3\n4,5,6", False),  # no final newline
        (HEADER + "\r\n1,2,3\r\n4,5,6\r\n", False),
        (HEADER + "\r1,2,3\r4,5,6\r", False),
        (HEADER + "\n 1 ,\t2\t,3 \n", False),  # padded cells
        (HEADER + "\n-0.0,5e-324,1.7e308\n", False),
        (HEADER + "\n1,2,3\n\n4,5,6\n", True),  # blank line
        (HEADER + "\n1,2,3\n\n", True),  # trailing blank line
        (HEADER + '\n"1",2,3\n', True),  # quoted cell parses
        (HEADER + '\n"1,5",2,3\n', True),  # quoted comma
        (HEADER + ',"x\n1,2,3,4\n', True),  # the body is inside a header cell
        (HEADER + "\n1,2,3\n#4,5,6\n", True),
        (HEADER + "\n1,,3\n", True),  # empty cell
        (HEADER + "\nnan,2,3\n", True),
        (HEADER + "\n1,-inf,3\n", True),
        (HEADER + "\n1,2,1e400\n", True),  # overflows to inf
        (HEADER + "\n1_000,2,3\n", True),  # float() takes it, loadtxt does not
        (HEADER + "\n\u0661,2,3\n", True),  # so with a non-ASCII digit
        (HEADER + "\n1\x00,2,3\n", True),
        (HEADER + "\n1,2,3\n1,2\n", True),  # ragged
        (HEADER + "\n", True),  # header only
        (HEADER, True),
    ])
    def test_named_cases(self, tmp_path, text, falls_back):
        path = tmp_path / "case.csv"
        path.write_bytes(text.encode("utf-8"))
        outcome, fell_back = _read_tracking_fallback(path)
        assert outcome == _outcome(_per_cell, path)
        assert fell_back == falls_back

    def test_invalid_utf8_past_the_header_chunk(self, tmp_path):
        path = tmp_path / "bytes.csv"
        path.write_bytes((HEADER + "\n" + "1,2,3\n" * 5000).encode() + b"4,\xff,6\n")
        outcome, fell_back = _read_tracking_fallback(path)
        assert outcome == _outcome(_per_cell, path)
        assert fell_back and outcome[1] is DataFormatError
        assert "not valid UTF-8" in outcome[2]

    def test_cell_past_csv_field_limit(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text(HEADER + "\n1.00000000000001,2,3\n")
        old = csv.field_size_limit(12)
        try:
            outcome, fell_back = _read_tracking_fallback(path)
            assert outcome == _outcome(_per_cell, path)
            assert fell_back and outcome[1] is DataFormatError
            assert "field larger than field limit" in outcome[2]
        finally:
            csv.field_size_limit(old)

    @settings(max_examples=300, deadline=None)
    @given(
        lines=st.lists(
            st.one_of(
                st.lists(st.floats(width=64).map(repr), min_size=3, max_size=3),
                st.lists(
                    st.one_of(
                        st.floats(width=64).map(repr),
                        st.sampled_from(["", " 1.5 ", "1_000", "#", '"3"', '"1,2"', "nan",
                                         "-Infinity", "1e400", "0x10", "\u0661", "\x00"]),
                        st.text(alphabet=" \t0123456789.eE+-_#\"x\x00\r\n,", max_size=6),
                    ),
                    max_size=4,
                ),
            ),
            max_size=6,
        ),
        endings=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=7, max_size=7),
        final_newline=st.booleans(),
    )
    def test_differential(self, tmp_path_factory, lines, endings, final_newline):
        text = HEADER
        for cells, end in zip(lines, endings):
            text += end + ",".join(cells)
        if final_newline:
            text += endings[-1]
        path = tmp_path_factory.getbasetemp() / "differential.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _read_tracking_fallback(path)[0] == _outcome(_per_cell, path)

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.lists(
                st.one_of(
                    st.floats(allow_nan=False, allow_infinity=False, width=64),
                    st.sampled_from([-0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                                     1.7e308, -1.7e308, 1.7976931348623157e308]),
                ),
                min_size=4, max_size=4,
            ),
            min_size=1, max_size=20,
        )
    )
    def test_write_read_round_trip_is_bit_exact(self, tmp_path_factory, rows):
        table = RawTable(
            column_names=("mileage", "meters", "left_height", "f1"),
            rows=np.asarray(rows, dtype=np.float64),
            id_columns=(0, 1),
            target_column=2,
        )
        path = tmp_path_factory.getbasetemp() / "round_trip.csv"
        write_csv(table, path)
        with mock.patch.object(ingest, "_read_csv_per_cell", side_effect=AssertionError):
            back = read_csv(path)  # written files always take the bulk path
        assert back.column_names == table.column_names
        assert back.rows.view(np.uint64).tolist() == table.rows.view(np.uint64).tolist()
