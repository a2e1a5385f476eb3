"""XLSX tabular source (grawler_ray/sources/xlsx.py): exact
write-read round-trips (shared + inline strings, sparse null cells,
int/float/string inference), hand-built sheet corners (missing cell
refs, multi-run shared strings, number forms), the distributed
reader, and typed errors."""

import io
import zipfile

import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grawler_ray.sources.xlsx import (
    MAIN_NS,
    XlsxError,
    _col_index,
    read_xlsx_table,
    write_xlsx,
)

SF = "/root/testdata/sf0.001"


def _mini_xlsx(sheet_xml: str, sst_xml: str | None = None) -> bytes:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as z:
        z.writestr("xl/worksheets/sheet1.xml", sheet_xml)
        if sst_xml is not None:
            z.writestr("xl/sharedStrings.xml", sst_xml)
    return buf.getvalue()


class TestColRef:
    @pytest.mark.parametrize(
        "ref,ix", [("A1", 0), ("Z9", 25), ("AA1", 26), ("BC12", 54), ("ZZ1", 701)]
    )
    def test_col_index(self, ref, ix):
        assert _col_index(ref) == ix

    def test_bad_ref(self):
        with pytest.raises(XlsxError):
            _col_index("123")


class TestRoundtrip:
    def _table(self):
        return pa.table(
            {
                "doc_id": pa.array([1, 2, 3, None], pa.int64()),
                "lang": pa.array(["en", 'de <&> "q"', None, "multi\nline"], pa.string()),
                "n": pa.array([10, None, 30, 40], pa.int64()),
            }
        )

    @pytest.mark.parametrize("shared", [True, False])
    def test_exact(self, shared):
        t = self._table()
        assert read_xlsx_table(write_xlsx(t, shared_strings=shared)).equals(t)

    def test_floats(self):
        t = pa.table({"x": pa.array([1.5, -2.25, None], pa.float64())})
        assert read_xlsx_table(write_xlsx(t)).equals(t)

    def test_mixed_int_float_column_promotes(self):
        t = pa.table({"x": pa.array([1.0, 2.5], pa.float64())})
        got = read_xlsx_table(write_xlsx(t))
        # 1.0 serializes as "1.0" -> float; column stays float64
        assert got.schema.field("x").type == pa.float64()
        assert got.column("x").to_pylist() == [1.0, 2.5]

    @given(
        st.lists(
            st.one_of(
                st.none(),
                st.text(
                    alphabet=st.characters(
                        blacklist_categories=("Cs",),
                        blacklist_characters="".join(
                            chr(c) for c in range(0x20) if chr(c) not in "\t\n\r"
                        )
                        + "￾￿",
                    ),
                    max_size=40,
                ),
            ),
            min_size=1,
            max_size=20,
        ),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_string_column(self, vals, shared):
        t = pa.table({"s": pa.array(vals, pa.string())})
        got = read_xlsx_table(write_xlsx(t, shared_strings=shared))
        assert got.column("s").to_pylist() == vals

    def test_control_char_raises(self):
        with pytest.raises(XlsxError):
            write_xlsx(pa.table({"s": pa.array(["\x0b"], pa.string())}))


class TestHandBuilt:
    def test_missing_refs_and_number_forms(self):
        sheet = (
            f'<worksheet xmlns="{MAIN_NS}"><sheetData>'
            '<row r="1"><c t="inlineStr"><is><t>a</t></is></c>'
            '<c t="inlineStr"><is><t>b</t></is></c></row>'
            # cells without r= advance sequentially; 2.5e2 is a float
            '<row r="2"><c><v>7</v></c><c><v>2.5e2</v></c></row>'
            '<row r="3"><c r="B3"><v>-1.5</v></c></row>'
            "</sheetData></worksheet>"
        )
        t = read_xlsx_table(_mini_xlsx(sheet))
        assert t.column("a").to_pylist() == [7, None]
        assert t.column("b").to_pylist() == [250.0, -1.5]

    def test_integer_cells_exact_past_2_53(self):
        # 2^53 + 1 is not a float64: parsing through float() read ...992
        big = 9007199254740993
        sheet = (
            f'<worksheet xmlns="{MAIN_NS}"><sheetData>'
            '<row r="1"><c t="inlineStr"><is><t>id</t></is></c></row>'
            f'<row r="2"><c><v>{big}</v></c></row>'
            f'<row r="3"><c><v>-{big}</v></c></row>'
            "</sheetData></worksheet>"
        )
        t = read_xlsx_table(_mini_xlsx(sheet))
        assert t.column("id").type == pa.int64()
        assert t.column("id").to_pylist() == [big, -big]
        rt = read_xlsx_table(write_xlsx(pa.table({"id": pa.array([big], pa.int64())})))
        assert rt.column("id").to_pylist() == [big]

    def test_shared_string_multi_run(self):
        sst = (
            f'<sst xmlns="{MAIN_NS}"><si><r><t>He</t></r><r><t>llo</t></r></si>'
            "<si><t>col</t></si></sst>"
        )
        sheet = (
            f'<worksheet xmlns="{MAIN_NS}"><sheetData>'
            '<row r="1"><c r="A1" t="s"><v>1</v></c></row>'
            '<row r="2"><c r="A2" t="s"><v>0</v></c></row>'
            "</sheetData></worksheet>"
        )
        t = read_xlsx_table(_mini_xlsx(sheet, sst))
        assert t.column("col").to_pylist() == ["Hello"]

    def test_errors(self):
        with pytest.raises(XlsxError):
            read_xlsx_table(b"")
        with pytest.raises(XlsxError):
            read_xlsx_table(b"PK\x03\x04junk")
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w") as z:
            z.writestr("other.xml", "<x/>")
        with pytest.raises(XlsxError):
            read_xlsx_table(buf.getvalue())
        # empty sheet
        with pytest.raises(XlsxError):
            read_xlsx_table(
                _mini_xlsx(f'<worksheet xmlns="{MAIN_NS}"><sheetData/></worksheet>')
            )

    @given(st.binary(max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_random_bytes_raise_typed(self, data):
        try:
            read_xlsx_table(data)
        except XlsxError:
            pass


class TestDistributedReader:
    def test_shards_concat(self, ray_session):
        from grawler_ray.sources.xlsx import read_xlsx_files

        import tempfile, os

        d = tempfile.mkdtemp(prefix="gr_xlsx_")
        paths = []
        for i in range(3):
            t = pa.table(
                {
                    "doc_id": pa.array([i * 10 + 1, i * 10 + 2], pa.int64()),
                    "name": pa.array([f"a{i}", f"b{i}"], pa.string()),
                }
            )
            p = os.path.join(d, f"s{i}.xlsx")
            open(p, "wb").write(write_xlsx(t, shared_strings=i % 2 == 0))
            paths.append(p)
        got = (
            read_xlsx_files(paths)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert list(got.doc_id) == [1, 2, 11, 12, 21, 22]
        assert list(got.name) == ["a0", "b0", "a1", "b1", "a2", "b2"]
