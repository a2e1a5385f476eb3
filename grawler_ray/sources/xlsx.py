"""Pure-stdlib XLSX (SpreadsheetML) tabular source — the spreadsheet
leg of the ingest surface next to CSV/JSONL/Parquet/WARC.  An .xlsx is
a ZIP whose ``xl/worksheets/sheet1.xml`` holds sparse ``<row>`` /
``<c r="A1" t="...">`` cells; strings live either in the
``xl/sharedStrings.xml`` pool (``t="s"``) or inline (``t="inlineStr"``),
numbers as raw ``<v>``.  stdlib ``zipfile`` + ``xml.etree`` suffice.

``read_xlsx_table`` parses one workbook to a ``pyarrow.Table`` (first
row = header; missing cells -> null; per-column type inference
int64 -> float64 -> string over the observed values);
``read_xlsx_files`` lifts that to a ``ray.data`` Dataset over many
shard files via ``read_binary_files`` + a parse ``map_batches`` — the
same distributed shape as the CSV/JSONL readers.  The fixture writer
emits spec-shaped workbooks (shared AND inline strings, sparse rows)
whose read-back is exact for int/string columns, so the driver's
DuckDB oracle can check the whole write-zip-parse loop column by
column.
"""

from __future__ import annotations

import io
import re
import struct
import zipfile
from xml.etree import ElementTree
from xml.sax.saxutils import escape

import pyarrow as pa

MAIN_NS = "http://schemas.openxmlformats.org/spreadsheetml/2006/main"
# integer-form numeric cells parse with int(), not through a float: int64
# ids above 2^53 (xxhash-derived keys) must round-trip exactly
_INT_RE = re.compile(r"[-+]?\d+")


class XlsxError(ValueError):
    pass


def _col_index(ref: str) -> int:
    """Cell reference "BC12" -> 0-based column index (54)."""
    n = 0
    for ch in ref:
        if ch.isalpha():
            n = n * 26 + (ord(ch.upper()) - 64)
        else:
            break
    if n == 0:
        raise XlsxError(f"bad cell reference {ref!r}")
    return n - 1


def read_xlsx_table(data: bytes) -> pa.Table:
    """XLSX bytes -> pyarrow.Table (first sheet, first row = header)."""
    try:
        return _read(data)
    except XlsxError:
        raise
    except (
        zipfile.BadZipFile,
        KeyError,
        ElementTree.ParseError,
        IndexError,
        struct.error,
        ValueError,
        EOFError,
        OSError,
    ) as e:
        raise XlsxError(f"truncated/malformed XLSX: {e}") from e


def _read(data: bytes) -> pa.Table:
    with zipfile.ZipFile(io.BytesIO(data)) as z:
        names = set(z.namelist())
        sheet = None
        for cand in ("xl/worksheets/sheet1.xml",):
            if cand in names:
                sheet = z.read(cand)
        if sheet is None:
            sheets = sorted(
                n for n in names if re.fullmatch(r"xl/worksheets/sheet\d+\.xml", n)
            )
            if not sheets:
                raise XlsxError("no worksheet (not an XLSX)")
            sheet = z.read(sheets[0])
        shared: list[str] = []
        if "xl/sharedStrings.xml" in names:
            sroot = ElementTree.fromstring(z.read("xl/sharedStrings.xml"))
            for si in sroot.iter(f"{{{MAIN_NS}}}si"):
                shared.append("".join(t.text or "" for t in si.iter(f"{{{MAIN_NS}}}t")))
    root = ElementTree.fromstring(sheet)
    rows: list[dict[int, str | float | int]] = []
    for row in root.iter(f"{{{MAIN_NS}}}row"):
        cells: dict[int, str | float | int] = {}
        auto_col = 0
        for c in row.iter(f"{{{MAIN_NS}}}c"):
            ref = c.get("r")
            col = _col_index(ref) if ref else auto_col
            auto_col = col + 1
            ctype = c.get("t", "n")
            if ctype == "inlineStr":
                is_el = c.find(f"{{{MAIN_NS}}}is")
                val = (
                    "".join(t.text or "" for t in is_el.iter(f"{{{MAIN_NS}}}t"))
                    if is_el is not None
                    else ""
                )
            else:
                v = c.find(f"{{{MAIN_NS}}}v")
                if v is None:
                    continue  # empty cell
                raw = v.text or ""
                if ctype == "s":
                    val = shared[int(raw)]
                elif ctype in ("str", "b"):
                    val = raw
                elif _INT_RE.fullmatch(raw.strip()):  # exact past 2^53
                    val = int(raw)
                else:  # number
                    val = float(raw)
            cells[col] = val
        rows.append(cells)
    if not rows:
        raise XlsxError("empty sheet")
    header_cells, data_rows = rows[0], rows[1:]
    ncol = max(header_cells, default=-1) + 1
    names = [str(header_cells.get(i, f"col{i}")) for i in range(ncol)]
    cols: dict[str, list] = {nm: [] for nm in names}
    for r in data_rows:
        for i, nm in enumerate(names):
            cols[nm].append(r.get(i))
    arrays = {}
    for nm, vals in cols.items():
        non_null = [v for v in vals if v is not None]
        if non_null and all(isinstance(v, int) for v in non_null):
            arrays[nm] = pa.array(vals, pa.int64())
        elif non_null and all(isinstance(v, (int, float)) for v in non_null):
            arrays[nm] = pa.array(
                [float(v) if v is not None else None for v in vals], pa.float64()
            )
        else:
            arrays[nm] = pa.array(
                [str(v) if v is not None else None for v in vals], pa.string()
            )
    return pa.table(arrays)


def read_xlsx_files(paths: list[str]):
    """Many XLSX shard files -> one ray.data Dataset (schema union by
    column name; every shard must share the header).  Distributed shape:
    ``read_binary_files`` streams the bytes, parsing runs inside
    ``map_batches`` — workbook shards parse in parallel like CSV."""
    import ray.data

    ds = ray.data.read_binary_files(paths)

    def parse(t: pa.Table) -> pa.Table:
        tables = [read_xlsx_table(b.as_py()) for b in t.column("bytes")]
        return pa.concat_tables(tables, promote_options="default")

    return ds.map_batches(parse, batch_format="pyarrow")


def write_xlsx(table: pa.Table, shared_strings: bool = True) -> bytes:
    """pyarrow.Table -> minimal valid XLSX (header row + data; string
    cells via the sharedStrings pool when ``shared_strings`` else
    inline; int/float as number cells; None cells OMITTED -> sparse
    rows).  Fixture writer for the reader — read_xlsx_table round-trips
    int/string columns exactly."""
    names = table.column_names
    pool: list[str] = []
    pool_ix: dict[str, int] = {}

    def sref(s: str) -> int:
        if s not in pool_ix:
            pool_ix[s] = len(pool)
            pool.append(s)
        return pool_ix[s]

    def col_letter(i: int) -> str:
        out = ""
        i += 1
        while i:
            i, r = divmod(i - 1, 26)
            out = chr(65 + r) + out
        return out

    def cell_xml(ri: int, ci: int, val) -> str:
        ref = f"{col_letter(ci)}{ri}"
        if val is None:
            return ""
        if isinstance(val, str):
            for ch in val:
                o = ord(ch)
                if o < 0x20 and ch not in "\t\n\r":
                    raise XlsxError(f"string contains XML-unrepresentable U+{o:04X}")
            if shared_strings:
                return f'<c r="{ref}" t="s"><v>{sref(val)}</v></c>'
            return (
                f'<c r="{ref}" t="inlineStr"><is>'
                f'<t xml:space="preserve">{escape(val, {chr(13): "&#13;"})}</t></is></c>'
            )
        if isinstance(val, bool):
            raise XlsxError("bool cells not supported by this writer")
        if isinstance(val, int):
            return f'<c r="{ref}"><v>{val}</v></c>'
        if isinstance(val, float):
            return f'<c r="{ref}"><v>{val!r}</v></c>'
        raise XlsxError(f"unsupported cell type {type(val).__name__}")

    body = ["<row r=\"1\">" + "".join(
        cell_xml(1, ci, nm) for ci, nm in enumerate(names)
    ) + "</row>"]
    pydata = [table.column(nm).to_pylist() for nm in names]
    for r in range(table.num_rows):
        cells = "".join(
            cell_xml(r + 2, ci, pydata[ci][r]) for ci in range(len(names))
        )
        body.append(f'<row r="{r + 2}">{cells}</row>')
    sheet = (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
        f'<worksheet xmlns="{MAIN_NS}"><sheetData>'
        + "".join(body)
        + "</sheetData></worksheet>"
    )
    sst = (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
        f'<sst xmlns="{MAIN_NS}" count="{len(pool)}" uniqueCount="{len(pool)}">'
        + "".join(
            f'<si><t xml:space="preserve">{escape(s, {chr(13): "&#13;"})}</t></si>' for s in pool
        )
        + "</sst>"
    )
    workbook = (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
        f'<workbook xmlns="{MAIN_NS}" '
        'xmlns:r="http://schemas.openxmlformats.org/officeDocument/2006/relationships">'
        '<sheets><sheet name="Sheet1" sheetId="1" r:id="rId1"/></sheets></workbook>'
    )
    wb_rels = (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
        '<Relationships xmlns="http://schemas.openxmlformats.org/package/2006/relationships">'
        '<Relationship Id="rId1" Type="http://schemas.openxmlformats.org/'
        'officeDocument/2006/relationships/worksheet" Target="worksheets/sheet1.xml"/>'
        '<Relationship Id="rId2" Type="http://schemas.openxmlformats.org/'
        'officeDocument/2006/relationships/sharedStrings" Target="sharedStrings.xml"/>'
        "</Relationships>"
    )
    content_types = (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
        '<Types xmlns="http://schemas.openxmlformats.org/package/2006/content-types">'
        '<Default Extension="xml" ContentType="application/xml"/>'
        '<Override PartName="/xl/workbook.xml" ContentType="application/vnd.'
        'openxmlformats-officedocument.spreadsheetml.sheet.main+xml"/>'
        '<Override PartName="/xl/worksheets/sheet1.xml" ContentType="application/'
        'vnd.openxmlformats-officedocument.spreadsheetml.worksheet+xml"/>'
        '<Override PartName="/xl/sharedStrings.xml" ContentType="application/vnd.'
        'openxmlformats-officedocument.spreadsheetml.sharedStrings+xml"/>'
        "</Types>"
    )
    rels = (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
        '<Relationships xmlns="http://schemas.openxmlformats.org/package/2006/relationships">'
        '<Relationship Id="rId1" Type="http://schemas.openxmlformats.org/'
        'officeDocument/2006/relationships/officeDocument" Target="xl/workbook.xml"/>'
        "</Relationships>"
    )
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as z:
        z.writestr("[Content_Types].xml", content_types)
        z.writestr("_rels/.rels", rels)
        z.writestr("xl/workbook.xml", workbook)
        z.writestr("xl/_rels/workbook.xml.rels", wb_rels)
        z.writestr("xl/worksheets/sheet1.xml", sheet)
        z.writestr("xl/sharedStrings.xml", sst)
    return buf.getvalue()
