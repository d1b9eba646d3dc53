"""Every number in EXPERIMENTS.md's tables is the full report golden's.

Each table sits under a ``## `` heading that names one report section.
A table cell is found in that section in one of two ways:

* directly: a golden table has the doc's column, and a row whose first
  cell is the doc row's label (TAB2, FIG14, ABLATIONS, FIG13's
  ``BALB/Full``);
* pivoted: a golden row starts with the doc row's label followed by the
  doc's column name (``S1 knn``), and the cell is that row's value in
  the section's measured column (FIG10's precision, say).

FIG13's ``paper`` column quotes the paper, so its cells must appear in
the title of the golden table that names the paper's figures. A doc
number with d decimals must equal the golden cell rounded half-up to d
decimals.
"""

import re
from decimal import ROUND_HALF_UP, Decimal

from tests.paper.golden_report import REPORT, ROOT

DOC = ROOT / "EXPERIMENTS.md"

#: Doc heading -> (report section, the golden column a pivoted cell reads).
SECTION_OF_HEADING = {
    "Figure 10": ("FIG10", "precision"),
    "Figure 11": ("FIG11", "MAE (px)"),
    "Figure 12": ("FIG12", "object recall"),
    "Figure 13": ("FIG13", "slowest-cam ms"),
    "Figure 14": ("FIG14", None),
    "Table II": ("TAB2", None),
    "Ablations": ("ABLATIONS", None),
}

PAPER_COLUMN = "paper"

_NUMBER = re.compile(r"\**(\d+(?:\.\d+)?)x?\**")


def doc_tables(text):
    """``(heading, header, rows)`` for every Markdown table in ``text``."""
    heading, table = None, []
    for line in text.splitlines() + [""]:
        if line.startswith("|"):
            table.append([cell.strip() for cell in line.strip("|").split("|")])
            continue
        if table:
            header, rule, *rows = table
            assert set("".join(rule)) <= set("-:"), f"{heading}: no rule row"
            yield heading, header, rows
            table = []
        if line.startswith("## "):
            heading = line[3:]


def section_key(heading):
    found = [h for h in SECTION_OF_HEADING if heading.startswith(h + " ")]
    assert len(found) == 1, f"no report section for EXPERIMENTS.md {heading!r}"
    return found[0]


def golden_cells(section, value_column, label, column):
    """The golden cells the doc's (``label``, ``column``) cell quotes."""
    if column == PAPER_COLUMN:
        return [
            number
            for table in section.tables
            if "paper:" in table.title
            for number in re.findall(r"\d+\.\d+", table.title)
        ]
    direct = [
        row[table.header.index(column)]
        for table in section.tables
        if column in table.header
        for row in table.rows
        if row[0] == label
    ]
    pivoted = [
        row[table.header.index(value_column)]
        for table in section.tables
        if value_column in table.header
        for row in table.rows
        if row[:2] == (label, column)
    ]
    return direct + pivoted


def rounded(text, decimals):
    quantum = Decimal(1).scaleb(-decimals)
    return str(Decimal(text).quantize(quantum, rounding=ROUND_HALF_UP))


def mismatches(text):
    """One line per doc table number the golden does not back."""
    found = []
    for heading, header, rows in doc_tables(text):
        name, value_column = SECTION_OF_HEADING[section_key(heading)]
        for row in rows:
            for column, cell in zip(header[1:], row[1:]):
                where = f"{name} {row[0]}/{column}"
                number = _NUMBER.fullmatch(cell)
                if not number:
                    found.append(f"{where}: {cell!r} is not a number")
                    continue
                decimals = len(number[1].partition(".")[2])
                candidates = golden_cells(
                    REPORT[name], value_column, row[0], column
                )
                if number[1] not in {rounded(c, decimals) for c in candidates}:
                    found.append(f"{where}: doc {number[1]}, golden {candidates}")
    return found


def test_every_doc_table_names_a_report_section():
    keys = [section_key(h) for h, _, _ in doc_tables(DOC.read_text())]
    assert sorted(keys) == sorted(SECTION_OF_HEADING)


def test_every_table_number_matches_the_golden():
    assert mismatches(DOC.read_text()) == []


def test_an_edited_cell_is_a_mismatch():
    """The checker itself: a quoted cell passes and a nudged one fails."""
    ms = REPORT["FIG13"].table("Figure 13").value("slowest-cam ms", "S3", "balb")
    doc = "## Figure 13 — latency\n\n| scenario | balb |\n|---|---|\n| S3 | {:.1f} |\n"
    assert mismatches(doc.format(ms)) == []
    assert mismatches(doc.format(ms + 0.1)) == [
        f"FIG13 S3/balb: doc {ms + 0.1:.1f}, golden ['{ms:.1f}']"
    ]
