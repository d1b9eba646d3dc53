"""The full report golden, read as sections, tables and lines.

``.github/golden/report_full_seed0.txt`` is the output of ``repro report
--seed 0 --no-timings`` byte for byte, and CI ``cmp``s a fresh report
against it. Its numbers are therefore the code's numbers at the paper's
configuration, and the paper-shape tests can read them instead of
rerunning the experiments.
"""

from __future__ import annotations

import pathlib
import re
from dataclasses import dataclass
from typing import Dict, List, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[2]
GOLDEN = ROOT / ".github" / "golden" / "report_full_seed0.txt"

_HEADER = re.compile(r"^== (\S+) ==$")
_RULE = re.compile(r"^-+(  -+)*\s*$")


@dataclass(frozen=True)
class Table:
    """One ``format_table`` block: its title, column names and cells."""

    title: str
    header: Tuple[str, ...]
    rows: Tuple[Tuple[str, ...], ...]

    def column(self, name: str) -> List[float]:
        """Every row's value in column ``name``."""
        index = self.header.index(name)
        return [float(row[index]) for row in self.rows]

    def value(self, name: str, *key: str) -> float:
        """Column ``name`` of the one row whose leading cells are ``key``."""
        matches = [row for row in self.rows if row[:len(key)] == key]
        assert len(matches) == 1, f"{self.title!r}: {len(matches)} rows {key}"
        return float(matches[0][self.header.index(name)])


@dataclass(frozen=True)
class Section:
    """One ``== NAME ==`` section: its tables and its other lines."""

    name: str
    tables: Tuple[Table, ...]
    lines: Tuple[str, ...]

    def table(self, title_start: str) -> Table:
        """The one table whose title starts with ``title_start``."""
        found = [t for t in self.tables if t.title.startswith(title_start)]
        assert len(found) == 1, f"{self.name}: {len(found)} tables {title_start!r}"
        return found[0]

    def line(self, pattern: str) -> re.Match:
        """The match of ``pattern`` on the one non-table line it matches."""
        found = [m for m in map(re.compile(pattern).match, self.lines) if m]
        assert len(found) == 1, f"{self.name}: {len(found)} lines {pattern!r}"
        return found[0]


def _cells(line: str, spans: List[Tuple[int, int]]) -> Tuple[str, ...]:
    last = len(spans) - 1
    return tuple(
        line[start:None if i == last else end].strip()
        for i, (start, end) in enumerate(spans)
    )


def parse_section(name: str, body: List[str]) -> Section:
    """Split a section body into its tables and its remaining lines.

    A table is the line above a rule of dashes (the column names), the
    line above that when it is not blank (the title), and the lines below
    up to the next blank one. Columns are cut at the rule's dash runs.
    """
    tables: List[Table] = []
    used = set()
    for i, line in enumerate(body):
        if i == 0 or not _RULE.match(line):
            continue
        spans = [m.span() for m in re.finditer(r"-+", line)]
        end = i + 1
        while end < len(body) and body[end].strip():
            end += 1
        has_title = i >= 2 and bool(body[i - 2].strip())
        tables.append(Table(
            title=body[i - 2] if has_title else "",
            header=_cells(body[i - 1], spans),
            rows=tuple(_cells(row, spans) for row in body[i + 1:end]),
        ))
        used.update(range(i - 2 if has_title else i - 1, end))
    lines = tuple(
        line for i, line in enumerate(body) if i not in used and line.strip()
    )
    return Section(name=name, tables=tuple(tables), lines=lines)


def read_report(text: str) -> Dict[str, Section]:
    """A ``--no-timings`` report's sections, by name, in report order."""
    bodies: Dict[str, List[str]] = {}
    current: List[str] = []
    for line in text.splitlines():
        header = _HEADER.match(line)
        if header:
            current = bodies.setdefault(header[1], [])
        else:
            current.append(line)
    return {name: parse_section(name, body) for name, body in bodies.items()}


REPORT = read_report(GOLDEN.read_text())
