"""Experiment report generation: paper-vs-measured markdown tables.

Every benchmark regenerates one of the paper's tables or figures; an
:class:`ExperimentRecord` captures what the paper reports, what this
reproduction measured and how the two compare, and :class:`ExperimentReport`
renders the collection as markdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Union


def markdown_table(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a GitHub-flavoured markdown table."""
    if not header:
        raise ValueError("a table needs at least one column")
    lines = ["| " + " | ".join(str(cell) for cell in header) + " |",
             "|" + "|".join(" --- " for _ in header) + "|"]
    for row in rows:
        if len(row) != len(header):
            raise ValueError("row length does not match the header")
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return "\n".join(lines)


@dataclass
class ExperimentRecord:
    """One paper artifact (table or figure) and its reproduction status."""

    experiment_id: str               # e.g. "Fig. 12", "Table 1"
    title: str
    paper_claim: str
    measured: str
    bench_target: str
    workload: str = ""
    agreement: str = "shape reproduced"
    notes: str = ""
    table_header: Optional[Sequence[str]] = None
    table_rows: Optional[Sequence[Sequence[object]]] = None

    def to_markdown(self) -> str:
        lines = [f"### {self.experiment_id} — {self.title}", ""]
        lines.append(f"* **Bench target:** `{self.bench_target}`")
        if self.workload:
            lines.append(f"* **Workload:** {self.workload}")
        lines.append(f"* **Paper reports:** {self.paper_claim}")
        lines.append(f"* **This reproduction measures:** {self.measured}")
        lines.append(f"* **Agreement:** {self.agreement}")
        if self.notes:
            lines.append(f"* **Notes:** {self.notes}")
        if self.table_header and self.table_rows:
            lines.append("")
            lines.append(markdown_table(self.table_header, self.table_rows))
        lines.append("")
        return "\n".join(lines)


@dataclass
class ExperimentReport:
    """A collection of experiment records rendered into one markdown file."""

    title: str
    preamble: str = ""
    records: List[ExperimentRecord] = field(default_factory=list)

    def add(self, record: ExperimentRecord) -> "ExperimentReport":
        self.records.append(record)
        return self

    def summary_table(self) -> str:
        header = ["Experiment", "What the paper shows", "Status", "Bench target"]
        rows = [[record.experiment_id, record.title, record.agreement,
                 f"`{record.bench_target}`"] for record in self.records]
        return markdown_table(header, rows)

    def to_markdown(self) -> str:
        parts = [f"# {self.title}", ""]
        if self.preamble:
            parts.extend([self.preamble, ""])
        parts.extend(["## Summary", "", self.summary_table(), ""])
        parts.append("## Per-experiment detail")
        parts.append("")
        for record in self.records:
            parts.append(record.to_markdown())
        return "\n".join(parts)

    def write(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(self.to_markdown())
        return path
