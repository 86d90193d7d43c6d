"""ASCII renderers for the regenerated tables and figures.

Experiments return :class:`Table` (rows × columns, for Table I and the
grouped bar charts of figs. 11–16) or :class:`Series` (time series, for the
trace histograms of figs. 9–10); the renderers print them the way
``python -m repro.experiments`` and EXPERIMENTS.md present results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


def format_seconds(value: float) -> str:
    """Human scale: µs/ms/s as appropriate."""
    if value < 0:
        return f"-{format_seconds(-value)}"
    if value < 1e-3:
        return f"{value * 1e6:.0f} µs"
    if value < 1.0:
        return f"{value * 1e3:.1f} ms"
    return f"{value:.2f} s"


@dataclass
class Table:
    """A titled grid: named columns, list-of-dict rows.

    ``time_columns`` names the columns holding seconds (rendered with
    :func:`format_seconds`); ``None`` applies a name heuristic.
    """

    title: str
    columns: List[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    note: str = ""
    time_columns: Optional[set] = None

    def is_time_column(self, name: str) -> bool:
        if self.time_columns is not None:
            return name in self.time_columns
        return (name.endswith("_s") or name.endswith("_median")
                or name in ("median", "p25", "p75", "p95", "max", "min",
                            "mean", "overhead_vs_fast", "time_total"))

    def add(self, **row: Any) -> None:
        self.rows.append(row)

    def column(self, name: str) -> List[Any]:
        return [row.get(name) for row in self.rows]

    def row_for(self, key_column: str, key: Any) -> Optional[Dict[str, Any]]:
        for row in self.rows:
            if row.get(key_column) == key:
                return row
        return None


@dataclass
class Series:
    """A titled (x, y) series (e.g. a per-second histogram)."""

    title: str
    x_label: str
    y_label: str
    x: List[float] = field(default_factory=list)
    y: List[float] = field(default_factory=list)
    note: str = ""

    def add(self, x: float, y: float) -> None:
        self.x.append(x)
        self.y.append(y)

    @property
    def total(self) -> float:
        return float(sum(self.y))

    @property
    def peak(self) -> float:
        return float(max(self.y)) if self.y else 0.0


def _cell(value: Any, is_time: bool) -> str:
    if isinstance(value, float):
        if is_time and 0 < abs(value) < 1e4:
            return format_seconds(value)
        return f"{value:g}"
    return str(value)


def render_table(table: Table) -> str:
    """Fixed-width ASCII rendering."""
    headers = table.columns
    grid = [[_cell(row.get(col, ""), table.is_time_column(col)) for col in headers]
            for row in table.rows]
    widths = [max(len(headers[i]), *(len(r[i]) for r in grid)) if grid else len(headers[i])
              for i in range(len(headers))]
    lines = [table.title, "=" * len(table.title)]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths, strict=True)))
    lines.append("  ".join("-" * w for w in widths))
    for row in grid:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths, strict=True)))
    if table.note:
        lines.append(f"note: {table.note}")
    return "\n".join(lines)


def table_to_csv(table: Table) -> str:
    """CSV rendering (raw values, no unit formatting) for downstream
    plotting tools."""
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=table.columns,
                            extrasaction="ignore")
    writer.writeheader()
    for row in table.rows:
        writer.writerow({col: row.get(col, "") for col in table.columns})
    return buffer.getvalue()


def series_to_csv(series: Series) -> str:
    """CSV rendering of an (x, y) series."""
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow([series.x_label, series.y_label])
    for x, y in zip(series.x, series.y, strict=True):
        writer.writerow([x, y])
    return buffer.getvalue()


def render_series(series: Series, width: int = 60) -> str:
    """Sparkline-style histogram rendering."""
    lines = [series.title, "=" * len(series.title),
             f"{series.x_label} -> {series.y_label} "
             f"(total={series.total:g}, peak={series.peak:g})"]
    peak = series.peak or 1.0
    # Bucket down to `width` columns if needed.
    n = len(series.y)
    if n == 0:
        return "\n".join(lines + ["(empty)"])
    step = max(1, n // width)
    for start in range(0, n, step):
        chunk = series.y[start:start + step]
        value = max(chunk)
        bar = "#" * max(0, round(value / peak * 40))
        lines.append(f"{series.x[start]:>8g} | {bar} {value:g}")
    if series.note:
        lines.append(f"note: {series.note}")
    return "\n".join(lines)
