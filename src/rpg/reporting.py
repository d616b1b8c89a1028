"""Run artifacts: metrics CSV, summary JSON, and hand-rolled SVG charts.

The CSV is the exchange format between `train` and `report`: a version
stamp comment, a header row, then one row per update. Floats are written
with repr so a parsed log reproduces the original float64 values bit for
bit — that is what lets the report recompute the ratio<1 fraction and
match the summary JSON exactly, and what makes identical runs produce
byte-identical logs (the wall-time column is excluded from that promise).

Charts are written as standalone SVG so the output is deterministic,
dependency-free, and checkable as XML.
"""

import csv
import hashlib
import json
import math
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np

from .errors import MalformedLog
from .training import StepRecord, ratio_fraction

SCHEMA_STAMP = "# rpg-metrics-v1"
COLUMNS = ("step", "return", "div", "hessian_trace", "ratio", "gate",
           "wall_ms")


def write_metrics(records, path):
    """Write StepRecords as the versioned CSV log."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(SCHEMA_STAMP + "\n")
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        for r in records:
            writer.writerow([r.step, repr(r.eval_return), repr(r.div),
                             repr(r.hessian_trace), repr(r.ratio),
                             int(r.gate), repr(r.wall_ms)])


def read_metrics(path):
    """Parse a metrics CSV back into StepRecords.

    Raises MalformedLog (with the offending line number) on a missing or
    wrong version stamp, a header mismatch, or any row that does not
    parse into the expected column types; gate must be 0 or 1.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        stamp = fh.readline().strip()
        if not stamp.startswith("# rpg-metrics-v"):
            raise MalformedLog(f"{path}: line 1: missing schema stamp "
                               f"(expected {SCHEMA_STAMP!r})")
        if stamp != SCHEMA_STAMP:
            raise MalformedLog(f"{path}: line 1: unsupported schema "
                               f"{stamp!r} (this reader speaks "
                               f"{SCHEMA_STAMP!r})")
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedLog(f"{path}: line 2: missing header row")
        if tuple(header) != COLUMNS:
            raise MalformedLog(f"{path}: line 2: header {header} does not "
                               f"match {list(COLUMNS)}")
        records = []
        for lineno, row in enumerate(reader, start=3):
            if not row:
                continue
            if len(row) != len(COLUMNS):
                raise MalformedLog(f"{path}: line {lineno}: expected "
                                   f"{len(COLUMNS)} columns, got {len(row)}")
            if row[5] not in ("0", "1"):
                raise MalformedLog(f"{path}: line {lineno}: gate must be 0 "
                                   f"or 1, got {row[5]!r}")
            try:
                records.append(StepRecord(
                    step=int(row[0]),
                    eval_return=float(row[1]),
                    div=float(row[2]),
                    hessian_trace=float(row[3]),
                    ratio=float(row[4]),
                    gate=row[5] == "1",
                    wall_ms=float(row[6]),
                ))
            except ValueError as err:
                raise MalformedLog(f"{path}: line {lineno}: {err}")
    return records


def strip_wall_time(path):
    """The log's bytes with the wall_ms column removed (determinism checks)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    kept = [lines[0]]
    kept += [",".join(line.split(",")[:-1]) for line in lines[1:] if line]
    return "\n".join(kept).encode("utf-8")


def trajectory_sha256(*summaries):
    """Hex SHA-256 of run trajectories, the runs hashed in order as one
    stream: per run the final theta's float64 bytes, then the repr of each
    record's (step, eval_return, div, hessian_trace, ratio, gate).  Timing
    is left out, so runs with the same config and seed hash alike."""
    h = hashlib.sha256()
    for summary in summaries:
        if summary.final_theta is not None:
            h.update(np.asarray(summary.final_theta,
                                dtype=np.float64).tobytes())
        for r in summary.records:
            h.update(repr((int(r.step), float(r.eval_return), float(r.div),
                           float(r.hessian_trace), float(r.ratio),
                           bool(r.gate))).encode("utf-8"))
    return h.hexdigest()


def write_summary(summary, path):
    """Write the run summary as strict JSON (sorted keys, so
    byte-deterministic), with the run's ``trajectory_sha256``.  A
    non-finite float, such as the NaN returns of a run that aborted
    before its first record, is written as null."""
    payload = {
        "final_return": summary.final_return,
        "best_return": summary.best_return,
        "fraction_ratio_below_one": summary.fraction_ratio_below_one,
        "updates": len(summary.records),
        "aborted": summary.aborted,
        "abort_reason": summary.abort_reason,
        "seed": summary.config.get("seed"),
        "config": summary.config,
        "final_theta": (None if summary.final_theta is None
                        else [float(v) for v in summary.final_theta]),
        "trajectory_sha256": trajectory_sha256(summary),
    }
    # a round trip that reads NaN and +-Infinity as null, at any depth
    payload = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def read_summary(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ------------------------------------------------------------------ SVG

_W, _H = 640, 400
_ML, _MR, _MT, _MB = 70, 24, 42, 48
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")


def _nice_ticks(lo, hi):
    raw = (hi - lo) / 5
    mag = 10.0 ** math.floor(math.log10(raw)) if raw > 0 else 1.0
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + 1e-12 * max(1.0, abs(hi)):
        ticks.append(0.0 if abs(value) < step * 1e-9 else value)
        value += step
    return ticks


def _fmt(value):
    return f"{value:g}"


def svg_line_chart(series, title, y_label, refline_y=None):
    """Render one line chart as an SVG string.

    series: list of (label, xs, ys).  Non-finite y values break the line
    (the point is dropped); a legend is drawn when there is more than one
    series.  refline_y draws a dashed horizontal reference line.
    """
    points = []
    for _, xs, ys in series:
        points += [(float(x), float(y)) for x, y in zip(xs, ys)
                   if math.isfinite(float(x)) and math.isfinite(float(y))]
    if points:
        x_lo = min(p[0] for p in points)
        x_hi = max(p[0] for p in points)
        y_lo = min(p[1] for p in points)
        y_hi = max(p[1] for p in points)
    else:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, 0.0, 1.0
    if refline_y is not None:
        y_lo = min(y_lo, refline_y)
        y_hi = max(y_hi, refline_y)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def sy(y):
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
           f'height="{_H}" viewBox="0 0 {_W} {_H}">',
           f'<rect width="{_W}" height="{_H}" fill="white"/>',
           f'<text x="{_W / 2:.1f}" y="24" text-anchor="middle" '
           f'font-family="sans-serif" font-size="15">{escape(title)}</text>']
    # axes
    out.append(f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" '
               f'y2="{_H - _MB}" stroke="black"/>')
    out.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" '
               f'stroke="black"/>')
    for tick in _nice_ticks(x_lo, x_hi):
        px = sx(tick)
        out.append(f'<line x1="{px:.2f}" y1="{_H - _MB}" x2="{px:.2f}" '
                   f'y2="{_H - _MB + 5}" stroke="black"/>')
        out.append(f'<text x="{px:.2f}" y="{_H - _MB + 18}" '
                   f'text-anchor="middle" font-family="sans-serif" '
                   f'font-size="11">{_fmt(tick)}</text>')
    for tick in _nice_ticks(y_lo, y_hi):
        py = sy(tick)
        out.append(f'<line x1="{_ML - 5}" y1="{py:.2f}" x2="{_ML}" '
                   f'y2="{py:.2f}" stroke="black"/>')
        out.append(f'<text x="{_ML - 8}" y="{py + 4:.2f}" '
                   f'text-anchor="end" font-family="sans-serif" '
                   f'font-size="11">{_fmt(tick)}</text>')
    out.append(f'<text x="{_W / 2:.1f}" y="{_H - 10}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="12">step</text>')
    out.append(f'<text x="18" y="{(_MT + _H - _MB) / 2:.1f}" '
               f'text-anchor="middle" font-family="sans-serif" '
               f'font-size="12" transform="rotate(-90 18 '
               f'{(_MT + _H - _MB) / 2:.1f})">{escape(y_label)}</text>')
    if refline_y is not None:
        py = sy(refline_y)
        out.append(f'<line x1="{_ML}" y1="{py:.2f}" x2="{_W - _MR}" '
                   f'y2="{py:.2f}" stroke="gray" stroke-dasharray="6,4"/>')
    for idx, (label, xs, ys) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        runs, current = [], []
        for x, y in zip(xs, ys):
            if math.isfinite(float(x)) and math.isfinite(float(y)):
                current.append((float(x), float(y)))
            elif current:
                runs.append(current)
                current = []
        if current:
            runs.append(current)
        for run in runs:
            pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in run)
            out.append(f'<polyline points="{pts}" fill="none" '
                       f'stroke="{color}" stroke-width="1.5"/>')
    if len(series) > 1:
        ly = _MT + 8
        for idx, (label, _, _) in enumerate(series):
            color = _COLORS[idx % len(_COLORS)]
            out.append(f'<line x1="{_W - _MR - 150}" y1="{ly}" '
                       f'x2="{_W - _MR - 126}" y2="{ly}" stroke="{color}" '
                       f'stroke-width="2"/>')
            out.append(f'<text x="{_W - _MR - 120}" y="{ly + 4}" '
                       f'font-family="sans-serif" font-size="11">'
                       f'{escape(str(label))}</text>')
            ly += 16
    out.append("</svg>")
    return "\n".join(out) + "\n"


_CHART_SPECS = (
    ("return", "eval return vs step", "return",
     (lambda r: r.eval_return), None),
    ("ratio", "divergence ratio vs step", "ratio",
     (lambda r: r.ratio), 1.0),
    ("trace", "Hessian trace vs step", "hessian trace",
     (lambda r: r.hessian_trace), None),
)


def write_report_charts(named_runs, out_dir):
    """Write per-run charts, plus overlay charts when given several runs.

    named_runs: list of (name, records). Returns the written paths.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for suffix, title, y_label, pick, refline in _CHART_SPECS:
        for name, records in named_runs:
            xs = [r.step for r in records]
            ys = [pick(r) for r in records]
            svg = svg_line_chart([(name, xs, ys)], f"{name}: {title}",
                                 y_label, refline_y=refline)
            path = out_dir / f"{name}_{suffix}.svg"
            path.write_text(svg, encoding="utf-8")
            written.append(path)
        if len(named_runs) > 1:
            series = [(name, [r.step for r in records],
                       [pick(r) for r in records])
                      for name, records in named_runs]
            svg = svg_line_chart(series, f"overlay: {title}", y_label,
                                 refline_y=refline)
            path = out_dir / f"overlay_{suffix}.svg"
            path.write_text(svg, encoding="utf-8")
            written.append(path)
    return written
