"""Deterministic SVG rendering of emitted CSV artifacts.

CSV stays the source of truth; these renderers draw histograms and heatmaps
with fixed geometry and no wall-clock or environment dependence, so the same
CSV always yields a byte-identical SVG.
"""

from __future__ import annotations

import csv
from pathlib import Path

from .store import refuse_directories


class ReportError(Exception):
    pass


_W, _H, _PAD = 640, 400, 45


def _read_rows(path: Path) -> tuple[list[str], list[list[float]]]:
    try:
        with open(path, newline="") as f:
            reader = csv.reader(f)
            header = next(reader, None)
            if header is None:
                raise ReportError(f"{path}: empty CSV")
            rows = [[float(tok) for tok in row] for row in reader if row]
    except OSError as e:
        raise ReportError(f"cannot read {path}: {e}") from e
    except ValueError as e:
        raise ReportError(f"{path}: non-numeric CSV cell") from e
    return header, rows


def _svg(body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">\n'
        f'<rect width="{_W}" height="{_H}" fill="white"/>\n'
    )
    return head + "\n".join(body) + "\n</svg>\n"


def render_histogram(csv_path: str | Path, svg_path: str | Path) -> None:
    """Bar chart from a (bin_left, bin_right, count) CSV."""
    Path(svg_path).write_text(_histogram(csv_path, *_read_rows(Path(csv_path))))


def _histogram(csv_path, header: list[str], rows: list[list[float]]) -> str:
    if len(header) < 3 or not rows:
        raise ReportError(f"{csv_path}: expected bin_left,bin_right,count rows")
    lo = rows[0][0]
    hi = rows[-1][1]
    max_count = max(r[2] for r in rows) or 1.0
    span = (hi - lo) or 1.0
    body = []
    for left, right, count in (r[:3] for r in rows):
        x = _PAD + (left - lo) / span * (_W - 2 * _PAD)
        w = max((right - left) / span * (_W - 2 * _PAD) - 1.0, 0.5)
        h = count / max_count * (_H - 2 * _PAD)
        y = _H - _PAD - h
        body.append(
            f'<rect x="{x:.3f}" y="{y:.3f}" width="{w:.3f}" height="{h:.3f}" '
            f'fill="#4878a8"><title>{count:.6g}</title></rect>'
        )
    body.append(
        f'<line x1="{_PAD}" y1="{_H - _PAD}" x2="{_W - _PAD}" y2="{_H - _PAD}" '
        f'stroke="black"/>'
    )
    body.append(f'<text x="{_PAD}" y="{_H - 10}" font-size="12">{lo:.6g}</text>')
    body.append(
        f'<text x="{_W - _PAD}" y="{_H - 10}" font-size="12" '
        f'text-anchor="end">{hi:.6g}</text>'
    )
    return _svg(body)


def render_heatmap(csv_path: str | Path, svg_path: str | Path) -> None:
    """Grid heatmap from an (x, y, value) CSV; NaN cells are left blank."""
    Path(svg_path).write_text(_heatmap(csv_path, *_read_rows(Path(csv_path))))


def _heatmap(csv_path, header: list[str], rows: list[list[float]]) -> str:
    if len(header) < 3 or not rows:
        raise ReportError(f"{csv_path}: expected x,y,value rows")
    xs = sorted({r[0] for r in rows})
    ys = sorted({r[1] for r in rows})
    finite = [r[2] for r in rows if r[2] == r[2]]
    if not finite:
        raise ReportError(f"{csv_path}: all values are NaN")
    vmin, vmax = min(finite), max(finite)
    vspan = (vmax - vmin) or 1.0
    xi = {v: i for i, v in enumerate(xs)}
    yi = {v: i for i, v in enumerate(ys)}
    cw = (_W - 2 * _PAD) / len(xs)
    ch = (_H - 2 * _PAD) / len(ys)
    body = []
    for x, y, v in (r[:3] for r in rows):
        if v != v:  # NaN cell
            continue
        frac = (v - vmin) / vspan
        # blue (low) to red (high)
        red = int(round(255 * frac))
        blue = int(round(255 * (1.0 - frac)))
        px = _PAD + xi[x] * cw
        py = _H - _PAD - (yi[y] + 1) * ch
        body.append(
            f'<rect x="{px:.3f}" y="{py:.3f}" width="{cw:.3f}" height="{ch:.3f}" '
            f'fill="rgb({red},64,{blue})"><title>{v:.6g}</title></rect>'
        )
    body.append(
        f'<text x="{_PAD}" y="{_H - 10}" font-size="12">x: {xs[0]:.6g}..{xs[-1]:.6g} '
        f'y: {ys[0]:.6g}..{ys[-1]:.6g} v: {vmin:.6g}..{vmax:.6g}</text>'
    )
    return _svg(body)


_HIST_HEADERS = ("bin_left", "gap_low", "k")
_HEAT_HEADERS = ("beta_correct", "x")


def emit_report(directory: str | Path) -> list[Path]:
    """Render an SVG next to every recognized CSV in the directory; each CSV
    is parsed once, for its kind and its drawing. Every SVG is drawn, and every
    SVG path checked, before the first is written, so a CSV that cannot be
    drawn, or a directory at an SVG's name, leaves none behind."""
    directory = Path(directory)
    svgs = {}
    csvs = sorted(directory.glob("*.csv"))
    if not csvs:
        raise ReportError(f"{directory}: no CSV artifacts to render")
    for path in csvs:
        header, rows = _read_rows(path)
        if not rows or len(header) < 3:
            continue
        if header[0] in _HEAT_HEADERS:
            svgs[path.with_suffix(".svg")] = _heatmap(path, header, rows)
        elif header[0] in _HIST_HEADERS or len(header) == 3:
            svgs[path.with_suffix(".svg")] = _histogram(path, header, rows)
    if not svgs:
        raise ReportError(f"{directory}: no renderable CSV found")
    try:
        refuse_directories(svgs)
        for out, text in svgs.items():
            out.write_text(text)
    except OSError as e:
        raise ReportError(f"cannot write {e.filename}: {e.strerror}") from e
    return list(svgs)
