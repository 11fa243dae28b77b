"""Deterministic SVG rendering of emitted CSV artifacts.

CSV stays the source of truth; these renderers draw histograms and heatmaps
with fixed geometry and no wall-clock or environment dependence, so the same
CSV always yields a byte-identical SVG. store.read_lines reads each CSV into
one float64 array, every drawing is checked before the first SVG is written,
and each SVG is formatted and written a block of rows at a time.
"""

from __future__ import annotations

from array import array
from itertools import islice
from pathlib import Path

import numpy as np

from .store import lenient, read_lines, refuse_directories, row_blocks


class ReportError(Exception):
    pass


_W, _H, _PAD = 640, 400, 45


def _cells(path: Path, width: int, lines) -> np.ndarray:
    """The rows of lines as one rows x width float64 array."""
    cells = array("d")
    for i, line in lines:
        parts = line.split(",")
        if len(parts) != width:
            raise ReportError(f"{path}: line {i} has {len(parts)} cells, the header has {width}")
        try:
            if lenient(line):
                raise ValueError(line)
            cells.extend(map(float, parts))
        except ValueError:
            raise ReportError(f"{path}: non-numeric CSV cell at line {i}") from None
    return np.frombuffer(cells).reshape(-1, width)


def _refuse(path: Path, bad: np.ndarray, why: str, first: int = 0) -> None:
    """ReportError naming the line of row first + the first index where bad holds."""
    if bad.any():
        row = first + int(bad.argmax())
        i = next(islice(read_lines(path), row + 1, None))[0]  # the header comes first
        raise ReportError(f"{path}: {why} at line {i}")


def _span(path: Path, lo: float, hi: float) -> float:
    if not np.isfinite(hi - lo):
        raise ReportError(f"{path}: value range {lo:.6g}..{hi:.6g} is beyond float range")
    return (hi - lo) or 1.0


def _svg(a: np.ndarray, fields, rect: str, tail: list[str]):
    """The SVG's lines: rect % each row of the columns fields(b) for each row block b of a."""
    yield (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
           f'viewBox="0 0 {_W} {_H}">\n<rect width="{_W}" height="{_H}" fill="white"/>\n')
    for b in row_blocks(*a.shape):
        yield from (rect % t for t in zip(*(c.tolist() for c in fields(b))))
    yield from tail
    yield "</svg>\n"


def _histogram(path: Path, a: np.ndarray):
    """Bars from (bin_left, bin_right, count) rows."""
    _refuse(path, ~np.isfinite(a[:, :3]).all(axis=1), "non-finite bin edge or count")
    lo, hi = float(a[0, 0]), float(a[-1, 1])
    top = float(a[:, 2].max()) or 1.0
    span = _span(path, lo, hi)

    def bars(b):
        left, right, count = a[b, :3].T
        h = count / top * (_H - 2 * _PAD)
        return (_PAD + (left - lo) / span * (_W - 2 * _PAD), _H - _PAD - h,
                np.maximum((right - left) / span * (_W - 2 * _PAD) - 1.0, 0.5), h, count)

    with np.errstate(all="ignore"):  # a bar beyond float range is refused here
        for b in row_blocks(*a.shape):
            _refuse(path, ~np.isfinite(bars(b)).all(axis=0), "bar beyond float range", b.start)
    return _svg(a, bars, '<rect x="%.3f" y="%.3f" width="%.3f" height="%.3f" '
                'fill="#4878a8"><title>%.6g</title></rect>\n', [
        f'<line x1="{_PAD}" y1="{_H - _PAD}" x2="{_W - _PAD}" y2="{_H - _PAD}" stroke="black"/>\n',
        f'<text x="{_PAD}" y="{_H - 10}" font-size="12">{lo:.6g}</text>\n',
        f'<text x="{_W - _PAD}" y="{_H - 10}" font-size="12" text-anchor="end">{hi:.6g}</text>\n'])


def _heatmap(path: Path, a: np.ndarray):
    """A grid from (x, y, value) rows; a NaN value leaves its cell blank."""
    v = a[:, 2]
    _refuse(path, ~np.isfinite(a[:, :2]).all(axis=1), "non-finite coordinate")
    _refuse(path, np.isinf(v), "infinite value")
    if np.isnan(v).all():
        raise ReportError(f"{path}: all values are NaN")
    vmin, vmax = float(np.nanmin(v)), float(np.nanmax(v))
    vspan = _span(path, vmin, vmax)
    xs, xi = np.unique(a[:, 0], return_inverse=True)
    ys, yi = np.unique(a[:, 1], return_inverse=True)
    cw, ch = (_W - 2 * _PAD) / len(xs), (_H - 2 * _PAD) / len(ys)

    def squares(b):
        keep = ~np.isnan(v[b])
        val = v[b][keep]
        frac = (val - vmin) / vspan  # blue (low) to red (high)
        return (_PAD + xi[b][keep] * cw, _H - _PAD - (yi[b][keep] + 1) * ch,
                np.rint(255 * frac).astype(int), np.rint(255 * (1.0 - frac)).astype(int), val)

    return _svg(a, squares, f'<rect x="%.3f" y="%.3f" width="{cw:.3f}" height="{ch:.3f}" '
                'fill="rgb(%d,64,%d)"><title>%.6g</title></rect>\n', [
        f'<text x="{_PAD}" y="{_H - 10}" font-size="12">x: {xs[0]:.6g}..{xs[-1]:.6g} '
        f'y: {ys[0]:.6g}..{ys[-1]:.6g} v: {vmin:.6g}..{vmax:.6g}</text>\n'])


# the drawing for a CSV's first header cell; any other 3-column CSV is a histogram
_DRAWINGS = {"bin_left": _histogram, "gap_low": _histogram, "beta_correct": _heatmap}


def emit_report(directory: str | Path) -> list[Path]:
    """Render an SVG next to every recognized CSV in the directory. Every CSV
    to draw is read and checked, and every SVG path too, before the first SVG
    is written, so a CSV that cannot be drawn, or a directory in the way, leaves none."""
    directory = Path(directory)
    svgs = {}
    csvs = sorted(directory.glob("*.csv"))
    if not csvs:
        raise ReportError(f"{directory}: no CSV artifacts to render")
    for path in csvs:
        lines = read_lines(path)
        _, head = next(lines, (0, None))
        if head is None:
            raise ReportError(f"{path}: empty CSV")
        header = head.split(",")
        draw = _DRAWINGS.get(header[0], _histogram if len(header) == 3 else None)
        if draw is None or len(header) < 3:
            continue
        a = _cells(path, len(header), lines)
        if len(a):
            svgs[path.with_suffix(".svg")] = draw(path, a)
    if not svgs:
        raise ReportError(f"{directory}: no renderable CSV found")
    try:
        refuse_directories(svgs)
        for out, svg in svgs.items():
            with open(out, "w") as f:
                f.writelines(svg)
    except OSError as e:
        raise ReportError(f"cannot write {e.filename}: {e.strerror}") from e
    return list(svgs)
