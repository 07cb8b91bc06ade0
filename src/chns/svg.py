"""Native SVG polyline charts, fixed 800x600 viewbox, deterministic bytes."""

import math

from .errors import PreconditionError

WIDTH, HEIGHT = 800, 600
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 80, 30, 50, 60
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")


def _fmt(x):
    return f"{x:.6g}"


def _text(s):
    """``s`` as XML character data: ``html.escape(s, quote=False)``, without
    loading ``html``, whose entity tables cost a run about 0.4 MB."""
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _extent(values):
    lo = min(values)
    hi = max(values)
    if lo == hi:
        pad = 1.0 if lo == 0.0 else abs(lo) * 0.05
        lo, hi = lo - pad, hi + pad
    return lo, hi


def line_chart(title, xlabel, ylabel, series):
    """SVG text for a line chart.

    series: list of (xs, ys, label) with equal-length sequences.
    """
    series = [(list(xs), list(ys), label) for xs, ys, label in series]
    if not series or any(len(xs) == 0 or len(xs) != len(ys) for xs, ys, _ in series):
        raise PreconditionError("line_chart needs non-empty, equal-length series")
    xlo, xhi = _extent([x for xs, _, _ in series for x in xs])
    ylo, yhi = _extent([y for _, ys, _ in series for y in ys])
    finite = [xhi - xlo, yhi - ylo, *(v for xs, ys, _ in series for v in (*xs, *ys))]
    if not all(math.isfinite(v) for v in finite):
        raise PreconditionError("line_chart needs finite points and a finite x and y span")

    px = lambda x: MARGIN_L + (x - xlo) / (xhi - xlo) * (WIDTH - MARGIN_L - MARGIN_R)
    py = lambda y: HEIGHT - MARGIN_B - (y - ylo) / (yhi - ylo) * (HEIGHT - MARGIN_T - MARGIN_B)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="28" font-size="18" text-anchor="middle" '
        f'font-family="sans-serif">{_text(title)}</text>',
        # axes
        f'<line x1="{MARGIN_L}" y1="{HEIGHT - MARGIN_B}" x2="{WIDTH - MARGIN_R}" '
        f'y2="{HEIGHT - MARGIN_B}" stroke="black"/>',
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" '
        f'y2="{HEIGHT - MARGIN_B}" stroke="black"/>',
        # tick labels
        f'<text x="{MARGIN_L}" y="{HEIGHT - MARGIN_B + 20}" font-size="12" '
        f'text-anchor="middle" font-family="sans-serif">{_fmt(xlo)}</text>',
        f'<text x="{WIDTH - MARGIN_R}" y="{HEIGHT - MARGIN_B + 20}" font-size="12" '
        f'text-anchor="middle" font-family="sans-serif">{_fmt(xhi)}</text>',
        f'<text x="{MARGIN_L - 8}" y="{HEIGHT - MARGIN_B}" font-size="12" '
        f'text-anchor="end" font-family="sans-serif">{_fmt(ylo)}</text>',
        f'<text x="{MARGIN_L - 8}" y="{MARGIN_T + 4}" font-size="12" '
        f'text-anchor="end" font-family="sans-serif">{_fmt(yhi)}</text>',
        f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) // 2}" y="{HEIGHT - 16}" font-size="14" '
        f'text-anchor="middle" font-family="sans-serif">{_text(xlabel)}</text>',
        f'<text x="20" y="{HEIGHT // 2}" font-size="14" text-anchor="middle" '
        f'font-family="sans-serif" transform="rotate(-90 20 {HEIGHT // 2})">{_text(ylabel)}</text>',
    ]
    for i, (xs, ys, label) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        if label:
            ytxt = MARGIN_T + 16 + 16 * i
            parts.append(
                f'<line x1="{WIDTH - 180}" y1="{ytxt - 4}" x2="{WIDTH - 160}" '
                f'y2="{ytxt - 4}" stroke="{color}" stroke-width="2"/>'
            )
            parts.append(
                f'<text x="{WIDTH - 154}" y="{ytxt}" font-size="12" '
                f'font-family="sans-serif">{_text(label)}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_chart(path, title, xlabel, ylabel, series):
    text = line_chart(title, xlabel, ylabel, series)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path
