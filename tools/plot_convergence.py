#!/usr/bin/env python3
"""Turn a convergence JSONL log (GolaOptions::convergence_path) into a
Figure-3-style plot: headline estimate with its CI band over query time,
plus the max-RSD decay on a second panel. Emits CSV and a self-contained
SVG; standard library only, so it runs anywhere CI does.

Usage:
  python3 tools/plot_convergence.py run.jsonl [-o out_prefix]

Writes <out_prefix>.csv and <out_prefix>.svg (default: the input path
minus its extension).
"""

import argparse
import csv
import json
import sys

CSV_FIELDS = [
    "batch_index", "fraction_processed", "elapsed_seconds", "batch_seconds",
    "estimate", "ci_lo", "ci_hi", "rsd", "max_rsd", "uncertain_tuples",
    "uncertain_groups", "recomputes", "result_rows",
]


def load_records(path):
    records = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as e:
                sys.exit(f"{path}:{lineno}: malformed JSONL record: {e}")
    if not records:
        sys.exit(f"{path}: no records")
    return records


def write_csv(records, path):
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, fieldnames=CSV_FIELDS, extrasaction="ignore")
        writer.writeheader()
        for r in records:
            writer.writerow({k: r.get(k) for k in CSV_FIELDS})


def scale(lo, hi, out_lo, out_hi):
    span = (hi - lo) or 1.0
    return lambda v: out_lo + (v - lo) / span * (out_hi - out_lo)


def polyline(points, stroke, width=1.5, dash=None):
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width}"{dash_attr}/>')


def axis_ticks(lo, hi, n=5):
    span = (hi - lo) or 1.0
    return [lo + span * i / (n - 1) for i in range(n)]


def fmt(v):
    a = abs(v)
    if a != 0 and (a >= 1e5 or a < 1e-3):
        return f"{v:.1e}"
    return f"{v:.3g}"


def panel(out, x0, y0, w, h, xs, series, title, ylabel, band=None):
    """One chart panel. series: list of (ys, color, dash); band: (lo, hi)."""
    ys_all = [y for ys, _, _ in series for y in ys if y is not None]
    if band:
        ys_all += [v for pair in band for v in pair if v is not None]
    if not ys_all:
        return
    y_lo, y_hi = min(ys_all), max(ys_all)
    pad = (y_hi - y_lo) * 0.08 or abs(y_hi) * 0.08 or 1.0
    y_lo, y_hi = y_lo - pad, y_hi + pad
    sx = scale(min(xs), max(xs), x0, x0 + w)
    sy = scale(y_lo, y_hi, y0 + h, y0)  # SVG y grows downward

    out.append(f'<rect x="{x0}" y="{y0}" width="{w}" height="{h}" '
               'fill="white" stroke="#888"/>')
    out.append(f'<text x="{x0 + w / 2}" y="{y0 - 8}" text-anchor="middle" '
               f'font-weight="bold">{title}</text>')
    for t in axis_ticks(y_lo, y_hi):
        y = sy(t)
        out.append(f'<line x1="{x0}" y1="{y:.2f}" x2="{x0 + w}" y2="{y:.2f}" '
                   'stroke="#ddd"/>')
        out.append(f'<text x="{x0 - 6}" y="{y + 4:.2f}" text-anchor="end" '
                   f'font-size="11">{fmt(t)}</text>')
    for t in axis_ticks(min(xs), max(xs)):
        x = sx(t)
        out.append(f'<text x="{x:.2f}" y="{y0 + h + 16}" text-anchor="middle" '
                   f'font-size="11">{fmt(t)}</text>')
    out.append(f'<text x="{x0 - 52}" y="{y0 + h / 2}" text-anchor="middle" '
               f'font-size="11" transform="rotate(-90 {x0 - 52} {y0 + h / 2})">'
               f'{ylabel}</text>')

    if band:
        lo_pts = [(sx(x), sy(v)) for x, v in zip(xs, band[0]) if v is not None]
        hi_pts = [(sx(x), sy(v)) for x, v in zip(xs, band[1]) if v is not None]
        if lo_pts and hi_pts:
            ring = " ".join(f"{x:.2f},{y:.2f}" for x, y in lo_pts + hi_pts[::-1])
            out.append(f'<polygon points="{ring}" fill="#4a90d9" '
                       'fill-opacity="0.18" stroke="none"/>')
    for ys, color, dash in series:
        pts = [(sx(x), sy(v)) for x, v in zip(xs, ys) if v is not None]
        if pts:
            out.append(polyline(pts, color, dash=dash))


def write_svg(records, path):
    xs = [r["elapsed_seconds"] for r in records]
    est = [r.get("estimate") for r in records]
    lo = [r.get("ci_lo") for r in records]
    hi = [r.get("ci_hi") for r in records]
    # max_rsd is null while some cell has no RSD yet (a NULL estimate).
    rsd = [None if r["max_rsd"] is None else 100 * r["max_rsd"] for r in records]
    recomputes = [r.get("recomputes", 0) for r in records]

    W, H = 760, 620
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
           f'viewBox="0 0 {W} {H}" font-family="sans-serif" font-size="13">',
           f'<rect width="{W}" height="{H}" fill="#fafafa"/>']
    panel(out, 90, 40, W - 140, 230, xs, [(est, "#1a5fb4", None)],
          "Online estimate with confidence band", "estimate", band=(lo, hi))
    panel(out, 90, 350, W - 140, 190, xs,
          [(rsd, "#c01c28", None)],
          "Max relative standard deviation", "max RSD (%)")
    # Recompute markers on the RSD panel's time axis.
    marks = [x for x, prev, cur in
             zip(xs[1:], recomputes, recomputes[1:]) if cur > prev]
    sx = scale(min(xs), max(xs), 90, W - 50)
    for x in marks:
        out.append(f'<line x1="{sx(x):.2f}" y1="350" x2="{sx(x):.2f}" y2="540" '
                   'stroke="#e5a50a" stroke-width="1.5" stroke-dasharray="4,3"/>')
    out.append(f'<text x="{W / 2}" y="{H - 28}" text-anchor="middle" '
               'font-size="12">query time (s)'
               + (" — dashed: range-failure recompute" if marks else "")
               + "</text>")
    out.append(f'<text x="{W / 2}" y="{H - 8}" text-anchor="middle" '
               f'font-size="11" fill="#666">{len(records)} batches, '
               f'{records[-1]["recomputes"]} recomputes, final max RSD '
               f'{fmt(rsd[-1])}%</text>')
    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(out) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("jsonl", help="convergence JSONL file")
    parser.add_argument("-o", "--out", help="output prefix (default: input "
                        "path without extension)")
    args = parser.parse_args()

    records = load_records(args.jsonl)
    prefix = args.out or args.jsonl.rsplit(".", 1)[0]
    write_csv(records, prefix + ".csv")
    write_svg(records, prefix + ".svg")
    print(f"wrote {prefix}.csv and {prefix}.svg ({len(records)} records)")


if __name__ == "__main__":
    main()
