"""Hand-emitted SVG bifurcation diagrams.

One (mu, e_norm) polyline per branch, colored per (k, nu, sigma), with
the bifurcation points marked on the mu axis.  Output bytes are a pure
function of the input branches: floats are printed with a fixed format
and there are no timestamps.
"""

WIDTH, HEIGHT = 800, 560
MARGIN = 60

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd",
           "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
           "#bcbd22", "#e377c2", "#393b79", "#637939"]


def _fmt(x):
    return f"{x:.6g}"


def render_diagram(branches):
    """SVG document (str) for a nonempty list of branches."""
    if not branches:
        raise ValueError("render_diagram needs at least one branch")
    mus = [p.mu for b in branches for p in b.points] + [b.origin_mu for b in branches]
    norms = [p.profile.norm for b in branches for p in b.points] + [0.0]
    mu_lo, mu_hi = min(mus), max(mus)
    if mu_hi - mu_lo < 1e-9 * (1.0 + abs(mu_hi)):
        pad = 0.05 * (1.0 + abs(mu_hi))
        mu_lo, mu_hi = mu_lo - pad, mu_hi + pad
    y_hi = max(norms) * 1.05 or 1.0

    def sx(mu):
        return MARGIN + (mu - mu_lo) / (mu_hi - mu_lo) * (WIDTH - 2 * MARGIN)

    def sy(v):
        return HEIGHT - MARGIN - v / y_hi * (HEIGHT - 2 * MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black" stroke-width="1"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black" stroke-width="1"/>',
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 18}" font-size="14" '
        f'text-anchor="middle">mu</text>',
        f'<text x="18" y="{HEIGHT // 2}" font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 18 {HEIGHT // 2})">e_norm</text>',
    ]
    for tick in (mu_lo, 0.5 * (mu_lo + mu_hi), mu_hi):
        parts.append(f'<text x="{_fmt(sx(tick))}" y="{HEIGHT - MARGIN + 18}" '
                     f'font-size="11" text-anchor="middle">{_fmt(tick)}</text>')
    parts.append(f'<text x="{MARGIN - 8}" y="{_fmt(sy(y_hi / 1.05))}" font-size="11" '
                 f'text-anchor="end">{_fmt(y_hi / 1.05)}</text>')

    for i, b in enumerate(sorted(branches, key=lambda b: (b.k, -b.nu, -b.sigma))):
        color = PALETTE[i % len(PALETTE)]
        pts = [(b.origin_mu, 0.0)] + [(p.mu, p.profile.norm) for p in b.points]
        coords = " ".join(f"{_fmt(sx(mu))},{_fmt(sy(v))}" for mu, v in pts)
        label = f"k={b.k} nu={'+' if b.nu > 0 else '-'} sigma={'+' if b.sigma > 0 else '-'}"
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"><title>{label}</title></polyline>')
        parts.append(f'<circle cx="{_fmt(sx(b.origin_mu))}" cy="{_fmt(sy(0.0))}" '
                     f'r="3" fill="{color}"/>')
        parts.append(f'<text x="{WIDTH - MARGIN + 4}" y="{MARGIN + 14 * i}" '
                     f'font-size="10" fill="{color}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
