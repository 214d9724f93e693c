"""Byte oracles for the block writers of ``perturb``'s, ``kernels``' and ``mc``'s artifacts.

The oracles are the earlier per-cell loops, kept verbatim: the heatmap of
``svgplot.heatmap``, the ``ratios.csv`` rows of ``cli.cmd_perturb`` and the
``KernelTable.export_csv`` that wrote ``kernels.csv``.  Each CSV cell is
checked against ``repr``, also at the bounds of orjson's notation and on
random bit patterns, so a change of that notation fails here.
"""

import io
import json

import numpy as np
import pytest

from levygreen import __version__, cli, kernels, svgplot
from levygreen.svgplot import _H, _PAD, _W, _axes


def heatmap_oracle(path, matrix, title: str = "", v_lo: float | None = None,
                   v_hi: float | None = None) -> None:
    """Color-cell heatmap of a matrix (blue low, white mid, red high)."""
    M = np.asarray(matrix, dtype=float)
    v_lo = float(np.min(M)) if v_lo is None else v_lo
    v_hi = float(np.max(M)) if v_hi is None else v_hi
    n, m = M.shape
    cw = (_W - 2 * _PAD) / m
    ch = (_H - 2 * _PAD) / n
    parts = _axes(title)
    span = max(v_hi - v_lo, 1e-300)
    for i in range(n):
        for j in range(m):
            t = (M[i, j] - v_lo) / span
            t = min(max(t, 0.0), 1.0)
            if t < 0.5:
                r, g, b = int(255 * 2 * t), int(255 * 2 * t), 255
            else:
                r, g, b = 255, int(255 * 2 * (1 - t)), int(255 * 2 * (1 - t))
            parts.append(f'<rect x="{_PAD + j * cw:.2f}" y="{_PAD + i * ch:.2f}" '
                         f'width="{cw:.2f}" height="{ch:.2f}" fill="rgb({r},{g},{b})"/>')
    parts.append(f'<text x="{_PAD}" y="{_H - 12}" font-size="11" '
                 f'font-family="sans-serif">range [{v_lo:.4g}, {v_hi:.4g}]</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))


def ratios_oracle(fh, nodes, unperturbed, matrix, r) -> None:
    for i in range(len(nodes)):
        for j in range(len(nodes)):
            fh.write(f"{float(nodes[i])!r},{float(nodes[j])!r},"
                     f"{float(unperturbed[i, j])!r},{float(matrix[i, j])!r},{float(r[i, j])!r}\n")


def export_csv_oracle(self, path, header_lines: tuple[str, ...] = ()):
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write("r,h,V,M,K,dK\n")
        for i in range(len(self.r)):
            fh.write(f"{float(self.r[i])!r},{float(self.h[i])!r},{float(self.V[i])!r},"
                     f"{float(self.M[i])!r},{float(self.K[i])!r},{float(self.dK[i])!r}\n")


def _same_heatmap(tmp_path, M, **kw):
    heatmap_oracle(tmp_path / "oracle.svg", M, **kw)
    svgplot.heatmap(tmp_path / "new.svg", M, **kw)
    return (tmp_path / "oracle.svg").read_bytes() == (tmp_path / "new.svg").read_bytes()


def test_heatmap_colour_at_the_midpoint(tmp_path):
    # the middle cell sits at exactly t = 0.5, the red branch's white
    M = np.array([[0.0, 0.5, 1.0], [0.25, 0.5 - 2 ** -54, 0.75]])
    assert _same_heatmap(tmp_path, M, title="mid")
    assert 'fill="rgb(255,255,255)"' in (tmp_path / "new.svg").read_text()


def test_heatmap_shapes_and_tiny_values(tmp_path):
    assert _same_heatmap(tmp_path, np.array([[1.7]]))
    rng = np.random.default_rng(3)
    assert _same_heatmap(tmp_path, rng.random((4, 11)), title="wide")
    assert _same_heatmap(tmp_path, rng.random((13, 2)), title="tall")
    assert _same_heatmap(tmp_path, np.array([[-0.0, 1e-05], [5e-324, 0.0]]))
    # a ratio field in the range perturb writes
    R = 1.0 + 0.05 * np.sin(np.add.outer(np.arange(37.0), 2.0 * np.arange(29.0)))
    assert _same_heatmap(tmp_path, R)


def test_heatmap_nan_cell_raises_before_writing(tmp_path):
    M = np.ones((3, 3))
    M[1, 2] = np.nan
    with pytest.raises(ValueError):
        heatmap_oracle(tmp_path / "oracle.svg", M)
    with pytest.raises(ValueError):
        svgplot.heatmap(tmp_path / "new.svg", M)
    assert not (tmp_path / "oracle.svg").exists()
    assert not (tmp_path / "new.svg").exists()


def test_heatmap_infinite_cell_without_range_raises(tmp_path):
    M = np.ones((2, 2))
    M[0, 1] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        heatmap_oracle(tmp_path / "oracle.svg", M)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        svgplot.heatmap(tmp_path / "new.svg", M)
    assert not (tmp_path / "new.svg").exists()


# the floats on each side of the bounds 1e-4 and 1e16 of orjson's notation,
# the zeros, the extremes, NaN and +-inf, with both signs
_EDGE = np.array([0.0, 5e-324, 2.2250738585072014e-308, np.nextafter(1e-4, 0.0), 1e-4,
                  np.nextafter(1e-4, 1.0), 9999999999999998.0, 1e16, np.nextafter(1e16, np.inf),
                  np.finfo(float).max, np.inf, np.nan])
EDGE_FLOATS = np.concatenate([_EDGE, -_EDGE])


def random_floats(rng, size):
    """Random float64 bit patterns: half with any exponent, half with 2**-20 <= |x| < 2**60."""
    bits = rng.integers(0, 2**64, size, dtype=np.uint64)
    near = bits[size // 2:]
    near &= ~np.uint64(0x7FF << 52)
    near |= rng.integers(1023 - 20, 1023 + 60, near.size).astype(np.uint64) << np.uint64(52)
    return bits.view(np.float64)


@pytest.mark.parametrize("n", [1, 2, 9])
def test_ratio_rows_match_per_cell_writer(n):
    rng = np.random.default_rng(n)
    nodes = np.sort(rng.uniform(-1.0, 1.0, n))
    nodes[0] = -0.0
    if n > 2:
        nodes[1], nodes[2] = 5e-324, 1e-05
    G = rng.random((n, n))
    G[0, 0] = 1e-05
    Gt = G * (1.0 + 0.1 * rng.standard_normal((n, n)))
    Gt[-1, 0] = -0.0
    Gt[0, -1] = 5e-324
    R = Gt / G
    if n > 2:
        G.flat[-len(EDGE_FLOATS):] = EDGE_FLOATS
        Gt.flat[:len(EDGE_FLOATS)] = EDGE_FLOATS[::-1]
        R.flat[30:30 + len(EDGE_FLOATS)] = EDGE_FLOATS
    old, new = io.StringIO(), io.BytesIO()
    ratios_oracle(old, nodes, G, Gt, R)
    cli._write_grid_rows(new, nodes, G, Gt, R)
    assert new.getvalue() == old.getvalue().encode()
    assert new.getvalue().startswith(b"-0.0,-0.0,1e-05,")


def test_rows_writer_matches_per_element_writer():
    # the exit-law rows of ``mc``: float edges and integer counts, here with
    # the edge floats, the int64 extremes and 1e6 random bit patterns
    rng = np.random.default_rng(7)
    edges = np.concatenate([[-0.0, 1e-05, 0.1 + 0.2, 2.5], EDGE_FLOATS,
                            random_floats(rng, 1_000_000)])
    counts = rng.integers(-2**63, 2**63, len(edges) - 1, dtype=np.int64)
    counts[:6] = [0, 3, 12345, 2**63 - 1, -2**63, -1]
    old = "".join(f"{lo!r},{hi!r},{c!r}\n" for lo, hi, c in
                  zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist()))
    assert cli._csv_rows(edges[:-1], edges[1:], counts) == old.encode()
    assert cli._csv_rows(edges[:0], counts[:0]) == b""


@pytest.mark.parametrize("model", [
    {"family": "stable", "alpha": 1.5},
    {"family": "stable-mixture", "alphas": [1.2, 1.7], "weights": [1.0, 0.5]},
], ids=["stable", "mixture"])
def test_kernels_csv_matches_per_cell_writer(tmp_path, monkeypatch, model):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"model": model, "domain": {"intervals": [[-1.0, 1.0]]},
                               "grid": {"points_per_decade": 4}}))
    tables = []
    build = kernels.build_table
    monkeypatch.setattr(kernels, "build_table",
                        lambda *a, **kw: tables.append(build(*a, **kw)) or tables[-1])
    cli.main(["kernels", "--config", str(cfg), "--out", str(tmp_path / "out")])
    (table,) = tables
    digest = cli._load_config(str(cfg))[1]
    export_csv_oracle(table, tmp_path / "oracle.csv",
                      (f"config_sha256={digest}", f"version={__version__}",
                       f"model={json.dumps(table.model.describe())}"))
    assert (tmp_path / "out" / "kernels.csv").read_bytes() == \
        (tmp_path / "oracle.csv").read_bytes()
