"""Coherence CSV and SVG writers against the per-cell oracles, and atomic writes."""

import datetime as dt
import errno
import hashlib
import math
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from dualstock.atomicfile import atomic_open
from dualstock.cli import CommandOutcome, Unit, _coherence_csv, _fixed6
from dualstock.svgplot import MARGIN_LEFT, MARGIN_TOP, PLOT_H, PLOT_W, QUANT_LEVELS, _LEVEL_COLORS, _fmt, render_heatmap
from dualstock.wavelet import CoherenceField, ScaleGrid, cone_of_influence
from _oracles import coherence_csv_per_cell, render_heatmap_per_cell


def make_field(rho2, phase, significant):
    rho2 = np.asarray(rho2, dtype=np.float64)
    num_scales, n = rho2.shape
    return CoherenceField(
        rho2=rho2,
        phase=np.asarray(phase, dtype=np.float64),
        grid=ScaleGrid(dj=0.25, num_scales=num_scales),
        # cone_of_influence needs two points; one point is one edge away
        coi=cone_of_influence(n) if n > 1 else np.array([math.sqrt(2.0)]),
        significant=significant,
        exceedances=np.zeros((num_scales, n), dtype=np.int64),
    )


def random_field(seed, num_scales, n, mask="blobs"):
    """A random field whose mask is ``"blobs"``, ``"random"`` or ``"all"`` significant."""
    rng = np.random.default_rng(seed)
    # A smooth random field, so the heatmap has runs longer than one cell.
    rho2 = np.clip(np.cumsum(rng.normal(0.0, 0.08, size=(num_scales, n)), axis=1) % 1.0, 0.0, 1.0)
    phase = rng.uniform(-math.pi, math.pi, size=(num_scales, n))
    if mask == "blobs":
        significant = (np.cumsum(rng.normal(0.0, 1.0, size=(num_scales, n)), axis=1) > 0.5)
    elif mask == "random":
        significant = rng.random((num_scales, n)) < 0.5
    else:
        significant = np.ones((num_scales, n), dtype=bool)
    return make_field(rho2, phase, significant)


def edge_values_field():
    """Exact 0 and 1, +-pi, -0.0, and values at or near a sixth-decimal rounding half."""
    values = [0.0, 1.0, 0.5, 0.0000005, 0.0000015, 0.1234565, 0.9999995, 1e-7, 0.0078125, -0.0]
    phases = [math.pi, -math.pi, -0.0, 0.0, -1e-7, -0.0000005, 2.0000005, -3.1415925, 1e-300, -1e-300]
    rho2 = np.array([values, values[::-1], sorted(values)])
    phase = np.array([phases, phases[::-1], sorted(phases)])
    return make_field(rho2, phase, np.array([[True, False] * 5, [False] * 10, [True] * 10]))


CASES = {
    "random-blobs": lambda: random_field(1, 13, 257),
    "random-checkerboard": lambda: random_field(2, 9, 64, mask="random"),
    "random-all-significant": lambda: random_field(3, 11, 100, mask="all"),
    "all-significant": lambda: make_field(np.full((6, 40), 0.3), np.zeros((6, 40)), np.ones((6, 40), dtype=bool)),
    "none-significant": lambda: make_field(np.full((6, 40), 0.3), np.zeros((6, 40)), np.zeros((6, 40), dtype=bool)),
    "one-cell": lambda: make_field([[0.7]], [[-0.0]], np.array([[True]])),
    "one-time-step": lambda: random_field(4, 8, 1),
    "one-scale": lambda: random_field(5, 1, 50),
    "zeros-and-ones": lambda: make_field(
        np.tile([[0.0], [1.0]], (2, 30)), np.full((4, 30), -math.pi), np.eye(4, 30, dtype=bool)
    ),
    "one-run-per-row": lambda: make_field(
        np.linspace(0.0, 1.0, 12)[:, None] * np.ones((12, 80)),
        np.full((12, 80), math.pi / 2),
        np.arange(12)[:, None] < np.full((12, 80), 6),  # the upper six rows, edge to edge
    ),
    "edge-values": edge_values_field,
    # as wide as the plot: one bin per cell
    "plot-width": lambda: random_field(10, 3, 880),
    # wider than the plot: bins of 2 cells, then of 3 with a last bin of 2,
    # then the paper's 7 with a last bin of 2
    "binned-even": lambda: random_field(6, 4, 1000),
    "binned-ragged": lambda: random_field(7, 5, 1763, mask="random"),
    "binned-paper-width": lambda: random_field(8, 3, 5581),
    # bins of 2 cells whose means fall on, or one ulp below, a level boundary
    "binned-level-edges": lambda: make_field(
        np.tile(
            [
                [0.25, 0.25, 0.25, np.nextafter(0.25, 0.0)],
                [0.0, 0.5, 0.5, 0.0],
                [1.0 / 32, 3.0 / 32, 0.1, 0.0],
                [1.0, 1.0, 1.0, 0.9],
                [0.96875, 1.0, 0.0, 0.0],
            ],
            (1, 300),
        ),
        np.zeros((5, 1200)),
        np.tile(
            [[True, False, False], [True, True, False], [False, True, True], [True, True, True], [False] * 3], (1, 400)
        ),
    ),
}


def day_list(n):
    return [dt.date(2020, 1, 1) + dt.timedelta(days=t) for t in range(n)]


@pytest.mark.parametrize("case", sorted(CASES))
def test_csv_bytes_match_per_cell_oracle(tmp_path, case):
    field = CASES[case]()
    dates = day_list(field.n)
    path = tmp_path / "field.csv"
    outcome = CommandOutcome()
    outcome.write(path, _coherence_csv(field, dates))
    assert list(outcome.files) == [path]
    assert path.read_bytes() == coherence_csv_per_cell(field, dates).encode("utf-8")
    assert outcome.files[path] == hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("with_dates", [True, False])
@pytest.mark.parametrize("case", sorted(CASES))
def test_svg_bytes_match_per_cell_oracle(tmp_path, case, with_dates):
    field = CASES[case]()
    dates = day_list(field.n) if with_dates else None
    oracle = tmp_path / "oracle.svg"
    # the second title holds the three characters that text content escapes
    for title in ("AAA / BBB squared coherence", "AT&T <B> / C squared coherence"):
        ours = "".join(render_heatmap(field, dates=dates, title=title)).encode()
        render_heatmap_per_cell(field, oracle, dates=dates, title=title)
        assert ours == oracle.read_bytes()


def _percent6(values) -> bytes:
    return "".join("%.6f" % v for v in values.tolist()).encode()


def _fixed6_text(values) -> bytes:
    out = np.zeros((len(values), 9), dtype=np.uint8)
    _fixed6(values, out)
    return out.tobytes().replace(b"\0", b"")


def test_fixed6_seeded_sweep_is_percent_format():
    rng = np.random.default_rng(28)
    values = np.concatenate([rng.uniform(0.0, 1.0, 100_000), rng.uniform(-math.pi, math.pi, 100_000)])
    assert _fixed6_text(values) == _percent6(values)


def test_fixed6_every_half_and_its_neighbours_is_percent_format():
    # the nearest double to every m + 0.5 micro-unit below 1, and to a seeded
    # sample of them on the other integer digits and signs of the phase
    rng = np.random.default_rng(29)
    halves = (np.arange(1_000_000) + 0.5) / 1e6
    others = rng.integers(-3, 4, 200_000) + rng.choice(halves, 200_000)
    for centre in (halves, others):
        for values in (centre, np.nextafter(centre, -np.inf), np.nextafter(centre, np.inf)):
            assert _fixed6_text(values) == _percent6(values)
    special = np.array([0.0, -0.0, 0.9999995, 9.4999995, -0.9999995, -9.4999995, 0.0000005, -0.0000005])
    assert _fixed6_text(special) == _percent6(special)


def test_fixed6_is_percent_format_on_ties_and_their_neighbours():
    rng = np.random.default_rng(0)
    halves = (np.arange(100_000) + 0.5) / 1e6  # nearest doubles to x.5 micro-units
    values = np.concatenate(
        [
            rng.uniform(-math.pi, math.pi, 100_000),
            np.arange(2**16) / 2**16,  # dyadic: exact halves, rounded to even
            -np.arange(2**12) / 2**12,
            halves,
            np.nextafter(halves, 0.0),
            np.nextafter(halves, 1.0),
            np.arange(10_001) / 1e4,
            [0.0, -0.0, 1.0, -1.0, math.pi, -math.pi, 5e-324, -5e-324, 1e-300, 0.9999995, 0.99999949999, 9.4999],
        ]
    )
    out = np.zeros((len(values), 9), dtype=np.uint8)
    _fixed6(values, out)
    assert out.tobytes().replace(b"\0", b"") == "".join("%.6f" % v for v in values.tolist()).encode()


def test_edge_values_print_as_the_per_cell_formatting():
    field = edge_values_field()
    text = coherence_csv_per_cell(field, day_list(field.n))
    assert ",-0.000000," in text  # -0.0 and tiny negative phases keep their sign
    assert ",3.141593," in text and ",-3.141593," in text


def svg_root(field):
    return ET.fromstring("".join(render_heatmap(field)))


def svg_elements(root, tag, cls):
    return [el for el in root.iter(f"{{http://www.w3.org/2000/svg}}{tag}") if el.get("class") == cls]


@pytest.mark.parametrize("case", ["random-blobs", "one-cell", "one-run-per-row", "edge-values", "plot-width"])
def test_heatmap_up_to_plot_width_is_one_rect_per_run_of_cells(case):
    # n <= PLOT_W: one bin per cell, so the rects are the run-length code of
    # every cell's quantized rho2, as drawn before the heatmap was binned
    field = CASES[case]()
    num_scales, n = field.rho2.shape
    assert n <= PLOT_W
    cell_w, cell_h = PLOT_W / n, PLOT_H / num_scales
    expected = []
    for j, row in enumerate(np.minimum((field.rho2 * QUANT_LEVELS).astype(int), QUANT_LEVELS - 1).tolist()):
        start = 0
        for t in range(1, n + 1):
            if t == n or row[t] != row[start]:
                x, y = _fmt(MARGIN_LEFT + start * cell_w), _fmt(MARGIN_TOP + j * cell_h)
                expected.append((x, y, _fmt((t - start) * cell_w), _LEVEL_COLORS[row[start]]))
                start = t
    rects = [
        (el.get("x"), el.get("y"), el.get("width"), el.get("fill")) for el in svg_elements(svg_root(field), "rect", "cell")
    ]
    assert rects == expected


@pytest.mark.parametrize("n", [880, 881, 1763, 5581])
def test_heatmap_rows_tile_whole_bins(n):
    # a row's rects start on bins of k = ceil(n / PLOT_W) cells and span the
    # row edge to edge, so a row has at most PLOT_W of them
    field = random_field(9, 3, n, mask="random")
    k = math.ceil(n / PLOT_W)
    cell_w = PLOT_W / n
    xs = {_fmt(MARGIN_LEFT + t * cell_w): t for t in range(n + 1)}
    rows: dict[str, list] = {}
    for el in svg_elements(svg_root(field), "rect", "cell"):
        rows.setdefault(el.get("y"), []).append((xs[el.get("x")], el.get("width")))
    assert len(rows) == 3
    for rects in rows.values():
        starts = [t for t, _ in rects]
        assert len(rects) <= PLOT_W and starts[0] == 0 and all(t % k == 0 for t in starts)
        assert [width for _, width in rects] == [_fmt((b - a) * cell_w) for a, b in zip(starts, starts[1:] + [n])]


@pytest.mark.parametrize("case", sorted(CASES))
def test_contour_splits_into_the_mask_edges(case):
    # every segment of the contour path, cut into unit cell edges, is one
    # side of one cell; together they are the four side masks of significant
    field = CASES[case]()
    mask = field.significant
    num_scales, n = mask.shape
    xs = {_fmt(MARGIN_LEFT + t * PLOT_W / n): t for t in range(n + 1)}
    ys = {_fmt(MARGIN_TOP + j * PLOT_H / num_scales): j for j in range(num_scales + 1)}
    assert len(xs) == n + 1 and len(ys) == num_scales + 1
    sides = {name: np.zeros(mask.shape, dtype=bool) for name in ("left", "right", "top", "bottom")}
    contours = svg_elements(svg_root(field), "path", "significance-contour")
    segments = re.findall(r"M([^ ]+) ([^L]+)L([^ ]+) ([^M]+)", contours[0].get("d")) if contours else []
    for x0, y0, x1, y1 in segments:
        t0, j0, t1, j1 = xs[x0], ys[y0], xs[x1], ys[y1]
        if t0 == t1:  # a vertical edge of one cell, left of column t0
            assert j1 == j0 + 1
            if t0 < n and mask[j0, t0] and (t0 == 0 or not mask[j0, t0 - 1]):
                name, t = "left", t0
            else:
                name, t = "right", t0 - 1
            assert not sides[name][j0, t]
            sides[name][j0, t] = True
        else:  # a run of top or bottom edges along row line j0
            assert j0 == j1 and t0 < t1
            if j0 < num_scales and mask[j0, t0] and (j0 == 0 or not mask[j0 - 1, t0]):
                name, j = "top", j0
            else:
                name, j = "bottom", j0 - 1
            assert not sides[name][j, t0:t1].any()
            sides[name][j, t0:t1] = True
    padded = np.pad(mask, 1)
    assert np.array_equal(sides["left"], mask & ~padded[1:-1, :-2])
    assert np.array_equal(sides["right"], mask & ~padded[1:-1, 2:])
    assert np.array_equal(sides["top"], mask & ~padded[:-2, 1:-1])
    assert np.array_equal(sides["bottom"], mask & ~padded[2:, 1:-1])


class TestCommandOutcomeWrite:
    TEXT = "date,rho2\n2020-01-01,0.5\nÄ,ü\n"

    @pytest.mark.parametrize(
        "given",
        [
            TEXT,
            TEXT.encode(),
            ["date,rho2\n", "2020-01-01,0.5\n", "Ä,ü\n"],
            [b"date,rho2\n", b"2020-01-01,0.5\n", "Ä,ü\n".encode()],
            iter([b"date,rho2\n", "2020-01-01,0.5\n", "Ä".encode(), ",ü\n"]),
        ],
        ids=["str", "bytes", "str-chunks", "bytes-chunks", "mixed-chunks"],
    )
    def test_str_and_bytes_write_one_file_and_digest(self, tmp_path, given):
        path = tmp_path / "out.csv"
        outcome = CommandOutcome()
        outcome.write(path, given)
        assert path.read_bytes() == self.TEXT.encode("utf-8")
        assert outcome.files == {path: hashlib.sha256(self.TEXT.encode("utf-8")).hexdigest()}


class TestCommandOutcomeExecute:
    def test_units_run_in_order_and_a_failed_compute_fails_each_name(self, tmp_path):
        seen = []

        def fails(written):
            raise ValueError("bad cell")

        def reads(written):
            seen.append(list(written))
            return [({tmp_path / "b.txt": "b\n"}, "b")]

        units = [
            Unit(("first",), lambda written: [({tmp_path / "a.txt": "a\n"}, "a")]),
            Unit(("cell one", "cell two"), fails),
            Unit(("later",), reads),
        ]
        outcome = CommandOutcome(roots=(tmp_path,))
        assert outcome.execute(units) == ["a", "b"]
        assert seen == [["a"]]
        assert outcome.failures == ["cell one: bad cell", "cell two: bad cell"]
        assert list(outcome.files) == [tmp_path / "a.txt", tmp_path / "b.txt"]

    def test_chunk_raising_midway_fails_its_part_alone(self, tmp_path):
        # the temporary file is closed and removed: pytest turns an unclosed
        # file's ResourceWarning into an error (pyproject.toml)
        def chunks():
            yield "date,rho2\n"
            raise OSError(errno.ENOSPC, "No space left on device")

        parts = [({tmp_path / "one.csv": chunks()}, 1), ({tmp_path / "two.csv": "two\n"}, 2), ValueError("diverged")]
        outcome = CommandOutcome(roots=(tmp_path,))
        assert outcome.execute([Unit(("run one", "run two", "run three"), lambda written: parts)]) == [2]
        assert outcome.failures == ["run one: one.csv: [Errno 28] No space left on device", "run three: diverged"]
        assert list(outcome.files) == [tmp_path / "two.csv"]
        assert [p.name for p in tmp_path.iterdir()] == ["two.csv"]


class TestAtomicOpen:
    def test_writes_and_keeps_the_umask_mode(self, tmp_path):
        target = tmp_path / "out.txt"
        plain = tmp_path / "plain.txt"
        with atomic_open(target) as fh:
            fh.write(b"done\n")
        plain.write_text("done\n", encoding="utf-8")
        assert target.read_text(encoding="utf-8") == "done\n"
        assert target.stat().st_mode == plain.stat().st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt", "plain.txt"]

    def test_writer_raising_halfway_leaves_nothing(self, tmp_path):
        target = tmp_path / "out.txt"
        with pytest.raises(RuntimeError, match="halfway"):
            with atomic_open(target) as fh:
                fh.write(b"partial " * 10_000)
                raise RuntimeError("halfway")
        assert list(tmp_path.iterdir()) == []

    def test_failed_rewrite_keeps_the_previous_file(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("previous\n", encoding="utf-8")
        with pytest.raises(RuntimeError):
            with atomic_open(target) as fh:
                fh.write(b"partial")
                raise RuntimeError("halfway")
        assert target.read_text(encoding="utf-8") == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_svg_failing_midway_leaves_nothing(self, tmp_path, monkeypatch):
        import dualstock.svgplot as svgplot

        def failing_contour(*args):
            yield "M0 0L1 1"
            raise OSError("disk full")

        monkeypatch.setattr(svgplot, "_contour_rows", failing_contour)
        outcome = CommandOutcome()
        with pytest.raises(OSError, match="field.svg.*disk full"):
            outcome.write(tmp_path / "field.svg", render_heatmap(random_field(1, 5, 30)))
        assert list(outcome.files) == []
        assert list(tmp_path.iterdir()) == []

    def test_write_error_names_the_file(self, tmp_path):
        # an error raised while writing carries no filename of its own
        def chunks():
            yield "date,rho2\n"
            raise OSError(errno.ENOSPC, "No space left on device")

        outcome = CommandOutcome()
        with pytest.raises(OSError, match=r"field\.csv: \[Errno 28\] No space left on device"):
            outcome.write(tmp_path / "field.csv", chunks())
        assert list(outcome.files) == []
        assert list(tmp_path.iterdir()) == []

    def test_csv_failing_midway_leaves_nothing_and_is_not_listed(self, tmp_path, monkeypatch):
        import dualstock.cli as cli

        calls = []

        def failing_fixed6(values, out):
            # two calls per scale row, so rows 0-2 are written before row 3 fails
            calls.append(None)
            if len(calls) > 6:
                raise TypeError("row 3 cannot be formatted")
            _fixed6(values, out)

        monkeypatch.setattr(cli, "_fixed6", failing_fixed6)
        field = random_field(1, 5, 30)
        outcome = CommandOutcome()
        with pytest.raises(TypeError):
            outcome.write(tmp_path / "field.csv", _coherence_csv(field, day_list(field.n)))
        assert list(outcome.files) == []
        assert list(tmp_path.iterdir()) == []
