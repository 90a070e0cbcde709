"""Coherence CSV and SVG writers against the per-cell oracles, and atomic writes."""

import datetime as dt
import errno
import hashlib
import math

import numpy as np
import pytest

from dualstock.atomicfile import atomic_open
from dualstock.cli import CommandOutcome, _coherence_csv, _fixed6
from dualstock.svgplot import render_heatmap
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
    ours = "".join(render_heatmap(field, dates=dates, title="AAA / BBB squared coherence")).encode()
    render_heatmap_per_cell(field, oracle, dates=dates, title="AAA / BBB squared coherence")
    assert ours == oracle.read_bytes()


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
