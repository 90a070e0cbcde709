import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from dualstock.svgplot import render_heatmap
from dualstock.wavelet import CoherenceField, ScaleGrid, cone_of_influence


def make_field(num_scales=10, n=100, phase_value=0.0, significant="all"):
    grid = ScaleGrid(s0=2.0, dj=0.25, num_scales=num_scales)
    rho2 = np.linspace(0, 1, num_scales * n).reshape(num_scales, n)
    phase = np.full((num_scales, n), phase_value)
    if isinstance(significant, str) and significant == "all":
        mask = np.ones((num_scales, n), dtype=bool)
    else:
        mask = significant
    return CoherenceField(
        rho2=rho2,
        phase=phase,
        grid=grid,
        coi=cone_of_influence(n),
        significant=mask,
    )


def tags(root, name):
    return [el for el in root.iter() if el.tag.split("}")[-1] == name]


def parse(path):
    return ET.parse(path).getroot()


class TestStructure:
    def test_parses_and_single_coi_path(self, tmp_path):
        out = tmp_path / "field.svg"
        render_heatmap(make_field(), out)
        root = parse(out)
        coi = [el for el in tags(root, "path") if el.get("class") == "coi"]
        assert len(coi) == 1

    def test_heatmap_cells_present(self, tmp_path):
        out = tmp_path / "field.svg"
        render_heatmap(make_field(), out)
        root = parse(out)
        cells = [el for el in tags(root, "rect") if el.get("class") == "cell"]
        assert len(cells) >= 10  # at least one run per scale row

    def test_title_and_dates(self, tmp_path):
        out = tmp_path / "field.svg"
        dates = [f"d{i}" for i in range(100)]
        render_heatmap(make_field(), out, dates=dates, title="demo title")
        text = out.read_text()
        assert "demo title" in text
        assert "d0" in text

    def test_title_is_xml_escaped(self, tmp_path):
        out = tmp_path / "field.svg"
        render_heatmap(make_field(), out, title="AT&T / <B> squared coherence")
        titles = [el.text for el in tags(parse(out), "text") if el.get("font-size") == "14"]
        assert titles == ["AT&T / <B> squared coherence"]

    def test_deterministic_bytes(self, tmp_path):
        f = make_field()
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        render_heatmap(f, a)
        render_heatmap(f, b)
        assert a.read_bytes() == b.read_bytes()

    def test_write_error_surfaces_path(self, tmp_path):
        missing = tmp_path / "nodir" / "x.svg"
        with pytest.raises(OSError, match="x.svg"):
            render_heatmap(make_field(), missing)


class TestArrows:
    def arrow_angles(self, path):
        root = parse(path)
        arrows = [el for el in tags(root, "line") if el.get("class") == "phase-arrow"]
        angles = []
        for el in arrows:
            dx = float(el.get("x2")) - float(el.get("x1"))
            dy = float(el.get("y2")) - float(el.get("y1"))
            angles.append(math.atan2(-dy, dx))
        return angles

    def test_east_for_zero_phase(self, tmp_path):
        out = tmp_path / "east.svg"
        render_heatmap(make_field(phase_value=0.0), out)
        angles = self.arrow_angles(out)
        assert angles
        assert all(abs(a) < math.radians(2) for a in angles)

    def test_north_for_half_pi(self, tmp_path):
        out = tmp_path / "north.svg"
        render_heatmap(make_field(phase_value=math.pi / 2), out)
        angles = self.arrow_angles(out)
        assert angles
        assert all(abs(a - math.pi / 2) < math.radians(2) for a in angles)

    def test_suppressed_outside_significance(self, tmp_path):
        field_none = make_field(significant=np.zeros((10, 100), dtype=bool))
        out = tmp_path / "none.svg"
        render_heatmap(field_none, out)
        assert self.arrow_angles(out) == []

    def test_significance_contour_present(self, tmp_path):
        mask = np.zeros((10, 100), dtype=bool)
        mask[4:7, 30:60] = True
        out = tmp_path / "contour.svg"
        render_heatmap(make_field(significant=mask), out)
        root = parse(out)
        contours = [el for el in tags(root, "path") if el.get("class") == "significance-contour"]
        assert len(contours) == 1

    def test_no_mask_draws_arrows_inside_coi_only(self, tmp_path):
        out = tmp_path / "nomask.svg"
        render_heatmap(make_field(significant=None), out)
        angles = self.arrow_angles(out)
        assert angles  # interior arrows exist even without a mask
