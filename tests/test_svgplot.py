import math
import xml.etree.ElementTree as ET

import numpy as np

from dualstock.cli import CommandOutcome, Unit
from dualstock.svgplot import ARROW_BLOCK_S, ARROW_BLOCK_T, render_heatmap
from dualstock.wavelet import CoherenceField, ScaleGrid, cone_of_influence


def make_field(num_scales=10, n=100, phase_value=0.0, significant="all"):
    grid = ScaleGrid(dj=0.25, num_scales=num_scales)
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
        exceedances=np.zeros((num_scales, n), dtype=np.int64),
    )


def tags(root, name):
    return [el for el in root.iter() if el.tag.split("}")[-1] == name]


def day_labels(n):
    return [f"d{i}" for i in range(n)]


def render(field, title="demo title"):
    return "".join(render_heatmap(field, day_labels(field.n), title))


def parse(text):
    return ET.fromstring(text)


class TestStructure:
    def test_parses_and_single_coi_path(self):
        root = parse(render(make_field()))
        coi = [el for el in tags(root, "path") if el.get("class") == "coi"]
        assert len(coi) == 1

    def test_heatmap_cells_present(self):
        root = parse(render(make_field()))
        cells = [el for el in tags(root, "rect") if el.get("class") == "cell"]
        assert len(cells) >= 10  # at least one run per scale row

    def test_title_and_dates(self):
        text = render(make_field())
        assert "demo title" in text
        assert "d0" in text

    def test_title_is_xml_escaped(self):
        text = render(make_field(), title="AT&T / <B> squared coherence")
        titles = [el.text for el in tags(parse(text), "text") if el.get("font-size") == "14"]
        assert titles == ["AT&T / <B> squared coherence"]

    def test_deterministic_bytes(self):
        f = make_field()
        assert render(f).encode() == render(f).encode()

    def test_write_error_surfaces_path(self, tmp_path):
        # a directory where the SVG should go: the rename onto it fails
        target = tmp_path / "AAA_CCC.svg"
        target.mkdir()
        outcome = CommandOutcome()
        outcome.execute([Unit(("coherence AAA_CCC",), lambda written: [({target: render_heatmap(make_field(), day_labels(100), "demo title")}, None)])])
        assert len(outcome.failures) == 1
        assert outcome.failures[0].startswith("coherence AAA_CCC: ")
        assert "AAA_CCC.svg" in outcome.failures[0]
        assert list(outcome.files) == []
        assert [p.name for p in tmp_path.iterdir()] == ["AAA_CCC.svg"]


class TestArrows:
    def arrow_angles(self, text):
        root = parse(text)
        arrows = [el for el in tags(root, "line") if el.get("class") == "phase-arrow"]
        angles = []
        for el in arrows:
            dx = float(el.get("x2")) - float(el.get("x1"))
            dy = float(el.get("y2")) - float(el.get("y1"))
            angles.append(math.atan2(-dy, dx))
        return angles

    def test_east_for_zero_phase(self):
        angles = self.arrow_angles(render(make_field(phase_value=0.0)))
        assert angles
        assert all(abs(a) < math.radians(2) for a in angles)

    def test_north_for_half_pi(self):
        angles = self.arrow_angles(render(make_field(phase_value=math.pi / 2)))
        assert angles
        assert all(abs(a - math.pi / 2) < math.radians(2) for a in angles)

    def test_suppressed_outside_significance(self):
        field_none = make_field(significant=np.zeros((10, 100), dtype=bool))
        assert self.arrow_angles(render(field_none)) == []

    def test_significance_contour_present(self):
        mask = np.zeros((10, 100), dtype=bool)
        mask[4:7, 30:60] = True
        root = parse(render(make_field(significant=mask)))
        contours = [el for el in tags(root, "path") if el.get("class") == "significance-contour"]
        assert len(contours) == 1

    def test_all_significant_draws_arrows_inside_coi_only(self):
        field = make_field(significant="all")
        blocks = field.inside_coi()[ARROW_BLOCK_S // 2 :: ARROW_BLOCK_S, ARROW_BLOCK_T // 2 :: ARROW_BLOCK_T]
        angles = self.arrow_angles(render(field))
        assert angles and len(angles) == blocks.sum()  # one arrow per block centre inside the cone
