"""Unit tests for the reference refinement the arrival-scan tests use."""

import pytest

from reference_refinement import golden_section_min


class TestGoldenSection:
    def test_quadratic_minimum(self):
        x, fx = golden_section_min(lambda x: (x - 2.0) ** 2, 0.0, 5.0, 1e-8)
        assert abs(x - 2.0) < 1e-6
        assert fx < 1e-12

    def test_vee_minimum(self):
        x, _ = golden_section_min(lambda x: abs(x - 0.7), 0.0, 1.0, 1e-10)
        assert abs(x - 0.7) < 1e-8

    def test_rejects_bad_bracket(self):
        with pytest.raises(ValueError):
            golden_section_min(lambda x: x, 1.0, 0.0, 1e-8)
        with pytest.raises(ValueError):
            golden_section_min(lambda x: x, 0.0, 1.0, 0.0)
