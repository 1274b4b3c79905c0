import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopext.core import (
    ConfigurationError,
    ContractViolationError,
    EmptySupportError,
    EvalGrid,
    FlowedGrid,
    SINGULAR,
    SingularInputError,
    grid_norm,
    masked_grid_norm,
    principal_arg,
    principal_log,
    principal_pow,
    read_grid_field,
    singular_mask,
    tag_nonfinite,
    write_grid_field,
)


def make_grid_1d(lo=0.0, hi=0.3, h=0.1):
    return EvalGrid((lo,), (hi,), h)


class TestEvalGrid:
    def test_point_count_formula(self):
        g = EvalGrid((-1.0, -1.0), (1.0, 1.0), 0.01)
        assert g.shape == (201, 201)
        assert len(g) == 201 * 201

    def test_row_major_last_dimension_fastest(self):
        g = EvalGrid((0.0, 0.0), (0.2, 0.2), 0.1)
        expected = np.array(
            [[0, 0], [0, 0.1], [0, 0.2], [0.1, 0], [0.1, 0.1], [0.1, 0.2],
             [0.2, 0], [0.2, 0.1], [0.2, 0.2]]
        )
        assert np.allclose(g.points, expected)

    def test_lattice_values(self):
        g = make_grid_1d()
        assert np.allclose(g.points[:, 0], [0.0, 0.1, 0.2, 0.3])

    @pytest.mark.parametrize("h", [0.0, -0.1, 1.0, 1.5])
    def test_spacing_range_enforced(self, h):
        with pytest.raises(ConfigurationError):
            EvalGrid((0.0,), (1.0,), h)

    def test_count_robust_to_representation_error(self):
        # (1 - (-1)) / 0.01 lands just below 200 in floating point
        g = EvalGrid((-1.0,), (1.0,), 0.01)
        assert g.shape == (201,)


class TestFlowedGrid:
    def test_of_flows_the_grid_with_one_call(self):
        g = EvalGrid((0.0, 0.0), (0.2, 0.2), 0.1)
        calls = []

        class Shift:
            dt = 0.5

            def __call__(self, pts):
                calls.append(pts)
                return pts + 1.0

        fg = FlowedGrid.of(Shift(), g)
        assert len(calls) == 1
        assert fg.points is not g.points and np.array_equal(fg.points, g.points)
        assert np.array_equal(fg.image, g.points + 1.0)
        assert fg.dt == 0.5 and len(fg) == len(g)

    def test_arrays_are_read_only_views(self):
        pts = np.zeros((3, 2))
        fg = FlowedGrid(pts, pts + 1.0, 0.1)
        with pytest.raises(ValueError):
            fg.image[0, 0] = 5.0
        pts[0, 0] = 1.0  # the caller's array stays writable
        assert fg.points[0, 0] == 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractViolationError):
            FlowedGrid(np.zeros((3, 2)), np.zeros((2, 2)), 0.1)


class TestGridNorm:
    def test_zero_field(self):
        g = make_grid_1d()
        assert grid_norm(np.zeros(len(g)), g) == 0.0

    def test_constant_one(self):
        g = make_grid_1d()
        assert grid_norm(np.ones(len(g)), g) == 1.0

    def test_hand_rms(self):
        # RMS of {1, 2, 2, 1} = sqrt((1 + 4 + 4 + 1)/4) = sqrt(10/4)
        g = make_grid_1d()
        assert grid_norm([1.0, 2.0, 2.0, 1.0], g) == pytest.approx(math.sqrt(2.5), abs=1e-15)

    def test_length_mismatch(self):
        g = make_grid_1d()
        with pytest.raises(ContractViolationError):
            grid_norm([1.0, 2.0], g)

    def test_complex_uses_modulus(self):
        vals = np.array([3 + 4j, 0.0, 0.0, 0.0])
        assert grid_norm(vals) == pytest.approx(2.5)

    @given(st.floats(-1e6, 1e6, allow_nan=False))
    def test_absolute_homogeneity(self, c):
        v = np.array([0.3, -1.2, 2.5, 0.0])
        assert grid_norm(c * v) == pytest.approx(abs(c) * grid_norm(v), rel=1e-12, abs=1e-12)

    def test_partition_independent_reduction(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(10001)
        full = grid_norm(v)
        # emulate a two-way partition with an explicit recombination
        s1 = np.sum(np.abs(v[:5000]) ** 2)
        s2 = np.sum(np.abs(v[5000:]) ** 2)
        recombined = math.sqrt((s1 + s2) / v.size)
        assert recombined == pytest.approx(full, rel=1e-13)

    def test_masked_variant_counts_exclusions(self):
        vals = np.array([1.0, SINGULAR, 1.0, 1.0], dtype=complex)
        norm, excluded = masked_grid_norm(vals)
        assert norm == pytest.approx(1.0)
        assert excluded == 1

    def test_masked_variant_empty(self):
        with pytest.raises(EmptySupportError):
            masked_grid_norm(np.array([SINGULAR, SINGULAR]))


class TestPrincipalLog:
    def test_log_of_unity(self):
        assert principal_log(1 + 0j) == 0

    def test_branch_edge_is_plus_pi(self):
        assert principal_log(-1 + 0j) == pytest.approx(1j * math.pi)
        # negative zero imaginary part must not flip to -pi
        assert principal_arg(complex(-1.0, -0.0)) == pytest.approx(math.pi)

    def test_derived_value_by_exponentiation(self):
        z = math.e * complex(math.cos(1.0), math.sin(1.0))
        w = principal_log(z)
        assert w == pytest.approx(1 + 1j, abs=1e-14)
        assert np.exp(w) == pytest.approx(z, rel=1e-14)

    def test_zero_raises(self):
        with pytest.raises(SingularInputError):
            principal_log(0j)

    @given(
        st.floats(-13.8, 13.8),
        st.floats(-math.pi + 1e-9, math.pi),
    )
    @settings(max_examples=200)
    def test_exp_log_roundtrip(self, logr, theta):
        z = math.exp(logr) * complex(math.cos(theta), math.sin(theta))
        assert np.exp(principal_log(z)) == pytest.approx(z, rel=1e-12)


class TestPrincipalPow:
    def test_positive_real_root(self):
        assert principal_pow(4 + 0j, 0.5) == pytest.approx(2 + 0j)

    def test_integer_power_matches_repeated_multiplication(self):
        z = complex(math.cos(math.pi / 2), math.sin(math.pi / 2))
        assert principal_pow(z, 3) == pytest.approx(z * z * z, rel=1e-12)
        assert principal_pow(z, 3) == pytest.approx(-1j, abs=1e-12)

    @given(
        st.floats(-6.9, 6.9),
        st.floats(-math.pi + 1e-6, math.pi - 1e-6),
        st.integers(-6, 6),
    )
    @settings(max_examples=200)
    def test_integer_power_property(self, logr, theta, n):
        z = math.exp(logr) * complex(math.cos(theta), math.sin(theta))
        iterated = complex(1.0)
        for _ in range(abs(n)):
            iterated *= z
        if n < 0:
            iterated = 1.0 / iterated
        assert principal_pow(z, n) == pytest.approx(iterated, rel=1e-10)

    def test_branch_cut_discrepancy(self):
        # (e^{i 4x})^{1/2} differs from e^{i 2x} once 4x leaves (-pi, pi]
        k, alpha, x = 4, 0.5, 1.0
        e1 = np.exp(1j * k * alpha * x)
        e3 = principal_pow(np.exp(1j * k * x), alpha)
        assert abs(e3 - e1) > 0.1
        # inside the principal strip they agree
        x_in = 0.3
        assert principal_pow(np.exp(1j * k * x_in), alpha) == pytest.approx(
            np.exp(1j * k * alpha * x_in), rel=1e-12
        )

    def test_zero_base(self):
        assert principal_pow(0j, 2.0) == 0
        with pytest.raises(SingularInputError):
            principal_pow(0j, -1.0)
        with pytest.raises(SingularInputError):
            principal_pow(0j, 0.0)

    def test_array_input(self):
        z = np.array([1 + 0j, -1 + 0j, 4 + 0j])
        out = principal_pow(z, 0.5)
        assert out == pytest.approx(np.array([1, 1j, 2]), abs=1e-15)


class TestSingularTagging:
    def test_mask_and_tag(self):
        v = tag_nonfinite(np.array([1.0, np.inf, np.nan, 2.0]))
        assert list(singular_mask(v)) == [False, True, True, False]
        assert v[0] == 1.0 and v[3] == 2.0


class TestGridFieldCSV:
    def test_round_trip_and_header(self, tmp_path):
        g = EvalGrid((0.0, 0.0), (0.1, 0.1), 0.1)
        vals = np.array([1 + 2j, 0.25, -1.5j, 1e-17], dtype=complex)
        path = tmp_path / "field.csv"
        write_grid_field(path, g, vals)
        text = path.read_text().splitlines()
        assert text[0] == "x1,x2,re,im"
        assert len(text) == 1 + len(g)
        pts, back = read_grid_field(path)
        assert np.array_equal(pts, g.points)
        assert np.array_equal(back, vals)  # 17 significant digits round-trip exactly

    def test_regenerated_identically(self, tmp_path):
        g = EvalGrid((0.0,), (0.5, ), 0.1)
        vals = np.linspace(0, 1, len(g)) * (1 + 1j)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_grid_field(p1, g, vals)
        write_grid_field(p2, g, vals)
        assert p1.read_bytes() == p2.read_bytes()
