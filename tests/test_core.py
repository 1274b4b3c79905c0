import csv
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
    masked_grid_norm,
    principal_arg,
    principal_pow,
    singular_mask,
    tag_nonfinite,
    write_grid_field,
)


def make_grid_1d(lo=0.0, hi=0.3, h=0.1):
    return EvalGrid((lo,), (hi,), h)


def read_grid_field(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a grid-field CSV back as (points, complex values)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    vals = np.empty(len(data), dtype=complex)
    vals.real, vals.imag = data[:, -2], data[:, -1]
    return data[:, :-2], vals


class TestEvalGrid:
    def test_point_count_formula(self):
        g = EvalGrid((-1.0, -1.0), (1.0, 1.0), 0.01)
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

    @pytest.mark.parametrize("lo, hi, h, count", [
        ((0.0, 0.0), (1.0, 1.0), 1 / 3162, "10004569"),
        ((-1e308,) * 2, (1e308,) * 2, 0.5, "inf"),  # (hi - lo) / h overflows
    ], ids=["3163x3163", "overflowing-span"])
    def test_grid_over_the_point_cap_is_refused_with_its_count(self, lo, hi, h, count):
        # the count comes from the per-axis counts, before any array is made
        with pytest.raises(ConfigurationError,
                           match=rf"grid of {count} points is over the 10000000-point cap"):
            EvalGrid(lo, hi, h)

    def test_count_robust_to_representation_error(self):
        # (1 - (-1)) / 0.01 lands just below 200 in floating point
        g = EvalGrid((-1.0,), (1.0,), 0.01)
        assert len(g) == 201


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
        assert masked_grid_norm(np.zeros(len(g)))[0] == 0.0

    def test_constant_one(self):
        g = make_grid_1d()
        assert masked_grid_norm(np.ones(len(g)))[0] == 1.0

    def test_hand_rms(self):
        # RMS of {1, 2, 2, 1} = sqrt((1 + 4 + 4 + 1)/4) = sqrt(10/4)
        assert masked_grid_norm([1.0, 2.0, 2.0, 1.0])[0] == pytest.approx(math.sqrt(2.5), abs=1e-15)

    def test_complex_uses_modulus(self):
        vals = np.array([3 + 4j, 0.0, 0.0, 0.0])
        assert masked_grid_norm(vals)[0] == pytest.approx(2.5)

    @given(st.floats(-1e6, 1e6, allow_nan=False))
    def test_absolute_homogeneity(self, c):
        v = np.array([0.3, -1.2, 2.5, 0.0])
        assert masked_grid_norm(c * v)[0] == pytest.approx(
            abs(c) * masked_grid_norm(v)[0], rel=1e-12, abs=1e-12
        )

    def test_partition_independent_reduction(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(10001)
        full = masked_grid_norm(v)[0]
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

    def test_empty_input_is_named(self):
        with pytest.raises(EmptySupportError, match="empty value set"):
            masked_grid_norm(np.array([]))


class TestPrincipalLog:
    """The principal branch of the logarithm, as principal_arg and
    principal_pow take it."""

    def test_branch_edge_is_plus_pi(self):
        assert principal_arg(-1 + 0j) == math.pi
        assert principal_pow(-1 + 0j, 0.5) == pytest.approx(1j, abs=1e-15)
        # negative zero imaginary part must not flip to -pi
        assert principal_arg(complex(-1.0, -0.0)) == pytest.approx(math.pi)
        assert principal_pow(complex(-1.0, -0.0), 0.5) == pytest.approx(1j, abs=1e-15)


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


def awkward_values(n, seed=0):
    """Complex values across many magnitudes plus signed zeros, infinities
    and NaN parts, to pin every formatting corner of the CSV writers."""
    rng = np.random.default_rng(seed)
    mag = 10.0 ** rng.uniform(-300, 300, n)
    vals = mag * rng.standard_normal(n) + 1j * mag[::-1] * rng.standard_normal(n)
    vals[:8] = [0.0, -0.0, complex(-0.0, -0.0), np.inf, complex(-np.inf, 1.0),
                complex(np.nan, 0.0), complex(1.0, np.nan), 1e-17]
    return vals


class TestGridFieldCSVBytes:
    """write_grid_field writes the bytes of its earlier per-row csv.writer
    loop; that loop is kept here as the reference."""

    @staticmethod
    def reference(path, grid, values):
        v = np.asarray(values, dtype=complex)
        header = [f"x{k + 1}" for k in range(grid.dim)] + ["re", "im"]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for point, val in zip(grid.points, v):
                writer.writerow([format(float(c), ".17g") for c in point]
                                + [format(float(val.real), ".17g"),
                                   format(float(val.imag), ".17g")])

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_bytes_match_the_row_loop(self, tmp_path, dim):
        grid = EvalGrid((-0.7,) * dim, (0.9,) * dim, 0.7 if dim == 3 else 0.03)
        vals = awkward_values(len(grid), seed=dim)
        write_grid_field(tmp_path / "new.csv", grid, vals)
        self.reference(tmp_path / "old.csv", grid, vals)
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "old.csv").read_bytes()
        # csv.writer ends every line with CRLF, the header included
        assert new.count(b"\r\n") == len(grid) + 1 == new.count(b"\n")
        pts, back = read_grid_field(tmp_path / "new.csv")
        assert pts.tobytes() == grid.points.tobytes() and back.tobytes() == vals.tobytes()


class TestHeaderlessCSVBytes:
    """Model matrices and eigenvectors go through _write_csv with no header;
    the reference is the np.savetxt call those writers made before."""

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (40, 40)])
    def test_bytes_match_headerless_savetxt(self, tmp_path, shape):
        from koopext.core import _write_csv

        rng = np.random.default_rng(shape[0])
        table = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
        table.flat[0] = -0.0
        _write_csv(tmp_path / "new.csv", [], table)
        np.savetxt(tmp_path / "old.csv", table, delimiter=",", fmt="%.17g")
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "old.csv").read_bytes()
        assert new.count(b"\n") == shape[0]


class TestNumericErrors:
    @pytest.mark.parametrize("name, builtin", [
        ("IllConditionedError", RuntimeError), ("NearDefectiveError", RuntimeError),
        ("DivergenceError", RuntimeError), ("ConvergenceError", RuntimeError),
        ("EmptySupportError", ValueError), ("DomainError", ValueError),
    ])
    def test_one_base_and_the_builtin_base_kept(self, name, builtin):
        import koopext.core as core

        cls = getattr(core, name)
        assert issubclass(cls, core.NumericError) and issubclass(cls, builtin)

    def test_usage_errors_are_not_numeric(self):
        import koopext.core as core

        for cls in (core.ConfigurationError, core.ContractViolationError,
                    core.SingularInputError, core.UnsupportedSystemError):
            assert not issubclass(cls, core.NumericError)
