"""Tests for the public compute_kdv API and the KDVResult container."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    APPROXIMATE_METHODS,
    EXACT_METHODS,
    KDVResult,
    Region,
    compute_kdv,
    method_names,
)
from repro.viz.bandwidth import scott_bandwidth


class TestRegistry:
    def test_table6_methods_present(self):
        # the paper's Table 6 plus the rqs_rtree / akde_dual extensions
        assert method_names() == (
            "scan",
            "rqs_kd",
            "rqs_ball",
            "rqs_rtree",
            "zorder",
            "akde",
            "akde_dual",
            "binned_fft",
            "quad",
            "slam_sort",
            "slam_bucket",
            "slam_sort_rao",
            "slam_bucket_rao",
        )

    def test_exactness_classification(self):
        assert set(APPROXIMATE_METHODS) == {
            "zorder", "akde", "akde_dual", "binned_fft"
        }
        assert "slam_bucket_rao" in EXACT_METHODS
        assert set(EXACT_METHODS) | set(APPROXIMATE_METHODS) == set(method_names())


class TestComputeKDV:
    def test_default_method_is_paper_best(self, small_points):
        res = compute_kdv(small_points, size=(24, 18), bandwidth=9.0)
        assert res.method == "slam_bucket_rao"
        assert res.kernel == "epanechnikov"
        assert res.exact

    def test_accepts_raw_array(self, small_xy):
        res = compute_kdv(small_xy, size=(16, 12), bandwidth=9.0)
        assert res.shape == (12, 16)
        assert res.n_points == len(small_xy)

    def test_accepts_pointset(self, small_points):
        res = compute_kdv(small_points, size=(16, 12), bandwidth=9.0)
        assert res.n_points == len(small_points)

    def test_region_defaults_to_mbr(self, small_xy):
        res = compute_kdv(small_xy, size=(16, 12), bandwidth=9.0)
        assert res.raster.region.xmin == small_xy[:, 0].min()
        assert res.raster.region.ymax == small_xy[:, 1].max()

    def test_explicit_region(self, small_xy):
        region = Region(10.0, 10.0, 30.0, 30.0)
        res = compute_kdv(small_xy, region=region, size=(8, 8), bandwidth=9.0)
        assert res.raster.region == region

    def test_scott_bandwidth_default(self, small_xy):
        res = compute_kdv(small_xy, size=(8, 8))
        assert res.bandwidth == pytest.approx(scott_bandwidth(small_xy))

    def test_explicit_bandwidth(self, small_xy):
        res = compute_kdv(small_xy, size=(8, 8), bandwidth=12.5)
        assert res.bandwidth == 12.5

    @pytest.mark.parametrize("bad", [0.0, -3.0])
    def test_invalid_bandwidth(self, small_xy, bad):
        with pytest.raises(ValueError, match="bandwidth"):
            compute_kdv(small_xy, size=(8, 8), bandwidth=bad)

    def test_unknown_method(self, small_xy):
        with pytest.raises(ValueError, match="unknown method"):
            compute_kdv(small_xy, size=(8, 8), method="fft")

    def test_unknown_normalization(self, small_xy):
        with pytest.raises(ValueError, match="unknown normalization"):
            compute_kdv(small_xy, size=(8, 8), normalization="softmax")

    def test_bad_shape(self):
        with pytest.raises(ValueError, match="expected .n, 2."):
            compute_kdv(np.zeros((5, 3)), size=(8, 8), bandwidth=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("with_region", [False, True])
    def test_non_finite_coordinates_rejected(self, small_xy, bad, with_region):
        xy = small_xy.copy()
        xy[3, 0] = bad
        xy[7, 1] = bad
        region = Region(0.0, 0.0, 100.0, 80.0) if with_region else None
        with pytest.raises(ValueError, match="2 point.s. have non-finite"):
            compute_kdv(xy, region=region, size=(32, 32), bandwidth=10.0)

    def test_empty_dataset_needs_region(self):
        with pytest.raises(ValueError, match="region is required"):
            compute_kdv(np.empty((0, 2)), size=(8, 8), bandwidth=1.0)

    def test_empty_dataset_with_region(self):
        res = compute_kdv(
            np.empty((0, 2)),
            region=Region(0, 0, 1, 1),
            size=(8, 8),
            bandwidth=1.0,
            method="slam_bucket",
        )
        assert np.all(res.grid == 0)

    @pytest.mark.parametrize("method", method_names())
    def test_every_method_runs(self, method, small_xy):
        res = compute_kdv(small_xy, size=(12, 9), bandwidth=15.0, method=method)
        assert res.shape == (9, 12)
        assert res.grid.max() > 0

    def test_all_exact_methods_agree(self, small_xy):
        grids = {
            m: compute_kdv(small_xy, size=(15, 11), bandwidth=12.0, method=m).grid
            for m in EXACT_METHODS
        }
        ref = grids["scan"]
        for m, g in grids.items():
            np.testing.assert_allclose(g, ref, rtol=1e-9, atol=1e-11, err_msg=m)

    def test_normalization_none_vs_count(self, small_xy):
        raw = compute_kdv(
            small_xy, size=(8, 8), bandwidth=9.0, normalization="none"
        ).grid
        per_count = compute_kdv(
            small_xy, size=(8, 8), bandwidth=9.0, normalization="count"
        ).grid
        np.testing.assert_allclose(per_count * len(small_xy), raw, rtol=1e-12)

    def test_normalization_density_integrates_to_one(self, rng):
        """A proper KDE must integrate to ~1 over a raster that contains all
        kernel support."""
        xy = rng.uniform((40, 30), (60, 50), (200, 2))
        region = Region(0.0, 0.0, 100.0, 80.0)
        res = compute_kdv(
            xy,
            region=region,
            size=(200, 160),
            bandwidth=5.0,
            normalization="density",
        )
        cell_area = res.raster.gx * res.raster.gy
        assert res.grid.sum() * cell_area == pytest.approx(1.0, rel=1e-3)

    def test_engine_python_dispatch(self, small_xy):
        a = compute_kdv(
            small_xy, size=(10, 8), bandwidth=9.0, method="slam_sort", engine="python"
        ).grid
        b = compute_kdv(
            small_xy, size=(10, 8), bandwidth=9.0, method="slam_sort", engine="numpy"
        ).grid
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)

    def test_method_kwargs_forwarded(self, small_xy):
        res = compute_kdv(
            small_xy, size=(10, 8), bandwidth=9.0, method="zorder", sample_size=10
        )
        assert not res.exact

    def test_gaussian_via_scan(self, small_xy):
        res = compute_kdv(
            small_xy, size=(10, 8), bandwidth=9.0, kernel="gaussian", method="scan"
        )
        assert res.grid.min() > 0  # infinite support touches every pixel

    def test_gaussian_via_slam_rejected(self, small_xy):
        with pytest.raises(ValueError, match="aggregate decomposition"):
            compute_kdv(small_xy, size=(10, 8), bandwidth=9.0, kernel="gaussian")


class TestKDVResult:
    @pytest.fixture
    def result(self, small_xy) -> KDVResult:
        return compute_kdv(small_xy, size=(20, 15), bandwidth=12.0)

    def test_grid_image_flips_rows(self, result):
        np.testing.assert_array_equal(result.grid_image(), result.grid[::-1])

    def test_max_density(self, result):
        assert result.max_density() == result.grid.max()

    def test_hotspot_pixels(self, result):
        mask = result.hotspot_pixels(quantile=0.9)
        assert mask.shape == result.grid.shape
        assert 0 < mask.sum() < mask.size
        # hotspot pixels are the densest ones
        assert result.grid[mask].min() >= result.grid[~mask].max() - 1e-12

    def test_hotspot_quantile_validation(self, result):
        with pytest.raises(ValueError):
            result.hotspot_pixels(quantile=1.5)

    def test_hotspot_empty_grid(self, small_xy):
        res = compute_kdv(
            np.empty((0, 2)),
            region=Region(0, 0, 1, 1),
            size=(4, 4),
            bandwidth=1.0,
            method="scan",
        )
        assert not res.hotspot_pixels().any()

    def test_to_image_shape(self, result):
        img = result.to_image()
        assert img.shape == result.grid.shape + (3,)
        assert img.dtype == np.uint8

    def test_save_ppm(self, result, tmp_path):
        path = tmp_path / "map.ppm"
        result.save_ppm(str(path))
        data = path.read_bytes()
        assert data.startswith(b"P6\n20 15\n255\n")
        assert len(data) == len(b"P6\n20 15\n255\n") + 20 * 15 * 3


class TestErrorPaths:
    """Hardened user-facing error paths (regression tests: each of these
    failed with a raw KeyError / deep shape error on the seed code)."""

    def test_bad_engine_lists_available(self, small_xy):
        with pytest.raises(ValueError) as excinfo:
            compute_kdv(small_xy, size=(8, 8), bandwidth=5.0,
                        method="slam_bucket", engine="typo")
        message = str(excinfo.value)
        assert "typo" in message
        assert "slam_bucket" in message
        assert "numpy" in message and "python" in message

    @pytest.mark.parametrize(
        "method", ["slam_sort", "slam_bucket", "slam_sort_rao", "slam_bucket_rao"]
    )
    def test_bad_engine_every_slam_method(self, small_xy, method):
        with pytest.raises(ValueError, match="unknown engine"):
            compute_kdv(small_xy, size=(8, 8), bandwidth=5.0,
                        method=method, engine="cuda")

    @pytest.mark.parametrize(
        "method", ["slam_bucket_rao", "slam_sort", "slam_bucket", "scan", "quad"]
    )
    def test_empty_dataset_with_region(self, method):
        res = compute_kdv(np.empty((0, 2)), region=Region(0, 0, 10, 8),
                          size=(12, 9), bandwidth=2.0, method=method)
        assert res.shape == (9, 12)
        assert np.all(res.grid == 0.0)
        assert res.n_points == 0
        assert res.method == method
        assert res.bandwidth == 2.0

    def test_empty_dataset_scott_bandwidth(self):
        # Scott's rule is undefined for n == 0; the short-circuit substitutes
        # a positive region-scaled placeholder so the result stays well-formed.
        res = compute_kdv(np.empty((0, 2)), region=Region(0, 0, 10, 8),
                          size=(6, 4))
        assert np.all(res.grid == 0.0)
        assert res.bandwidth > 0

    def test_empty_dataset_without_region_still_raises(self):
        with pytest.raises(ValueError, match="region is required"):
            compute_kdv(np.empty((0, 2)), size=(6, 4), bandwidth=1.0)

    def test_empty_pointset_with_weights(self):
        res = compute_kdv(np.empty((0, 2)), region=Region(0, 0, 5, 5),
                          size=(4, 4), bandwidth=1.0,
                          weights=np.empty(0))
        assert np.all(res.grid == 0.0)

    def test_empty_dataset_normalizations(self):
        for normalization in ("none", "count", "density"):
            res = compute_kdv(np.empty((0, 2)), region=Region(0, 0, 5, 5),
                              size=(4, 4), bandwidth=1.0,
                              normalization=normalization)
            assert np.all(res.grid == 0.0)
            assert res.normalization == normalization
