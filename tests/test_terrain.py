import numpy as np
import pytest

from emoskit.domain import StationMetadata
from emoskit.terrain import (
    LAPSE_RATE_C_PER_100M,
    ElevationGrid,
    lapse_correct,
    read_esri_ascii,
    tpi,
    tpi_at_station,
    write_esri_ascii,
)


def grid_from_array(arr, cell_size=1.0, origin=(0.0, 0.0), nodata=-9999.0):
    arr = np.asarray(arr, dtype=float)
    return ElevationGrid(
        n_rows=arr.shape[0],
        n_cols=arr.shape[1],
        cell_size=cell_size,
        origin=origin,
        values=tuple(arr.ravel()),
        nodata=nodata,
    )


class TestLapseCorrect:
    def test_grid_above_station_warms(self):
        assert lapse_correct([5.0], 1500.0, 1000.0).tolist() == [8.0]

    def test_no_offset(self):
        assert lapse_correct([5.0, 6.0], 800.0, 800.0).tolist() == [5.0, 6.0]

    def test_grid_below_station_cools(self):
        assert lapse_correct([5.0], 800.0, 1000.0)[0] == pytest.approx(3.8)

    def test_rate_constant(self):
        assert LAPSE_RATE_C_PER_100M == 0.6

    def test_inverse_under_negated_offset(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            members = rng.normal(0, 10, 8).tolist()
            dh = rng.normal(0, 500)
            once = lapse_correct(members, 1000.0 + dh, 1000.0)
            back = lapse_correct(once, 1000.0, 1000.0 + dh)
            assert np.allclose(back, members, atol=0)

    def test_shifts_mean_keeps_std(self):
        rng = np.random.default_rng(1)
        members = rng.normal(2, 3, 21)
        corrected = np.asarray(lapse_correct(members.tolist(), 1700.0, 1200.0))
        offset = 0.6 / 100.0 * 500.0
        assert corrected.mean() == pytest.approx(members.mean() + offset, abs=1e-12)
        assert corrected.std() == pytest.approx(members.std(), abs=1e-12)


class TestTpi:
    def test_constant_grid(self):
        g = grid_from_array(np.full((5, 5), 700.0))
        assert tpi(g, 2, 2) == 0.0

    def test_peak(self):
        arr = np.full((3, 3), 500.0)
        arr[1, 1] = 1000.0
        assert tpi(grid_from_array(arr), 1, 1) == 500.0

    def test_valley(self):
        arr = np.full((3, 3), 1000.0)
        arr[1, 1] = 500.0
        assert tpi(grid_from_array(arr), 1, 1) == -500.0

    def test_border_rejected(self):
        g = grid_from_array(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            tpi(g, 0, 1)
        with pytest.raises(ValueError):
            tpi(g, 3, 2)

    def test_nodata_neighbor_rejected(self):
        arr = np.full((3, 3), 100.0)
        arr[0, 0] = -9999.0
        with pytest.raises(ValueError):
            tpi(grid_from_array(arr), 1, 1)

    def test_affine_plane_is_flat(self):
        rows, cols = 8, 9
        alpha, beta, gamma = 3.7, -1.9, 250.0
        arr = np.fromfunction(lambda r, c: alpha * c + beta * r + gamma, (rows, cols))
        g = grid_from_array(arr)
        for r in range(1, rows - 1):
            for c in range(1, cols - 1):
                assert abs(tpi(g, r, c)) < 1e-9

    def test_interior_sum_matches_bruteforce(self):
        rng = np.random.default_rng(5)
        arr = rng.uniform(200, 2000, size=(7, 6))
        g = grid_from_array(arr)
        total = sum(tpi(g, r, c) for r in range(1, 6) for c in range(1, 5))
        brute = 0.0
        for r in range(1, 6):
            for c in range(1, 5):
                neighbors = [
                    arr[r + dr, c + dc]
                    for dr in (-1, 0, 1)
                    for dc in (-1, 0, 1)
                    if not (dr == 0 and dc == 0)
                ]
                brute += arr[r, c] - sum(neighbors) / 8.0
        assert total == pytest.approx(brute, abs=1e-9)


class TestTpiAtStation:
    def station(self, lon, lat):
        return StationMetadata("X", latitude=lat, longitude=lon, elevation=500.0)

    def test_constant_grid_center(self):
        g = grid_from_array(np.full((5, 5), 700.0), cell_size=1.0, origin=(0.0, 0.0))
        assert tpi_at_station(g, self.station(2.5, 2.5)) == 0.0

    def test_cone_apex_positive(self):
        rows = cols = 7
        center = 3.0
        arr = np.fromfunction(lambda r, c: 2000.0 - 100.0 * np.hypot(r - center, c - center), (rows, cols))
        g = grid_from_array(arr, cell_size=1.0, origin=(0.0, 0.0))
        # apex cell is row 3 from the top; y grows northward so row 3 = y in [3, 4)
        assert tpi_at_station(g, self.station(3.5, 3.5)) > 0.0

    def test_boundary_tie_goes_to_origin_inclusive_cell(self):
        arr = np.zeros((5, 5))
        arr[2, 2] = 64.0  # cell x in [2,3), y in [2,3)
        g = grid_from_array(arr, cell_size=1.0, origin=(0.0, 0.0))
        # exactly on the lower-left corner of the bump cell
        assert tpi_at_station(g, self.station(2.0, 2.0)) == pytest.approx(64.0)
        # one tick left belongs to the previous cell
        assert tpi_at_station(g, self.station(1.999999, 2.0)) == pytest.approx(-8.0)

    def test_outside_grid_rejected(self):
        g = grid_from_array(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            tpi_at_station(g, self.station(10.0, 1.0))

    def test_border_cell_rejected(self):
        g = grid_from_array(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            tpi_at_station(g, self.station(0.5, 0.5))


class TestEsriAscii:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        g = grid_from_array(rng.uniform(0, 3000, (6, 5)).round(3), cell_size=0.25, origin=(5.5, 45.25))
        path = tmp_path / "grid.asc"
        write_esri_ascii(path, g)
        back = read_esri_ascii(path)
        assert back.n_rows == g.n_rows and back.n_cols == g.n_cols
        assert back.cell_size == g.cell_size
        assert back.origin == g.origin
        assert np.allclose(back.values, g.values, rtol=1e-9)

    def test_header_parsing(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text(
            "ncols 3\nnrows 2\nxllcorner 0.0\nyllcorner 40.0\ncellsize 0.5\nNODATA_value -1\n"
            "1 2 3\n4 5 6\n"
        )
        g = read_esri_ascii(path)
        assert g.value_at(0, 2) == 3.0  # first data row is the top row
        assert g.value_at(1, 0) == 4.0
        assert g.nodata == -1.0

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.asc"
        path.write_text("ncols 3\nnrows 2\n1 2 3\n4 5 6\n")
        with pytest.raises(ValueError):
            read_esri_ascii(path)

    def test_wrong_value_count_rejected(self, tmp_path):
        path = tmp_path / "bad2.asc"
        path.write_text("ncols 3\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2 3\n4 5\n")
        with pytest.raises(ValueError):
            read_esri_ascii(path)
