import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdrnet import mdr as mdrmod
from mdrnet.mdr import (
    MdrError,
    compute_mdr,
    export_mdr_text,
    export_slice_pgm,
    normalize_mdr,
    slice_name,
)
from mdrnet.voxel import VoxelGrid


def brute_force_mdr(grid, k):
    """Oracle: scatter every occupied cell into its segment slice."""
    dx, dy, dz = grid.dims
    n = dz // k
    slices = np.zeros((3 * k, dx, dy), dtype=np.int64)
    dydz = dy * dz
    for idx in np.flatnonzero(np.asarray(grid.occupancy)):
        x = idx // dydz
        rem = idx % dydz
        z = rem // dy
        y = rem % dy
        slices[z // n, x, y] += 1  # z block: rows x, cols y
        slices[k + x // n, y, z] += 1  # x block: rows y, cols z
        slices[2 * k + y // n, x, z] += 1  # y block: rows x, cols z
    return slices


def random_grid(rng, dim=30, p=0.3):
    return VoxelGrid.from_array(rng.random((dim, dim, dim)) < p)


class TestComputeMdr:
    def test_empty_grid(self):
        g = VoxelGrid((30, 30, 30), np.zeros(27000, dtype=np.uint8))
        seq = compute_mdr(g, 3)
        assert seq.slices.shape == (9, 30, 30)
        assert not seq.slices.any()

    def test_full_grid_all_tens(self):
        g = VoxelGrid((30, 30, 30), np.ones(27000, dtype=np.uint8))
        seq = compute_mdr(g, 3)
        assert seq.n == 10
        assert (seq.slices == 10).all()

    def test_single_voxel_placement(self):
        arr = np.zeros((30, 30, 30), dtype=np.uint8)
        arr[5, 12, 20] = 1
        seq = compute_mdr(VoxelGrid.from_array(arr), 3)
        expected = np.zeros((9, 30, 30), dtype=np.int64)
        expected[2, 5, 12] = 1  # z segment 2, cell (x, y)
        expected[3, 12, 20] = 1  # x segment 0, cell (y, z)
        expected[7, 5, 20] = 1  # y segment 1, cell (x, z)
        assert np.array_equal(seq.slices, expected)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            g = random_grid(rng)
            for k in (1, 2, 3, 5, 6):
                assert np.array_equal(compute_mdr(g, k).slices, brute_force_mdr(g, k))

    def test_mass_conservation_per_axis(self):
        rng = np.random.default_rng(23)
        g = random_grid(rng)
        occ = int(g.occupancy.sum())
        for k in (1, 2, 3, 5, 6, 10, 15, 30):
            seq = compute_mdr(g, k)
            for axis in range(3):
                assert int(seq.slices[axis * k : (axis + 1) * k].sum()) == occ

    def test_k1_is_full_projection(self):
        g = random_grid(np.random.default_rng(4))
        arr = g.to_array().astype(np.int64)
        seq = compute_mdr(g, 1)
        assert np.array_equal(seq.slices[0], arr.sum(axis=2))
        assert np.array_equal(seq.slices[1], arr.sum(axis=0))
        assert np.array_equal(seq.slices[2], arr.sum(axis=1))

    def test_invalid_k_rejected(self):
        g = random_grid(np.random.default_rng(0))
        for k in (0, -1, 7, 31):
            with pytest.raises(MdrError):
                compute_mdr(g, k)

    def test_non_cubic_grid_rejected(self):
        g = VoxelGrid.from_array(np.ones((30, 30, 60), dtype=np.uint8))
        with pytest.raises(MdrError):
            compute_mdr(g, 3)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3, 6]))
    @settings(max_examples=20, deadline=None)
    def test_oracle_property_small_grids(self, seed, k):
        g = random_grid(np.random.default_rng(seed), dim=6, p=0.4)
        assert np.array_equal(compute_mdr(g, k).slices, brute_force_mdr(g, k))

    @pytest.mark.parametrize("dim", [255, 256])
    def test_segment_of_255_and_256_cells(self, dim):
        """k = 1 makes n = dim, the widest sum a uint8 accumulator holds and
        the first that needs more: full lines along every axis reach n."""
        rng = np.random.default_rng(dim)
        arr = np.zeros((dim, dim, dim), dtype=np.uint8)
        arr[3, 5, :] = arr[:, 7, 11] = arr[13, :, 17] = 1
        arr[tuple(rng.integers(0, dim, size=(3, 500)))] = 1
        g = VoxelGrid.from_array(arr)
        seq = compute_mdr(g, 1)
        assert seq.n == dim
        assert seq.slices.dtype == np.int64 and not seq.slices.flags.writeable
        assert seq.slices.max() == dim
        assert np.array_equal(seq.slices, brute_force_mdr(g, 1))
        full = compute_mdr(VoxelGrid((dim,) * 3, np.ones(dim**3, dtype=np.uint8)), 1)
        assert (full.slices == dim).all()

    def test_value_bound(self):
        g = random_grid(np.random.default_rng(8), p=0.9)
        seq = compute_mdr(g, 3)
        assert seq.slices.min() >= 0 and seq.slices.max() <= seq.n


class TestNormalize:
    def test_zero_sequence(self):
        g = VoxelGrid((30, 30, 30), np.zeros(27000, dtype=np.uint8))
        assert not normalize_mdr(compute_mdr(g, 3)).any()

    def test_full_grid_all_ones(self):
        g = VoxelGrid((30, 30, 30), np.ones(27000, dtype=np.uint8))
        assert (normalize_mdr(compute_mdr(g, 3)) == 1.0).all()

    def test_single_voxel_becomes_tenth(self):
        arr = np.zeros((30, 30, 30), dtype=np.uint8)
        arr[5, 12, 20] = 1
        norm = normalize_mdr(compute_mdr(VoxelGrid.from_array(arr), 3))
        assert norm[2, 5, 12] == pytest.approx(0.1)
        assert np.isclose(10 * norm, np.rint(10 * norm), atol=1e-12).all()


class TestPgmExport:
    def test_empty_slice(self):
        g = VoxelGrid((30, 30, 30), np.zeros(27000, dtype=np.uint8))
        data = export_slice_pgm(compute_mdr(g, 3), 0)
        assert data.startswith(b"P5\n30 30\n255\n")
        assert data[len(b"P5\n30 30\n255\n") :] == bytes(900)

    def test_full_slice(self):
        g = VoxelGrid((30, 30, 30), np.ones(27000, dtype=np.uint8))
        data = export_slice_pgm(compute_mdr(g, 3), 4)
        assert data[len(b"P5\n30 30\n255\n") :] == bytes([255] * 900)

    def test_k5_end_slices_empty_for_centered_shape(self):
        arr = np.zeros((30, 30, 30), dtype=np.uint8)
        arr[10:20, 10:20, 8:22] = 1  # z extent 14 < 18, centered
        seq = compute_mdr(VoxelGrid.from_array(arr), 5)
        header = len(b"P5\n30 30\n255\n")
        assert export_slice_pgm(seq, 0)[header:] == bytes(900)
        assert export_slice_pgm(seq, 4)[header:] == bytes(900)
        assert export_slice_pgm(seq, 2)[header:] != bytes(900)

    def test_index_out_of_range(self):
        g = VoxelGrid((30, 30, 30), np.zeros(27000, dtype=np.uint8))
        with pytest.raises(MdrError):
            export_slice_pgm(compute_mdr(g, 3), 9)


class TestTextExport:
    def test_header_and_blocks(self):
        arr = np.zeros((30, 30, 30), dtype=np.uint8)
        arr[0, 0, 0] = 1
        seq = compute_mdr(VoxelGrid.from_array(arr), 3)
        lines = export_mdr_text(seq).splitlines()
        assert lines[0] == "MDR k=3 dim=30"
        assert len(lines) == 10
        assert all(len(line.split()) == 900 for line in lines[1:])
        assert lines[1].split()[0] == "1"

    def test_slice_names(self):
        g = VoxelGrid((30, 30, 30), np.zeros(27000, dtype=np.uint8))
        seq = compute_mdr(g, 3)
        assert [slice_name(seq, i) for i in range(9)] == [
            "z0", "z1", "z2", "x0", "x1", "x2", "y0", "y1", "y2",
        ]
