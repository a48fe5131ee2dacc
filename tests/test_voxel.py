import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdrnet import voxel
from mdrnet.voxel import (
    BinvoxError,
    DatasetError,
    VoxelGrid,
    generate_synthetic,
    load_binvox,
    save_binvox,
)


def random_grid(rng, dim=30, p=0.5):
    return VoxelGrid.from_array(rng.random((dim, dim, dim)) < p)


def save_binvox_loop(grid):
    """Oracle: the per-run loop `save_binvox` replaced, one pair per chunk."""
    dx, dy, dz = grid.dims
    out = bytearray(f"#binvox 1\ndim {dx} {dy} {dz}\ntranslate 0 0 0\nscale 1\ndata\n".encode("ascii"))
    occ = grid.occupancy
    boundaries = np.flatnonzero(np.diff(occ)) + 1
    for s, e in zip(np.concatenate(([0], boundaries)), np.concatenate((boundaries, [occ.size]))):
        run = int(e - s)
        while run > 0:
            chunk = min(run, 255)
            out += bytes([int(occ[s]), chunk])
            run -= chunk
    return bytes(out)


def encode(pairs, dims=(30, 30, 30)):
    header = f"#binvox 1\ndim {dims[0]} {dims[1]} {dims[2]}\ndata\n".encode()
    return header + bytes(itertools.chain.from_iterable(pairs))


class TestLoadBinvox:
    def test_all_empty_decode(self):
        pairs = [(0, 255)] * 105 + [(0, 225)]
        grid = load_binvox(encode(pairs))
        assert grid.dims == (30, 30, 30)
        assert int(grid.occupancy.sum()) == 0

    def test_leading_run_of_255(self):
        grid = load_binvox(encode([(1, 255)] + [(0, 255)] * 104 + [(0, 225)]))
        assert int(grid.occupancy.sum()) == 255
        assert grid.occupancy[:255].all() and not grid.occupancy[255:].any()

    def test_translate_scale_ignored(self):
        data = (
            b"#binvox 1\ndim 2 2 2\ntranslate 1 2 3\nscale 0.5\ndata\n"
            + bytes([1, 8])
        )
        assert int(load_binvox(data).occupancy.sum()) == 8

    def test_bad_header(self):
        with pytest.raises(BinvoxError):
            load_binvox(b"#voxels 1\ndim 2 2 2\ndata\n" + bytes([0, 8]))

    def test_wrong_cell_count(self):
        with pytest.raises(BinvoxError):
            load_binvox(b"#binvox 1\ndim 2 2 2\ndata\n" + bytes([0, 7]))

    def test_bad_value_octet(self):
        for value in (2, 255):
            with pytest.raises(BinvoxError, match=r"^RLE value octet not in \{0, 1\}$"):
                load_binvox(b"#binvox 1\ndim 2 2 2\ndata\n" + bytes([0, 4, value, 4]))


class TestSaveBinvox:
    def test_empty_grid_runs(self):
        data = save_binvox(VoxelGrid((30, 30, 30), np.zeros(27000, dtype=np.uint8)))
        payload = data[data.index(b"data\n") + 5 :]
        pairs = [(payload[i], payload[i + 1]) for i in range(0, len(payload), 2)]
        assert pairs == [(0, 255)] * 105 + [(0, 225)]

    def test_full_grid_runs(self):
        data = save_binvox(VoxelGrid((30, 30, 30), np.ones(27000, dtype=np.uint8)))
        payload = data[data.index(b"data\n") + 5 :]
        pairs = [(payload[i], payload[i + 1]) for i in range(0, len(payload), 2)]
        assert pairs == [(1, 255)] * 105 + [(1, 225)]

    def test_single_voxel_at_origin(self):
        occ = np.zeros(27000, dtype=np.uint8)
        occ[0] = 1
        payload = save_binvox(VoxelGrid((30, 30, 30), occ))
        payload = payload[payload.index(b"data\n") + 5 :]
        assert payload[:2] == bytes([1, 1])
        zero_runs = payload[2:]
        counts = [zero_runs[i + 1] for i in range(0, len(zero_runs), 2)]
        assert all(zero_runs[i] == 0 for i in range(0, len(zero_runs), 2))
        assert sum(counts) == 26999

    def test_round_trip_50_random_grids(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            g = random_grid(rng)
            stream = save_binvox(g)
            g2 = load_binvox(stream)
            assert g2 == g
            assert save_binvox(g2) == stream

    @pytest.mark.parametrize("value", [0, 1])
    def test_uniform_grids_match_loop(self, value):
        for dims in ((30, 30, 30), (1, 1, 1), (255, 1, 1), (256, 2, 1)):
            grid = VoxelGrid(dims, np.full(np.prod(dims), value, dtype=np.uint8))
            assert save_binvox(grid) == save_binvox_loop(grid)

    @given(st.lists(st.sampled_from([1, 2, 3, 254, 255, 256, 509, 510, 511]), min_size=1, max_size=12),
           st.integers(0, 1))
    @settings(max_examples=50, deadline=None)
    def test_matches_loop_on_runs_near_chunk_edges(self, runs, first):
        values = (np.arange(len(runs)) + first) % 2
        grid = VoxelGrid((sum(runs), 1, 1), np.repeat(values, runs))
        stream = save_binvox(grid)
        assert stream == save_binvox_loop(grid)
        assert load_binvox(stream) == grid

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, seed):
        g = random_grid(np.random.default_rng(seed), dim=6, p=0.4)
        assert load_binvox(save_binvox(g)) == g


class TestCellOrdering:
    def test_index_is_x_major_y_fastest(self):
        arr = np.zeros((3, 4, 5), dtype=np.uint8)
        arr[1, 2, 3] = 1
        g = VoxelGrid.from_array(arr)
        # index = x*dy*dz + z*dy + y
        assert g.occupancy[1 * 4 * 5 + 3 * 4 + 2] == 1
        assert g.to_array()[1, 2, 3] == 1
        assert np.array_equal(g.to_array(), arr)


class TestGridValues:
    @pytest.mark.parametrize("value", [256, 1.5, -255, 2, 0.5])
    def test_cell_other_than_0_or_1_rejected(self, value):
        """Checked before the uint8 cast, which would wrap 256 to 0 and
        truncate 1.5 to 1."""
        with pytest.raises(ValueError):
            VoxelGrid((1, 1, 1), np.array([value]))
        with pytest.raises(ValueError):
            VoxelGrid.from_array(np.array([[[0, value]]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1])
    def test_non_finite_and_negative_rejected(self, value):
        with pytest.raises(ValueError, match="must be 0 or 1"):
            VoxelGrid((2, 1, 1), np.array([0.0, value]))

    @pytest.mark.parametrize("occ", [np.array([False, True]), np.array([0.0, 1.0]), np.array([-0.0, 1.0])],
                             ids=["bool", "float", "negative-zero"])
    def test_bool_and_float_cells_accepted(self, occ):
        grid = VoxelGrid((2, 1, 1), occ)
        assert grid.occupancy.dtype == np.uint8
        assert grid.occupancy.tolist() == [0, 1]

    def test_callers_array_stays_writable_and_unshared(self):
        occ = np.array([0, 1, 1, 0], dtype=np.uint8)
        arr = occ.reshape(4, 1, 1)
        for g in (VoxelGrid((4, 1, 1), occ), VoxelGrid.from_array(arr)):
            assert not g.occupancy.flags.writeable
            assert not np.shares_memory(g.occupancy, occ)
        assert occ.flags.writeable
        occ[0] = 1
        assert g.occupancy[0] == 0


class TestGenerateSynthetic:
    def test_deterministic(self):
        for cname in voxel.SYNTHETIC_CLASSES:
            assert generate_synthetic(cname, 42) == generate_synthetic(cname, 42)

    def test_unknown_class(self):
        with pytest.raises(ValueError):
            generate_synthetic("torus", 0)

    def test_box_count_is_edge_product(self):
        for seed in range(10):
            g = generate_synthetic("box", seed)
            arr = g.to_array()
            xs, ys, zs = np.nonzero(arr)
            edges = [np.ptp(xs) + 1, np.ptp(ys) + 1, np.ptp(zs) + 1]
            assert int(g.occupancy.sum()) == edges[0] * edges[1] * edges[2]
            # the occupied region really is one solid cuboid
            assert arr[xs.min() : xs.max() + 1, ys.min() : ys.max() + 1, zs.min() : zs.max() + 1].all()

    def test_cross_symmetry_when_centered(self):
        # find a seed whose jittered center lands exactly at the midpoint
        centered_seed = None
        for seed in range(2000):
            rng = voxel._rng_for("cross", seed)
            if (rng.integers(-3, 4, size=3) == 0).all():
                centered_seed = seed
                break
        assert centered_seed is not None
        arr = generate_synthetic("cross", centered_seed).to_array()
        for perm in itertools.permutations(range(3)):
            assert np.array_equal(arr, arr.transpose(perm))

    def test_sphere_occupancy_plausible(self):
        g = generate_synthetic("sphere", 7)
        n = int(g.occupancy.sum())
        # solid ball of radius 6..11, possibly clipped by the grid
        assert 0 < n <= 4.0 / 3.0 * np.pi * 11.0**3


class TestCountOccupied:
    def test_empty_and_full(self):
        assert int(VoxelGrid((30, 30, 30), np.zeros(27000, dtype=np.uint8)).occupancy.sum()) == 0
        assert int(VoxelGrid((30, 30, 30), np.ones(27000, dtype=np.uint8)).occupancy.sum()) == 27000

    def test_matches_triple_loop(self):
        g = random_grid(np.random.default_rng(3), dim=8)
        total = 0
        for x in range(8):
            for y in range(8):
                for z in range(8):
                    total += g.to_array()[x, y, z]
        assert int(g.occupancy.sum()) == total


class TestDataset:
    def test_split_counts(self):
        ds = voxel.build_synthetic_dataset(["sphere", "box"], 50, 1)
        assert sum(1 for p in ds.split.values() if p == "train") == 76
        assert sum(1 for p in ds.split.values() if p == "test") == 24

    def test_per_class_one_rejected(self):
        with pytest.raises(DatasetError):
            voxel.build_synthetic_dataset(["sphere"], 1, 0)

    def test_write_load_round_trip(self, tmp_path):
        ds = voxel.build_synthetic_dataset(["cross", "pyramid"], 3, 5)
        manifest = voxel.write_dataset(ds, tmp_path)
        loaded = voxel.load_dataset(manifest)
        assert loaded.classes == ds.classes
        assert loaded.split == ds.split
        for a, b in zip(loaded.shapes, ds.shapes):
            assert a.grid == b.grid and a.label == b.label

    def test_bad_manifest_line(self, tmp_path):
        p = tmp_path / "manifest.tsv"
        for data in ("foo.binvox\tsphere\tvalidation\n".encode(), b"\xff\xfe\n"):
            p.write_bytes(data)
            with pytest.raises(DatasetError):
                voxel.load_dataset(p)

    @pytest.mark.parametrize("path", ["sub//a.binvox", "./sub/a.binvox", "sub/./a.binvox", "sub/a"])
    def test_path_spellings_give_one_id(self, tmp_path, path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "a.binvox").write_bytes(save_binvox(generate_synthetic("box", 0)))
        (tmp_path / "sub" / "a").write_bytes(save_binvox(generate_synthetic("box", 0)))
        (tmp_path / "manifest.tsv").write_text(f"{path}\tbox\ttest\n")
        assert [s.shape_id for s in voxel.load_dataset(tmp_path / "manifest.tsv").shapes] == ["sub/a"]

    @pytest.mark.parametrize("lines", [
        ["a.binvox", "./a.binvox"],  # one file, two spellings
        ["a", "a.binvox"],  # one id, with and without the suffix
        ["../a.binvox"],
        ["sub/../../a.binvox"],
        ["/abs/a.binvox"],
    ])
    def test_paths_outside_or_repeated_rejected(self, tmp_path, lines):
        (tmp_path / "a").write_bytes(save_binvox(generate_synthetic("box", 0)))
        (tmp_path / "a.binvox").write_bytes(save_binvox(generate_synthetic("box", 1)))
        (tmp_path / "manifest.tsv").write_text("".join(f"{p}\tbox\ttest\n" for p in lines))
        with pytest.raises(DatasetError):
            voxel.load_dataset(tmp_path / "manifest.tsv")

    def test_repeated_synthetic_class_rejected(self):
        with pytest.raises(DatasetError, match="twice"):
            voxel.build_synthetic_dataset(["sphere", "box", "sphere"], 4, 0)

    def test_no_synthetic_class_rejected(self):
        with pytest.raises(DatasetError, match="no synthetic class"):
            voxel.build_synthetic_dataset([], 4, 0)

    def test_write_dataset_renames_every_file_into_place(self, tmp_path, monkeypatch):
        rename, renamed = Path.rename, []
        monkeypatch.setattr(Path, "rename", lambda self, target: renamed.append(target.name) or rename(self, target))
        voxel.write_dataset(voxel.build_synthetic_dataset(["box", "cross"], 2, 0), tmp_path)
        assert sorted(renamed) == sorted(p.name for p in tmp_path.iterdir()) == [
            "box_0000.binvox", "box_0001.binvox", "cross_0000.binvox", "cross_0001.binvox", "manifest.tsv"]

    def test_invalid_grid_rejected(self):
        with pytest.raises(ValueError):
            VoxelGrid((2, 2, 2), np.zeros(7, dtype=np.uint8))
        with pytest.raises(ValueError):
            VoxelGrid((2, 2, 2), np.full(8, 3, dtype=np.uint8))
