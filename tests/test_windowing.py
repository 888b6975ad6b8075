"""Window partition/reverse: shape law, index map, bijectivity."""

import numpy as np
import pytest

from flashwin import (
    DenseTensor,
    Rng,
    ShapeError,
    WindowConfig,
    fill_uniform,
    max_abs_diff,
    window_partition,
    window_reverse,
)


def test_shape_law_for_swin_geometry():
    cfg = WindowConfig(H=224, W=224, C=96, k=7)
    x = fill_uniform(Rng(0), (224, 224, 96), -1.0, 1.0)
    assert window_partition(x, cfg).shape == (1024, 49, 96)


def test_single_window_is_row_major_flattening():
    cfg = WindowConfig(H=3, W=3, C=2, k=3)
    x = fill_uniform(Rng(1), (3, 3, 2), -1.0, 1.0)
    y = window_partition(x, cfg)
    assert y.shape == (1, 9, 2)
    assert np.array_equal(y.array[0], x.array.reshape(9, 2))


def test_index_map_on_4x4_by_brute_force():
    # x[i][j] = 4i + j; enumerate output[n][l][c] = x[wr*k + l//k][wc*k + l%k][c]
    cfg = WindowConfig(H=4, W=4, C=1, k=2)
    vals = np.arange(16.0).reshape(4, 4, 1)
    y = window_partition(DenseTensor((4, 4, 1), vals), cfg)
    assert y.array[0, :, 0].tolist() == [0.0, 1.0, 4.0, 5.0]
    wpr = cfg.W // cfg.k
    for n in range(cfg.num_windows):
        wr, wc = divmod(n, wpr)
        for l in range(cfg.seq_len):
            assert y.array[n, l, 0] == vals[wr * 2 + l // 2, wc * 2 + l % 2, 0]


@pytest.mark.parametrize("H,W,C,k", [(224, 224, 3, 7), (4, 4, 1, 2), (3, 3, 2, 3), (10, 15, 4, 5)])
def test_round_trip_is_bitwise_identity(H, W, C, k):
    cfg = WindowConfig(H=H, W=W, C=C, k=k)
    x = fill_uniform(Rng(7), (H, W, C), -1.0, 1.0)
    windows = window_partition(x, cfg)
    back = window_reverse(windows, cfg)
    assert not windows.array.flags.writeable and not back.array.flags.writeable
    assert np.array_equal(back.array, x.array)
    assert max_abs_diff(back, x) == 0.0


def test_reverse_then_partition_is_identity():
    cfg = WindowConfig(H=6, W=8, C=3, k=2)
    y = fill_uniform(Rng(8), (cfg.num_windows, cfg.seq_len, cfg.C), -1.0, 1.0)
    again = window_partition(window_reverse(y, cfg), cfg)
    assert np.array_equal(again.array, y.array)


def test_partition_preserves_element_multiset():
    cfg = WindowConfig(H=8, W=12, C=2, k=4)
    x = fill_uniform(Rng(9), (8, 12, 2), -1.0, 1.0)
    y = window_partition(x, cfg)
    assert np.array_equal(np.sort(y.array, axis=None), np.sort(x.array, axis=None))


def test_non_divisible_geometry_rejected():
    with pytest.raises(ShapeError, match="must divide"):
        WindowConfig(H=10, W=10, C=3, k=3)
    with pytest.raises(ShapeError, match="must divide"):
        WindowConfig(H=14, W=10, C=3, k=7)


def test_shape_mismatches_rejected():
    cfg = WindowConfig(H=4, W=4, C=2, k=2)
    with pytest.raises(ShapeError):
        window_partition(fill_uniform(Rng(2), (4, 4, 3), 0.0, 1.0), cfg)
    with pytest.raises(ShapeError):
        window_reverse(fill_uniform(Rng(3), (3, 4, 2), 0.0, 1.0), cfg)


def test_nonpositive_extents_rejected():
    with pytest.raises(ShapeError):
        WindowConfig(H=0, W=4, C=1, k=2)
