import numpy as np

from jnlab import kernels


def tree_total(values):
    # independent adjacent-pair reduction in pure Python floats
    vals = [float(v) for v in values]
    while len(vals) > 1:
        vals = [vals[i] + vals[i + 1] for i in range(0, len(vals), 2)]
    return vals[0]


def test_halve_pairs_hand():
    out = kernels.halve_pairs(np.array([1.0, 2.0, 3.0, 4.0]))
    assert out.tolist() == [3.0, 7.0]


def test_halve_pairs_matches_python_tree():
    rng = np.random.default_rng(1)
    for size in (2, 8, 64, 1024):
        x = rng.uniform(-1, 1, size)
        total = x.copy()
        while total.size > 1:
            total = kernels.halve_pairs(total)
        assert total[0] == tree_total(x)


def test_build_pyramid_levels_are_tree_sums():
    rng = np.random.default_rng(2)
    for depth, nbits in ((4, 1), (3, 2)):
        leaves = rng.uniform(0, 1, 1 << (nbits * depth))
        levels = kernels.build_pyramid(leaves, depth, nbits)
        assert len(levels) == depth + 1
        assert np.array_equal(levels[depth], leaves)
        for k in range(depth + 1):
            width = 1 << (nbits * (depth - k))
            assert levels[k].shape == (1 << (nbits * k),)
            for j in range(1 << (nbits * k)):
                block = leaves[j * width:(j + 1) * width]
                assert levels[k][j] == tree_total(block)
