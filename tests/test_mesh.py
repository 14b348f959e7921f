"""Graph construction: edges, contact search, features, positional encoding."""

import numpy as np
import pytest

import mgnt.mesh
from mgnt.errors import ValidationError
from mgnt.mesh import (GraphConfig, build_mesh_edges, build_tied_edges,
                       contact_edge_features, detect_contact_edges,
                       detect_contact_edges_bruteforce, mesh_edge_features,
                       one_hot_types, positional_encoding, prepare_mesh)


def _mesh(X, elements, comps=None):
    """(X, elements, component_id) as float64, int64 and int64 arrays."""
    X = np.asarray(X, dtype=float)
    comps = np.zeros(X.shape[0]) if comps is None else comps
    return X, np.asarray(elements, dtype=np.int64), np.asarray(comps, dtype=np.int64)


class TestMeshEdges:
    def test_single_triangle_six_directed(self):
        edges = build_mesh_edges(np.array([[0, 1, 2]]), 3)
        assert edges.shape == (6, 2)
        assert set(map(tuple, edges)) == {(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)}

    def test_quad_perimeter_only_eight_directed(self):
        edges = build_mesh_edges(np.array([[0, 1, 2, 3]]), 4)
        assert edges.shape == (8, 2)
        pairs = set(map(tuple, edges))
        assert (0, 2) not in pairs and (1, 3) not in pairs  # no diagonals

    def test_two_triangles_shared_edge_ten_directed(self):
        assert build_mesh_edges(np.array([[0, 1, 2], [1, 3, 2]]), 4).shape == (10, 2)

    def test_sorted_by_source_then_target(self):
        edges = build_mesh_edges(np.array([[0, 1, 2]]), 3)
        assert np.array_equal(edges, edges[np.lexsort((edges[:, 1], edges[:, 0]))])

    def test_degenerate_element_rejected(self):
        with pytest.raises(ValidationError, match="degenerate"):
            build_mesh_edges(np.array([[0, 1, 1]]), 3)

    @pytest.mark.parametrize("index", [-1, 3])
    def test_element_index_out_of_range_rejected(self, index):
        with pytest.raises(ValidationError, match="element index out of range"):
            build_mesh_edges(np.array([[0, 1, 2], [1, index, 2]]), 3)


class TestTiedEdges:
    def test_coincident_nodes_both_directions(self):
        X, _, comps = _mesh([[0, 0], [0, 0], [1, 0], [1, 0]], [[0, 2], [1, 3]],
                  comps=[0, 1, 0, 1])
        tied = build_tied_edges(X, comps, k=1, interface_cutoff=3.0)
        pairs = set(map(tuple, tied))
        assert (0, 1) in pairs and (1, 0) in pairs

    def test_single_component_empty(self):
        X, _, comps = _mesh([[0, 0], [1, 0]], [[0, 1]])
        assert build_tied_edges(X, comps, k=1, interface_cutoff=3.0).shape == (0, 2)

    def test_three_components_on_line_matches_bruteforce(self):
        # components of two nodes each along a line; k=1 ties nearest foreign node
        X = np.array([[0.0, 0], [1.0, 0], [1.5, 0], [2.5, 0], [3.0, 0], [4.0, 0]])
        elements = [[0, 1], [2, 3], [4, 5]]
        comps = [0, 0, 1, 1, 2, 2]
        X, _, comps = _mesh(X, elements, comps=comps)
        tied = build_tied_edges(X, comps, k=1, interface_cutoff=0.75)
        expected = set()
        for i in range(6):
            dists = [(abs(X[j, 0] - X[i, 0]), j) for j in range(6) if comps[j] != comps[i]]
            dist, j = min(dists)
            if dist <= 0.75:
                expected.add((i, j))
                expected.add((j, i))
        assert set(map(tuple, tied)) == expected

    def test_k_beyond_foreign_count_ties_every_foreign_node(self):
        X, _, comps = _mesh([[0, 0], [1, 0], [0, 1], [0.5, 0.5]], [[0, 1, 2]],
                  comps=[0, 0, 0, 1])
        tied = build_tied_edges(X, comps, k=10, interface_cutoff=5.0)
        assert set(map(tuple, tied)) == {(i, 3) for i in range(3)} | {(3, i) for i in range(3)}

    def test_far_components_not_tied(self):
        X, _, comps = _mesh([[0, 0], [1, 0], [50, 0], [51, 0]], [[0, 1], [2, 3]],
                  comps=[0, 0, 1, 1])
        assert build_tied_edges(X, comps, k=2, interface_cutoff=3.0).shape == (0, 2)

    @pytest.mark.parametrize("block_rows", [7, None])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("layout", ["interleaved_grids", "random_3d"])
    def test_blocked_scan_equals_whole_matrix_scan(self, monkeypatch, layout, k, block_rows):
        if block_rows is not None:
            monkeypatch.setattr(mgnt.mesh, "_TIED_BLOCK_ROWS", block_rows)
        if layout == "interleaved_grids":
            # two 15x15 grids overlapping by half, half a cell apart: many
            # equal distances, so the lower-id tie rule decides
            g = np.stack(np.meshgrid(np.arange(15.0), np.arange(15.0)), -1).reshape(-1, 2)
            X, cutoff = np.concatenate([g, g + [7.5, 0.5]]), 0.75
        else:
            X = np.random.default_rng(3).uniform(0.0, 1.0, (300, 3))
            X[150:, 0] += 0.9
            cutoff = 0.2
        comps = np.repeat([0, 1], X.shape[0] // 2)
        assert X.shape[0] > 2 * mgnt.mesh._TIED_BLOCK_ROWS
        # the whole N x N scan the blocked one replaced, as the reference
        diff = X[:, None, :] - X[None, :, :]
        other = comps[:, None] != comps[None, :]
        dist = np.where(other, np.sqrt((diff * diff).sum(-1)), np.inf)
        rows = np.flatnonzero(dist.min(axis=1) <= cutoff)
        nearest = np.argsort(dist[rows], axis=1, kind="stable")[:, :k]
        src, dst = np.repeat(rows, nearest.shape[1]), nearest.ravel()
        foreign = other[src, dst]
        expected = mgnt.mesh._both_ways(src[foreign], dst[foreign], len(X))
        assert 0 < rows.size < len(X)
        tied = build_tied_edges(X, comps, k=k, interface_cutoff=cutoff)
        assert tied.dtype == expected.dtype and np.array_equal(tied, expected)


class TestContactDetection:
    def test_far_pair_no_edges(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0]])
        assert detect_contact_edges(pts, 1.0, ()).shape == (0, 2)

    def test_close_pair_both_directions(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.0]])
        edges = detect_contact_edges(pts, 1.0, ())
        assert set(map(tuple, edges)) == {(0, 1), (1, 0)}

    def test_excluded_pairs_skipped(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.0]])
        edges = detect_contact_edges(pts, 1.0, [(0, 1), (1, 0)])
        assert edges.shape == (0, 2)

    def test_strict_inequality_at_radius(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert detect_contact_edges(pts, 1.0, ()).shape == (0, 2)

    def test_bruteforce_hand_listed(self):
        # 0-1 and 0-2 are closer than 1; 1-2 is sqrt(1.06) apart and 3 is far
        pts = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.9], [3.0, 0.0]])
        # unsorted; (3, 1) is never near, and (-4, 2) and (1, 4) lie outside the frame
        excluded = np.array([[2, 0], [3, 1], [-4, 2], [0, 1], [1, 4]])
        edges = detect_contact_edges_bruteforce(pts, 1.0, excluded)
        assert edges.dtype == np.int64
        np.testing.assert_array_equal(edges, [[0, 2], [1, 0]])
        np.testing.assert_array_equal(detect_contact_edges_bruteforce(pts, 1.0, ()),
                                      [[0, 1], [0, 2], [1, 0], [2, 0]])
        np.testing.assert_array_equal(detect_contact_edges(pts, 1.0, excluded), edges)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_bruteforce_random(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-2, 2, size=(50, 2))
        r_c = rng.uniform(0.2, 0.8)
        excluded = [(0, 1), (1, 0), (5, 9), (9, 5)]
        fast = detect_contact_edges(pts, r_c, excluded)
        slow = detect_contact_edges_bruteforce(pts, r_c, excluded)
        np.testing.assert_array_equal(fast, slow)

    def test_matches_bruteforce_3d(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-1, 1, size=(40, 3))
        np.testing.assert_array_equal(detect_contact_edges(pts, 0.5, ()),
                                      detect_contact_edges_bruteforce(pts, 0.5, ()))

    @pytest.mark.parametrize("pts,r_c", [
        # lattice points exactly r_c apart, on cell boundaries
        (np.stack(np.meshgrid(np.arange(5) * 0.5, np.arange(4) * 0.5), -1).reshape(-1, 2), 0.5),
        (np.random.default_rng(12).uniform(-1, 1, size=(40, 2)) + 1e6, 0.4),
        (np.random.default_rng(13).uniform(0, 0.1, size=(20, 2)), 1.0),   # one cell
        (np.zeros((0, 2)), 1.0),
        (np.zeros((1, 3)), 1.0),
        (np.concatenate([np.random.default_rng(14).uniform(0, 1, size=(20, 3)),
                         np.random.default_rng(15).uniform(0, 1, size=(20, 3)) + 1e7]),
         1e-3),
        # quotients past the int64 range, and near-coincident far-out points
        (np.array([[1e307, 0.0], [1e307, 1e-3], [-1e307, 0.0], [0.0, 0.0]]), 1e-2),
    ], ids=["boundaries", "offset-1e6", "one-cell", "empty", "one-node",
            "clusters-1e7-apart", "huge"])
    def test_matches_bruteforce_layouts(self, pts, r_c):
        with np.errstate(over="ignore", invalid="raise"):  # no cast of inf to int
            fast = detect_contact_edges(pts, r_c, ())
            slow = detect_contact_edges_bruteforce(pts, r_c, ())
        np.testing.assert_array_equal(fast, slow)
        assert fast.dtype == np.int64 and fast.shape[1] == 2

    def test_exclusion_formats_agree(self):
        rng = np.random.default_rng(16)
        pts = rng.uniform(-1, 1, size=(40, 2))
        pairs = detect_contact_edges(pts, 0.5)[::3]
        edges = detect_contact_edges(pts, 0.5, pairs)
        np.testing.assert_array_equal(edges, detect_contact_edges(pts, 0.5, pairs[::-1]))
        for ex in (pairs, pairs[::-1]):
            np.testing.assert_array_equal(edges, detect_contact_edges_bruteforce(pts, 0.5, ex))

    def test_bad_radius(self):
        with pytest.raises(ValidationError):
            detect_contact_edges(np.zeros((2, 2)), 0.0, ())


# With r_c = 1 the cell grid spans 2**40 columns and 2**24 rows, so the frame
# digit's stride, 2**64, wraps to 0: every frame's keys equal frame 0's, and
# only the same-frame test keeps a node from pairing with itself or with its
# neighbors in other frames.
_FRAME_STRIDE_WRAPS = np.array([[0.25, 0.25], [0.75, 0.25],
                                [2.0 ** 40 - 2.5, 2.0 ** 24 - 2.5],
                                [2.0 ** 40 - 2.2, 2.0 ** 24 - 2.5]])
_HUGE = np.array([[1e307, 0.0], [1e307, 1e-3], [-1e307, 0.0], [0.0, 0.0]])


class TestContactPerFrame:
    """One search over stacked frames equals the brute force frame by frame."""

    @staticmethod
    def check(frames, r_c, excluded=()):
        """The stacked search's pairs as (frame of each, pairs within it)."""
        frames = np.asarray(frames, dtype=float)
        n = frames.shape[1]
        with np.errstate(over="ignore", invalid="raise"):  # no cast of inf to int
            rows = detect_contact_edges(frames, r_c, excluded)
            slow = [detect_contact_edges_bruteforce(x, r_c, excluded) for x in frames]
        assert rows.dtype == np.int64 and rows.shape == (rows.shape[0], 2)
        # node i of frame f is row f * n + i, and both ends lie in one frame
        frame = rows[:, 0] // n
        np.testing.assert_array_equal(rows[:, 1] // n, frame)
        np.testing.assert_array_equal(
            frame, np.repeat(np.arange(len(slow)), [s.shape[0] for s in slow]))
        pairs = rows - frame[:, None] * n
        np.testing.assert_array_equal(pairs, np.concatenate([np.zeros((0, 2), np.int64), *slow]))
        return frame, pairs

    def test_identical_frames_pair_within_each(self):
        pts = np.random.default_rng(20).uniform(-1, 1, size=(40, 2))
        frame, pairs = self.check(np.stack([pts] * 4), 0.3)
        one = detect_contact_edges(pts, 0.3)
        assert one.shape[0] > 0
        for t in range(4):
            np.testing.assert_array_equal(pairs[frame == t], one)

    def test_frames_1e6_apart(self):
        rng = np.random.default_rng(21)
        frames = rng.uniform(-1, 1, size=(3, 30, 2)) + 1e6 * np.arange(3)[:, None, None]
        self.check(frames, 0.4)

    @pytest.mark.parametrize("pts,r_c", [(_HUGE, 1e-2), (_FRAME_STRIDE_WRAPS, 1.0)],
                             ids=["huge", "frame-stride-wraps"])
    def test_wrapping_keys(self, pts, r_c):
        frame, _ = self.check(np.stack([pts, pts[::-1], pts]), r_c)
        assert frame.size > 0

    @pytest.mark.parametrize("shape,r_c", [
        ((3, 30, 1), 0.1), ((3, 25, 3), 0.5), ((3, 0, 2), 1.0), ((3, 1, 2), 1.0),
    ], ids=["1d", "3d", "empty-frames", "one-node-frames"])
    def test_shapes(self, shape, r_c):
        self.check(np.random.default_rng(22).uniform(-1, 1, size=shape), r_c)

    def test_exclusion_formats_agree(self):
        frames = np.random.default_rng(23).uniform(-1, 1, size=(3, 40, 2))
        pairs = np.unique(detect_contact_edges(frames, 0.5)[::3] % 40, axis=0)
        (frame, found), (frame_r, found_r) = [self.check(frames, 0.5, ex)
                                              for ex in (pairs, pairs[::-1])]
        np.testing.assert_array_equal(frame_r, frame)
        np.testing.assert_array_equal(found_r, found)

    def test_bad_radius(self):
        with pytest.raises(ValidationError):
            detect_contact_edges(np.zeros((2, 2, 2)), 0.0)


class TestEdgeFeatures:
    def test_mesh_feature_3d_example(self):
        X = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        edges = np.array([[0, 1]])
        feats = mesh_edge_features(X, X, edges)
        np.testing.assert_allclose(feats, [[-1, 0, 0, 1, -1, 0, 0, 1]])

    def test_undeformed_reference_equals_current_block(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((6, 2))
        edges = np.array([[0, 1], [2, 5], [4, 3]])
        feats = mesh_edge_features(X, X, edges)
        np.testing.assert_array_equal(feats[:, :3], feats[:, 3:])

    def test_rigid_translation_invariance(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((5, 3))
        x = X + rng.standard_normal((5, 3)) * 0.1
        edges = np.array([[0, 1], [1, 2], [3, 4]])
        shift = np.array([5.0, 5.0, 5.0])
        np.testing.assert_allclose(mesh_edge_features(X, x, edges),
                                   mesh_edge_features(X + shift, x + shift, edges),
                                   atol=1e-12)

    def test_contact_feature_example(self):
        x = np.array([[0.0, 0, 1], [0.0, 0, 0]])
        feats = contact_edge_features(x, np.array([[0, 1]]))
        np.testing.assert_allclose(feats, [[0, 0, 1, 1]])

    def test_contact_feature_antisymmetry(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 2))
        f_ij = contact_edge_features(x, np.array([[1, 3]]))
        f_ji = contact_edge_features(x, np.array([[3, 1]]))
        np.testing.assert_allclose(f_ij[0, :2], -f_ji[0, :2])
        assert f_ij[0, 2] == pytest.approx(f_ji[0, 2])

    def test_emitted_contact_norms_below_radius(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(-1, 1, size=(30, 2))
        edges = detect_contact_edges(pts, 0.4, ())
        feats = contact_edge_features(pts, edges)
        assert (feats[:, -1] < 0.4).all()


class TestPositionalEncoding:
    def test_min_corner_all_sin_zero_cos_one(self):
        X = np.array([[0.0, 0.0], [2.0, 3.0], [1.0, 1.5]])
        pe = positional_encoding(X, np.zeros(3, dtype=int), n_frequencies=3)
        row = pe[0]
        np.testing.assert_allclose(row[0::2], 0.0, atol=1e-12)
        np.testing.assert_allclose(row[1::2], 1.0, atol=1e-12)

    def test_u_equal_one_first_mode(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0]])
        pe = positional_encoding(X, np.zeros(2, dtype=int), n_frequencies=1)
        # node 1 sits at u=1 on x; y has zero extent so it contributes constants
        assert pe[1, 0] == pytest.approx(0.0, abs=1e-12)   # sin(pi)
        assert pe[1, 1] == pytest.approx(-1.0)             # cos(pi)
        assert pe[1, 2] == pytest.approx(0.0, abs=1e-12)   # flat axis sin
        assert pe[1, 3] == pytest.approx(1.0)              # flat axis cos

    def test_translation_invariance(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((10, 2))
        comps = np.zeros(10, dtype=int)
        np.testing.assert_allclose(positional_encoding(X, comps),
                                   positional_encoding(X + 42.0, comps), atol=1e-9)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((50, 3)) * 10
        pe = positional_encoding(X, rng.integers(0, 3, size=50))
        assert pe.min() >= -1.0 - 1e-12 and pe.max() <= 1.0 + 1e-12

    def test_per_component_normalization(self):
        # two components with different extents both span u in [0, 1]
        X = np.array([[0.0, 0], [1.0, 0], [100.0, 0], [104.0, 0]])
        comps = np.array([0, 0, 1, 1])
        pe = positional_encoding(X, comps, n_frequencies=1)
        np.testing.assert_allclose(pe[1, :2], pe[3, :2], atol=1e-12)


class TestPreparedMesh:
    def test_contact_excludes_mesh_neighbors(self):
        # a dense triangle: all pairs are mesh edges, so no contact pairs emerge
        m = _mesh([[0, 0], [0.1, 0], [0, 0.1]], [[0, 1, 2]])
        graph = prepare_mesh(*m, GraphConfig(contact_radius_factor=10.0))
        assert detect_contact_edges(graph.reference_positions, graph.contact_radius,
                                    graph.excluded_pairs).shape == (0, 2)

    def test_quad_diagonals_never_contact(self):
        m = _mesh([[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2, 3]])
        graph = prepare_mesh(*m, GraphConfig(contact_radius_factor=2.0))
        assert {(0, 2), (2, 0), (1, 3), (3, 1)} <= set(map(tuple, graph.excluded_pairs))
        assert detect_contact_edges(graph.reference_positions, graph.contact_radius,
                                    graph.excluded_pairs).shape == (0, 2)

    def test_mesh_without_elements_rejected(self):
        m = _mesh([[0, 0], [1, 0]], np.zeros((0, 2)))
        with pytest.raises(ValidationError, match="mesh has no edges"):
            prepare_mesh(*m, GraphConfig())

    def test_default_radius_from_median_edge(self):
        m = _mesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
        graph = prepare_mesh(*m, GraphConfig(contact_radius_factor=1.5))
        assert graph.contact_radius == pytest.approx(1.5 * graph.median_edge)

    def test_one_hot(self):
        oh = one_hot_types(np.array([0, 3, 1]))
        np.testing.assert_array_equal(
            oh, [[1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0]])


def test_node_permutation_preserves_edge_feature_multiset():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((8, 2))
    elements = np.array([[0, 1, 2], [2, 3, 4], [4, 5, 6], [6, 7, 0]])
    edges = build_mesh_edges(elements, 8)
    feats = mesh_edge_features(X, X, edges)

    perm = rng.permutation(8)
    X_p = np.empty_like(X)
    X_p[perm] = X
    edges_p = build_mesh_edges(perm[elements], 8)
    feats_p = mesh_edge_features(X_p, X_p, edges_p)

    def key(rows):
        return sorted(map(tuple, np.round(rows, 12)))

    assert key(feats) == key(feats_p)
