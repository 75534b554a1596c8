import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from locstruct.losses import ANGULAR_SIN_SQ, SQUARED_VECTOR, ZERO_ONE_WINDOW, part_loss, structured_loss
from locstruct.parts import (
    GridPatches,
    NonFiniteError,
    PartIndexError,
    SequenceWindows,
    ShapeMismatchError,
    Uniform,
    VectorBlocks,
    Weighted,
    cover_counts,
    extract_part,
    gather_parts,
    index_map,
    part_cdf,
    part_distance,
    part_values,
    part_weights,
    sample_part,
    scatter_parts,
    stack_objects,
)
from locstruct.parts import _scatter_plan

from helpers import scatter_loop


class TestSequenceWindows:
    def test_first_window(self):
        scheme = SequenceWindows(seq_len=5, window_len=2)
        assert extract_part("abcde", scheme, 0) == "ab"

    def test_index_range_matches_window_count(self):
        scheme = SequenceWindows(seq_len=5, window_len=2)
        assert scheme.num_parts == 4
        assert [extract_part("abcde", scheme, p) for p in range(4)] == ["ab", "bc", "cd", "de"]
        with pytest.raises(PartIndexError):
            extract_part("abcde", scheme, 4)

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            extract_part("abc", SequenceWindows(5, 2), 0)

    def test_window_longer_than_sequence_rejected(self):
        with pytest.raises(ValueError):
            SequenceWindows(seq_len=3, window_len=4)


class TestVectorBlocks:
    def test_block_slices(self):
        scheme = VectorBlocks(block_dim=2, num_blocks=3)
        x = np.arange(6.0)
        assert np.array_equal(extract_part(x, scheme, 1), [2.0, 3.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            extract_part(np.zeros(5), VectorBlocks(2, 3), 0)


class TestGridPatches:
    def test_circular_wrap_indices(self):
        # hand enumeration modulo 4: patch anchored at (3, 3) covers the four
        # corner pixels (3,3), (3,0), (0,3), (0,0)
        scheme = GridPatches(width=4, height=4, patch_w=2, patch_h=2, stride=1, circular=True)
        x = np.arange(16.0).reshape(4, 4)
        patch = extract_part(x, scheme, scheme.num_parts - 1)
        assert np.array_equal(patch, [[x[3, 3], x[3, 0]], [x[0, 3], x[0, 0]]])

    def test_clipped_grid_indexes_contained_patches_only(self):
        scheme = GridPatches(width=5, height=5, patch_w=2, patch_h=2, stride=2)
        assert scheme.n_rows == scheme.n_cols == 2
        assert scheme.num_parts == 4

    def test_channels_ride_along(self):
        scheme = GridPatches(width=4, height=4, patch_w=2, patch_h=2, stride=2, circular=True)
        x = np.random.default_rng(0).standard_normal((3, 4, 4))
        patch = extract_part(x, scheme, 0)
        assert patch.shape == (3, 2, 2)
        assert np.array_equal(patch, x[:, :2, :2])

    def test_shape_mismatch(self):
        scheme = GridPatches(width=4, height=4, patch_w=2, patch_h=2, stride=2, circular=True)
        with pytest.raises(ShapeMismatchError):
            extract_part(np.zeros((5, 4)), scheme, 0)

    def test_circular_requires_divisible_stride(self):
        with pytest.raises(ValueError):
            GridPatches(width=5, height=5, patch_w=2, patch_h=2, stride=2, circular=True)


class TestPartDistance:
    def test_identity(self):
        assert part_distance(VectorBlocks(4, 8), 3, 3) == 0.0

    def test_line_distance(self):
        assert part_distance(SequenceWindows(10, 2), 1, 4) == 3.0

    def test_grid_center_distance(self):
        # patch 11x11 stride 5: tops (5,5) and (5,20) give centers (10,10), (10,25)
        scheme = GridPatches(width=40, height=40, patch_w=11, patch_h=11, stride=5)
        n = scheme.n_cols
        p = 1 * n + 1   # top (5, 5)
        q = 1 * n + 4   # top (5, 20)
        assert scheme.center(p) == (10.0, 10.0)
        assert scheme.center(q) == (10.0, 25.0)
        assert part_distance(scheme, p, q) == pytest.approx(15.0)

    def test_circular_wraps_distance(self):
        scheme = GridPatches(width=20, height=20, patch_w=5, patch_h=5, stride=5, circular=True)
        p = 0            # center (2, 2)
        q = 3            # center (2, 17): direct 15, wrapped 5
        assert part_distance(scheme, p, q) == pytest.approx(5.0)

    @pytest.mark.parametrize("scheme", [
        SequenceWindows(7, 3),
        VectorBlocks(2, 6),
        GridPatches(width=12, height=8, patch_w=4, patch_h=4, stride=4, circular=True),
        GridPatches(width=9, height=9, patch_w=3, patch_h=3, stride=2),
    ])
    def test_symmetry_and_identity_of_indiscernibles(self, scheme):
        for p in range(scheme.num_parts):
            for q in range(scheme.num_parts):
                d = part_distance(scheme, p, q)
                assert d == part_distance(scheme, q, p)
                assert d >= 0.0
                assert (d == 0.0) == (p == q)


class TestCover:
    def test_sixteen_fold_cover(self):
        # twenty-pixel patches every five pixels on a circular grid
        scheme = GridPatches(width=40, height=40, patch_w=20, patch_h=20, stride=5, circular=True)
        assert np.all(cover_counts(scheme) == 16)

    @pytest.mark.parametrize("scheme", [
        SequenceWindows(9, 4),
        VectorBlocks(3, 5),
        GridPatches(width=8, height=8, patch_w=4, patch_h=4, stride=2, circular=True),
        GridPatches(width=8, height=8, patch_w=2, patch_h=2, stride=2),
    ])
    def test_every_coordinate_covered(self, scheme):
        assert np.all(cover_counts(scheme) >= 1)


class TestPartDistribution:
    def test_uniform_frequencies(self):
        rng = np.random.default_rng(11)
        dist = Uniform(4)
        draws = np.array([sample_part(dist, rng) for _ in range(40000)])
        freqs = np.bincount(draws, minlength=4) / 40000
        assert np.all(freqs >= 0.22) and np.all(freqs <= 0.28)

    def test_degenerate_weights(self):
        rng = np.random.default_rng(0)
        dist = Weighted((1.0, 0.0, 0.0))
        assert all(sample_part(dist, rng) == 0 for _ in range(100))

    def test_fixed_seed_reproducible(self):
        dist = Weighted((0.5, 0.5))
        rng1 = np.random.default_rng(42)
        rng2 = np.random.default_rng(42)
        s1 = [sample_part(dist, rng1) for _ in range(50)]
        s2 = [sample_part(dist, rng2) for _ in range(50)]
        assert s1 == s2

    def test_empirical_convergence_bound(self):
        rng = np.random.default_rng(5)
        probs = (0.1, 0.2, 0.3, 0.4)
        dist = Weighted(probs)
        n = 20000
        draws = np.array([sample_part(dist, rng) for _ in range(n)])
        freqs = np.bincount(draws, minlength=4) / n
        for p, f in zip(probs, freqs):
            assert abs(f - p) <= 3 * np.sqrt(p * (1 - p) / n)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           weights=st.lists(st.sampled_from([0, 0, 1, 2, 7]), min_size=1, max_size=6)
           .filter(any),
           uniform=st.booleans())
    def test_equals_generator_choice(self, seed, weights, uniform):
        w = np.asarray(weights, dtype=float)
        dist = Uniform(len(w)) if uniform else Weighted(tuple(w / w.sum()))
        probs = dist.probabilities()
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = [sample_part(dist, fast) for _ in range(20)]
        assert draws == [int(slow.choice(len(probs), p=probs)) for _ in range(20)]
        assert fast.random() == slow.random()  # the same share of the stream

    def test_cdf_ends_at_one(self):
        cdf = part_cdf(Weighted((0.1, 0.0, 0.2, 0.7)))
        assert cdf[-1] == 1.0 and cdf[1] == cdf[0]

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            Weighted((0.5, -0.1, 0.6))
        with pytest.raises(ValueError):
            Weighted((0.5, 0.6))

    @pytest.mark.parametrize("probs", [(math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan),
                                       (math.inf, 1.0), (0.5, 0.5, math.nan)])
    def test_non_finite_weights_rejected(self, probs):
        """A NaN fails a check written as ``p < 0`` or ``|sum - 1| > tol``;
        before it was refused, ``Weighted((nan, 1.0))`` gave an all-NaN CDF."""
        with pytest.raises(ValueError):
            Weighted(probs)

    @pytest.mark.parametrize("weights", [(1.0, -0.5, 1.0), (1.0, math.inf, 1.0),
                                         (1.0, math.nan, 1.0)])
    def test_bad_raw_weights_rejected(self, weights):
        """A raw weight array gets the checks of ``Weighted``; before, a
        negative or infinite entry was returned as given and decoded."""
        with pytest.raises(ValueError, match="nonnegative and finite"):
            part_weights(np.array(weights), 3)


# ---------------------------------------------------------------------------
# The index map against the scalar selection
# ---------------------------------------------------------------------------

_VALUE = st.floats(-3.0, 3.0, allow_nan=False).map(lambda v: round(v, 1))
_SYMBOLS = "ab\u03b2\x00"  # a non-ASCII symbol and a NUL, which numpy pads with


# values whose bits a reordered sum would change: signed zeros, NaNs of any
# sign and payload, infinities, and magnitudes whose sum rounds (1e16 + 0.1)
_ODD_VALUE = st.one_of(st.sampled_from([0.0, -0.0, math.nan, -math.nan, 1.5, 0.1, 1e16, -1e16]),
                       st.floats())


@st.composite
def scheme_inputs(draw, kinds=("blocks", "clipped", "circular", "strings", "windows"),
                  elements=_VALUE):
    """A scheme with a strategy for its objects and the objects' leading axes."""
    kind = draw(st.sampled_from(kinds))
    if kind == "blocks":
        scheme = VectorBlocks(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
        return scheme, arrays(float, scheme.shape, elements=elements), ()
    if kind in ("strings", "windows"):
        n = draw(st.integers(1, 6))
        scheme = SequenceWindows(n, draw(st.integers(1, n)))
        if kind == "strings":
            return scheme, st.text(alphabet=_SYMBOLS, min_size=n, max_size=n), ()
        return scheme, arrays(float, scheme.shape, elements=elements), ()
    stride = draw(st.integers(1, 3))
    if kind == "clipped":
        height, width = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        lead = draw(st.sampled_from([(), (2,)]))
    else:
        height, width = stride * draw(st.integers(1, 3)), stride * draw(st.integers(1, 3))
        lead = (2,)
    scheme = GridPatches(width=width, height=height, patch_w=draw(st.integers(1, width)),
                         patch_h=draw(st.integers(1, height)), stride=stride,
                         circular=kind == "circular")
    return scheme, arrays(float, lead + scheme.shape, elements=elements), lead


@st.composite
def part_lists(draw, num_parts):
    """Parts in the order a caller may pass them: a shuffled subset, or a
    list with repeats."""
    perm = draw(st.permutations(range(num_parts)))
    return draw(st.one_of(st.integers(0, num_parts).map(lambda k: perm[:k]),
                          st.lists(st.integers(0, num_parts - 1), max_size=8)))


def _flat(part):
    if isinstance(part, str):
        return np.array([ord(c) for c in part], dtype=np.uint32)
    return np.asarray(part, dtype=float).ravel()


def _scatter_oracle(V, scheme, parts, lead):
    """Per-part accumulation through each scheme's own slicing."""
    out = np.zeros((V.shape[0],) + lead + scheme.shape)
    for i, p in enumerate(parts):
        block = V[:, i].reshape((V.shape[0],) + lead + scheme.part_shape)
        if isinstance(scheme, GridPatches):
            rows, cols = scheme.patch_rows_cols(p)
            out[..., rows[:, None], cols[None, :]] += block
        else:
            start = p * block.shape[-1] if isinstance(scheme, VectorBlocks) else p
            out[..., start : start + block.shape[-1]] += block
    return out.reshape(V.shape[0], -1)


class TestIndexMap:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_gather_equals_extract_part(self, data):
        scheme, objects, _ = data.draw(scheme_inputs())
        xs = data.draw(st.lists(objects, min_size=1, max_size=3))
        X = stack_objects(xs, scheme)
        rows = np.repeat(np.arange(len(xs)), scheme.num_parts)
        parts = np.tile(np.arange(scheme.num_parts), len(xs))
        G = gather_parts(X, scheme, rows, parts)
        for g, i, p in zip(G, rows, parts):
            assert np.array_equal(g, _flat(extract_part(xs[i], scheme, p)))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_part_values_equal_extract_part(self, data):
        scheme, objects, _ = data.draw(scheme_inputs())
        xs = data.draw(st.lists(objects, min_size=1, max_size=3))
        pairs = data.draw(st.lists(st.tuples(st.integers(0, len(xs) - 1),
                                             st.integers(0, scheme.num_parts - 1)), max_size=8))
        rows = np.array([i for i, _ in pairs], dtype=np.intp)
        parts = np.array([p for _, p in pairs], dtype=np.intp)
        values = part_values(xs, scheme, rows, parts)
        assert len(values) == len(pairs)
        for v, (i, p) in zip(values, pairs):
            want = extract_part(xs[i], scheme, p)
            assert type(v) is type(want)
            if isinstance(want, str):
                assert v == want
            else:
                assert v.dtype == want.dtype and v.shape == want.shape
                assert np.array_equal(v, want)

    def test_part_values_stack_every_object(self):
        scheme = VectorBlocks(2, 2)
        xs = [np.zeros(4), np.array([0.0, np.nan, 0.0, 0.0])]
        with pytest.raises(NonFiniteError):
            part_values(xs, scheme, np.array([0]), np.array([0]))
        with pytest.raises(ShapeMismatchError):
            part_values([np.zeros(4), np.zeros(3)], scheme, np.array([0]), np.array([0]))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_scatter_equals_per_part_loop(self, data):
        scheme, _, lead = data.draw(scheme_inputs(("blocks", "clipped", "circular", "windows")))
        parts = data.draw(st.lists(st.integers(0, scheme.num_parts - 1), min_size=1, max_size=6))
        width = int(np.prod(lead + scheme.part_shape))
        V = data.draw(arrays(float, (2, len(parts), width),
                             elements=st.floats(-1e3, 1e3, allow_nan=False)))
        got = scatter_parts(V, scheme, parts)
        assert np.array_equal(got, _scatter_oracle(V, scheme, parts, lead))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_scatter_equals_add_at(self, data):
        """Bit for bit the single unbuffered ``np.add.at`` through the index
        map, repeated parts included: each coordinate adds its parts in order."""
        scheme, _, lead = data.draw(scheme_inputs(("blocks", "clipped", "circular", "windows")))
        parts = data.draw(st.lists(st.integers(0, scheme.num_parts - 1), min_size=1, max_size=8))
        channels = int(np.prod(lead, dtype=int))
        J = index_map(scheme, channels)
        V = data.draw(arrays(float, (3, len(parts), J.shape[1]),
                             elements=st.floats(-1e6, 1e6, allow_nan=False)))
        want = np.zeros((3, channels * int(np.prod(scheme.shape))))
        np.add.at(want, (slice(None), J[parts]), V)
        assert np.array_equal(scatter_parts(V, scheme, parts), want)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_gather_bytes_equal_extract_part_loop(self, data):
        """Both forms of the gather, every object with every part and
        pairs, copy ``extract_part``'s values bit for bit, NaN payloads and
        signed zeros included; strings gather as their character codes."""
        scheme, objects, lead = data.draw(scheme_inputs(elements=_ODD_VALUE))
        xs = data.draw(st.lists(objects, min_size=1, max_size=3))
        if isinstance(xs[0], str):
            X, width = stack_objects(xs, scheme), scheme.window_len
        else:  # stacked by hand: ``stack_objects`` refuses NaN and inf
            X, width = np.stack([np.ravel(x) for x in xs]), math.prod(lead + scheme.part_shape)
        parts = data.draw(part_lists(scheme.num_parts))
        every = gather_parts(X, scheme, None, parts)
        assert every.shape == (len(xs), len(parts), width)
        assert every.tobytes() == b"".join(_flat(extract_part(x, scheme, p)).tobytes()
                                           for x in xs for p in parts)
        rows = np.array(data.draw(st.lists(st.integers(-len(xs), len(xs) - 1),
                                           min_size=len(parts), max_size=len(parts))), dtype=np.intp)
        pairs = gather_parts(X, scheme, rows, parts)
        assert pairs.shape == (len(parts), width)
        assert pairs.tobytes() == b"".join(_flat(extract_part(xs[r], scheme, p)).tobytes()
                                           for r, p in zip(rows, parts))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_scatter_bytes_equal_part_loop(self, data):
        """The layered takes add each coordinate's parts in the order of
        ``parts`` from +0.0, as the per-part loop does, so the bytes agree
        for signed zeros, NaNs, infinities, repeats and uncovered
        coordinates. The one exception is an add whose two operands are
        NaNs: IEEE 754 returns one of them without saying which, and
        numpy's contiguous add returns the second operand's in the tail of
        its vector loop and the first's elsewhere, so a coordinate where the
        running sum is a NaN when another NaN is added must be a NaN in
        both, of either sign and payload."""
        scheme, _, lead = data.draw(scheme_inputs(("blocks", "clipped", "circular", "windows")))
        parts = data.draw(part_lists(scheme.num_parts))
        width = math.prod(lead + scheme.part_shape)
        V = data.draw(arrays(float, (data.draw(st.integers(0, 3)), len(parts), width),
                             elements=_ODD_VALUE))
        got, want = scatter_parts(V, scheme, parts), scatter_loop(V, scheme, parts)
        both_nan = np.zeros(got.shape, bool)  # some add had two NaN operands
        for k in range(1, len(parts)):
            both_nan |= (np.isnan(scatter_loop(V[:, :k], scheme, parts[:k]))
                         & np.isnan(scatter_loop(V[:, k:k + 1], scheme, parts[k:k + 1])))
        same_bits = got.view(np.uint64) == want.view(np.uint64)
        assert (same_bits | both_nan & np.isnan(got) & np.isnan(want)).all()

    def test_scatter_plan_is_cached_and_read_only(self):
        scheme = GridPatches(4, 4, 2, 2, 1)
        plan, padded = _scatter_plan(scheme, 2, (3, 0))
        assert _scatter_plan(scheme, 2, (3, 0))[0] is plan
        # the two patches share grid row 1; rows 2 and 3 are uncovered
        assert plan.shape == (2, 32) and padded
        with pytest.raises(ValueError):
            plan[0, 0] = 0
        # a cover that reaches every coordinate equally often needs no zero column
        assert not _scatter_plan(VectorBlocks(2, 3), 1, (2, 0, 1))[1]
        assert not _scatter_plan(GridPatches(4, 4, 2, 2, 2, circular=True), 1, (0, 1, 2, 3))[1]

    def test_gather_keeps_its_errors(self):
        scheme = VectorBlocks(2, 3)
        X = stack_objects([np.arange(6.0)], scheme)
        for rows in ([1], [-2]):
            with pytest.raises(IndexError) as err:
                gather_parts(X, scheme, rows, [0])
            assert not isinstance(err.value, PartIndexError)
        assert np.array_equal(gather_parts(X, scheme, [-1], [2]), [[4.0, 5.0]])
        for rows in (None, [0]):
            with pytest.raises(PartIndexError):
                gather_parts(X, scheme, rows, [-1])

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_structured_loss_equals_part_loss_sum(self, data):
        scheme, objects, _ = data.draw(scheme_inputs())
        z, y = data.draw(objects), data.draw(objects)
        w = data.draw(arrays(float, (scheme.num_parts,), elements=st.sampled_from([0.0, 0.25, 1.5])))
        specs = (ZERO_ONE_WINDOW,) if isinstance(z, str) else (
            ZERO_ONE_WINDOW, SQUARED_VECTOR, ANGULAR_SIN_SQ)
        for spec in specs:
            want = sum(w[p] * part_loss(spec, extract_part(z, scheme, p), extract_part(y, scheme, p))
                       for p in range(scheme.num_parts) if w[p] != 0.0)
            got = structured_loss(spec, z, y, None, scheme, w)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_cover_counts_equal_per_part_count(self, data):
        scheme, _, _ = data.draw(scheme_inputs(("blocks", "clipped", "circular", "windows")))
        ones = np.ones((1, scheme.num_parts, int(np.prod(scheme.part_shape))))
        want = _scatter_oracle(ones, scheme, range(scheme.num_parts), ())
        assert np.array_equal(cover_counts(scheme), want.reshape(scheme.shape))

    def test_stacker_keeps_the_scalar_checks(self):
        with pytest.raises(ShapeMismatchError):
            stack_objects(["abc", "ab"], SequenceWindows(3, 2))
        with pytest.raises(ShapeMismatchError):
            stack_objects([np.zeros(5)], VectorBlocks(2, 3))
        with pytest.raises(ShapeMismatchError):
            stack_objects([np.zeros((5, 4))], GridPatches(4, 4, 2, 2, 2))
        with pytest.raises(ShapeMismatchError):  # grids with different channel axes
            stack_objects([np.zeros((4, 4)), np.zeros((2, 4, 4))], GridPatches(4, 4, 2, 2, 2))
        with pytest.raises(NonFiniteError):
            stack_objects([np.array([0.0, np.inf, 0.0, 0.0, 0.0, 0.0])], VectorBlocks(2, 3))
        X = stack_objects([np.arange(6.0)], VectorBlocks(2, 3))
        with pytest.raises(PartIndexError):
            gather_parts(X, VectorBlocks(2, 3), [0], [3])
