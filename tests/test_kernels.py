"""The plaquette flux kernel on hand-built frames."""

import math

import numpy as np
import pytest

from conftest import bands_of, ctx_of, report_of

from nctorus import _kernels
from nctorus.representations import twist_transport
from nctorus.spectral import expand_k1_mirror


def random_frames(*shape, seed=0):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    q, _ = np.linalg.qr(raw)
    return q


def test_numpy_flux_constant_frames_is_zero():
    F = np.zeros((6, 6, 3, 2), complex)
    F[..., 0, 0] = 1.0
    F[..., 1, 1] = 1.0
    [(total, min_abs, max_angle)] = _kernels.plaquette_flux_sum(F, [2])
    assert total == pytest.approx(0.0, abs=1e-14)
    assert min_abs == pytest.approx(1.0, abs=1e-14)
    assert max_angle == pytest.approx(0.0, abs=1e-14)


def test_flux_is_gauge_invariant():
    # any orthonormal basis of each occupied space gives the same flux,
    # which is why projector fields keep their eigenvector frames as they are
    F = random_frames(6, 7, 4, 2, seed=1)
    U = random_frames(6, 7, 2, 2, seed=2)
    for seam in (None, random_frames(6, 4, 4, seed=3)):
        [(total, min_abs, max_angle)] = _kernels.plaquette_flux_sum(F, [2], seam)
        [(total_u, min_abs_u, max_angle_u)] = _kernels.plaquette_flux_sum(F @ U, [2], seam)
        assert total_u == pytest.approx(total, abs=1e-12)
        assert min_abs_u == pytest.approx(min_abs, abs=1e-12)
        assert max_angle_u == pytest.approx(max_angle, abs=1e-12)


@pytest.mark.parametrize("N,q", [(1, 1), (3, 2), (5, 3)])
def test_identity_frames_through_the_weyl_seam_carry_flux_2pi_q(N, q):
    # the whole twisted field: every bulk link is 1, and det of the seam
    # transport winds q times around k1 (theta = 1/N, or 0/1, and r = q - 1)
    G = 8
    F = np.broadcast_to(np.eye(N, dtype=complex), (G, G, N, N))
    seam = twist_transport(ctx_of(1 % N, N, q, q - 1), np.arange(G) / G)
    [(total, min_abs, max_angle)] = _kernels.plaquette_flux_sum(F, [N], seam)
    assert total == pytest.approx(2 * math.pi * q, abs=1e-12)
    assert min_abs == pytest.approx(1.0, abs=1e-14)
    # the seam plaquettes carry 2pi q/G, and the row that closes k1 carries -2pi q (G-1)/G
    # wrapped into (-pi, pi]; every other plaquette is 1
    assert max_angle == pytest.approx(2 * math.pi * q / G, abs=1e-12)


@pytest.mark.parametrize("frames", [
    pytest.param(lambda: random_frames(6, 7, 5, 5, seed=4), id="random-unitary"),
    pytest.param(lambda: expand_k1_mirror(bands_of(8, 13, 2, 1, "weyl", 16).frames, 16),
                 id="bands-8/13-(2,1)-G16"),
])
@pytest.mark.parametrize("with_seam", [False, True])
def test_multi_rank_call_matches_one_rank_at_a_time(frames, with_seam):
    # every rank reads its leading minor of the shared overlaps as a product
    # of pivots of one elimination; the one-rank call pivots over all R rows.
    # R = 0 takes the empty product, exactly 1: no flux, no small link
    F = frames()
    G1, _, N, _ = F.shape
    seam = random_frames(G1, N, N, seed=5) if with_seam else None
    ranks = list(range(0, N + 1))
    multi = _kernels.plaquette_flux_sum(F, ranks, seam)
    assert len(multi) == N + 1
    assert multi[0] == (0.0, 1.0, 0.0)
    for R, (total, min_abs, max_angle) in zip(ranks, multi):
        [(total_1, min_abs_1, max_angle_1)] = _kernels.plaquette_flux_sum(F[..., :R], [R], seam)
        assert total == pytest.approx(total_1, abs=1e-10), R
        assert min_abs == pytest.approx(min_abs_1, abs=1e-12), R
        assert max_angle == pytest.approx(max_angle_1, abs=1e-10), R
        assert (total, min_abs, max_angle) == pytest.approx(lapack_flux(F, R, seam),
                                                            abs=1e-10), R


def one_rank_at_a_time(F, ranks, seam=None, rows=None):
    return [_kernels.plaquette_flux_sum(F[..., :R], [R], seam, rows)[0] for R in ranks]


def lapack_flux(F, R, seam=None):
    """(flux_sum, min_abs_link, max_abs_angle) of rank R from LAPACK link determinants."""
    F = F[..., :R]
    Fy = np.roll(F, -1, axis=1)
    if seam is not None:
        Fy[:, -1] = seam @ F[:, 0]
    Fh = F.conj().swapaxes(-1, -2)
    Lx, Ly = np.linalg.det(Fh @ np.roll(F, -1, axis=0)), np.linalg.det(Fh @ Fy)
    pl = Ly * np.roll(Lx, -1, axis=1) * np.conj(np.roll(Ly, -1, axis=0)) * np.conj(Lx)
    return (float(np.angle(pl).sum()), float(min(np.abs(Lx).min(), np.abs(Ly).min())),
            float(np.abs(np.angle(pl)).max()))


def swapped_frames(G, N, odd, seed):
    """Unit vectors with random phases; on odd k1 rows the columns `odd` are permuted."""
    rng = np.random.default_rng(seed)
    F = np.zeros((G, G, N, N), complex)
    F[..., range(N), range(N)] = np.exp(2j * math.pi * rng.random((G, G, N)))
    F[1::2] = F[1::2][..., odd]
    return F


@pytest.mark.parametrize("columns,ranks", [(3, [2, 1]), (3, [1, 3, 2]), (3, [4]), (2, [1, 3]),
                                           (3, [-1, 2])])
def test_ranks_must_be_non_decreasing_within_the_columns(columns, ranks):
    # one elimination reads the ranks in order: a descending list would not fail by itself
    F = random_frames(4, 4, 3, 3, seed=6)[..., :columns]
    with pytest.raises(ValueError, match="non-decreasing"):
        _kernels.plaquette_flux_sum(F, ranks)


def test_pivoting_within_a_band_group():
    # on every k1-link the overlap swaps columns 0 and 1 (up to phases): its
    # leading 1 x 1 minor is exactly 0 and its 2 x 2 minor has modulus 1.  Rank 1
    # is not requested, so rows 0 and 1 form one group and the swap is allowed
    F = swapped_frames(6, 3, [1, 0, 2], seed=7)
    seam = random_frames(6, 3, 3, seed=8)
    ranks = [0, 2, 3]
    multi = _kernels.plaquette_flux_sum(F, ranks, seam)
    for R, (total, min_abs, max_angle), (total_1, min_abs_1, max_angle_1) in zip(
            ranks, multi, one_rank_at_a_time(F, ranks, seam)):
        assert total == pytest.approx(total_1, abs=1e-12), R
        assert min_abs == pytest.approx(min_abs_1, abs=1e-14), R
        assert max_angle == pytest.approx(max_angle_1, abs=1e-12), R
        assert (total, min_abs, max_angle) == pytest.approx(lapack_flux(F, R, seam),
                                                            abs=1e-12), R
    [(_, min_abs_2, _), (_, min_abs_3, _)] = _kernels.plaquette_flux_sum(F, [2, 3])
    assert min_abs_2 == pytest.approx(1.0, abs=1e-14)
    assert min_abs_3 == pytest.approx(1.0, abs=1e-14)


def test_a_vanishing_minor_reads_zero_and_leaves_earlier_ranks():
    # the k1-links swap columns 1 and 2: minors 1, 0, -1.  The requested rank 2
    # reads exactly 0 (the pivot is divided as 1, no warning); rank 1 is unchanged
    F = swapped_frames(6, 3, [0, 2, 1], seed=9)
    [first, second] = _kernels.plaquette_flux_sum(F, [1, 2])
    [(total_1, min_abs_1, _)] = one_rank_at_a_time(F, [1])
    assert first[0] == pytest.approx(total_1, abs=1e-12)
    assert first[1] == pytest.approx(min_abs_1, abs=1e-14)
    assert second[1] == 0.0
    assert math.isfinite(second[0])
    assert one_rank_at_a_time(F, [2])[0][1] == 0.0


@pytest.mark.parametrize("kind", ["reference", "weyl"])
def test_gap_ranks_of_touching_central_bands(kind):
    # N = 8: the central bands touch, so the gap ranks skip 4 and rows 3 and 4
    # share a group.  Its pivot at rank 4 is never read on its own
    ctx = ctx_of(3, 8, 1, 0)
    energies = bands_of(3, 8, 1, 0, "reference", 16).energies
    ranks = [int((energies[0, 0] < gap.fermi).sum()) for gap in report_of(3, 8, 1, 0).gaps]
    assert ranks == [0, 1, 2, 3, 5, 6, 7, 8]
    bd = bands_of(3, 8, 1, 0, kind, 16)
    seam = None if kind == "reference" else twist_transport(ctx, np.arange(len(bd.frames)) / 16)
    multi = _kernels.plaquette_flux_sum(bd.frames, ranks, seam, 16)
    for R, (total, min_abs, max_angle), (total_1, min_abs_1, max_angle_1) in zip(
            ranks, multi, one_rank_at_a_time(bd.frames, ranks, seam, 16)):
        assert total == pytest.approx(total_1, abs=1e-10), R
        assert min_abs == pytest.approx(min_abs_1, abs=1e-12), R
        assert max_angle == pytest.approx(max_angle_1, abs=1e-10), R


@pytest.mark.parametrize("kind", ["reference", "weyl"])
@pytest.mark.parametrize("M, N, q, r", [(8, 13, 2, 1), (3, 8, 1, 0)])
@pytest.mark.parametrize("G", [2, 3, 7, 15, 16])
def test_k1_mirrored_half_grid_matches_the_full_grid(kind, M, N, q, r, G):
    # frames of rows 0 .. G//2 (G = 2: both rows diagonalized, nothing mirrored)
    # give every rank the flux, smallest link and largest angle of the expanded full grid
    ctx = ctx_of(M, N, q, r)
    bd = bands_of(M, N, q, r, kind, G)
    assert bd.frames.shape[:2] == (G // 2 + 1, G)
    F = expand_k1_mirror(bd.frames, G)
    seam = None if kind == "reference" else twist_transport(ctx, np.arange(G) / G)
    half_seam = None if seam is None else seam[:G // 2 + 1]
    ranks = list(range(N + 1))
    half = _kernels.plaquette_flux_sum(bd.frames, ranks, half_seam, G)
    full = _kernels.plaquette_flux_sum(F, ranks, seam)
    for R, (total, min_abs, max_angle), (total_f, min_abs_f, max_angle_f) in zip(
            ranks, half, full):
        assert total == pytest.approx(total_f, abs=1e-12), R
        assert min_abs == pytest.approx(min_abs_f, abs=1e-12), R
        assert max_angle == pytest.approx(max_angle_f, abs=1e-12), R


def test_frames_with_every_row_take_the_full_grid():
    # a random frame field has no k1 mirror: rows=G1 is the default, and a row
    # count that fits neither the grid nor its mirror is refused
    F = random_frames(7, 6, 4, 4, seed=10)
    seam = random_frames(7, 4, 4, seed=11)
    ranks = [0, 1, 3, 4]
    full = _kernels.plaquette_flux_sum(F, ranks, seam, 7)
    assert full == _kernels.plaquette_flux_sum(F, ranks, seam)
    for R, sums in zip(ranks, full):
        assert sums == pytest.approx(lapack_flux(F, R, seam), abs=1e-10), R
    for rows in (8, 14, 15):
        with pytest.raises(ValueError, match="frame rows"):
            _kernels.plaquette_flux_sum(F, ranks, seam, rows)


def mirrored_weyl(G):
    """The stored rows of 8/13 (2,1)'s weyl bands at G, with their seam."""
    ctx = ctx_of(8, 13, 2, 1)
    frames = bands_of(8, 13, 2, 1, "weyl", G).frames
    return frames, twist_transport(ctx, np.arange(len(frames)) / G), G


@pytest.mark.parametrize("field", [
    pytest.param(lambda: (random_frames(9, 7, 4, 4, seed=12), None, 9), id="full"),
    pytest.param(lambda: (random_frames(9, 7, 4, 4, seed=12), random_frames(9, 4, 4, seed=13), 9),
                 id="full-seam"),
    pytest.param(lambda: mirrored_weyl(16), id="mirrored-even"),
    pytest.param(lambda: mirrored_weyl(15), id="mirrored-odd"),
    pytest.param(lambda: (bands_of(8, 13, 2, 1, "reference", 15).frames, None, 15),
                 id="mirrored-odd-periodic"),
])
@pytest.mark.parametrize("rows_per_block", [1, 4])
def test_block_fed_kernel_equals_one_block(field, rows_per_block, monkeypatch):
    # the k1-links that cross a block boundary start at the carried row, and the
    # grid's last one is closed after the last block: one block or many, every
    # minor and every angle sum is the same, bit for bit (4 divides neither
    # the 9 full rows nor the 8 stored rows of G = 15)
    F, seam, G1 = field()
    ranks = list(range(F.shape[-1] + 1))
    monkeypatch.setattr(_kernels, "BLOCK_BYTES", len(F) * F[0].nbytes)
    whole = _kernels.plaquette_flux_sum(F, ranks, seam, G1)
    monkeypatch.setattr(_kernels, "BLOCK_BYTES", rows_per_block * F[0].nbytes)
    assert _kernels.block_rows(F[0].nbytes) == rows_per_block
    assert _kernels.plaquette_flux_sum(F, ranks, seam, G1) == whole
    minors = _kernels.LinkMinors(ranks, G1)
    for i in range(len(F)):
        minors.add(F[i:i + 1], None if seam is None else seam[i:i + 1])
    assert minors.flux_sums() == whole


def test_link_minors_refuse_rows_of_no_grid():
    minors = _kernels.LinkMinors([0, 1], 16)
    minors.add(random_frames(8, 16, 3, 3, seed=14))
    with pytest.raises(ValueError, match="frame rows"):
        minors.flux_sums()


@pytest.mark.parametrize("field", [
    pytest.param(lambda: (random_frames(9, 6, 3, 3, seed=18), random_frames(9, 3, 3, seed=19), 9),
                 id="full"),
    pytest.param(lambda: mirrored_weyl(9), id="mirrored-odd"),
    # 2 stored rows and the closing row read as a full 3-row grid
    pytest.param(lambda: mirrored_weyl(3), id="mirrored-three"),
])
def test_a_closed_grid_refuses_a_second_closing(field):
    # flux_sums closes a full or odd mirrored grid by feeding its closing row
    # through add, once: the row count then counts that row, and fits no grid
    F, seam, G = field()
    minors = _kernels.LinkMinors([1, 3], G)
    minors.add(F, seam)
    assert minors.flux_sums() == _kernels.plaquette_flux_sum(F, [1, 3], seam, G)
    with pytest.raises(ValueError, match=f"{len(F) + 1} frame rows fit neither a {G}-row grid"):
        minors.flux_sums()


def test_an_even_mirrored_grid_closes_without_a_row():
    # every plaquette row it sums ends at a stored row, so there is no row to feed,
    # and a second call sums the same rows
    F, seam, G = mirrored_weyl(8)
    minors = _kernels.LinkMinors([1, 3], G)
    minors.add(F, seam)
    first = minors.flux_sums()
    assert minors.flux_sums() == first == _kernels.plaquette_flux_sum(F, [1, 3], seam, G)


def kept_bytes(obj):
    """Bytes of the numpy arrays an object keeps, in its attributes and in lists of them."""
    arrays = [v for value in vars(obj).values()
              for v in (value if isinstance(value, list) else [value])]
    return sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))


def test_link_minors_keep_row_sums_not_the_grid():
    # after the last block, a 64-row grid keeps only 48 more row sums per rank
    # than a 16-row grid: no link minor of a fed block stays behind
    ranks = [0, 1, 2, 4]
    kept = []
    for rows in (16, 64):
        F = random_frames(rows, 8, 4, 4, seed=15)
        minors = _kernels.LinkMinors(ranks, rows)
        for i in range(0, rows, 4):
            minors.add(F[i:i + 4])
        kept.append(kept_bytes(minors))
    assert kept[1] <= kept[0] + len(ranks) * 48 * np.dtype(float).itemsize


@pytest.mark.parametrize("G", [15, 16])
def test_a_mirrored_feed_keeps_no_row_but_the_last(G):
    # told that the feed is k1-mirrored, the kernel keeps no row-0 copy: beyond the
    # carried adjoint of the last row fed, it keeps less than one frames row, and
    # exactly that row and its seam row less than a kernel that may close a full grid
    F, seam, G = mirrored_weyl(G)
    ranks = [1, 3]
    told, untold = _kernels.LinkMinors(ranks, G, mirrored=True), _kernels.LinkMinors(ranks, G)
    for minors in (told, untold):
        for i in range(0, len(F), 4):
            minors.add(F[i:i + 4], seam[i:i + 4])
    row = F[0, ..., :ranks[-1]].nbytes
    assert told.last.nbytes == row
    assert kept_bytes(told) - told.last.nbytes < row
    assert kept_bytes(untold) - kept_bytes(told) == row + seam[0].nbytes
    assert told.flux_sums() == untold.flux_sums() == _kernels.plaquette_flux_sum(F, ranks, seam, G)


def test_a_mirrored_kernel_refuses_a_full_grid():
    # it kept no row 0 to close one with; at G1 = 2 the mirror is the whole grid
    F = random_frames(6, 5, 3, 3, seed=20)
    minors = _kernels.LinkMinors([1], 6, mirrored=True)
    minors.add(F)
    with pytest.raises(ValueError, match="6 frame rows do not fit the k1 mirror of a 6-row grid"):
        minors.flux_sums()
    minors = _kernels.LinkMinors([1], 2, mirrored=True)
    minors.add(F[:2])
    assert minors.flux_sums() == _kernels.plaquette_flux_sum(F[:2], [1])


def naive_flux(F, R, seam=None):
    """(math.fsum of the plaquette angles, smallest |link|, largest |angle|) of rank R.

    Plaquette by plaquette.

    The seam closes the k2-links into column G2 only: the k1-links there
    are those of column 0, as in the kernel's twisted field.
    """
    G1, G2 = F.shape[:2]

    def frame(i, j, k2_link):
        if j == G2 and k2_link and seam is not None:
            return seam[i % G1] @ F[i % G1, 0, :, :R]
        return F[i % G1, j % G2, :, :R]

    def link(a, b):
        k2_link = a[0] == b[0]
        return np.linalg.det(frame(*a, k2_link).conj().T @ frame(*b, k2_link))

    angles, links = [], []
    for i in range(G1):
        for j in range(G2):
            corners = [(i, j), (i, j + 1), (i + 1, j + 1), (i + 1, j), (i, j)]
            loop = [link(a, b) for a, b in zip(corners, corners[1:])]
            angles.append(np.angle(np.prod(loop)))
            links += loop[:1] + loop[-1:]      # Ly(i, j) and conj Lx(i, j)
    return math.fsum(angles), min(abs(u) for u in links), max(abs(a) for a in angles)


@pytest.mark.parametrize("with_seam", [False, True])
def test_flux_sum_matches_a_plaquette_loop(with_seam):
    # an oracle that shares nothing with the kernel: LAPACK determinants of
    # each plaquette's four links, summed exactly by math.fsum
    F = random_frames(7, 6, 4, 4, seed=16)
    seam = random_frames(7, 4, 4, seed=17) if with_seam else None
    ranks = [0, 1, 2, 3, 4]
    for R, (total, min_abs, max_angle) in zip(ranks, _kernels.plaquette_flux_sum(F, ranks, seam)):
        naive_total, naive_min, naive_max = naive_flux(F, R, seam)
        assert total == pytest.approx(naive_total, abs=1e-12), R
        assert min_abs == pytest.approx(naive_min, abs=1e-12), R
        assert max_angle == pytest.approx(naive_max, abs=1e-12), R
