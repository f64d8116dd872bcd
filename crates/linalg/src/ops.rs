//! [`dot`], and the one O(n²) operation of query-time inference,
//! `‖L⁻¹k̄‖²` of Eq. (11) with `L` the packed Cholesky factor of `Σₙ`: a
//! blocked forward substitution over tiles of right-hand sides
//! ([`forward_sq_norms`]), of which the factor's own solves are the
//! one-column case. Every element of `y = L⁻¹b` is
//! [`crate::solve_lower`]'s chain — `s = b[i]`, `s -= L[i][k]·y[k]` in
//! ascending `k`, `y[i] = s / L[i][i]` — and `‖y‖²` is summed in
//! ascending `i`, so results are the serial loops' bits whatever the tile
//! and however many threads run it (modulo NaN payload: which NaN an
//! operation on two NaNs returns is not pinned down). What the tiles buy
//! is independent chains and one pass over the factor per tile instead of
//! per vector.
//!
//! ## The wavefront
//!
//! One pass is a wavefront over blocks of `BLOCK_ROWS` (4) factor rows. The
//! calling thread and `workers − 1` scoped helpers claim blocks in
//! ascending order from one atomic cursor, as the scan's morsel scheduler
//! claims morsels. A claimed block runs its row chains over whatever
//! prefix of `y` the `solved` counter (an Acquire load) shows published,
//! waits for more, runs on, and once it has passed every earlier row
//! finishes its own triangle (`finish_block`) and publishes its rows
//! (`y` travels as `AtomicU64` bits, then a Release update of `solved`).
//! A chain split into segments at block boundaries is the same chain:
//! each worker copies the published rows it needs into its own copy of
//! `y` and subtracts them in ascending `k`. Rows past the last whole block
//! run on the caller once every block is in. A helper claims its first
//! block only once it runs, so the caller, which starts on the blocks
//! right after spawning, never waits for a helper to start. One worker is
//! the same loop with no helper and nothing published — the factor's own
//! solves run it that way.
//!
//! A waiting worker spins a bounded number of times (`SPINS`); if the
//! block it waits for is still not published, it solves that block
//! itself and publishes it again with the same bits. So a helper the OS
//! has descheduled on a busy host (or one that panicked: the scope
//! re-raises its panic) delays the pass by one block, not by its absence.
//!
//! Two tile shapes run: a lone column, and [`TILE_COLS`] columns (a
//! narrower tile pads unused lanes with zeros). On a host with AVX2
//! (`is_x86_feature_detected!`, no option selects it) a block's chains run
//! in `crate::avx2`: the lone column transposes four rows' entries so the
//! four row chains share one ymm, the wide tile holds each row's 8 lanes
//! in two. Each lane multiplies, then subtracts, in the scalar loop's
//! order — no fused multiply-add — so the kernel keeps the bits. The
//! scalar chains here (a lone column's four rows together, the wide
//! tile's two at a time) are the fallback elsewhere and the oracle the
//! kernel is tested against.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::thread;

use crate::Cholesky;

/// Right-hand sides one pass over the factor serves (the widest tile).
pub const TILE_COLS: usize = 8;

/// Factor rows a worker claims at a time: one per ymm lane of the lone
/// column's kernel.
pub(crate) const BLOCK_ROWS: usize = 4;

/// Polls of the `solved` counter a waiting worker makes before it solves
/// the block it waits for itself. A poll (an Acquire load and a spin hint)
/// measured ≈ 20 ns on a 2-vCPU Xeon host, so this is ≈ 20 µs: at `n` =
/// 1,500 a block takes ≈ 1.3 µs (one column) to 2.7 µs (a full tile), so
/// a worker that has not published for that long is stalled, not slow.
const SPINS: u32 = 1 << 10;

/// Dot product of two equal-length slices, accumulated in index order.
///
/// Panics if the lengths differ.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Largest `|x|` of `values`, folded in order; 0 for none.
pub fn max_abs(values: &[f64]) -> f64 {
    values.iter().fold(0.0_f64, |acc, &x| acc.max(x.abs()))
}

/// `‖L⁻¹ b_c‖²` of every column `b_c`, reading the factor once per tile of
/// 8 columns, each pass a wavefront over `workers` threads (the caller's
/// included; 0 counts as 1). Each result equals [`crate::solve_lower`] of
/// the column followed by a sum of squares in ascending order, bit for bit
/// (modulo NaN payload), at any worker count.
///
/// Panics when a column's length is not the factor's dimension.
pub fn forward_sq_norms(l: &Cholesky, columns: &[&[f64]], workers: usize) -> Vec<f64> {
    assert!(
        columns.iter().all(|col| col.len() == l.dim()),
        "forward_sq_norms: column length != factor dimension"
    );
    let mut out = Vec::with_capacity(columns.len());
    for tile in columns.chunks(TILE_COLS) {
        match tile.len() {
            1 => out.extend(tile_sq_norms::<1>(l, tile, workers)),
            w => out.extend_from_slice(&tile_sq_norms::<TILE_COLS>(l, tile, workers)[..w]),
        }
    }
    out
}

/// One tile: the columns interleaved `[i][W]` (unused lanes zero), solved
/// in place, then summed.
fn tile_sq_norms<const W: usize>(l: &Cholesky, tile: &[&[f64]], workers: usize) -> [f64; W] {
    let mut x = vec![[0.0; W]; l.dim()];
    for (c, col) in tile.iter().enumerate() {
        for (lanes, &v) in x.iter_mut().zip(col.iter()) {
            lanes[c] = v;
        }
    }
    forward_tile(l, &mut x, workers);
    let mut acc = [0.0; W];
    for y in &x {
        for (acc, v) in acc.iter_mut().zip(y) {
            *acc += v * v;
        }
    }
    acc
}

/// `L y = x` in place for `W` right-hand sides interleaved `[i][W]`, `W`
/// being 1 or [`TILE_COLS`], on `workers` threads: the AVX2 chains when
/// the host has them, the scalar chains otherwise.
pub(crate) fn forward_tile<const W: usize>(l: &Cholesky, x: &mut [[f64; W]], workers: usize) {
    wavefront(l, x, workers, Chains::detect());
}

/// The scalar forward substitution on one thread: the fallback's bits,
/// which the AVX2 chains and every worker count are tested against.
#[cfg(test)]
pub(crate) fn scalar_forward_tile<const W: usize>(l: &Cholesky, x: &mut [[f64; W]]) {
    wavefront(l, x, 1, Chains::Scalar);
}

/// Which code runs a block's chains over a segment of `y`.
#[derive(Clone, Copy)]
pub(crate) enum Chains {
    /// The scalar loops: a lone column's four row chains together, a wide
    /// tile's two rows at a time (the shapes that were measured).
    Scalar,
    /// The kernels in `crate::avx2`.
    #[cfg(target_arch = "x86_64")]
    Avx2(crate::avx2::Avx2),
}

impl Chains {
    /// AVX2 when the host has it.
    fn detect() -> Chains {
        #[cfg(target_arch = "x86_64")]
        if let Some(avx2) = crate::avx2::Avx2::detect() {
            return Chains::Avx2(avx2);
        }
        Chains::Scalar
    }

    /// `s[r] -= heads[r][k]·y[k]` lane by lane for every `k` of the
    /// segment in ascending order (`heads[r]` and `y` cover the same rows,
    /// a whole number of blocks).
    #[inline]
    fn run<const W: usize>(
        self,
        heads: [&[f64]; BLOCK_ROWS],
        y: &[[f64; W]],
        s: &mut [[f64; W]; BLOCK_ROWS],
    ) {
        match self {
            #[cfg(target_arch = "x86_64")]
            Chains::Avx2(avx2) => avx2.chains(heads, y, s),
            Chains::Scalar if W == 1 => scalar_chains(&heads, y, s),
            Chains::Scalar => {
                let [h0, h1, h2, h3] = heads;
                let (pairs, _) = s.as_chunks_mut::<2>();
                for (pair, heads) in pairs.iter_mut().zip([[h0, h1], [h2, h3]]) {
                    scalar_chains(&heads, y, pair);
                }
            }
        }
    }
}

/// The scalar chains of `R` rows over a segment of `y`.
#[inline(always)]
fn scalar_chains<const W: usize, const R: usize>(
    heads: &[&[f64]; R],
    y: &[[f64; W]],
    s: &mut [[f64; W]; R],
) {
    // One visible length for every slice: no bounds check per element.
    let heads = heads.map(|head| &head[..y.len()]);
    for (k, yk) in y.iter().enumerate() {
        for (sr, head) in s.iter_mut().zip(&heads) {
            let lik = head[k];
            for (v, y) in sr.iter_mut().zip(yk) {
                *v -= lik * y;
            }
        }
    }
}

/// One pass: the caller and `workers − 1` scoped helpers run
/// [`Front::work`] until the whole blocks are claimed, then the caller
/// gathers every published row and solves the ragged tail rows itself.
pub(crate) fn wavefront<const W: usize>(
    l: &Cholesky,
    x: &mut [[f64; W]],
    workers: usize,
    chains: Chains,
) {
    debug_assert_eq!(x.len(), l.dim());
    let whole = x.len() / BLOCK_ROWS * BLOCK_ROWS;
    // No helper has a block to take when there is at most one.
    let helpers = workers.clamp(1, (whole / BLOCK_ROWS).max(1)) - 1;
    let shared_rows = if helpers > 0 { whole } else { 0 };
    let front = Front {
        l,
        chains,
        cursor: AtomicUsize::new(0),
        solved: AtomicUsize::new(0),
        published: (0..shared_rows)
            .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
            .collect(),
    };
    if helpers == 0 {
        front.work(x);
    } else {
        let b = x.to_vec();
        thread::scope(|scope| {
            for _ in 0..helpers {
                scope.spawn(|| front.work(&mut b.clone()));
            }
            let have = front.work(x);
            front.collect(x, have);
        });
    }
    for i in whole..x.len() {
        forward_row(l, x, i);
    }
}

/// What the workers of one pass share.
struct Front<'a, const W: usize> {
    l: &'a Cholesky,
    chains: Chains,
    /// The next block to claim.
    cursor: AtomicUsize,
    /// Rows of `y` published: a whole number of blocks, each block's rows
    /// written before the Release update that covers them.
    solved: AtomicUsize,
    /// The published rows' bits (empty when one worker runs alone: it
    /// reads its own rows).
    published: Vec<[AtomicU64; W]>,
}

impl<const W: usize> Front<'_, W> {
    /// Claims and solves blocks until none is left, `x` being this
    /// worker's copy of the right-hand sides: every row it solves or
    /// gathers is overwritten with `y`. Returns how many leading rows of
    /// `x` hold `y`.
    fn work(&self, x: &mut [[f64; W]]) -> usize {
        let mut have = 0;
        loop {
            let i0 = self.cursor.fetch_add(1, Ordering::Relaxed) * BLOCK_ROWS;
            if i0 + BLOCK_ROWS > x.len() {
                return have;
            }
            have = self.solve(x, have, i0);
        }
    }

    /// Solves the block at `i0` into `x` — `x[..have]` holding `y`,
    /// `have <= i0` — running its chains over each published stretch of
    /// rows as it appears, and publishes it. Returns how many leading rows
    /// of `x` hold `y` now: `i0` + [`BLOCK_ROWS`].
    fn solve(&self, x: &mut [[f64; W]], mut have: usize, i0: usize) -> usize {
        let rows: [&[f64]; BLOCK_ROWS] = std::array::from_fn(|r| self.l.row(i0 + r));
        let mut s: [[f64; W]; BLOCK_ROWS] = std::array::from_fn(|r| x[i0 + r]);
        let mut done = 0;
        while done < i0 {
            let upto = self.await_past(x, &mut have, done).min(i0);
            if upto > have {
                self.gather(x, have, upto);
                have = upto;
            }
            self.chains
                .run(rows.map(|row| &row[done..upto]), &x[done..upto], &mut s);
            done = upto;
        }
        let block = &mut x[i0..i0 + BLOCK_ROWS];
        finish_block(&rows, i0, block, s);
        self.publish(i0, block);
        i0 + BLOCK_ROWS
    }

    /// Waits until more than `past` rows are published; returns how many
    /// are. After [`SPINS`] polls the first unpublished block is late —
    /// its worker descheduled, or gone — and this worker solves it itself
    /// into `x` (`x[..*have]` holding `y`): the same bits, published
    /// again, so no worker's progress rests on another's.
    fn await_past(&self, x: &mut [[f64; W]], have: &mut usize, past: usize) -> usize {
        let mut polls = 0;
        loop {
            let solved = self.solved.load(Ordering::Acquire);
            if solved > past {
                return solved;
            }
            if polls < SPINS {
                polls += 1;
                std::hint::spin_loop();
                continue;
            }
            self.gather(x, *have, solved);
            *have = self.solve(x, solved, solved);
            polls = 0;
        }
    }

    /// Waits for every whole block (solving late ones itself, as
    /// [`Front::await_past`] does) and copies into `x` the rows past
    /// `x[..have]`.
    fn collect(&self, x: &mut [[f64; W]], mut have: usize) {
        let whole = self.published.len();
        if have < whole {
            self.await_past(x, &mut have, whole - 1);
            self.gather(x, have, whole);
        }
    }

    /// Copies published rows `from..upto` into `x`. Only rows an Acquire
    /// load of `solved` covered may be read.
    fn gather(&self, x: &mut [[f64; W]], from: usize, upto: usize) {
        for (lanes, bits) in x.iter_mut().zip(&self.published).take(upto).skip(from) {
            *lanes = bits
                .each_ref()
                .map(|b| f64::from_bits(b.load(Ordering::Relaxed)));
        }
    }

    /// Publishes the solved block at `i0`. Its rows are the next ones:
    /// the block waited for every earlier row, and no later block can
    /// finish before it. A block solved twice (once by a waiter that took
    /// it over) is written twice with the same bits; `solved` only grows.
    fn publish(&self, i0: usize, block: &[[f64; W]]) {
        if let Some(slots) = self.published.get(i0..i0 + BLOCK_ROWS) {
            for (slot, lanes) in slots.iter().zip(block) {
                for (b, v) in slot.iter().zip(lanes) {
                    b.store(v.to_bits(), Ordering::Relaxed);
                }
            }
        }
        self.solved.fetch_max(i0 + BLOCK_ROWS, Ordering::Release);
    }
}

/// Row `i` alone, every earlier row solved: its chains over `y[..i]`,
/// then the division.
fn forward_row<const W: usize>(l: &Cholesky, x: &mut [[f64; W]], i: usize) {
    let (solved, row) = x.split_at_mut(i);
    let head = [l.row(i)];
    let mut s = [row[0]];
    scalar_chains(&head, solved, &mut s);
    finish_block(&head, i, row, s);
}

/// The block's own triangle, a row at a time: chain `s[r]` (already run
/// over `y[..i0]`) subtracts the terms of the rows solved above it in
/// the block, then divides by the diagonal into `block[r]`.
#[inline(always)]
fn finish_block<const W: usize, const R: usize>(
    rows: &[&[f64]; R],
    i0: usize,
    block: &mut [[f64; W]],
    mut s: [[f64; W]; R],
) {
    for (r, (sr, row)) in s.iter_mut().zip(rows).enumerate() {
        for (k, yk) in block[..r].iter().enumerate() {
            let lik = row[i0 + k];
            for (v, y) in sr.iter_mut().zip(yk) {
                *v -= lik * y;
            }
        }
        block[r] = sr.map(|v| v / row[i0 + r]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::support::TestOps;
    use crate::Matrix;

    fn factor(n: usize, entries: Vec<f64>) -> Cholesky {
        Cholesky::new(&Matrix::from_vec(n, n, entries).unwrap()).unwrap()
    }

    #[test]
    fn dot_known_value() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn quadratic_form_identity_is_norm_squared() {
        let l = Cholesky::new(&Matrix::identity(3)).unwrap();
        assert_eq!(forward_sq_norms(&l, &[&[1.0, 2.0, 3.0]], 1), vec![14.0]);
    }

    #[test]
    fn quadratic_form_matches_explicit_product() {
        // vᵀ Σ⁻¹ v with Σ = [[2,1],[1,3]], Σ⁻¹ = [[3,-1],[-1,2]] / 5 and
        // v = [1,-1]: (3 + 1 + 1 + 2) / 5.
        let l = factor(2, vec![2.0, 1.0, 1.0, 3.0]);
        assert!((forward_sq_norms(&l, &[&[1.0, -1.0]], 1)[0] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn bilinear_form_mixed_vectors() {
        // aᵀ Σ⁻¹ b = (L⁻¹a)·(L⁻¹b); Σ⁻¹ = diag(1, 2) here.
        let l = factor(2, vec![1.0, 0.0, 0.0, 0.5]);
        let (a, b) = (
            l.forward(&[1.0, 1.0]).unwrap(),
            l.forward(&[3.0, 4.0]).unwrap(),
        );
        assert!((dot(&a, &b) - (3.0 + 8.0)).abs() < 1e-12);
    }

    #[test]
    fn forms_fill_whole_tiles_and_a_ragged_one() {
        // 11 columns = one full tile + a 3-wide one; under the identity
        // factor each form is the plain dot product.
        let l = Cholesky::new(&Matrix::identity(5)).unwrap();
        let cols: Vec<Vec<f64>> = (0..11)
            .map(|c| (0..5).map(|i| (i + c) as f64).collect())
            .collect();
        let refs: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
        let want: Vec<f64> = cols.iter().map(|v| dot(v, v)).collect();
        assert_eq!(forward_sq_norms(&l, &refs, 2), want);
        assert!(forward_sq_norms(&l, &[], 2).is_empty());
    }

    /// A block whose worker never publishes it — descheduled, or gone —
    /// is taken over by the worker waiting on it, with the same bits. The
    /// blocks before it are published as a helper would have, the stalled
    /// block's claim is skipped, and one worker finishes the pass.
    #[test]
    fn a_stalled_block_is_taken_over_with_the_same_bits() {
        let n = 5 * BLOCK_ROWS + 3;
        let packed: Vec<f64> = (0..n)
            .flat_map(|i| (0..=i).map(move |j| if i == j { 2.0 + j as f64 } else { 0.25 }))
            .collect();
        let l = Cholesky::from_packed(packed).unwrap();
        let b: Vec<[f64; 1]> = (0..n).map(|i| [1.0 + i as f64 / 3.0]).collect();
        let mut want = b.clone();
        wavefront(&l, &mut want, 1, Chains::Scalar);
        for stalled in [0, 2, 4] {
            let front = Front {
                l: &l,
                chains: Chains::detect(),
                cursor: AtomicUsize::new(stalled + 1),
                solved: AtomicUsize::new(stalled * BLOCK_ROWS),
                published: (0..n / BLOCK_ROWS * BLOCK_ROWS)
                    .map(|i| {
                        [AtomicU64::new(
                            want.get(i).copied().unwrap_or([0.0])[0].to_bits(),
                        )]
                    })
                    .collect(),
            };
            let mut x = b.clone();
            let have = front.work(&mut x);
            front.collect(&mut x, have);
            for i in n / BLOCK_ROWS * BLOCK_ROWS..n {
                forward_row(&l, &mut x, i);
            }
            let bits = |v: &[[f64; 1]]| v.iter().map(|y| y[0].to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&x), bits(&want), "block {stalled} stalled");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_rejects_unequal_lengths() {
        dot(&[1.0, 2.0], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "column length")]
    fn forms_reject_a_short_vector() {
        // A short kernel vector must not yield a silently wrong γ².
        forward_sq_norms(&Cholesky::new(&Matrix::identity(2)).unwrap(), &[&[1.0]], 1);
    }
}
