//! Cache-blocked, multi-table M4RM Gauss–Jordan elimination.
//!
//! This is the dense GF(2) elimination kernel, in the style of the M4RI
//! library's `mzd_echelonize_m4ri`. The Method of the Four Russians clears
//! `k ≤ 8` pivot columns per pass over the trailing matrix with one
//! Gray-code table lookup per row; at tens of thousands of columns — the
//! linearised systems the paper's Table 2 instances produce — a single-table
//! kernel becomes memory-bound on re-reading the matrix. This kernel cuts
//! that traffic three ways:
//!
//! 1. **In-place arena elimination.** [`BitMatrix`] stores its rows in one
//!    contiguous `nrows × words_per_row` arena, so the kernel eliminates
//!    directly over it — no flatten on entry, no read-back on exit. The
//!    update pass streams one contiguous region the hardware prefetcher can
//!    follow.
//! 2. **Pivot blocks in triples.** Each sweep establishes up to `3k ≤ 24`
//!    pivots at once and splits them over *three* `2^k` Gray-code tables.
//!    Because [`BitMatrix::establish_block_pivots`] leaves the pivot rows
//!    identity on *all* the sweep's pivot columns, the three table indices
//!    of a row are independent: entries of one table have zeros at the other
//!    tables' pivot columns. All three indices come out of one windowed read
//!    of at most two row words (24 bits always fit), and each row is cleared
//!    with one fused `row ^= A[ia] ^ B[ib] ^ C[ic]` pass ([`xor3_words`]).
//!    The trailing matrix is read and written once per `3k` columns instead
//!    of once per `k`.
//! 3. **Column-tiled updates.** For very wide matrices the three tables
//!    (`3 · 2^k · stride · 8` bytes) fall out of L2 and every table lookup
//!    becomes a cache miss. Beyond [`blocked_tile_words`] words per row the
//!    update is applied tile by tile — the table indices are computed once
//!    (during the first tile, while the row's leading words are hot), then
//!    each subsequent tile streams the rows against an L2-resident slice of
//!    all three tables.
//!
//! Pivot establishment is **read-only window math**: a candidate row's
//! post-cleanup window is `window ^ ⊕ pivot windows of its dirty bits` (each
//! pivot row is identity on the pivot columns so far, so one windowed read
//! yields the exact dirty set). No row is written during the scan, and only
//! the row actually chosen as a pivot is cleaned — the rest are cleared
//! wholesale by the sweep's fused table XOR.
//!
//! The inner loops are the slice-trimmed word XORs of `vector.rs` — plain
//! `u64` code the compiler autovectorises, no architecture intrinsics, per
//! the offline-build constraint.
//!
//! The produced RREF is **bit-identical** to the schoolbook kernel
//! ([`BitMatrix::gauss_jordan_plain_with_stats`]): RREF is unique and both
//! kernels order rows canonically (pivot rows sorted by pivot column, zero
//! rows last). Property tests in `proptests.rs` assert this equivalence,
//! including at widths 2048, 4096 and non-powers-of-two.
//!
//! Kernel selection (which sizes run this kernel) lives in
//! [`select_kernel`](crate::select_kernel); the tuning knobs are documented
//! in `crates/bench/DESIGN.md`.

use std::ops::Range;

use bosphorus_interrupt::CancelToken;

use crate::vector::{xor2_words, xor3_words, xor_words};
use crate::{BitMatrix, GaussStats};

/// Conservative per-core L2 cache estimate, in bytes.
///
/// Used by [`blocked_tile_words`]: the column-tile width is chosen so a tile
/// of all three Gray-code tables stays resident. 1 MiB sits at the low end
/// of contemporary per-core L2 sizes: underestimating costs a little tiling
/// overhead, overestimating reintroduces the cache misses the tiling exists
/// to avoid.
pub const GF2_L2_CACHE_BYTES: usize = 1024 * 1024;

/// Maximum per-table M4RM block width: `2^8 = 256` Gray-code table entries.
///
/// Wider blocks would grow the tables exponentially while the per-row saving
/// only grows linearly; 8 is also the widest block the `u8`-indexed lookup
/// of the original M4RI implementation uses per table.
pub const M4RM_MAX_BLOCK: usize = 8;

/// Matrices whose smaller dimension is below this threshold take the
/// schoolbook kernel: the Gray-code table setup costs more than it saves
/// when there are only a handful of rows to clear per block.
pub(crate) const M4RM_MIN_DIM: usize = 16;

/// Picks the per-table M4RM block width `k` for an `nrows × ncols`
/// elimination.
///
/// Uses the classic `k ≈ ¾·log₂(n)` rule of the M4RI library (with `n` the
/// smaller dimension), clamped to `[1, 8]`: a Gray-code table costs
/// `2^k − 1` row XORs per sweep, which amortises only while `2^k` stays far
/// below the number of rows.
///
/// ```
/// use bosphorus_gf2::m4rm_block_size;
/// assert_eq!(m4rm_block_size(1024, 1024), 8);
/// assert!(m4rm_block_size(64, 64) < m4rm_block_size(4096, 4096));
/// assert_eq!(m4rm_block_size(2, 2), 1);
/// ```
pub fn m4rm_block_size(nrows: usize, ncols: usize) -> usize {
    let n = nrows.min(ncols).max(2);
    // floor(log2(n)) + 1, i.e. the bit length of n.
    let bit_length = (usize::BITS - n.leading_zeros()) as usize;
    (bit_length * 3 / 4).clamp(1, M4RM_MAX_BLOCK)
}

/// Column-tile width, in 64-bit words, of the blocked kernel's row updates
/// for per-table block width `k`.
///
/// Chosen so one tile of *all three* `2^k`-entry Gray-code tables fits in
/// [`GF2_L2_CACHE_BYTES`] (the rows only stream through the cache, so the
/// tables get the whole budget), with a floor of 16 words so the inner loops
/// keep enough straight-line work to amortise the per-row-per-tile
/// bookkeeping.
///
/// ```
/// use bosphorus_gf2::blocked_tile_words;
/// // k = 8: 3 tables x 256 entries x 170 words x 8 bytes <= 1 MiB resident.
/// assert_eq!(blocked_tile_words(8), 170);
/// // Smaller tables allow wider tiles.
/// assert!(blocked_tile_words(4) > blocked_tile_words(8));
/// ```
pub fn blocked_tile_words(k: usize) -> usize {
    let budget = GF2_L2_CACHE_BYTES;
    let table_entries = 3 * (1usize << k.clamp(1, M4RM_MAX_BLOCK));
    (budget / (table_entries * 8)).max(16)
}

impl BitMatrix {
    /// Cache-blocked three-table M4RM Gauss–Jordan elimination, in place
    /// over the matrix arena, with per-table block width `block` (clamped to
    /// `[1, 8]`), reporting operation counts.
    ///
    /// Each sweep establishes up to `3 · block` pivots, builds three
    /// Gray-code tables, and clears every other row with one fused
    /// three-table XOR pass (column-tiled once rows outgrow the L2
    /// estimate). The result is identical to
    /// [`BitMatrix::gauss_jordan_plain_with_stats`]; only the operation
    /// schedule differs. This is the kernel
    /// [`BitMatrix::gauss_jordan_with_stats`] dispatches to for all but tiny
    /// matrices — see [`select_kernel`](crate::select_kernel).
    ///
    /// ```
    /// use bosphorus_gf2::BitMatrix;
    /// let mut a = BitMatrix::identity(20);
    /// a.set(0, 19, true);
    /// let stats = a.gauss_jordan_blocked_m4rm_with_stats(8);
    /// assert_eq!(stats.rank, 20);
    /// assert_eq!(a, BitMatrix::identity(20));
    /// ```
    pub fn gauss_jordan_blocked_m4rm_with_stats(&mut self, block: usize) -> GaussStats {
        self.gauss_jordan_blocked_m4rm_cancellable(block, &CancelToken::never())
    }

    /// Like [`BitMatrix::gauss_jordan_blocked_m4rm_with_stats`], polling
    /// `token` once per elimination sweep, before the sweep starts: a
    /// sweep's row updates are the unit of committed work, so no row is
    /// ever left half-updated.
    ///
    /// On cancellation the elimination stops before the next sweep and
    /// returns with [`GaussStats::interrupted`](crate::GaussStats) set and
    /// the pivots established so far as the rank; the matrix is then only
    /// partially reduced and must be treated as scratch.
    pub fn gauss_jordan_blocked_m4rm_cancellable(
        &mut self,
        block: usize,
        token: &CancelToken,
    ) -> GaussStats {
        let k = block.clamp(1, M4RM_MAX_BLOCK);
        let mut stats = GaussStats::default();
        let nrows = self.nrows();
        let ncols = self.ncols();
        if nrows == 0 || ncols == 0 {
            return stats;
        }
        let words = self.words_per_row();
        let tile = blocked_tile_words(k);
        let mut tables = Tables::new(k, words);
        let mut pivot_row = 0usize;
        let mut col_start = 0usize;
        while pivot_row < nrows && col_start < ncols {
            if token.is_cancelled() {
                stats.interrupted = true;
                break;
            }
            let Some(next_col) = self.leading_column(pivot_row, col_start) else {
                break;
            };
            col_start = next_col;
            let col_end = (col_start + 3 * k).min(ncols);
            let block_start = pivot_row;
            let pivot_cols =
                self.establish_block_pivots(block_start, col_start, col_end, &mut stats);
            let p = pivot_cols.len();
            let block_end = block_start + p;
            if p > 0 {
                // Split the sweep's pivots over the three tables. The pivot
                // rows are identity on all p pivot columns, so each table's
                // entries are zero at the other tables' columns: the three
                // indices of a row are independent of each other and stable
                // under any table's XOR.
                let pa = p.min(k);
                let pb = (p - pa).min(k);
                let pc = p - pa - pb;
                let w0 = col_start / 64;
                let b0 = block_start;
                self.build_gray_table(&mut tables.a, b0, pa, w0, &mut stats);
                self.build_gray_table(&mut tables.b, b0 + pa, pb, w0, &mut stats);
                self.build_gray_table(&mut tables.c, b0 + pa + pb, pc, w0, &mut stats);
                // On dense systems the sweep's pivot columns are almost always
                // the contiguous range starting at col_start; all three table
                // indices then come out of a single window read of at most two
                // row words (3k <= 24 bits) instead of one scattered bit probe
                // per pivot column.
                let contiguous = pivot_cols
                    .iter()
                    .enumerate()
                    .all(|(j, &c)| c == col_start + j);
                let sweep = Sweep {
                    words,
                    w0,
                    shift: col_start % 64,
                    tile,
                    pa,
                    pb,
                    pc,
                    contiguous,
                    cols: pivot_cols,
                    pivot_rows: block_start..block_end,
                };
                stats.row_xors += update_rows(self.words_raw_mut(), &tables, &sweep);
            }
            pivot_row = block_end;
            col_start = col_end;
        }
        stats.rank = pivot_row;
        stats
    }

    /// The leftmost column `>= col_floor` in which any row at or below
    /// `row_start` has a one, found with word-skipping row scans that stop
    /// at the word of the best column seen so far.
    fn leading_column(&self, row_start: usize, col_floor: usize) -> Option<usize> {
        let first_word = col_floor / 64;
        let floor_mask = !0u64 << (col_floor % 64);
        let mut best: Option<usize> = None;
        for r in row_start..self.nrows() {
            let row = self.row_words(r);
            let limit_word = best.map_or(row.len() - 1, |b| b / 64);
            for (wi, &raw) in row.iter().enumerate().take(limit_word + 1).skip(first_word) {
                let w = if wi == first_word {
                    raw & floor_mask
                } else {
                    raw
                };
                if w != 0 {
                    let c = wi * 64 + w.trailing_zeros() as usize;
                    if c == col_floor {
                        return Some(c);
                    }
                    if best.map_or(true, |b| c < b) {
                        best = Some(c);
                    }
                    break;
                }
            }
        }
        best.filter(|&c| c < self.ncols())
    }

    /// Establishes pivots for the sweep columns `col_start..col_end`, moving
    /// pivot rows to positions `block_start..`, reducing them to identity on
    /// the sweep's pivot columns, and returning the pivot columns found.
    ///
    /// The candidate scan is read-only window math (see [`post_window`]): no
    /// row is written while searching, and only the chosen pivot row is
    /// physically cleaned on the earlier pivot columns. Every *other* row
    /// keeps its pivot-column bits until the sweep's fused table XOR clears
    /// them wholesale — the Gray-code entry indexed by those bits is exactly
    /// the pivot-row combination a per-row cleanup would apply.
    fn establish_block_pivots(
        &mut self,
        block_start: usize,
        col_start: usize,
        col_end: usize,
        stats: &mut GaussStats,
    ) -> Vec<usize> {
        let nrows = self.nrows();
        let w0 = col_start / 64;
        let shift = col_start % 64;
        let mut pivot_cols: Vec<usize> = Vec::with_capacity(col_end - col_start);
        // Offsets (relative to col_start) of the pivot columns found so far,
        // as a bit mask over the sweep window, and the current pivot-row
        // windows. The window spans `col_end - col_start <= 3k <= 24` bits,
        // so one read of at most two row words yields every pivot-column bit
        // of a row at once.
        let mut pivot_mask: usize = 0;
        let mut pivot_windows: Vec<usize> = Vec::with_capacity(col_end - col_start);
        for c in col_start..col_end {
            let dest = block_start + pivot_cols.len();
            if dest >= nrows {
                break;
            }
            let c_off = c - col_start;
            let Some(found) = (dest..nrows).find(|&r| {
                let post = post_window(self.row_words(r), w0, shift, pivot_mask, &pivot_windows);
                (post >> c_off) & 1 == 1
            }) else {
                continue;
            };
            // Physically clean the chosen row on the earlier pivot columns
            // (the scan left it untouched).
            let mut dirty = window_read(self.row_words(found), w0, shift) & pivot_mask;
            while dirty != 0 {
                let j = pivot_index(pivot_mask, dirty.trailing_zeros() as usize);
                self.xor_row_tail_into(block_start + j, found, w0);
                stats.row_xors += 1;
                dirty &= dirty - 1;
            }
            debug_assert!(self.get(found, c), "scan math matches the cleanup");
            if found != dest {
                self.swap_rows(found, dest);
                stats.row_swaps += 1;
            }
            // Back-eliminate column c from the earlier pivot rows of this
            // sweep, keeping the pivot rows identity on the pivot columns
            // (the property the independent Gray-code indices rely on).
            for j in 0..pivot_cols.len() {
                if self.get(block_start + j, c) {
                    self.xor_row_tail_into(dest, block_start + j, w0);
                    stats.row_xors += 1;
                }
            }
            pivot_cols.push(c);
            pivot_mask |= 1usize << c_off;
            // Refresh the cached pivot windows: back-elimination rewrote the
            // earlier pivot rows' non-pivot window bits and a new pivot row
            // joined the block.
            pivot_windows.clear();
            for j in 0..pivot_cols.len() {
                pivot_windows.push(window_read(self.row_words(block_start + j), w0, shift));
            }
        }
        pivot_cols
    }

    /// XORs row `src` into row `dst` from word `w0` on. Both rows are at or
    /// below the current pivot row, so their words left of `w0` are zero by
    /// the elimination invariant.
    fn xor_row_tail_into(&mut self, src: usize, dst: usize, w0: usize) {
        let (s, d) = self.row_pair_mut(src, dst);
        xor_words(&mut d[w0..], &s[w0..]);
    }

    /// Builds the `2^p` Gray-code lookup table over rows
    /// `first_pivot_row..first_pivot_row + p`, each entry covering the row
    /// words from `w0` on. Each entry is derived from its predecessor with a
    /// single word-parallel XOR, so the whole table costs `2^p − 1` row
    /// XORs. With `p == 0` the table is untouched (all lookups hit the
    /// never-written zero entry 0).
    fn build_gray_table(
        &self,
        table: &mut [u64],
        first_pivot_row: usize,
        p: usize,
        w0: usize,
        stats: &mut GaussStats,
    ) {
        let stride = self.words_per_row() - w0;
        let mut prev = 0usize;
        for i in 1..(1usize << p) {
            let gray = i ^ (i >> 1);
            let bit = i.trailing_zeros() as usize;
            table.copy_within(prev * stride..(prev + 1) * stride, gray * stride);
            let pivot_words = &self.row_words(first_pivot_row + bit)[w0..];
            xor_words(&mut table[gray * stride..(gray + 1) * stride], pivot_words);
            stats.row_xors += 1;
            prev = gray;
        }
    }
}

/// The three Gray-code tables of a sweep. Entry 0 of each is the zero row
/// and is never written; entries `1..2^p` are rebuilt per sweep, so one set
/// of buffers serves the whole elimination.
struct Tables {
    a: Vec<u64>,
    b: Vec<u64>,
    c: Vec<u64>,
}

impl Tables {
    fn new(k: usize, words: usize) -> Self {
        let size = (1usize << k) * words;
        Tables {
            a: vec![0u64; size],
            b: vec![0u64; size],
            c: vec![0u64; size],
        }
    }
}

/// The geometry of one sweep's row-update pass.
struct Sweep {
    words: usize,
    w0: usize,
    shift: usize,
    tile: usize,
    pa: usize,
    pb: usize,
    pc: usize,
    contiguous: bool,
    /// The sweep's pivot columns (`pa + pb + pc` of them), for the
    /// scattered-column fallback index read.
    cols: Vec<usize>,
    /// The sweep's pivot rows; they are already identity on the pivot
    /// columns and must not be updated.
    pivot_rows: Range<usize>,
}

/// Runs one sweep's row updates over the whole arena: per row, read the
/// three table indices, then apply the fused table XOR, column tile by
/// column tile. Returns the row-XOR count.
fn update_rows(arena: &mut [u64], tables: &Tables, sweep: &Sweep) -> usize {
    let words = sweep.words;
    let stride = words - sweep.w0;
    let first_tile = stride.min(sweep.tile);
    let mask_a = (1usize << sweep.pa) - 1;
    let mask_b = (1usize << sweep.pb) - 1;
    let mask_c = (1usize << sweep.pc) - 1;
    let (cols_a, rest) = sweep.cols.split_at(sweep.pa);
    let (cols_b, cols_c) = rest.split_at(sweep.pb);
    let tiled = stride > first_tile;
    let mut indices: Vec<(u8, u8, u8)> = if tiled {
        vec![(0, 0, 0); arena.len() / words]
    } else {
        Vec::new()
    };
    let mut xors = 0usize;
    // First (or only) column tile: compute all three table indices while
    // the row's leading words are hot, buffer them if more tiles follow,
    // and apply the fused three-table XOR.
    for (r, row) in arena.chunks_exact_mut(words).enumerate() {
        if sweep.pivot_rows.contains(&r) {
            continue;
        }
        let (ia, ib, ic) = if sweep.contiguous {
            let window = window_read(row, sweep.w0, sweep.shift);
            (
                window & mask_a,
                (window >> sweep.pa) & mask_b,
                (window >> (sweep.pa + sweep.pb)) & mask_c,
            )
        } else {
            (
                block_index(row, cols_a),
                block_index(row, cols_b),
                block_index(row, cols_c),
            )
        };
        if tiled {
            indices[r] = (ia as u8, ib as u8, ic as u8);
        }
        if ia == 0 && ib == 0 && ic == 0 {
            continue;
        }
        xors += usize::from(ia != 0) + usize::from(ib != 0) + usize::from(ic != 0);
        apply_entries(
            &mut row[sweep.w0..sweep.w0 + first_tile],
            &tables.a[ia * stride..ia * stride + first_tile],
            &tables.b[ib * stride..ib * stride + first_tile],
            &tables.c[ic * stride..ic * stride + first_tile],
            ia,
            ib,
            ic,
        );
    }
    // Remaining tiles (wide matrices only): stream the rows against an
    // L2-resident slice of all three tables.
    let mut tw = first_tile;
    while tw < stride {
        let tw_end = (tw + sweep.tile).min(stride);
        for (r, row) in arena.chunks_exact_mut(words).enumerate() {
            let (ia, ib, ic) = indices[r];
            let (ia, ib, ic) = (ia as usize, ib as usize, ic as usize);
            if ia == 0 && ib == 0 && ic == 0 {
                continue;
            }
            apply_entries(
                &mut row[sweep.w0 + tw..sweep.w0 + tw_end],
                &tables.a[ia * stride + tw..ia * stride + tw_end],
                &tables.b[ib * stride + tw..ib * stride + tw_end],
                &tables.c[ic * stride + tw..ic * stride + tw_end],
                ia,
                ib,
                ic,
            );
        }
        tw = tw_end;
    }
    xors
}

/// Applies the table entries with non-zero indices to `dst`, fusing the
/// XORs into a single pass over `dst` when more than one fires.
#[inline]
fn apply_entries(
    dst: &mut [u64],
    a: &[u64],
    b: &[u64],
    c: &[u64],
    ia: usize,
    ib: usize,
    ic: usize,
) {
    match (ia != 0, ib != 0, ic != 0) {
        (true, true, true) => xor3_words(dst, a, b, c),
        (true, true, false) => xor2_words(dst, a, b),
        (true, false, true) => xor2_words(dst, a, c),
        (false, true, true) => xor2_words(dst, b, c),
        (true, false, false) => xor_words(dst, a),
        (false, true, false) => xor_words(dst, b),
        (false, false, true) => xor_words(dst, c),
        (false, false, false) => {}
    }
}

/// Reads a row's sweep window (the up-to-24 bits starting at the sweep's
/// first column) out of at most two row words.
#[inline]
fn window_read(row: &[u64], w0: usize, shift: usize) -> usize {
    let lo = row[w0] >> shift;
    if shift == 0 || w0 + 1 >= row.len() {
        lo as usize
    } else {
        (lo | (row[w0 + 1] << (64 - shift))) as usize
    }
}

/// Position, in pivot order, of the sweep pivot at window offset `off`.
#[inline]
fn pivot_index(pivot_mask: usize, off: usize) -> usize {
    (pivot_mask & ((1usize << off) - 1)).count_ones() as usize
}

/// A row's window *as if* it had been cleared on the pivot columns found so
/// far, computed without touching the row. Each pivot row is identity on all
/// pivot columns, so the dirty set read off one window is exact and XORing
/// in the corresponding pivot windows reproduces the cleanup's effect on the
/// window bits.
#[inline]
fn post_window(
    row: &[u64],
    w0: usize,
    shift: usize,
    pivot_mask: usize,
    pivot_windows: &[usize],
) -> usize {
    let window = window_read(row, w0, shift);
    let mut post = window;
    let mut dirty = window & pivot_mask;
    while dirty != 0 {
        post ^= pivot_windows[pivot_index(pivot_mask, dirty.trailing_zeros() as usize)];
        dirty &= dirty - 1;
    }
    post
}

/// Reads a row's bits at the sweep's pivot columns as a table index.
#[inline]
fn block_index(row: &[u64], pivot_cols: &[usize]) -> usize {
    let mut idx = 0usize;
    for (j, &c) in pivot_cols.iter().enumerate() {
        idx |= (((row[c / 64] >> (c % 64)) & 1) as usize) << j;
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::{m4rm_block_size, M4RM_MAX_BLOCK};
    use crate::testutil::splitmix_matrix;
    use crate::{BitMatrix, BitVec};

    fn assert_matches_plain(m: &BitMatrix, k: usize) {
        let mut reference = m.clone();
        let reference_stats = reference.gauss_jordan_plain_with_stats();
        let mut blocked = m.clone();
        let blocked_stats = blocked.gauss_jordan_blocked_m4rm_with_stats(k);
        assert_eq!(
            blocked_stats.rank,
            reference_stats.rank,
            "rank mismatch at {}x{}, k={k}",
            m.nrows(),
            m.ncols()
        );
        assert_eq!(
            blocked,
            reference,
            "RREF mismatch at {}x{}, k={k}",
            m.nrows(),
            m.ncols()
        );
    }

    // The `*_m4rm_*` agreement tests keep their names from when the
    // reference was the single-table M4RM kernel; the reference is now the
    // schoolbook kernel.

    #[test]
    fn matches_m4rm_across_word_boundary_widths() {
        for &cols in &[63usize, 64, 65, 127, 129] {
            for &rows in &[cols - 1, cols, cols + 3] {
                let m = splitmix_matrix(rows, cols, (rows * 2000 + cols) as u64);
                for k in [1usize, 3, 5, 8] {
                    assert_matches_plain(&m, k);
                }
            }
        }
    }

    #[test]
    fn matches_m4rm_at_paper_scale_widths() {
        // The acceptance widths: 2048, 4096, and a non-power-of-two. Row
        // counts stay modest so the comparison is fast in debug builds; the
        // widths exercise both the single-tile path (stride below the tile
        // width) and, together with the wide shapes below, the tiled one.
        for &cols in &[2048usize, 3000, 4096] {
            for &rows in &[33usize, 96] {
                let m = splitmix_matrix(rows, cols, (rows * 31 + cols) as u64);
                assert_matches_plain(&m, 8);
            }
        }
    }

    #[test]
    fn tiled_update_path_matches_m4rm() {
        // Wide enough that the stride (ncols/64 = 320 words) exceeds the
        // k=8 tile width, forcing the multi-tile update loop.
        use super::blocked_tile_words;
        let cols = 20_480;
        assert!(cols / 64 > blocked_tile_words(8));
        let m = splitmix_matrix(40, cols, 77);
        assert_matches_plain(&m, 8);
    }

    #[test]
    fn matches_m4rm_on_rank_deficient_and_wide_tall_shapes() {
        assert_matches_plain(&splitmix_matrix(300, 60, 11), 7);
        assert_matches_plain(&splitmix_matrix(60, 300, 12), 7);
        let mut deficient = splitmix_matrix(90, 120, 13);
        for r in 0..30 {
            let dup = deficient.row(r).to_bitvec();
            deficient.set_row(r + 30, &dup);
            deficient.set_row(r + 60, &BitVec::zero(120));
        }
        assert_matches_plain(&deficient, 8);
        assert!(
            deficient
                .clone()
                .gauss_jordan_blocked_m4rm_with_stats(8)
                .rank
                <= 30
        );
    }

    #[test]
    fn square_dense_matches_plain_kernel_exactly() {
        // Direct agreement on a square dense matrix large enough to run
        // several multi-sweep iterations.
        let m = splitmix_matrix(320, 320, 2019);
        let mut plain = m.clone();
        let plain_stats = plain.gauss_jordan_plain_with_stats();
        let mut blocked = m.clone();
        let blocked_stats = blocked.gauss_jordan_blocked_m4rm_with_stats(8);
        assert_eq!(blocked_stats.rank, plain_stats.rank);
        assert_eq!(blocked, plain);
    }

    #[test]
    fn block_size_heuristic_is_monotonic_and_clamped() {
        assert_eq!(m4rm_block_size(0, 0), 1);
        assert_eq!(m4rm_block_size(1, 1), 1);
        let mut last = 0usize;
        for exp in 1..16 {
            let k = m4rm_block_size(1 << exp, 1 << exp);
            assert!(k >= last, "block size must not shrink with matrix size");
            assert!((1..=M4RM_MAX_BLOCK).contains(&k));
            last = k;
        }
        assert_eq!(m4rm_block_size(1 << 20, 1 << 20), M4RM_MAX_BLOCK);
        // Rectangular: governed by the smaller dimension.
        assert_eq!(m4rm_block_size(1 << 20, 8), m4rm_block_size(8, 8));
    }

    #[test]
    fn handles_empty_and_degenerate_matrices() {
        let mut empty = BitMatrix::zero(0, 0);
        assert_eq!(empty.gauss_jordan_blocked_m4rm_with_stats(4).rank, 0);
        let mut no_cols = BitMatrix::zero(5, 0);
        assert_eq!(no_cols.gauss_jordan_blocked_m4rm_with_stats(4).rank, 0);
        let mut zero = BitMatrix::zero(9, 9);
        let stats = zero.gauss_jordan_blocked_m4rm_with_stats(4);
        assert_eq!(stats.rank, 0);
        assert_eq!(stats.row_xors, 0);
        let mut id = BitMatrix::identity(130);
        assert_eq!(id.gauss_jordan_blocked_m4rm_with_stats(8).rank, 130);
        assert_eq!(id, BitMatrix::identity(130));
    }

    #[test]
    fn sparse_distant_column_clusters_are_handled() {
        let mut m = BitMatrix::zero(40, 3000);
        for r in 0..20 {
            m.set(r, 5 + r, true);
            m.set(r, 2900 + (r % 25), true);
        }
        assert_matches_plain(&m, 8);
    }

    #[test]
    fn pre_cancelled_token_interrupts_before_any_sweep() {
        use bosphorus_interrupt::CancelToken;
        let token = CancelToken::new();
        token.cancel();
        let m = splitmix_matrix(96, 256, 9);
        let mut a = m.clone();
        let stats = a.gauss_jordan_blocked_m4rm_cancellable(8, &token);
        assert!(stats.interrupted);
        assert_eq!(stats.rank, 0, "no pivots established");
        assert_eq!(a, m, "no sweep ran, matrix untouched");
    }

    #[test]
    fn mid_run_cancellation_stops_between_sweeps() {
        use bosphorus_interrupt::CancelToken;
        // 320x320 at k=8 needs several sweeps (24 pivots each); tripping
        // the token on its second poll stops after exactly one sweep, with
        // the partial pivot count as the rank.
        let token = CancelToken::new().cancel_after_checks(2);
        let mut m = splitmix_matrix(320, 320, 2019);
        let stats = m.gauss_jordan_blocked_m4rm_cancellable(8, &token);
        assert!(stats.interrupted);
        assert!(stats.rank > 0, "one sweep committed");
        assert!(
            stats.rank <= 24,
            "at most one sweep's pivots (rank={})",
            stats.rank
        );
    }

    #[test]
    fn never_token_elimination_is_unchanged() {
        use bosphorus_interrupt::CancelToken;
        let m = splitmix_matrix(96, 256, 9);
        let mut plain = m.clone();
        let plain_stats = plain.gauss_jordan_blocked_m4rm_with_stats(8);
        let mut cancellable = m.clone();
        let stats = cancellable.gauss_jordan_blocked_m4rm_cancellable(8, &CancelToken::never());
        assert!(!stats.interrupted);
        assert_eq!(stats, plain_stats);
        assert_eq!(cancellable, plain);
    }

    #[test]
    fn tile_words_track_the_cache_budget() {
        use super::{blocked_tile_words, GF2_L2_CACHE_BYTES};
        for k in 1..=8usize {
            let tile = blocked_tile_words(k);
            assert!(tile >= 16);
            // All three tables' resident tile slices fit the cache budget
            // (up to the 16-word floor).
            let resident = 3 * (1usize << k) * tile * 8;
            assert!(
                resident <= GF2_L2_CACHE_BYTES || tile == 16,
                "k={k}: {resident} bytes resident"
            );
        }
    }
}
