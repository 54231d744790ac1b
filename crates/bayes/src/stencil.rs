//! Translation-invariant kernel stencils for grid message passing.
//!
//! A [`PairPotential`] sees two positions only through their distance,
//! so on a regular grid its likelihood between two cells depends only on
//! the integer offset `(Δx, Δy)`. The grid engine therefore tabulates it
//! once per run as a `(2ry+1) × (2rx+1)` table, and a message is the
//! scatter of the sender's above-floor cells through that table: source
//! cell `s` with mass `m` adds `m · table[t − s]` to every cell `t`
//! within the radii.
//!
//! **One scatter kernel.** Each table row is stored padded: `GROUP − 1`
//! zeros, the `2rx+1` entries, then zeros up to a whole number of
//! accumulator chunks. Source cells are taken in groups of four along a
//! source row. For every kernel row the group's output span (the union
//! of its four windows, `2rx+4` cells rounded up to whole 4-lane blocks)
//! is loaded into registers once; each live source of the group then
//! multiply–adds its padded table row into the span, in ascending
//! source order, reading it 0–3 lanes left of the span start by its
//! offset in the group; and the span is stored once. The message lands
//! in a scratch buffer whose rows carry margins wide enough for any
//! span, so no span is ever clipped at the grid edge.
//!
//! The kernel dispatches once per message: to AVX2+FMA when the CPU has
//! both, else to a portable path with unfused `acc + m·k` lanes that
//! the compiler vectorizes at the build's baseline. Either way every
//! output cell receives the same contributions, in the same ascending
//! source order and through the same rounding as a plain per-source,
//! per-cell accumulate on that path, so results do not depend on the
//! grouping: a pad lane adds `m · 0` to its cell, which leaves every
//! finite sum unchanged. A group holding a non-finite mass, where
//! `m · 0` is NaN, is scattered cell by cell instead.
//!
//! The accumulators are a fixed-size array with a constant trip count
//! per chunk (the chunk width is a const parameter, one instantiation
//! per width): with a runtime-bounded accumulator loop the same kernel
//! measured about twice as slow.

use crate::potential::PairPotential;
use wsnloc_geom::Vec2;

/// Source cells per group, and f64 lanes per block (one AVX2 register).
const GROUP: usize = 4;
/// Zeros before each padded table row: source `j` of a group reads its
/// row `j` lanes left of the span start.
const LEAD: usize = GROUP - 1;
/// Most blocks one accumulator chunk keeps in registers.
const MAX_CHUNK: usize = 8;

/// Whether a source cell of mass `m` scatters: it is not below `floor`
/// (a NaN cell scatters).
pub(crate) fn scatters(m: f64, floor: f64) -> bool {
    m.partial_cmp(&floor) != Some(std::cmp::Ordering::Less)
}

/// A rectangle of grid cells: columns `x0..x1` of rows `y0..y1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CellBox {
    pub(crate) x0: usize,
    pub(crate) x1: usize,
    pub(crate) y0: usize,
    pub(crate) y1: usize,
}

impl CellBox {
    /// The box with no cells.
    pub(crate) const EMPTY: CellBox = CellBox::new(0, 0, 0, 0);

    /// Columns `x0..x1` of rows `y0..y1`.
    pub(crate) const fn new(x0: usize, x1: usize, y0: usize, y1: usize) -> CellBox {
        CellBox { x0, x1, y0, y1 }
    }

    /// Every cell of an `nx × ny` grid.
    pub(crate) fn full(nx: usize, ny: usize) -> CellBox {
        CellBox::new(0, nx, 0, ny)
    }

    /// The single cell `(x, y)`.
    pub(crate) fn cell(x: usize, y: usize) -> CellBox {
        CellBox::new(x, x + 1, y, y + 1)
    }

    pub(crate) fn is_empty(self) -> bool {
        self.x0 >= self.x1 || self.y0 >= self.y1
    }

    pub(crate) fn contains(self, x: usize, y: usize) -> bool {
        (self.x0..self.x1).contains(&x) && (self.y0..self.y1).contains(&y)
    }

    /// The cells in both boxes ([`CellBox::EMPTY`] when none).
    pub(crate) fn intersect(self, other: CellBox) -> CellBox {
        let (x0, y0) = (self.x0.max(other.x0), self.y0.max(other.y0));
        let b = CellBox::new(x0, self.x1.min(other.x1), y0, self.y1.min(other.y1));
        if b.is_empty() {
            CellBox::EMPTY
        } else {
            b
        }
    }

    /// The smallest box holding both.
    pub(crate) fn union(self, other: CellBox) -> CellBox {
        if self.is_empty() {
            return other;
        }
        if other.is_empty() {
            return self;
        }
        let (x0, y0) = (self.x0.min(other.x0), self.y0.min(other.y0));
        CellBox::new(x0, self.x1.max(other.x1), y0, self.y1.max(other.y1))
    }

    /// Grown by `rx` columns and `ry` rows each way, clamped to an
    /// `nx × ny` grid.
    fn grown(self, rx: usize, ry: usize, nx: usize, ny: usize) -> CellBox {
        if self.is_empty() {
            return CellBox::EMPTY;
        }
        let (x0, y0) = (self.x0.saturating_sub(rx), self.y0.saturating_sub(ry));
        CellBox::new(x0, (self.x1 + rx).min(nx), y0, (self.y1 + ry).min(ny))
    }

    /// The bounding box of the cells inside `self` whose value in
    /// `mass` (row-major, `nx` wide) satisfies `keep`.
    pub(crate) fn bound(self, mass: &[f64], nx: usize, keep: impl Fn(f64) -> bool) -> CellBox {
        let mut found = CellBox::EMPTY;
        for y in self.y0..self.y1 {
            let row = &mass[y * nx + self.x0..y * nx + self.x1];
            let first = row.iter().position(|&m| keep(m));
            let last = row.iter().rposition(|&m| keep(m));
            if let (Some(first), Some(last)) = (first, last) {
                found = found.union(CellBox::new(self.x0 + first, self.x0 + last + 1, y, y + 1));
            }
        }
        found
    }

    /// The box's rows of `cells` (row-major, `nx` wide), each cut to
    /// the box's columns, with their row index.
    pub(crate) fn rows(self, cells: &[f64], nx: usize) -> impl Iterator<Item = (usize, &[f64])> {
        cells
            .chunks_exact(nx)
            .enumerate()
            .take(self.y1)
            .skip(self.y0)
            .map(move |(y, row)| (y, &row[self.x0..self.x1]))
    }

    /// [`CellBox::rows`], mutably.
    pub(crate) fn rows_mut(
        self,
        cells: &mut [f64],
        nx: usize,
    ) -> impl Iterator<Item = (usize, &mut [f64])> {
        cells
            .chunks_exact_mut(nx)
            .enumerate()
            .take(self.y1)
            .skip(self.y0)
            .map(move |(y, row)| (y, &mut row[self.x0..self.x1]))
    }
}

/// A message on a strided buffer: grid cell `(x, y)` sits at
/// `data[y · stride + origin + x]`, and every grid cell outside
/// `window` is 0. Only cells inside the window are read.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Message<'a> {
    data: &'a [f64],
    stride: usize,
    origin: usize,
    pub(crate) window: CellBox,
}

impl<'a> Message<'a> {
    /// A row-major message over a whole `nx × ny` grid.
    pub(crate) fn dense(data: &'a [f64], nx: usize, ny: usize) -> Message<'a> {
        Message {
            data,
            stride: nx,
            origin: 0,
            window: CellBox::full(nx, ny),
        }
    }

    /// Columns `x0..x1` of row `y`.
    pub(crate) fn row(&self, y: usize, x0: usize, x1: usize) -> &'a [f64] {
        let start = y * self.stride + self.origin;
        &self.data[start + x0..start + x1]
    }

    /// The window's cells summed in row-major order: the whole grid's
    /// row-major sum, as every cell outside the window is 0.
    pub(crate) fn total(&self) -> f64 {
        let w = self.window;
        (w.y0..w.y1).flat_map(|y| self.row(y, w.x0, w.x1)).sum()
    }
}

/// A tabulated kernel with its support radii in cells.
#[derive(Debug, Clone)]
pub struct KernelStencil {
    rx: usize,
    ry: usize,
    /// Blocks per accumulator chunk.
    chunk: usize,
    /// Chunks per group span.
    chunks: usize,
    /// The `2ry+1` table rows, row-major by `Δy`, each stored as
    /// [`LEAD`] zeros, the `2rx+1` entries by increasing `Δx`, and zeros
    /// up to [`KernelStencil::row_len`].
    padded: Vec<f64>,
}

impl KernelStencil {
    /// Tabulates `potential` for an `nx × ny` grid with cell size
    /// `(dx, dy)`: the entry for offset `(ox, oy)`, each in `−r..=r`,
    /// holds `likelihood(‖(ox·dx, oy·dy)‖)`. That is exact for every
    /// [`PairPotential`], which sees positions only through
    /// [`PairPotential::log_likelihood`] of their distance.
    ///
    /// The support radius is `⌈max_distance / d⌉` cells per axis, the
    /// whole grid when the potential is unbounded, clamped to `nx − 1` /
    /// `ny − 1`: the furthest reachable offset between two cells of an
    /// `n`-wide axis is `n − 1`, so an oversized `max_distance` cannot
    /// tabulate unreachable offsets.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "support radius in cells: `as usize` saturates an unbounded reach (and maps \
                  NaN to 0), and the radius is clamped to the axis length − 1 below"
    )]
    pub fn build(
        potential: &dyn PairPotential,
        nx: usize,
        ny: usize,
        dx: f64,
        dy: f64,
    ) -> KernelStencil {
        let (rx, ry) = match potential.max_distance() {
            Some(r) => ((r / dx).ceil() as usize, (r / dy).ceil() as usize),
            None => (nx, ny),
        };
        let (rx, ry) = (rx.min(nx.saturating_sub(1)), ry.min(ny.saturating_sub(1)));
        KernelStencil::tabulate(rx, ry, |ox, oy| {
            let d = Vec2::new(ox as f64 * dx, oy as f64 * dy).norm();
            potential.likelihood(d)
        })
    }

    /// A stencil from a full `(2ry+1) × (2rx+1)` table, row-major by
    /// `Δy`.
    ///
    /// # Panics
    /// When the table length does not match the radii.
    pub fn dense(rx: usize, ry: usize, table: Vec<f64>) -> KernelStencil {
        assert_eq!(
            table.len(),
            (2 * rx + 1) * (2 * ry + 1),
            "dense table shape mismatch"
        );
        let w = 2 * rx + 1;
        KernelStencil::tabulate(rx, ry, |ox, oy| {
            table[(oy + ry as isize) as usize * w + (ox + rx as isize) as usize]
        })
    }

    /// The padded table of `entry(ox, oy)` over `−rx..=rx × −ry..=ry`.
    fn tabulate(rx: usize, ry: usize, entry: impl Fn(isize, isize) -> f64) -> KernelStencil {
        // A group's span covers its four sources' windows: 2rx + 4
        // lanes, in whole blocks.
        let blocks = (2 * rx + 1 + LEAD).div_ceil(GROUP);
        let (chunk, chunks) = if blocks <= MAX_CHUNK {
            (blocks, 1)
        } else {
            (MAX_CHUNK, blocks.div_ceil(MAX_CHUNK))
        };
        let mut st = KernelStencil {
            rx,
            ry,
            chunk,
            chunks,
            padded: Vec::new(),
        };
        let (rxi, ryi) = (rx as isize, ry as isize);
        st.padded = Vec::with_capacity((2 * ry + 1) * st.row_len());
        for oy in -ryi..=ryi {
            st.padded.extend(std::iter::repeat_n(0.0, LEAD));
            st.padded.extend((-rxi..=rxi).map(|ox| entry(ox, oy)));
            st.padded
                .extend(std::iter::repeat_n(0.0, st.span() - 2 * rx - 1));
        }
        st
    }

    /// Lanes of one group's output span.
    fn span(&self) -> usize {
        self.chunks * self.chunk * GROUP
    }

    /// Length of one padded table row.
    fn row_len(&self) -> usize {
        LEAD + self.span()
    }

    /// Scatters `src` (row-major `nx`-wide cell masses) through this
    /// stencil into `out`, overwriting every cell, skipping source cells
    /// below `floor`.
    ///
    /// # Panics
    /// When `nx` is 0, or `src` and `out` differ in length or are not
    /// whole rows.
    pub fn scatter(&self, src: &[f64], nx: usize, floor: f64, out: &mut [f64]) {
        assert!(
            nx > 0 && src.len() == out.len() && src.len().is_multiple_of(nx),
            "scatter shape mismatch"
        );
        let live = CellBox::full(nx, src.len() / nx).bound(src, nx, |m| scatters(m, floor));
        let mut scratch = Vec::new();
        let msg = self.scatter_box(src, nx, live, floor, &mut scratch);
        out.fill(0.0);
        let w = msg.window;
        for (y, row) in w.rows_mut(out, nx) {
            row.copy_from_slice(msg.row(y, w.x0, w.x1));
        }
    }

    /// The message from the cells of `src` (row-major, `nx` wide)
    /// inside `live` that are not below `floor`, scattered into
    /// `scratch`. Its window is `live` grown by the radii and clamped to
    /// the grid; a NaN cell counts as above the floor.
    pub(crate) fn scatter_box<'o>(
        &self,
        src: &[f64],
        nx: usize,
        live: CellBox,
        floor: f64,
        scratch: &'o mut Vec<f64>,
    ) -> Message<'o> {
        let ny = src.len() / nx;
        assert!(
            live.is_empty() || (live.x1 <= nx && live.y1 <= ny),
            "source box outside the grid"
        );
        // Row margins: a span starts up to rx cells left of column 0 and
        // ends up to span − rx − 1 cells right of column nx − 1.
        let stride = nx + self.span() - 1;
        let window = live.grown(self.rx, self.ry, nx, ny);
        scratch.resize(ny * stride, 0.0);
        if !live.is_empty() {
            // Zero what the groups' spans cover in the window's rows:
            // padded columns live.x0 .. last group start + span.
            let groups = (live.x1 - live.x0).div_ceil(GROUP);
            let cols = live.x0..live.x0 + (groups - 1) * GROUP + self.span();
            for row in scratch[window.y0 * stride..window.y1 * stride].chunks_exact_mut(stride) {
                row[cols.clone()].fill(0.0);
            }
            let grid = Grid {
                src,
                nx,
                ny,
                stride,
            };
            #[cfg(target_arch = "x86_64")]
            if x86::have_avx2_fma() {
                // SAFETY: the CPU supports AVX2 and FMA (checked just
                // above).
                unsafe { x86::scatter(self, &grid, live, floor, scratch) };
                return self.message(scratch, stride, window);
            }
            // SAFETY: the portable lanes need no CPU feature.
            unsafe { scatter_blocks::<Portable>(self, &grid, live, floor, scratch) };
        }
        self.message(scratch, stride, window)
    }

    fn message<'o>(&self, data: &'o [f64], stride: usize, window: CellBox) -> Message<'o> {
        Message {
            data,
            stride,
            origin: self.rx,
            window,
        }
    }
}

/// The source grid and the padded output layout of one scatter.
struct Grid<'a> {
    src: &'a [f64],
    nx: usize,
    ny: usize,
    /// Output row length: `nx` plus the span margins.
    stride: usize,
}

/// One block of [`GROUP`] f64 lanes, and the multiply–add a scatter
/// path accumulates with.
///
/// Every method is `unsafe`: the caller must ensure the CPU supports the
/// block's instruction set.
trait Block: Copy {
    unsafe fn splat(v: f64) -> Self;
    unsafe fn load(s: &[f64; GROUP]) -> Self;
    unsafe fn store(self, s: &mut [f64; GROUP]);
    /// `self + m·k`, rounded the way this path rounds it.
    unsafe fn madd(self, m: Self, k: Self) -> Self;
    /// The same operation on one lane.
    unsafe fn madd1(acc: f64, m: f64, k: f64) -> f64;
}

/// Portable lanes: unfused `acc + m·k`, which the compiler vectorizes at
/// the build's baseline (SSE2 on x86-64).
#[derive(Clone, Copy)]
struct Portable([f64; GROUP]);

impl Block for Portable {
    #[inline(always)]
    unsafe fn splat(v: f64) -> Self {
        Portable([v; GROUP])
    }

    #[inline(always)]
    unsafe fn load(s: &[f64; GROUP]) -> Self {
        Portable(*s)
    }

    #[inline(always)]
    unsafe fn store(self, s: &mut [f64; GROUP]) {
        *s = self.0;
    }

    #[inline(always)]
    unsafe fn madd(self, m: Self, k: Self) -> Self {
        let mut out = self.0;
        for ((o, &m), &k) in out.iter_mut().zip(&m.0).zip(&k.0) {
            *o += m * k;
        }
        Portable(out)
    }

    #[inline(always)]
    unsafe fn madd1(acc: f64, m: f64, k: f64) -> f64 {
        acc + m * k
    }
}

/// Scatters the above-floor cells of `live` into `out` with lanes `B`,
/// choosing the accumulator chunk width once per message. `live` lies
/// inside the `grid.nx × grid.ny` grid, and `out` holds `grid.ny` rows
/// of `grid.stride = grid.nx + st.span() − 1` cells.
///
/// # Safety
/// The CPU supports `B`'s instruction set.
#[inline(always)]
unsafe fn scatter_blocks<B: Block>(
    st: &KernelStencil,
    grid: &Grid<'_>,
    live: CellBox,
    floor: f64,
    out: &mut [f64],
) {
    // SAFETY: forwarded contract. `tabulate` keeps `chunk` in
    // 1..=MAX_CHUNK, so each arm's const parameter equals it.
    unsafe {
        match st.chunk {
            1 => scatter_groups::<B, 1>(st, grid, live, floor, out),
            2 => scatter_groups::<B, 2>(st, grid, live, floor, out),
            3 => scatter_groups::<B, 3>(st, grid, live, floor, out),
            4 => scatter_groups::<B, 4>(st, grid, live, floor, out),
            5 => scatter_groups::<B, 5>(st, grid, live, floor, out),
            6 => scatter_groups::<B, 6>(st, grid, live, floor, out),
            7 => scatter_groups::<B, 7>(st, grid, live, floor, out),
            _ => scatter_groups::<B, MAX_CHUNK>(st, grid, live, floor, out),
        }
    }
}

/// The grouped scatter with `NB == st.chunk`-block accumulator chunks.
///
/// # Safety
/// The CPU supports `B`'s instruction set.
#[inline(always)]
unsafe fn scatter_groups<B: Block, const NB: usize>(
    st: &KernelStencil,
    grid: &Grid<'_>,
    live: CellBox,
    floor: f64,
    out: &mut [f64],
) {
    debug_assert_eq!(NB, st.chunk);
    let (rx, ry, nx) = (st.rx, st.ry, grid.nx);
    let row_len = st.row_len();
    for sy in live.y0..live.y1 {
        let rows = sy.saturating_sub(ry)..(sy + ry + 1).min(grid.ny);
        for gx in (live.x0..live.x1).step_by(GROUP) {
            let cells = &grid.src[sy * nx + gx..sy * nx + live.x1.min(gx + GROUP)];
            // The group's live sources, ascending: mass and offset in
            // the group.
            let mut mass = [0.0; GROUP];
            let mut at = [0usize; GROUP];
            let mut n = 0;
            for (j, &m) in cells.iter().enumerate() {
                if scatters(m, floor) {
                    mass[n] = m;
                    at[n] = j;
                    n += 1;
                }
            }
            if n == 0 {
                continue;
            }
            if !mass[..n].iter().all(|m| m.is_finite()) {
                // `m · 0` would put NaN in the pad lanes: go cell by cell.
                for (&m, &j) in mass[..n].iter().zip(&at[..n]) {
                    let sx = gx + j;
                    let cols = sx.saturating_sub(rx)..(sx + rx + 1).min(nx);
                    for y in rows.clone() {
                        let krow = &st.padded[(y + ry - sy) * row_len + LEAD..][..2 * rx + 1];
                        let orow = &mut out[y * grid.stride + rx..][..nx];
                        for x in cols.clone() {
                            // SAFETY: the CPU supports B (the caller's
                            // contract).
                            orow[x] = unsafe { B::madd1(orow[x], m, krow[x + rx - sx]) };
                        }
                    }
                }
                continue;
            }
            for y in rows.clone() {
                // Lane 0 of the span is grid column gx − rx, padded
                // column gx; source j reads its row from LEAD − j.
                let krow = &st.padded[(y + ry - sy) * row_len..][..row_len];
                let span = &mut out[y * grid.stride + gx..][..st.span()];
                for (c, chunk) in span.chunks_exact_mut(NB * GROUP).enumerate() {
                    let (blocks, _) = chunk.as_chunks_mut::<GROUP>();
                    // SAFETY: the CPU supports B (the caller's contract).
                    unsafe {
                        let mut acc = [B::splat(0.0); NB];
                        for (a, o) in acc.iter_mut().zip(blocks.iter()) {
                            *a = B::load(o);
                        }
                        for (&m, &j) in mass[..n].iter().zip(&at[..n]) {
                            let vm = B::splat(m);
                            let k = &krow[c * NB * GROUP + LEAD - j..][..NB * GROUP];
                            for (a, k) in acc.iter_mut().zip(k.as_chunks::<GROUP>().0) {
                                *a = a.madd(vm, B::load(k));
                            }
                        }
                        for (a, o) in acc.iter().zip(blocks.iter_mut()) {
                            a.store(o);
                        }
                    }
                }
            }
        }
    }
}

/// The AVX2+FMA path. The crate builds at the default x86-64 baseline
/// (SSE2), so this path is chosen per message by runtime detection.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{scatter_blocks, Block, CellBox, Grid, KernelStencil, GROUP};
    use core::arch::x86_64::*;
    use std::sync::OnceLock;

    /// Whether this CPU supports AVX2 and FMA (detected once).
    pub(super) fn have_avx2_fma() -> bool {
        static FLAG: OnceLock<bool> = OnceLock::new();
        *FLAG.get_or_init(|| is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"))
    }

    /// Four fused lanes: `fma(m, k, acc)`.
    #[derive(Clone, Copy)]
    struct Fused(__m256d);

    impl Block for Fused {
        #[inline(always)]
        unsafe fn splat(v: f64) -> Self {
            // SAFETY: AVX is available (the trait's contract).
            Fused(unsafe { _mm256_set1_pd(v) })
        }

        #[inline(always)]
        unsafe fn load(s: &[f64; GROUP]) -> Self {
            // SAFETY: `s` holds four lanes and AVX is available (the
            // trait's contract); the load is unaligned.
            Fused(unsafe { _mm256_loadu_pd(s.as_ptr()) })
        }

        #[inline(always)]
        unsafe fn store(self, s: &mut [f64; GROUP]) {
            // SAFETY: `s` holds four lanes and AVX is available (the
            // trait's contract); the store is unaligned.
            unsafe { _mm256_storeu_pd(s.as_mut_ptr(), self.0) }
        }

        #[inline(always)]
        unsafe fn madd(self, m: Self, k: Self) -> Self {
            // SAFETY: FMA is available (the trait's contract).
            Fused(unsafe { _mm256_fmadd_pd(m.0, k.0, self.0) })
        }

        #[inline(always)]
        unsafe fn madd1(acc: f64, m: f64, k: f64) -> f64 {
            m.mul_add(k, acc)
        }
    }

    const _: () = assert!(GROUP == 4, "one __m256d holds four f64 lanes");

    /// The grouped scatter with fused lanes.
    ///
    /// # Safety
    /// The CPU supports AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn scatter(
        st: &KernelStencil,
        grid: &Grid<'_>,
        live: CellBox,
        floor: f64,
        out: &mut [f64],
    ) {
        // SAFETY: forwarded contract.
        unsafe { scatter_blocks::<Fused>(st, grid, live, floor, out) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::potential::GaussianRange;
    use wsnloc_geom::rng::Xoshiro256pp;

    impl KernelStencil {
        /// Table entry `(ox, oy)`, read back from the padded rows.
        fn entry(&self, ox: isize, oy: isize) -> f64 {
            let row = (oy + self.ry as isize) as usize * self.row_len();
            self.padded[row + LEAD + (ox + self.rx as isize) as usize]
        }
    }

    /// Random table with no symmetry.
    fn asymmetric_table(rx: usize, ry: usize, rng: &mut Xoshiro256pp) -> Vec<f64> {
        (0..(2 * rx + 1) * (2 * ry + 1))
            .map(|_| rng.range(0.05, 1.0))
            .collect()
    }

    #[test]
    fn build_tabulates_pointwise_likelihood() {
        // Bit for bit: entry (ox, oy) is likelihood(‖(ox·dx, oy·dy)‖),
        // row-major by Δy, on unequal cell sides, with zero padding
        // around every row.
        let g = GaussianRange {
            observed: 10.0,
            sigma: 3.0,
        };
        let (dx, dy) = (2.0, 2.5);
        let st = KernelStencil::build(&g, 40, 40, dx, dy);
        let (rx, ry) = (st.rx as isize, st.ry as isize);
        assert_eq!((rx, ry), (13, 10), "⌈25/2⌉ and ⌈25/2.5⌉ cells");
        for oy in -ry..=ry {
            for ox in -rx..=rx {
                let d = Vec2::new(ox as f64 * dx, oy as f64 * dy).norm();
                let got = st.entry(ox, oy).to_bits();
                assert_eq!(got, g.likelihood(d).to_bits(), "offset ({ox}, {oy})");
            }
        }
        let real: f64 = (-ry..=ry)
            .flat_map(|oy| (-rx..=rx).map(move |ox| (ox, oy)))
            .map(|(ox, oy)| st.entry(ox, oy))
            .sum();
        assert_eq!(st.padded.iter().sum::<f64>(), real, "padding is all zeros");
        assert_eq!(st.padded.len(), (2 * ry as usize + 1) * st.row_len());
    }

    #[test]
    fn asymmetric_tables_scatter_in_table_orientation() {
        // A unit source at the grid center scatters an asymmetric table
        // back in table orientation (row-major by Δy, Δx increasing
        // along the row).
        let (rx, ry) = (5usize, 3usize);
        let (nx, ny) = (2 * rx + 1, 2 * ry + 1);
        let mut rng = Xoshiro256pp::seed_from(1000);
        for seed in 0..8 {
            let table = asymmetric_table(rx, ry, &mut rng);
            let st = KernelStencil::dense(rx, ry, table.clone());
            let mut src = vec![0.0; nx * ny];
            src[ry * nx + rx] = 1.0;
            let mut out = vec![f64::NAN; nx * ny];
            st.scatter(&src, nx, 0.5, &mut out);
            assert_eq!(out, table, "seed {seed}");
        }
    }

    /// Per source cell of `live` not below `floor`, in row-major order,
    /// `acc = madd(acc, m, k)` over its clipped window: the contract
    /// both scatter paths must meet bit for bit.
    fn brute_force(
        table: &[f64],
        (rx, ry): (usize, usize),
        src: &[f64],
        (nx, ny): (usize, usize),
        live: CellBox,
        floor: f64,
        madd: fn(f64, f64, f64) -> f64,
    ) -> Vec<f64> {
        let mut out = vec![0.0; nx * ny];
        let w = 2 * rx + 1;
        for sy in live.y0..live.y1 {
            for sx in live.x0..live.x1 {
                let m = src[sy * nx + sx];
                if !scatters(m, floor) {
                    continue;
                }
                for y in sy.saturating_sub(ry)..(sy + ry + 1).min(ny) {
                    for x in sx.saturating_sub(rx)..(sx + rx + 1).min(nx) {
                        let k = table[(y + ry - sy) * w + x + rx - sx];
                        let t = &mut out[y * nx + x];
                        *t = madd(*t, m, k);
                    }
                }
            }
        }
        out
    }

    fn same_bits(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    #[test]
    fn grouped_scatter_matches_brute_force_on_both_dispatch_paths() {
        // Random asymmetric tables and source boxes on grid widths that
        // are not multiples of 4, with radii up to nx − 1 (spans of more
        // than one 8-block chunk). Boxes include a single cell, one with
        // no cell above the floor, and one holding a NaN cell. Each path
        // must match its own brute force bit for bit (NaN payloads
        // aside), inside and outside the window; so must `scatter_box`,
        // the dispatching entry, on a scratch left full of NaN.
        type Path = unsafe fn(&KernelStencil, &Grid<'_>, CellBox, f64, &mut [f64]);
        type Madd = fn(f64, f64, f64) -> f64;
        let mut paths: Vec<(&str, Path, Madd)> =
            vec![("portable", scatter_blocks::<Portable>, |acc, m, k| {
                acc + m * k
            })];
        #[cfg(target_arch = "x86_64")]
        if x86::have_avx2_fma() {
            paths.push(("avx2+fma", x86::scatter, |acc, m, k| m.mul_add(k, acc)));
        }
        let mut rng = Xoshiro256pp::seed_from(0x5CA7);
        let mut wide = 0;
        for case in 0..160 {
            let nx = [5, 7, 9, 13, 18, 23, 30, 37][case % 8];
            let ny = 3 + rng.index(10);
            let (rx, ry) = if case % 5 == 0 {
                (nx - 1, ny - 1)
            } else {
                (rng.index(nx), rng.index(ny))
            };
            let table = asymmetric_table(rx, ry, &mut rng);
            let st = KernelStencil::dense(rx, ry, table.clone());
            wide += usize::from(st.chunks > 1);
            let floor = 0.3;
            let mut src: Vec<f64> = (0..nx * ny).map(|_| rng.range(0.0, 1.0)).collect();
            let (x0, y0) = (rng.index(nx), rng.index(ny));
            let mut live = match case % 4 {
                0 => CellBox::cell(x0, y0),
                _ => {
                    let (x1, y1) = (x0 + 1 + rng.index(nx - x0), y0 + 1 + rng.index(ny - y0));
                    CellBox::new(x0, x1, y0, y1)
                }
            };
            match case % 7 {
                // No cell above the floor.
                1 => {
                    for (_, row) in live.rows_mut(&mut src, nx) {
                        row.fill(0.1);
                    }
                }
                // A NaN cell.
                2 => src[live.y0 * nx + live.x1 - 1] = f64::NAN,
                // The whole grid.
                3 => live = CellBox::full(nx, ny),
                _ => {}
            }
            let window = live
                .bound(&src, nx, |m| scatters(m, floor))
                .grown(rx, ry, nx, ny);
            for &(name, path, madd) in &paths {
                let want = brute_force(&table, (rx, ry), &src, (nx, ny), live, floor, madd);
                let stride = nx + st.span() - 1;
                let mut out = vec![0.0; ny * stride];
                let grid = Grid {
                    src: &src,
                    nx,
                    ny,
                    stride,
                };
                // SAFETY: the portable path needs no CPU feature and the
                // fused one is listed only when detected.
                unsafe { path(&st, &grid, live, floor, &mut out) };
                let msg = st.message(&out, stride, window);
                for y in 0..ny {
                    for x in 0..nx {
                        let (w, inside) = (want[y * nx + x], window.contains(x, y));
                        let got = if inside { msg.row(y, x, x + 1)[0] } else { 0.0 };
                        assert!(
                            same_bits(got, w),
                            "{name} case {case} ({nx}×{ny}, r {rx}/{ry}): cell ({x}, {y}) \
                             {got} vs {w}"
                        );
                        assert!(
                            inside || w == 0.0,
                            "{name} case {case}: window misses ({x}, {y})"
                        );
                    }
                }
            }
            // The dispatched path is the last one listed.
            let &(name, _, madd) = paths.last().unwrap();
            let want = brute_force(&table, (rx, ry), &src, (nx, ny), live, floor, madd);
            let mut dirty = vec![f64::NAN; 3 * nx * ny];
            let msg = st.scatter_box(&src, nx, live, floor, &mut dirty);
            for y in 0..ny {
                for x in 0..nx {
                    let w = want[y * nx + x];
                    if msg.window.contains(x, y) {
                        let got = msg.row(y, x, x + 1)[0];
                        assert!(
                            same_bits(got, w),
                            "scatter_box ({name}) case {case}: ({x}, {y})"
                        );
                    } else {
                        assert!(
                            w == 0.0,
                            "scatter_box case {case}: window misses ({x}, {y})"
                        );
                    }
                }
            }
        }
        assert!(wide > 0, "no case spanned more than one chunk");
    }

    #[test]
    fn oversized_max_distance_clamps_to_reachable_offsets() {
        // Regression: the support radius must clamp to nx−1/ny−1; the old
        // clamp to nx/ny tabulated one unreachable row and column per
        // axis.
        struct Everywhere;
        impl PairPotential for Everywhere {
            fn log_likelihood(&self, d: f64) -> f64 {
                -0.001 * d
            }
            fn sample_distance(&self, _rng: &mut Xoshiro256pp) -> f64 {
                1.0
            }
            fn max_distance(&self) -> Option<f64> {
                Some(1e9) // vastly larger than any grid extent
            }
        }
        let (nx, ny) = (10usize, 8usize);
        let st = KernelStencil::build(&Everywhere, nx, ny, 2.0, 2.0);
        // The table covers exactly the (2nx−1) × (2ny−1) reachable offsets.
        assert_eq!((st.rx, st.ry), (nx - 1, ny - 1));
        assert_eq!(st.padded.len(), (2 * ny - 1) * st.row_len());

        // Unbounded potentials clamp identically.
        struct Unbounded;
        impl PairPotential for Unbounded {
            fn log_likelihood(&self, d: f64) -> f64 {
                -0.001 * d
            }
            fn sample_distance(&self, _rng: &mut Xoshiro256pp) -> f64 {
                1.0
            }
            fn max_distance(&self) -> Option<f64> {
                None
            }
        }
        let st = KernelStencil::build(&Unbounded, nx, ny, 2.0, 2.0);
        assert_eq!((st.rx, st.ry), (nx - 1, ny - 1));
    }
}
