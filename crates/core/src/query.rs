//! Alias queries: the global test `QGR`, the local test `QLR`, the
//! combined analysis of the paper's Figure 5, the per-function
//! block-diagonal [`AliasMatrix`] cache that answers all-pairs
//! workloads in `O(1)` per repeat query, and the [`DemandCache`] that
//! answers single queries without building any matrix.

use std::sync::Arc;

use sra_ir::{BlockId, FuncId, Module, Ty, ValueId};
use sra_range::RangeAnalysis;
use sra_symbolic::{ArenaStats, ExprArena, FxHashMap, RangeId, SymbolTable};

use crate::gr::{GrAnalysis, GrConfig};
use crate::locs::{LocId, LocKind, LocTable};
use crate::lr::{LocalBase, LrAnalysis};
use crate::pool;
use crate::state::PtrState;

/// The verdict of one alias query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AliasResult {
    /// The two pointers provably never reference overlapping memory.
    NoAlias,
    /// Overlap could not be ruled out.
    MayAlias,
}

/// Which of the complementary mechanisms produced a `NoAlias` answer.
///
/// The paper's Figure 14 attributes answers to the *global test* only
/// when symbolic range comparison on a **common** location was needed;
/// the bulk of disambiguation comes from pointers whose supports do not
/// intersect at all ("comparing offsets from different locations", §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WhichTest {
    /// Supports are disjoint: the pointers address different allocation
    /// sites (or one of them addresses nothing).
    DistinctLocs,
    /// The global test of §3.5 proper: the supports share at least one
    /// location, and the symbolic offset ranges are provably disjoint
    /// everywhere.
    Global,
    /// The local test of §3.7 (same local base, disjoint offsets).
    Local,
}

/// How a session or service answers alias queries.
///
/// Both modes are pinned byte-identical to the uncached
/// [`RbaaAnalysis::alias_with_test`] reference; they trade *where* the
/// work happens. `Matrix` pays every in-block pair at (re)build time
/// and answers lookups in `O(1)`; `Demand` builds nothing up front and
/// proves each signature pair the first time a query needs it — the
/// right choice when consumers touch a sparse subset of the `O(P²)`
/// pair universe (the scaling cliff of giant functions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum QueryMode {
    /// Eagerly build per-function [`AliasMatrix`] caches; queries are
    /// lock-free `O(1)` lookups.
    #[default]
    Matrix,
    /// Answer queries from a lazily grown [`DemandCache`]. The cache
    /// memoises per signature pair under a mutex, so concurrent readers
    /// of one snapshot serialize on it — throughput-critical all-pairs
    /// consumers should prefer `Matrix`.
    Demand,
}

/// A pointer disambiguation oracle.
///
/// Implemented by [`RbaaAnalysis`] here and by the baseline analyses in
/// the `sra-baselines` crate, so that the evaluation harness can compare
/// them uniformly.
pub trait AliasAnalysis {
    /// A short name for reports (`rbaa`, `basic`, `scev`).
    fn name(&self) -> &'static str;

    /// May `p` and `q` (two pointer-typed values of function `f`)
    /// reference overlapping memory?
    fn alias(&self, f: FuncId, p: ValueId, q: ValueId) -> AliasResult;
}

/// The paper's combined range-based alias analysis (`rbaa`): the global
/// symbolic range analysis of pointers plus the local renaming test.
///
/// Construct with [`RbaaAnalysis::analyze`]; the module should already
/// be in e-SSA form (run [`sra_ir::essa::run`] on each function during
/// lowering) — the analysis is still sound on plain SSA, only less
/// precise, because σ-nodes are where comparison information enters.
#[derive(Debug, Clone)]
pub struct RbaaAnalysis {
    ranges: RangeAnalysis,
    gr: GrAnalysis,
    lr: LrAnalysis,
}

impl RbaaAnalysis {
    /// Runs the full pipeline of Figure 5: bootstrap integer ranges,
    /// global pointer analysis, local pointer analysis.
    pub fn analyze(m: &Module) -> Self {
        Self::analyze_with(m, GrConfig::default())
    }

    /// Runs the pipeline with an explicit global-analysis configuration.
    pub fn analyze_with(m: &Module, config: GrConfig) -> Self {
        let ranges = RangeAnalysis::analyze(m);
        let gr = GrAnalysis::analyze_with(m, &ranges, config);
        let lr = LrAnalysis::analyze(m);
        RbaaAnalysis { ranges, gr, lr }
    }

    /// Assembles a result from already-computed pieces (the batch
    /// driver runs the per-function pieces on worker threads; external
    /// harnesses use it to time alternative pipeline schedules).
    pub fn from_pieces(ranges: RangeAnalysis, gr: GrAnalysis, lr: LrAnalysis) -> Self {
        RbaaAnalysis { ranges, gr, lr }
    }

    /// The bootstrap integer range analysis.
    pub fn ranges(&self) -> &RangeAnalysis {
        &self.ranges
    }

    /// The global pointer analysis.
    pub fn gr(&self) -> &GrAnalysis {
        &self.gr
    }

    /// The local pointer analysis.
    pub fn lr(&self) -> &LrAnalysis {
        &self.lr
    }

    /// The symbol table for displaying analysis states.
    pub fn symbols(&self) -> &SymbolTable {
        self.ranges.symbols()
    }

    /// Summed arena counters of the three module arenas (bootstrap
    /// ranges, GR, LR) — the interning effectiveness of one analysis.
    pub fn arena_stats(&self) -> ArenaStats {
        let mut s = self.ranges.arena().stats();
        s.merge(&self.gr.arena().stats());
        s.merge(&self.lr.arena().stats());
        s
    }

    /// Like [`AliasAnalysis::alias`], additionally reporting which test
    /// fired for a `NoAlias` answer (the paper's Figure 14 attribution).
    ///
    /// This is the *uncached reference path*: each call re-proves its
    /// range comparisons from the interned states (reconstructing the
    /// handful of ranges it needs), exactly like the seed per-query
    /// sweep the batched matrices are benchmarked against. Batch
    /// consumers use [`crate::AliasMatrix`], which memoises every
    /// comparison.
    pub fn alias_with_test(
        &self,
        f: FuncId,
        p: ValueId,
        q: ValueId,
    ) -> (AliasResult, Option<WhichTest>) {
        if p == q {
            return (AliasResult::MayAlias, None);
        }
        if let Some(kind) = global_no_alias_kind(
            self.gr.raw_state(f, p),
            self.gr.raw_state(f, q),
            self.gr.locs(),
            self.gr.arena(),
        ) {
            return (AliasResult::NoAlias, Some(kind));
        }
        if let (Some(sp), Some(sq)) = (self.lr.raw_state(f, p), self.lr.raw_state(f, q)) {
            // Preconditions for the "same moment" semantics: the
            // pointers must be defined in the same block (so their k-th
            // definitions belong to the same activation) and their
            // derivations must have read every σ at the same instant
            // (equal σ-sets — a body-σ and an exit-σ of one φ denote
            // different iterations whose addresses may coincide). Only
            // then does disjointness of the offset ranges prove the
            // addresses distinct within every activation.
            if sp.base == sq.base
                && sp.block.is_some()
                && sp.block == sq.block
                && sp.sigmas == sq.sigmas
            {
                let arena = self.lr.arena();
                if arena
                    .range_value(sp.range)
                    .meet(&arena.range_value(sq.range))
                    .is_empty()
                {
                    return (AliasResult::NoAlias, Some(WhichTest::Local));
                }
            }
        }
        (AliasResult::MayAlias, None)
    }

    /// Starts an empty [`DemandCache`] over this analysis — single
    /// queries with memoisation, no all-pairs matrix build.
    pub fn demand_cache(&self) -> DemandCache {
        DemandCache::new(self)
    }
}

impl AliasAnalysis for RbaaAnalysis {
    fn name(&self) -> &'static str {
        "rbaa"
    }

    fn alias(&self, f: FuncId, p: ValueId, q: ValueId) -> AliasResult {
        self.alias_with_test(f, p, q).0
    }
}

/// The global test `QGR` (§3.5): `NoAlias` when the concretizations are
/// provably disjoint. `arena` is the arena the states' range handles
/// point into (usually [`GrAnalysis::arena`]).
///
/// Implements Proposition 2, extended for `Unknown` locations (pointer
/// parameters of exported functions and external-call results): two
/// *different* locations only separate pointers when both are concrete
/// allocation sites, because two unknown bases may be the same memory;
/// within a *common* location the symbolic offset ranges must be
/// provably disjoint.
pub fn global_no_alias(a: &PtrState, b: &PtrState, locs: &LocTable, arena: &ExprArena) -> bool {
    global_no_alias_kind(a, b, locs, arena).is_some()
}

/// Like [`global_no_alias`], reporting *how* the pointers were
/// separated: by disjoint supports, or by range reasoning on common
/// locations (the paper's "global test" of Figure 14).
pub fn global_no_alias_kind(
    a: &PtrState,
    b: &PtrState,
    locs: &LocTable,
    arena: &ExprArena,
) -> Option<WhichTest> {
    // ⊥ concretizes to the empty address set.
    if a.is_bottom() || b.is_bottom() {
        return Some(WhichTest::DistinctLocs);
    }
    if a.is_top() || b.is_top() {
        return None;
    }
    let mut used_ranges = false;
    for (la, ra) in a.support() {
        for (lb, rb) in b.support() {
            if la == lb {
                if arena.range_value(ra).may_overlap(&arena.range_value(rb)) {
                    return None;
                }
                used_ranges = true;
            } else if !locs.site(la).kind.separable_from(locs.site(lb).kind) {
                // An unknown base may coincide with globals and other
                // unknown bases (but not with fresh allocations).
                return None;
            }
        }
    }
    Some(if used_ranges {
        WhichTest::Global
    } else {
        WhichTest::DistinctLocs
    })
}

/// Aggregate statistics over a batch of queries — the rows of the
/// paper's Figures 13 and 14.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Total queries issued.
    pub queries: usize,
    /// Queries answered `NoAlias`.
    pub no_alias: usize,
    /// `NoAlias` answers from disjoint allocation-site supports.
    pub by_distinct_locs: usize,
    /// `NoAlias` answers produced by the global test (common-location
    /// range reasoning).
    pub by_global: usize,
    /// `NoAlias` answers produced by the local test.
    pub by_local: usize,
}

impl QueryStats {
    /// Percentage of queries answered `NoAlias` (the `%` columns of
    /// Figure 13).
    pub fn percent_no_alias(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            100.0 * self.no_alias as f64 / self.queries as f64
        }
    }

    /// Issues every pairwise query among `pointers` (unordered pairs,
    /// `p ≠ q`) against `rbaa` and accumulates the outcome.
    pub fn run_pairs(rbaa: &RbaaAnalysis, f: FuncId, pointers: &[ValueId]) -> Self {
        let mut stats = QueryStats::default();
        for (i, &p) in pointers.iter().enumerate() {
            for &q in &pointers[i + 1..] {
                stats.queries += 1;
                match rbaa.alias_with_test(f, p, q) {
                    (AliasResult::NoAlias, Some(WhichTest::DistinctLocs)) => {
                        stats.no_alias += 1;
                        stats.by_distinct_locs += 1;
                    }
                    (AliasResult::NoAlias, Some(WhichTest::Global)) => {
                        stats.no_alias += 1;
                        stats.by_global += 1;
                    }
                    (AliasResult::NoAlias, Some(WhichTest::Local)) => {
                        stats.no_alias += 1;
                        stats.by_local += 1;
                    }
                    _ => {}
                }
            }
        }
        stats
    }

    /// Merges another batch into this one.
    pub fn merge(&mut self, other: &QueryStats) {
        self.queries += other.queries;
        self.no_alias += other.no_alias;
        self.by_distinct_locs += other.by_distinct_locs;
        self.by_global += other.by_global;
        self.by_local += other.by_local;
    }
}

/// Collects the pointer-typed values of a function — the query universe
/// of the paper's evaluation (§4 enumerates pairs of pointers).
pub fn pointer_values(m: &Module, f: FuncId) -> Vec<ValueId> {
    let func = m.function(f);
    func.value_ids()
        .filter(|&v| func.value(v).ty() == Some(Ty::Ptr))
        .collect()
}

/// Packed verdict codes of one [`AliasMatrix`] cell. Exactly four
/// values — a cell is two bits: `NoAlias`/`MayAlias` plus the
/// which-test attribution sideband.
const CELL_MAY: u8 = 0;
const CELL_DISTINCT: u8 = 1;
const CELL_GLOBAL: u8 = 2;
const CELL_LOCAL: u8 = 3;
/// A signature-pair memo slot not yet proved (never a cell code).
const UNPROVED: u8 = u8::MAX;
/// The column of a value outside a matrix's pointer universe.
const NO_COLUMN: u32 = u32::MAX;

/// Functions a matrix-build tile walks before it restarts its scratch
/// overlay arenas: the memo tables stay cache-sized on module-scale
/// sweeps while still amortising disjointness proofs across the
/// (heavily state-sharing) functions inside one window.
const SCRATCH_WINDOW: usize = 1024;

/// Tiles per pool worker in each parallel phase of the matrix builder;
/// dynamic claiming balances the uneven ones.
const TILES_PER_WORKER: usize = 4;

fn decode_cell(cell: u8) -> (AliasResult, Option<WhichTest>) {
    match cell {
        CELL_DISTINCT => (AliasResult::NoAlias, Some(WhichTest::DistinctLocs)),
        CELL_GLOBAL => (AliasResult::NoAlias, Some(WhichTest::Global)),
        CELL_LOCAL => (AliasResult::NoAlias, Some(WhichTest::Local)),
        _ => (AliasResult::MayAlias, None),
    }
}

/// Reads 2-bit cell `idx` of a packed cell store (four cells per byte,
/// little-endian within the byte).
#[inline]
fn get_packed(cells: &[u8], idx: usize) -> u8 {
    (cells[idx >> 2] >> ((idx & 3) * 2)) & 3
}

/// Unordered pairs among `n` items — equivalently, the lower-triangle
/// index of the first cell in row `n`.
#[inline]
fn tri(n: usize) -> usize {
    n * n.saturating_sub(1) / 2
}

/// The row holding lower-triangle index `t`: the largest `h` with
/// `tri(h) ≤ t`.
fn tri_row(t: usize) -> usize {
    let mut h = ((1.0 + (1.0 + 8.0 * t as f64).sqrt()) / 2.0) as usize;
    while tri(h) > t {
        h -= 1;
    }
    while tri(h + 1) <= t {
        h += 1;
    }
    h
}

/// Bits needed to store every value in `0..=max` (zero when `max == 0`).
fn bit_width(max: usize) -> u32 {
    usize::BITS - max.leading_zeros()
}

/// Reads value `idx` of a table packed at `width ≤ 32` bits per value
/// (little-endian, as written by [`pack_bits`]).
#[inline]
fn get_bits(bytes: &[u8], idx: usize, width: u32) -> u32 {
    if width == 0 {
        return 0;
    }
    let bit = idx * width as usize;
    let word = match bytes.get(bit / 8..bit / 8 + 8) {
        Some(window) => u64::from_le_bytes(window.try_into().expect("eight bytes")),
        None => bytes[bit / 8..]
            .iter()
            .rev()
            .fold(0, |word, &b| word << 8 | u64::from(b)),
    };
    ((word >> (bit % 8)) & ((1u64 << width) - 1)) as u32
}

/// Packs `n` values at `width` bits each; the padding bits of the last
/// byte stay zero.
fn pack_bits(values: impl IntoIterator<Item = u32>, n: usize, width: u32) -> Vec<u8> {
    let mut out = vec![0u8; (n * width as usize).div_ceil(8)];
    if width > 0 {
        for (i, v) in values.into_iter().enumerate() {
            let bit = i * width as usize;
            let word = u64::from(v) << (bit % 8);
            for (k, byte) in out[bit / 8..].iter_mut().take(5).enumerate() {
                *byte |= (word >> (8 * k)) as u8;
            }
        }
    }
    out
}

/// `true` when every bit past the first `used_bits` of `bytes` is zero
/// (`bytes` is exactly `used_bits.div_ceil(8)` long).
fn padding_clear(bytes: &[u8], used_bits: usize) -> bool {
    used_bits.is_multiple_of(8) || bytes.last().is_none_or(|&b| b >> (used_bits % 8) == 0)
}

/// Byte accounting of an [`AliasMatrix`]'s verdict storage, in the
/// style of [`ArenaStats`]. `pairs` is the pair universe the matrix
/// answers, and `unpacked_bytes` what one byte per pair would take.
/// `packed_bytes` is what the matrix actually stores: the 2-bit cells
/// of its blocks and ⊤ rows (four per byte) plus the bit-packed block
/// id of every in-block pointer, which make every other pair implicit
/// (a singleton's, ⊤'s or ⊥'s column range says what it is). The
/// lookup index rebuilt on load (pointer columns and block offsets) is
/// counted by neither figure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatrixBytes {
    /// Unordered pointer pairs the matrix answers (its pair universe).
    pub pairs: usize,
    /// Bytes stored: packed cells plus in-block pointers' block ids.
    pub packed_bytes: usize,
    /// Bytes a one-byte-per-pair table of the universe would allocate.
    pub unpacked_bytes: usize,
}

impl MatrixBytes {
    /// Accumulates another matrix's accounting (for per-module totals).
    pub fn merge(&mut self, other: &MatrixBytes) {
        self.pairs += other.pairs;
        self.packed_bytes += other.packed_bytes;
        self.unpacked_bytes += other.unpacked_bytes;
    }

    /// Memory saving over one byte per pair (`unpacked / packed`):
    /// `0.0` for a matrix without pairs, and infinite for one whose
    /// pairs are all implicit (nothing stored at all).
    pub fn saving_ratio(&self) -> f64 {
        if self.unpacked_bytes == 0 {
            0.0
        } else if self.packed_bytes == 0 {
            f64::INFINITY
        } else {
            self.unpacked_bytes as f64 / self.packed_bytes as f64
        }
    }
}

/// The cached all-pairs verdicts of one function, stored
/// block-diagonally by GR support.
///
/// Two pointers can only alias when their supports can overlap:
/// distinct `malloc`/`alloca`/global sites are always separable, and
/// only `Unknown`×`Unknown` and `Unknown`×`Global` site pairs are not
/// ([`LocKind::separable_from`]). The builder union-finds each
/// function's support locations, with every `Unknown` and `Global` site
/// collapsed into one class, and stores
///
/// * a dense triangle of 2-bit cells (four per byte) among the pointers
///   of each class holding two or more of them — a *block*;
/// * nothing for a pointer alone in its class;
/// * a row for each ⊤ pointer against every non-⊥ pointer;
/// * nothing for ⊥ pointers (they concretize to no address).
///
/// Every pair not stored — across blocks, with a singleton, or with a
/// ⊥ pointer — is `DistinctLocs` by construction, exactly as
/// [`RbaaAnalysis::alias_with_test`] answers it, and the
/// [`QueryStats`] follow from the block sizes plus the stored cells.
/// Stored cells are proved on interned signature pairs through overlay
/// arenas ([`ExprArena::with_base`]) over the analysis' module arenas,
/// so builds run on worker threads against one shared analysis.
/// Verdicts are byte-identical to [`RbaaAnalysis::alias_with_test`] at
/// every pool width — the workspace's equivalence rails pin this.
///
/// The fields a lookup reads come first (`repr(C)` keeps that order),
/// so a lookup on a cold matrix touches as few cache lines as it can.
#[derive(Debug, Clone)]
#[repr(C)]
pub struct AliasMatrix {
    /// The column of each value of the function (see [`Layout`]),
    /// indexed by value; [`NO_COLUMN`] outside the pointer universe.
    pos: Box<[u32]>,
    /// 2-bit cells, four per byte: each block's lower triangle in block
    /// order, then the ⊤ rows.
    cells: Box<[u8]>,
    /// The block index of each in-block column, `id_width` bits apiece.
    ids: Box<[u8]>,
    id_width: u32,
    layout: Layout,
    /// The pointer universe, in value order.
    ptrs: Vec<ValueId>,
    stats: QueryStats,
}

/// The column structure of one [`AliasMatrix`]. Columns run in this
/// order: the blocks (each a contiguous run, pointers in value order),
/// then singletons, ⊤ pointers and ⊥ pointers (each in value order).
/// Column `c` of a block starting at `s` meets the block's earlier
/// columns in cells `off + tri(c − s) ..`; ⊤ column `c` meets every
/// earlier column in cells `top_off + tri(c) − tri(regular) ..`.
#[derive(Debug, Clone)]
struct Layout {
    blocks: Box<[Block]>,
    /// Columns `0..multi` lie in blocks, `multi..regular` are
    /// singletons, `regular..regular + tops` are ⊤, the rest are ⊥.
    multi: usize,
    regular: usize,
    tops: usize,
    /// The first ⊤-row cell (the blocks store the cells before it).
    top_off: usize,
    /// Cells stored in all.
    cells: usize,
}

/// One block of a [`Layout`]: its columns and its first cell.
#[derive(Debug, Clone, Copy)]
struct Block {
    start: u32,
    len: u32,
    off: usize,
}

impl Layout {
    /// Lays out the columns for per-pointer block codes in value order:
    /// `0..nblocks` name a block, `nblocks` a singleton, `nblocks + 1`
    /// a ⊤ pointer and `nblocks + 2` a ⊥ pointer. Blocks must be
    /// numbered by first appearance and hold two or more pointers, so
    /// every partition has exactly one code sequence. Returns the
    /// layout and each pointer's column.
    fn new(codes: &[u32], nblocks: usize) -> Result<(Layout, Vec<u32>), &'static str> {
        let solo = nblocks as u32;
        let (top, bottom) = (solo + 1, solo + 2);
        let mut sizes = vec![0u32; nblocks];
        let (mut singles, mut tops, mut seen) = (0usize, 0usize, 0u32);
        for &code in codes {
            if code < solo {
                if code > seen {
                    return Err("matrix block ids are not numbered by first appearance");
                }
                seen += u32::from(code == seen);
                sizes[code as usize] += 1;
            } else if code == solo {
                singles += 1;
            } else if code == top {
                tops += 1;
            } else if code != bottom {
                return Err("matrix block id out of range");
            }
        }
        if sizes.iter().any(|&s| s < 2) {
            return Err("matrix block holds fewer than two pointers");
        }
        let mut blocks = Vec::with_capacity(nblocks);
        let (mut start, mut off) = (0usize, 0usize);
        for &len in &sizes {
            blocks.push(Block {
                start: start as u32,
                len,
                off,
            });
            start += len as usize;
            off += tri(len as usize);
        }
        let regular = start + singles;
        let layout = Layout {
            multi: start,
            regular,
            tops,
            top_off: off,
            cells: off + tri(regular + tops) - tri(regular),
            blocks: blocks.into_boxed_slice(),
        };
        let mut next: Vec<u32> = layout.blocks.iter().map(|b| b.start).collect();
        next.extend([start, regular, regular + tops].map(|c| c as u32));
        let cols = codes
            .iter()
            .map(|&code| {
                let slot = &mut next[code as usize];
                *slot += 1;
                *slot - 1
            })
            .collect();
        Ok((layout, cols))
    }
}

/// Interned global state of one pointer.
#[derive(Clone, PartialEq, Eq, Hash)]
enum IGr {
    Bottom,
    Top,
    Support(Vec<(LocId, RangeId)>),
}

/// Interned local state of one pointer.
#[derive(Clone, PartialEq, Eq, Hash)]
struct ILr {
    base: LocalBase,
    block: Option<BlockId>,
    /// Dense id of the σ-set (equal sets share an id).
    sigmas: u32,
    range: RangeId,
}

/// The interned `(GR, LR)` state of one pointer. It fully determines
/// both states (exact support handles, base, block, σ-set identity,
/// offset handles), so for `p ≠ q` the verdict depends only on the two
/// signatures.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Sig {
    gr: IGr,
    lr: Option<ILr>,
}

/// Dense signature classes: the one interning table behind both the
/// matrix builder (a table per function) and the [`DemandCache`] (a
/// table per analysis).
#[derive(Default)]
struct SigTable {
    sigma_ids: FxHashMap<Vec<ValueId>, u32>,
    /// Signature contents by dense id.
    sigs: Vec<Sig>,
    ids: FxHashMap<Sig, u32>,
}

impl SigTable {
    /// The signature id of `(f, p)`'s states, interning them on first
    /// sight.
    fn intern(&mut self, rbaa: &RbaaAnalysis, f: FuncId, p: ValueId) -> u32 {
        let st = rbaa.gr().raw_state(f, p);
        let gr = if st.is_bottom() {
            IGr::Bottom
        } else if st.is_top() {
            IGr::Top
        } else {
            IGr::Support(st.support().collect())
        };
        let lr = rbaa.lr().raw_state(f, p).map(|s| ILr {
            base: s.base,
            block: s.block,
            sigmas: self.sigma_id(&s.sigmas),
            range: s.range,
        });
        match self.ids.entry(Sig { gr, lr }) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let id = self.sigs.len() as u32;
                self.sigs.push(e.key().clone());
                e.insert(id);
                id
            }
        }
    }

    fn sigma_id(&mut self, set: &[ValueId]) -> u32 {
        if let Some(&id) = self.sigma_ids.get(set) {
            return id;
        }
        let id = self.sigma_ids.len() as u32;
        self.sigma_ids.insert(set.to_vec(), id);
        id
    }

    fn get(&self, id: u32) -> &Sig {
        &self.sigs[id as usize]
    }
}

/// The one verdict kernel, with its scratch: overlay arenas over the
/// analysis' GR/LR module arenas, where each distinct range comparison
/// is proved once. Verdicts depend only on the signatures, never on
/// which overlay memoised a comparison.
struct Prover {
    gr: ExprArena,
    lr: ExprArena,
}

impl Prover {
    fn new(rbaa: &RbaaAnalysis) -> Self {
        Prover {
            gr: ExprArena::with_base(rbaa.gr().arena_arc()),
            lr: ExprArena::with_base(rbaa.lr().arena_arc()),
        }
    }

    /// One signature pair — mirrors [`RbaaAnalysis::alias_with_test`]
    /// decision for decision. `kinds` is [`loc_kinds`] of the analysis.
    fn verdict(&mut self, kinds: &[LocKind], p: &Sig, q: &Sig) -> u8 {
        // The global test (`global_no_alias_kind` on handles).
        let global = match (&p.gr, &q.gr) {
            (IGr::Bottom, _) | (_, IGr::Bottom) => Some(CELL_DISTINCT),
            (IGr::Top, _) | (_, IGr::Top) => None,
            (IGr::Support(sa), IGr::Support(sb)) => {
                let mut used_ranges = false;
                let mut separated = true;
                'pairs: for &(la, ra) in sa {
                    for &(lb, rb) in sb {
                        if la == lb {
                            if !self.gr.ranges_disjoint(ra, rb) {
                                separated = false;
                                break 'pairs;
                            }
                            used_ranges = true;
                        } else if !kinds[la.index()].separable_from(kinds[lb.index()]) {
                            separated = false;
                            break 'pairs;
                        }
                    }
                }
                if separated {
                    Some(if used_ranges {
                        CELL_GLOBAL
                    } else {
                        CELL_DISTINCT
                    })
                } else {
                    None
                }
            }
        };
        if let Some(cell) = global {
            return cell;
        }
        // The local test (`QLR` preconditions, then range disjointness).
        if let (Some(a), Some(b)) = (&p.lr, &q.lr) {
            if a.base == b.base
                && a.block.is_some()
                && a.block == b.block
                && a.sigmas == b.sigmas
                && self.lr.ranges_disjoint(a.range, b.range)
            {
                return CELL_LOCAL;
            }
        }
        CELL_MAY
    }
}

/// The per-module location-kind table the verdict kernel and the
/// support partition index — derived from the `LocTable` once per
/// build or demand cache.
fn loc_kinds(rbaa: &RbaaAnalysis) -> Vec<LocKind> {
    let locs = rbaa.gr().locs();
    (0..locs.len())
        .map(|i| locs.site(LocId::new(i)).kind)
        .collect()
}

/// Union-find root of `x`, halving paths on the way.
fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let up = parent[parent[x as usize] as usize];
        parent[x as usize] = up;
        x = up;
    }
    x
}

/// Splits `items` into at most `pieces` contiguous runs.
fn batches<T>(items: Vec<T>, pieces: usize) -> Vec<Vec<T>> {
    let bounds = pool::chunk_bounds(items.len(), pieces);
    let mut items = items.into_iter();
    bounds
        .into_iter()
        .map(|(lo, hi)| items.by_ref().take(hi - lo).collect())
        .collect()
}

/// One function's matrix before its cells are proved: the support
/// partition, plus the signatures the stored cells are proved on.
struct Plan {
    ptrs: Vec<ValueId>,
    layout: Layout,
    cols: Vec<u32>,
    sigs: Vec<Sig>,
    /// The signature of each column.
    col_sig: Vec<u32>,
    /// The block-local signature index of each in-block column — the
    /// key into its block's signature-pair memo.
    col_local: Vec<u32>,
    /// Distinct signatures per block.
    block_sigs: Vec<u32>,
}

impl Plan {
    /// Interns the signatures of `ptrs` (duplicate-free) and partitions
    /// them by support.
    fn new(rbaa: &RbaaAnalysis, kinds: &[LocKind], f: FuncId, ptrs: Vec<ValueId>) -> Self {
        let mut table = SigTable::default();
        let ptr_sig: Vec<u32> = ptrs.iter().map(|&p| table.intern(rbaa, f, p)).collect();
        let sigs = table.sigs;

        // Union-find the support locations; node 0 is the one class of
        // every `Unknown` and `Global` site.
        let mut node_of: FxHashMap<LocId, u32> = FxHashMap::default();
        let mut parent: Vec<u32> = vec![0];
        let mut sig_node: Vec<u32> = Vec::with_capacity(sigs.len());
        for sig in &sigs {
            let IGr::Support(support) = &sig.gr else {
                sig_node.push(u32::MAX);
                continue;
            };
            let mut root = None;
            for &(loc, _) in support {
                let node = match kinds[loc.index()] {
                    LocKind::Unknown | LocKind::Global => 0,
                    _ => *node_of.entry(loc).or_insert_with(|| {
                        parent.push(parent.len() as u32);
                        parent.len() as u32 - 1
                    }),
                };
                let r = find(&mut parent, node);
                match root {
                    None => root = Some(r),
                    Some(a) if a != r => {
                        let (lo, hi) = (a.min(r), a.max(r));
                        parent[hi as usize] = lo;
                        root = Some(lo);
                    }
                    Some(_) => {}
                }
            }
            sig_node.push(root.expect("a non-⊥ support names a location"));
        }

        // Each pointer's class, and the class sizes.
        let mut size = vec![0u32; parent.len()];
        let class: Vec<u32> = ptr_sig
            .iter()
            .map(|&s| {
                let node = sig_node[s as usize];
                if node == u32::MAX {
                    return u32::MAX;
                }
                let root = find(&mut parent, node);
                size[root as usize] += 1;
                root
            })
            .collect();

        // Canonical codes: classes of two or more pointers are blocks,
        // numbered by first appearance.
        let mut block_of = vec![u32::MAX; parent.len()];
        let mut nblocks = 0u32;
        for &c in &class {
            if c != u32::MAX && size[c as usize] >= 2 && block_of[c as usize] == u32::MAX {
                block_of[c as usize] = nblocks;
                nblocks += 1;
            }
        }
        let codes: Vec<u32> = class
            .iter()
            .zip(&ptr_sig)
            .map(|(&c, &s)| match sigs[s as usize].gr {
                IGr::Bottom => nblocks + 2,
                IGr::Top => nblocks + 1,
                IGr::Support(_) if block_of[c as usize] == u32::MAX => nblocks,
                IGr::Support(_) => block_of[c as usize],
            })
            .collect();
        let (layout, cols) =
            Layout::new(&codes, nblocks as usize).expect("builder codes are canonical");

        let mut col_sig = vec![0u32; ptrs.len()];
        for (&c, &s) in cols.iter().zip(&ptr_sig) {
            col_sig[c as usize] = s;
        }
        let mut local = vec![u32::MAX; sigs.len()];
        let mut col_local = Vec::with_capacity(layout.multi);
        let mut block_sigs = Vec::with_capacity(layout.blocks.len());
        for b in &layout.blocks {
            let run = &col_sig[b.start as usize..(b.start + b.len) as usize];
            let mut distinct = 0u32;
            for &s in run {
                if local[s as usize] == u32::MAX {
                    local[s as usize] = distinct;
                    distinct += 1;
                }
                col_local.push(local[s as usize]);
            }
            for &s in run {
                local[s as usize] = u32::MAX;
            }
            block_sigs.push(distinct);
        }
        Plan {
            ptrs,
            layout,
            cols,
            sigs,
            col_sig,
            col_local,
            block_sigs,
        }
    }

    fn sig(&self, col: usize) -> &Sig {
        &self.sigs[self.col_sig[col] as usize]
    }

    /// Proves cells `lo..hi` of this plan (`lo` a multiple of four)
    /// into `out`, whose first byte holds cell `lo`.
    fn prove(
        &self,
        kinds: &[LocKind],
        prover: &mut Prover,
        memo: &mut Vec<u8>,
        (lo, hi): (usize, usize),
        out: &mut [u8],
    ) {
        let l = &self.layout;
        let mut put = |i: usize, cell: u8| out[(i - lo) >> 2] |= cell << ((i & 3) * 2);
        let first = l
            .blocks
            .partition_point(|b| b.off + tri(b.len as usize) <= lo);
        for (b, &distinct) in l.blocks[first..].iter().zip(&self.block_sigs[first..]) {
            if b.off >= hi {
                break;
            }
            // Equal signatures prove equal verdicts: one proof per
            // unordered block-local signature pair (diagonal included).
            memo.clear();
            memo.resize(tri(distinct as usize + 1), UNPROVED);
            let start = b.start as usize;
            let from = lo.max(b.off);
            let mut h = tri_row(from - b.off);
            let mut c = from - b.off - tri(h);
            for i in from..hi.min(b.off + tri(b.len as usize)) {
                let (x, y) = (self.col_local[start + h], self.col_local[start + c]);
                let key = tri(x.max(y) as usize + 1) + x.min(y) as usize;
                if memo[key] == UNPROVED {
                    memo[key] = prover.verdict(kinds, self.sig(start + h), self.sig(start + c));
                }
                put(i, memo[key]);
                c += 1;
                if c == h {
                    h += 1;
                    c = 0;
                }
            }
        }
        // The ⊤ rows: rows `regular..` of the lower triangle over all
        // non-⊥ columns.
        let from = lo.max(l.top_off);
        if from < hi.min(l.cells) {
            let t = tri(l.regular) + from - l.top_off;
            let mut h = tri_row(t);
            let mut c = t - tri(h);
            for i in from..hi.min(l.cells) {
                put(i, prover.verdict(kinds, self.sig(h), self.sig(c)));
                c += 1;
                if c == h {
                    h += 1;
                    c = 0;
                }
            }
        }
    }
}

impl AliasMatrix {
    /// Builds the matrix of `f` over an explicit, duplicate-free pointer
    /// universe, its stored cells tiled onto `pool`.
    pub fn build_for_on(
        rbaa: &RbaaAnalysis,
        f: FuncId,
        ptrs: Vec<ValueId>,
        pool: &pool::WorkerPool,
    ) -> Self {
        let kinds = loc_kinds(rbaa);
        let plan = Plan::new(rbaa, &kinds, f, ptrs);
        let mut built = Self::build_plans(rbaa, &kinds, vec![plan], pool);
        built.pop().expect("one plan, one matrix")
    }

    /// Builds every function's matrix over its [`pointer_values`] on
    /// `pool` — the module sweep of the one builder behind every entry
    /// point.
    ///
    /// Partitioning is linear and runs function-chunked. The stored
    /// cells of all the functions are then concatenated and tiled onto
    /// the pool by cell count, so a large block is split across workers
    /// instead of riding one; each tile proves its cells through one
    /// overlay pair reused across the functions it visits. Verdicts
    /// depend only on the interned states, never on which overlay
    /// memoised them, so the result is identical at every pool width
    /// and to per-function builds.
    pub fn build_all_on(rbaa: &RbaaAnalysis, m: &Module, pool: &pool::WorkerPool) -> Vec<Self> {
        let fids: Vec<FuncId> = m.func_ids().collect();
        Self::build_funcs(rbaa, m, &fids, pool)
    }

    /// Builds the matrices of `fids` (in that order) over their
    /// [`pointer_values`], as [`AliasMatrix::build_all_on`] does for
    /// every function.
    pub(crate) fn build_funcs(
        rbaa: &RbaaAnalysis,
        m: &Module,
        fids: &[FuncId],
        pool: &pool::WorkerPool,
    ) -> Vec<Self> {
        let kinds = loc_kinds(rbaa);
        let chunks = pool::chunk_bounds(fids.len(), pool.threads() * TILES_PER_WORKER);
        let plans = pool.run_map(chunks, |(lo, hi)| {
            fids[lo..hi]
                .iter()
                .map(|&f| Plan::new(rbaa, &kinds, f, pointer_values(m, f)))
                .collect::<Vec<_>>()
        });
        Self::build_plans(rbaa, &kinds, plans.into_iter().flatten().collect(), pool)
    }

    /// Proves the stored cells of `plans` and assembles their matrices.
    fn build_plans(
        rbaa: &RbaaAnalysis,
        kinds: &[LocKind],
        plans: Vec<Plan>,
        pool: &pool::WorkerPool,
    ) -> Vec<Self> {
        // Each plan's cells start on a byte of one module-wide store, so
        // tiles of whole bytes never share a byte.
        let mut starts = Vec::with_capacity(plans.len() + 1);
        let mut total = 0;
        for p in &plans {
            starts.push(total);
            total += p.layout.cells.div_ceil(4);
        }
        starts.push(total);
        let width = pool.threads();
        let tiles = pool::chunk_bounds(
            total,
            if width <= 1 {
                1
            } else {
                width * TILES_PER_WORKER
            },
        );
        let parts: Vec<Vec<u8>> = pool.run_map(tiles, |(lo, hi)| {
            let mut out = vec![0u8; hi - lo];
            let mut prover = Prover::new(rbaa);
            let mut memo = Vec::new();
            let mut visited = 0;
            let mut k = starts[1..].partition_point(|&end| end <= lo);
            while k < plans.len() && starts[k] < hi {
                let (b0, b1) = (starts[k].max(lo), starts[k + 1].min(hi));
                if b0 < b1 {
                    // Unbounded memo accumulation over a 10⁴-function
                    // sweep grows the overlay tables past every cache
                    // level; restart them at deterministic points.
                    if visited == SCRATCH_WINDOW {
                        prover = Prover::new(rbaa);
                        visited = 0;
                    }
                    visited += 1;
                    let plan = &plans[k];
                    let base = 4 * starts[k];
                    let cells = (4 * b0 - base, (4 * b1 - base).min(plan.layout.cells));
                    plan.prove(
                        kinds,
                        &mut prover,
                        &mut memo,
                        cells,
                        &mut out[b0 - lo..b1 - lo],
                    );
                }
                k += 1;
            }
            out
        });
        let store: Vec<u8> = parts.concat();
        let jobs: Vec<(Plan, Vec<u8>)> = plans
            .into_iter()
            .enumerate()
            .map(|(k, plan)| (plan, store[starts[k]..starts[k + 1]].to_vec()))
            .collect();
        drop(store);
        pool.run_map(batches(jobs, width * TILES_PER_WORKER), |batch| {
            batch
                .into_iter()
                .map(|(plan, cells)| Self::assemble(plan.ptrs, plan.layout, &plan.cols, cells))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Indexes a laid-out matrix and derives its statistics: every pair
    /// not stored is `DistinctLocs`.
    fn assemble(ptrs: Vec<ValueId>, layout: Layout, cols: &[u32], cells: Vec<u8>) -> Self {
        let mut pos = vec![NO_COLUMN; ptrs.iter().map(|p| p.index() + 1).max().unwrap_or(0)];
        for (p, &c) in ptrs.iter().zip(cols) {
            pos[p.index()] = c;
        }
        let id_width = bit_width(layout.blocks.len().saturating_sub(1));
        let ids = pack_bits(
            layout
                .blocks
                .iter()
                .enumerate()
                .flat_map(|(k, b)| std::iter::repeat_n(k as u32, b.len as usize)),
            layout.multi,
            id_width,
        );
        let mut by = [0usize; 4];
        for i in 0..layout.cells {
            by[get_packed(&cells, i) as usize] += 1;
        }
        let queries = tri(ptrs.len());
        let stats = QueryStats {
            queries,
            no_alias: queries - by[CELL_MAY as usize],
            by_distinct_locs: queries - layout.cells + by[CELL_DISTINCT as usize],
            by_global: by[CELL_GLOBAL as usize],
            by_local: by[CELL_LOCAL as usize],
        };
        AliasMatrix {
            pos: pos.into_boxed_slice(),
            cells: cells.into_boxed_slice(),
            ids: ids.into_boxed_slice(),
            id_width,
            layout,
            ptrs,
            stats,
        }
    }

    /// The pointer universe of the matrix, in value order.
    pub fn pointers(&self) -> &[ValueId] {
        &self.ptrs
    }

    /// The aggregate [`QueryStats`] of the all-pairs sweep (one
    /// Figure 13/14 row contribution).
    pub fn stats(&self) -> &QueryStats {
        &self.stats
    }

    /// The cached verdict for `p` vs `q` in `O(1)`; `None` when either
    /// value is outside the matrix's universe. `p == q` answers
    /// `MayAlias` like [`RbaaAnalysis::alias_with_test`].
    pub fn lookup(&self, p: ValueId, q: ValueId) -> Option<(AliasResult, Option<WhichTest>)> {
        let a = self.column(p)?;
        let b = self.column(q)?;
        if a == b {
            return Some((AliasResult::MayAlias, None));
        }
        let (hi, lo) = (a.max(b) as usize, a.min(b) as usize);
        Some(decode_cell(self.cell(hi, lo)))
    }

    /// The column of `p`, if it is in the pointer universe.
    #[inline]
    fn column(&self, p: ValueId) -> Option<u32> {
        self.pos.get(p.index()).copied().filter(|&c| c != NO_COLUMN)
    }

    /// The cell of columns `lo < hi`.
    #[inline]
    fn cell(&self, hi: usize, lo: usize) -> u8 {
        let l = &self.layout;
        if hi < l.multi {
            // Block 0 starts at column 0 and cell 0: most functions
            // have one block, and then neither table is read.
            let (start, off) = match get_bits(&self.ids, hi, self.id_width) {
                0 => (0, 0),
                b => {
                    let b = l.blocks[b as usize];
                    (b.start as usize, b.off)
                }
            };
            if lo < start {
                return CELL_DISTINCT;
            }
            get_packed(&self.cells, off + tri(hi - start) + lo - start)
        } else if hi >= l.regular && hi < l.regular + l.tops {
            get_packed(&self.cells, l.top_off + tri(hi) - tri(l.regular) + lo)
        } else {
            // A singleton's or a ⊥ pointer's pairs are never stored.
            CELL_DISTINCT
        }
    }

    /// Byte accounting of this matrix's storage (see [`MatrixBytes`]).
    pub fn bytes(&self) -> MatrixBytes {
        let pairs = tri(self.ptrs.len());
        MatrixBytes {
            pairs,
            packed_bytes: self.cells.len() + self.ids.len(),
            unpacked_bytes: pairs,
        }
    }

    /// The block code of column `col` (see [`Layout::new`]).
    fn code(&self, col: usize) -> u32 {
        let l = &self.layout;
        let nblocks = l.blocks.len() as u32;
        if col < l.multi {
            get_bits(&self.ids, col, self.id_width)
        } else if col < l.regular {
            nblocks
        } else if col < l.regular + l.tops {
            nblocks + 1
        } else {
            nblocks + 2
        }
    }
}

/// Activity counters of one [`DemandCache`] — how much of the pair
/// universe a query stream actually touched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DemandStats {
    /// Queries answered (including `p == q` shortcuts).
    pub queries: usize,
    /// Pointer states interned into signature classes (first sight of a
    /// `(f, value)`; repeats hit the per-pointer memo).
    pub sig_misses: usize,
    /// Signature-pair verdicts proved (first sight of an unordered
    /// signature pair; repeats hit the pair memo).
    pub pair_misses: usize,
}

/// Demand-driven alias queries: answers single `(f, p, q)` pairs
/// against the interned GR/LR states with per-signature-pair
/// memoisation — **no all-pairs matrix build**, and no per-function
/// support partition either.
///
/// Where [`AliasMatrix::build_for_on`] partitions a whole function and
/// proves every stored cell up front, a `DemandCache` interns each
/// pointer's state signature the first time a query mentions it and
/// proves each unordered signature pair the first time a query needs
/// it, with the same signature table and verdict kernel the matrix
/// builder uses; everything after that is two hash lookups. Verdicts
/// are byte-identical to [`RbaaAnalysis::alias_with_test`] (the
/// `demand_equivalence` rail pins this): the memo key fully determines
/// the inputs of the decision, so caching cannot change an answer.
///
/// The cache is valid only for the analysis it was created from; it
/// borrows nothing, so sessions drop and recreate it on rebuild.
pub struct DemandCache {
    prover: Prover,
    /// The GR module arena this cache was built over, to catch queries
    /// against a different analysis in debug builds.
    gr_base: Arc<ExprArena>,
    kinds: Vec<LocKind>,
    /// Signatures are shared across functions: equal signatures always
    /// produce equal verdicts.
    sigs: SigTable,
    /// Per-pointer signature memo.
    ptr_sig: FxHashMap<(FuncId, ValueId), u32>,
    /// Per-unordered-signature-pair verdict memo.
    pair_memo: FxHashMap<(u32, u32), u8>,
    stats: DemandStats,
}

impl std::fmt::Debug for DemandCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DemandCache")
            .field("signatures", &self.sigs.sigs.len())
            .field("pairs", &self.pair_memo.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl DemandCache {
    /// Starts an empty cache over `rbaa` (see
    /// [`RbaaAnalysis::demand_cache`]).
    pub fn new(rbaa: &RbaaAnalysis) -> Self {
        DemandCache {
            prover: Prover::new(rbaa),
            gr_base: rbaa.gr().arena_arc(),
            kinds: loc_kinds(rbaa),
            sigs: SigTable::default(),
            ptr_sig: FxHashMap::default(),
            pair_memo: FxHashMap::default(),
            stats: DemandStats::default(),
        }
    }

    /// Answers one query — byte-identical to
    /// [`RbaaAnalysis::alias_with_test`] on the same `rbaa`.
    ///
    /// `rbaa` must be the analysis this cache was created from (other
    /// analyses' states would be read against the wrong arenas; debug
    /// builds assert the arena identity).
    pub fn query(
        &mut self,
        rbaa: &RbaaAnalysis,
        f: FuncId,
        p: ValueId,
        q: ValueId,
    ) -> (AliasResult, Option<WhichTest>) {
        debug_assert!(
            Arc::ptr_eq(&self.gr_base, &rbaa.gr().arena_arc()),
            "demand cache queried against a different analysis"
        );
        self.stats.queries += 1;
        if p == q {
            return (AliasResult::MayAlias, None);
        }
        let a = self.sig_of(rbaa, f, p);
        let b = self.sig_of(rbaa, f, q);
        let key = if a <= b { (a, b) } else { (b, a) };
        // Split the borrows: the memo entry computation reads `sigs`
        // while mutating the overlay arenas.
        let DemandCache {
            prover,
            kinds,
            sigs,
            pair_memo,
            stats,
            ..
        } = self;
        let cell = *pair_memo.entry(key).or_insert_with(|| {
            stats.pair_misses += 1;
            prover.verdict(kinds, sigs.get(key.0), sigs.get(key.1))
        });
        decode_cell(cell)
    }

    /// The cache's activity counters.
    pub fn stats(&self) -> DemandStats {
        self.stats
    }

    /// The signature class of `(f, p)`, memoised per pointer.
    fn sig_of(&mut self, rbaa: &RbaaAnalysis, f: FuncId, p: ValueId) -> u32 {
        if let Some(&id) = self.ptr_sig.get(&(f, p)) {
            return id;
        }
        self.stats.sig_misses += 1;
        let id = self.sigs.intern(rbaa, f, p);
        self.ptr_sig.insert((f, p), id);
        id
    }
}
// ---------------------------------------------------------------------
// Persistence codecs (see [`crate::persist`]). They live here because
// `AliasMatrix` and `DemandCache` keep their internals private; every
// hash map is emitted in sorted order so saves are byte-deterministic,
// and every decoded id is validated before it is trusted.
// ---------------------------------------------------------------------

use crate::persist::{corrupt, Dec, Enc, PersistError};

impl AliasMatrix {
    /// Writes the number of blocks, every pointer's block code (value
    /// order, bit-packed) and the cell store. The pointer universe and
    /// the statistics are not written: the loader knows the one and
    /// recomputes the other.
    pub(crate) fn encode(&self, enc: &mut Enc) {
        let nblocks = self.layout.blocks.len();
        let width = bit_width(nblocks + 2);
        let codes = self
            .ptrs
            .iter()
            .map(|&p| self.code(self.pos[p.index()] as usize));
        enc.usize(nblocks);
        enc.bytes(&pack_bits(codes, self.ptrs.len(), width));
        enc.bytes(&self.cells);
    }

    /// Decodes a matrix over the pointer universe `ptrs` (the loader
    /// passes `pointer_values(m, f)`, which is what sessions build
    /// matrices over), validating the block codes, the cell-store
    /// length against the block sizes, and every padding bit.
    pub(crate) fn decode(dec: &mut Dec<'_>, ptrs: &[ValueId]) -> Result<Self, PersistError> {
        let n = ptrs.len();
        let nblocks = dec.usize()?;
        if nblocks > n / 2 {
            return Err(corrupt("matrix has more blocks than its pointers can fill"));
        }
        let width = bit_width(nblocks + 2);
        let packed = dec.bytes()?;
        let bits = n * width as usize;
        if packed.len() != bits.div_ceil(8) {
            return Err(corrupt("matrix block-id table has the wrong length"));
        }
        if !padding_clear(packed, bits) {
            return Err(corrupt("matrix block-id table has nonzero padding bits"));
        }
        let codes: Vec<u32> = (0..n).map(|i| get_bits(packed, i, width)).collect();
        let (layout, cols) = Layout::new(&codes, nblocks).map_err(corrupt)?;
        let cells = dec.bytes()?;
        if cells.len() != layout.cells.div_ceil(4) {
            return Err(corrupt("matrix cell store does not match its block sizes"));
        }
        if !padding_clear(cells, 2 * layout.cells) {
            return Err(corrupt("matrix cell store has nonzero padding bits"));
        }
        Ok(Self::assemble(ptrs.to_vec(), layout, &cols, cells.to_vec()))
    }
}

impl SigTable {
    /// Writes the σ-sets and signatures in id order.
    fn encode(&self, enc: &mut Enc) {
        // σ-sets by dense id (invert the interning map).
        let mut sigma_sets: Vec<&[ValueId]> = vec![&[]; self.sigma_ids.len()];
        for (set, &id) in &self.sigma_ids {
            sigma_sets[id as usize] = set;
        }
        enc.usize(sigma_sets.len());
        for set in &sigma_sets {
            enc.usize(set.len());
            for &v in *set {
                enc.u32(v.index() as u32);
            }
        }
        enc.usize(self.sigs.len());
        for sig in &self.sigs {
            match &sig.gr {
                IGr::Bottom => enc.u8(0),
                IGr::Top => enc.u8(1),
                IGr::Support(support) => {
                    enc.u8(2);
                    enc.usize(support.len());
                    for &(loc, r) in support {
                        enc.u32(loc.index() as u32);
                        enc.u32(r.index() as u32);
                    }
                }
            }
            match &sig.lr {
                None => enc.u8(0),
                Some(ilr) => {
                    enc.u8(1);
                    match ilr.base {
                        LocalBase::Fresh(s) => {
                            enc.u8(0);
                            enc.u32(s);
                        }
                        LocalBase::Global(g) => {
                            enc.u8(1);
                            enc.u32(g.index() as u32);
                        }
                    }
                    enc.opt_u32(ilr.block.map(|b| b.index() as u32));
                    enc.u32(ilr.sigmas);
                    enc.u32(ilr.range.index() as u32);
                }
            }
        }
    }

    /// Decodes a table over `rbaa` (every `RangeId`/`LocId` is validated
    /// against its arenas and location table).
    fn decode(dec: &mut Dec<'_>, rbaa: &RbaaAnalysis, m: &Module) -> Result<Self, PersistError> {
        let mut table = SigTable::default();
        let nlocs = rbaa.gr().locs().len();
        let gr_base = rbaa.gr().arena_arc();
        let lr_base = rbaa.lr().arena_arc();
        let n_sigma = dec.len(8)?;
        for id in 0..n_sigma {
            let len = dec.len(4)?;
            let mut set = Vec::with_capacity(len);
            for _ in 0..len {
                set.push(ValueId::new(dec.u32()? as usize));
            }
            if table.sigma_ids.insert(set, id as u32).is_some() {
                return Err(corrupt("duplicate σ-set in demand cache"));
            }
        }
        let n_sigs = dec.len(2)?;
        for id in 0..n_sigs {
            let gr = match dec.u8()? {
                0 => IGr::Bottom,
                1 => IGr::Top,
                2 => {
                    let len = dec.len(8)?;
                    let mut support = Vec::with_capacity(len);
                    let mut prev: Option<LocId> = None;
                    for _ in 0..len {
                        let loc = LocId::new(dec.u32()? as usize);
                        if loc.index() >= nlocs {
                            return Err(corrupt("signature references unknown location"));
                        }
                        if prev.is_some_and(|p| p.index() >= loc.index()) {
                            return Err(corrupt("signature support is not sorted"));
                        }
                        prev = Some(loc);
                        let r = gr_base
                            .range_id(dec.u32()? as usize)
                            .ok_or_else(|| corrupt("signature references unknown GR range"))?;
                        support.push((loc, r));
                    }
                    IGr::Support(support)
                }
                b => return Err(corrupt(format!("invalid GR-signature tag {b}"))),
            };
            let lr = match dec.u8()? {
                0 => None,
                1 => {
                    let base = match dec.u8()? {
                        0 => LocalBase::Fresh(dec.u32()?),
                        1 => {
                            let g = sra_ir::GlobalId::new(dec.u32()? as usize);
                            if g.index() >= m.num_globals() {
                                return Err(corrupt("signature references unknown global"));
                            }
                            LocalBase::Global(g)
                        }
                        b => return Err(corrupt(format!("invalid local-base tag {b}"))),
                    };
                    let block = dec.opt_u32()?.map(|b| BlockId::new(b as usize));
                    let sigmas = dec.u32()?;
                    if sigmas as usize >= n_sigma {
                        return Err(corrupt("signature references unknown σ-set"));
                    }
                    let range = lr_base
                        .range_id(dec.u32()? as usize)
                        .ok_or_else(|| corrupt("signature references unknown LR range"))?;
                    Some(ILr {
                        base,
                        block,
                        sigmas,
                        range,
                    })
                }
                b => return Err(corrupt(format!("invalid LR-signature tag {b}"))),
            };
            let sig = Sig { gr, lr };
            if table.ids.insert(sig.clone(), id as u32).is_some() {
                return Err(corrupt("duplicate signature in demand cache"));
            }
            table.sigs.push(sig);
        }
        Ok(table)
    }
}

impl DemandCache {
    pub(crate) fn encode(&self, enc: &mut Enc) {
        self.sigs.encode(enc);
        let mut ptr_sig: Vec<(u32, u32, u32)> = self
            .ptr_sig
            .iter()
            .map(|(&(f, v), &id)| (f.index() as u32, v.index() as u32, id))
            .collect();
        ptr_sig.sort_unstable();
        enc.usize(ptr_sig.len());
        for (f, v, id) in ptr_sig {
            enc.u32(f);
            enc.u32(v);
            enc.u32(id);
        }
        let mut pairs: Vec<(u32, u32, u8)> = self
            .pair_memo
            .iter()
            .map(|(&(a, b), &cell)| (a, b, cell))
            .collect();
        pairs.sort_unstable();
        enc.usize(pairs.len());
        for (a, b, cell) in pairs {
            enc.u32(a);
            enc.u32(b);
            enc.u8(cell);
        }
        enc.usize(self.stats.queries);
        enc.usize(self.stats.sig_misses);
        enc.usize(self.stats.pair_misses);
    }

    /// Decodes a cache over `rbaa` (which must be the loaded analysis —
    /// every `RangeId`/`LocId` is validated against its arenas). The
    /// overlay arenas restart empty: they are pure comparison memos, so
    /// verdicts are unaffected.
    pub(crate) fn decode(
        dec: &mut Dec<'_>,
        rbaa: &RbaaAnalysis,
        m: &Module,
    ) -> Result<Self, PersistError> {
        let mut cache = DemandCache::new(rbaa);
        cache.sigs = SigTable::decode(dec, rbaa, m)?;
        let n_sigs = cache.sigs.sigs.len();
        let n_ptr = dec.len(12)?;
        let mut prev: Option<(u32, u32)> = None;
        for _ in 0..n_ptr {
            let f = dec.u32()?;
            let v = dec.u32()?;
            let id = dec.u32()?;
            if prev.is_some_and(|p| p >= (f, v)) {
                return Err(corrupt("pointer-signature memo is not sorted"));
            }
            prev = Some((f, v));
            let func = FuncId::new(f as usize);
            if func.index() >= m.num_functions()
                || v as usize >= m.function(func).num_values()
                || id as usize >= n_sigs
            {
                return Err(corrupt("pointer-signature memo references unknown ids"));
            }
            cache.ptr_sig.insert((func, ValueId::new(v as usize)), id);
        }
        let n_pairs = dec.len(9)?;
        let mut prev: Option<(u32, u32)> = None;
        for _ in 0..n_pairs {
            let a = dec.u32()?;
            let b = dec.u32()?;
            let cell = dec.u8()?;
            if prev.is_some_and(|p| p >= (a, b)) {
                return Err(corrupt("pair memo is not sorted"));
            }
            prev = Some((a, b));
            if a > b || b as usize >= n_sigs || cell > 3 {
                return Err(corrupt("pair memo references unknown ids"));
            }
            cache.pair_memo.insert((a, b), cell);
        }
        cache.stats = DemandStats {
            queries: dec.usize()?,
            sig_misses: dec.usize()?,
            pair_misses: dec.usize()?,
        };
        Ok(cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sra_ir::{BinOp, Callee, CmpOp, FunctionBuilder};

    /// The matrix of `f` over its pointer values, on a pool of exactly
    /// `threads` workers.
    fn build_on(rbaa: &RbaaAnalysis, m: &Module, f: FuncId, threads: usize) -> AliasMatrix {
        let pool = pool::WorkerPool::forced(threads);
        AliasMatrix::build_for_on(rbaa, f, pointer_values(m, f), &pool)
    }

    /// The paper's Figure 1 end-to-end: the two stores write provably
    /// disjoint regions, disambiguated by the *global* test.
    #[test]
    fn figure1_global_disambiguation() {
        // main: Z = atoi(..); b = malloc(Z); s = malloc(strlen);
        //       prepare(b, Z, s)
        let mut m = Module::new();

        // prepare(p, N, mm):
        //   for (i = p, e = p + N; i < e; i += 2) { *i = 0; *(i+1) = 0xFF }
        //   for (f = e + strlen(m); i < f; i++) { *i = *m; m++ }
        let mut b = FunctionBuilder::new("prepare", &[Ty::Ptr, Ty::Int, Ty::Ptr], None);
        let p = b.param(0);
        let n = b.param(1);
        b.set_name(n, "N");
        let mptr = b.param(2);
        let h1 = b.create_block();
        let bd1 = b.create_block();
        let mid = b.create_block();
        let h2 = b.create_block();
        let bd2 = b.create_block();
        let exit = b.create_block();
        let zero = b.const_int(0);
        let i0 = b.ptr_add(p, zero);
        let e = b.ptr_add(p, n);
        let entry = b.entry_block();
        b.jump(h1);

        b.switch_to(h1);
        let i1 = b.phi(Ty::Ptr, &[(entry, i0)]);
        let c1 = b.cmp(CmpOp::Lt, i1, e);
        b.br(c1, bd1, mid);

        b.switch_to(bd1);
        // store *i = 0 — through the σ of i1 (inserted by essa).
        let ff = b.const_int(0xFF);
        b.store(i1, zero); // will be rewritten to σ(i1) by essa
        let one = b.const_int(1);
        let t0 = b.ptr_add(i1, one);
        b.store(t0, ff);
        let two = b.const_int(2);
        let i3 = b.ptr_add(i1, two);
        b.add_phi_arg(i1, bd1, i3);
        b.jump(h1);

        b.switch_to(mid);
        let len = b.call(Callee::External("strlen".into()), &[mptr], Some(Ty::Int));
        let f2 = b.ptr_add(e, len);
        b.jump(h2);

        b.switch_to(h2);
        let i5 = b.phi(Ty::Ptr, &[(mid, i1)]);
        let m1 = b.phi(Ty::Ptr, &[(mid, mptr)]);
        let c2 = b.cmp(CmpOp::Lt, i5, f2);
        b.br(c2, bd2, exit);

        b.switch_to(bd2);
        let ch = b.load(m1, Ty::Int);
        b.store(i5, ch);
        let m2 = b.ptr_add(m1, one);
        let i7 = b.ptr_add(i5, one);
        b.add_phi_arg(i5, bd2, i7);
        b.add_phi_arg(m1, bd2, m2);
        b.jump(h2);

        b.switch_to(exit);
        b.ret(None);
        let mut fprep = b.finish();
        sra_ir::essa::run(&mut fprep);
        sra_ir::verify::verify_function(&fprep, None).expect("verified");
        let prep = m.add_function(fprep);

        // main:
        let mut b = FunctionBuilder::new("main", &[], None);
        let z = b.call(Callee::External("atoi".into()), &[], Some(Ty::Int));
        let buf = b.malloc(z);
        let slen = b.call(Callee::External("strlen".into()), &[], Some(Ty::Int));
        let s = b.malloc(slen);
        b.call(Callee::Internal(prep), &[buf, z, s], None);
        b.ret(None);
        m.add_function(b.finish());

        sra_ir::verify::verify_module(&m).expect("module verified");
        let rbaa = RbaaAnalysis::analyze(&m);

        // The store addresses: σ(i1) in bd1 (first loop) and σ(i5) in
        // bd2 (second loop).
        let f = m.function(prep);
        let sig1 = f
            .value_ids()
            .find(|&v| {
                matches!(f.value(v).as_inst(),
                    Some(sra_ir::Inst::Sigma { input, op: CmpOp::Lt, .. }) if *input == i1)
            })
            .expect("σ(i1)");
        let sig2 = f
            .value_ids()
            .find(|&v| {
                matches!(f.value(v).as_inst(),
                    Some(sra_ir::Inst::Sigma { input, op: CmpOp::Lt, .. }) if *input == i5)
            })
            .expect("σ(i5)");

        let (res, test) = rbaa.alias_with_test(prep, sig1, sig2);
        assert_eq!(
            res,
            AliasResult::NoAlias,
            "stores at lines 6 and 10 are independent"
        );
        assert_eq!(test, Some(WhichTest::Global));

        // Complementarity: σ(i1) vs t0 = σ(i1)+1 overlaps globally
        // ([0,N-1] vs [1,N]) but the *local* test separates them within
        // an iteration — the Figure 4 situation.
        let (res, test) = rbaa.alias_with_test(prep, sig1, t0);
        assert_eq!(res, AliasResult::NoAlias);
        assert_eq!(test, Some(WhichTest::Local));
        // And the φ i1 vs its own σ may alias (same address).
        let (res, _) = rbaa.alias_with_test(prep, i1, sig1);
        assert_eq!(res, AliasResult::MayAlias);
    }

    /// The paper's Figure 3/4: tmp0 = p+i, tmp1 = p+i+1 — the global
    /// test fails but the local test separates them.
    #[test]
    fn figure3_local_disambiguation() {
        let mut b = FunctionBuilder::new("accelerate", &[Ty::Ptr, Ty::Int], None);
        let p = b.param(0);
        let n = b.param(1);
        b.set_name(n, "N");
        let head = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        let zero = b.const_int(0);
        let entry = b.entry_block();
        b.jump(head);
        b.switch_to(head);
        let i = b.phi(Ty::Int, &[(entry, zero)]);
        let c = b.cmp(CmpOp::Lt, i, n);
        b.br(c, body, exit);
        b.switch_to(body);
        let tmp0 = b.ptr_add(p, i);
        let one = b.const_int(1);
        let ip1 = b.binop(BinOp::Add, i, one);
        let tmp1 = b.ptr_add(p, ip1);
        let x = b.load(tmp0, Ty::Int);
        b.store(tmp0, x);
        let y = b.load(tmp1, Ty::Int);
        b.store(tmp1, y);
        let two = b.const_int(2);
        let i2 = b.binop(BinOp::Add, i, two);
        b.add_phi_arg(i, body, i2);
        b.jump(head);
        b.switch_to(exit);
        b.ret(None);
        let mut f = b.finish();
        f.set_exported(true);
        sra_ir::essa::run(&mut f);
        let mut m = Module::new();
        let fid = m.add_function(f);
        let rbaa = RbaaAnalysis::analyze(&m);

        let (res, test) = rbaa.alias_with_test(fid, tmp0, tmp1);
        assert_eq!(res, AliasResult::NoAlias);
        assert_eq!(
            test,
            Some(WhichTest::Local),
            "only the local test separates them"
        );
    }

    /// Distinct malloc sites never alias (global test).
    #[test]
    fn distinct_mallocs_no_alias() {
        let mut b = FunctionBuilder::new("main", &[], None);
        let ten = b.const_int(10);
        let p = b.malloc(ten);
        let q = b.malloc(ten);
        b.ret(None);
        let mut m = Module::new();
        let fid = m.add_function(b.finish());
        let rbaa = RbaaAnalysis::analyze(&m);
        let (res, test) = rbaa.alias_with_test(fid, p, q);
        assert_eq!(res, AliasResult::NoAlias);
        assert_eq!(test, Some(WhichTest::DistinctLocs));
    }

    /// Two pointer params of an exported function may alias — distinct
    /// Unknown locations never separate.
    #[test]
    fn unknown_params_may_alias() {
        let mut b = FunctionBuilder::new("api", &[Ty::Ptr, Ty::Ptr], None);
        let p = b.param(0);
        let q = b.param(1);
        b.ret(None);
        let mut f = b.finish();
        f.set_exported(true);
        let mut m = Module::new();
        let fid = m.add_function(f);
        let rbaa = RbaaAnalysis::analyze(&m);
        assert_eq!(rbaa.alias(fid, p, q), AliasResult::MayAlias);
        // But offsets from the *same* param are still separable.
        let mut b = FunctionBuilder::new("api2", &[Ty::Ptr], None);
        let p = b.param(0);
        let one = b.const_int(1);
        let a = b.ptr_add(p, one);
        let two = b.const_int(2);
        let c = b.ptr_add(p, two);
        b.ret(None);
        let mut f = b.finish();
        f.set_exported(true);
        let fid2 = m.add_function(f);
        let rbaa = RbaaAnalysis::analyze(&m);
        assert_eq!(rbaa.alias(fid2, a, c), AliasResult::NoAlias);
    }

    /// A loaded pointer (⊤) may alias everything.
    #[test]
    fn loaded_pointer_top() {
        let mut b = FunctionBuilder::new("main", &[], None);
        let ten = b.const_int(10);
        let p = b.malloc(ten);
        let q = b.load(p, Ty::Ptr);
        let r = b.malloc(ten);
        b.ret(None);
        let mut m = Module::new();
        let fid = m.add_function(b.finish());
        let rbaa = RbaaAnalysis::analyze(&m);
        assert_eq!(rbaa.alias(fid, q, r), AliasResult::MayAlias);
        assert_eq!(rbaa.alias(fid, q, p), AliasResult::MayAlias);
    }

    /// Freed pointers concretize to ∅.
    #[test]
    fn freed_pointer_no_alias() {
        let mut b = FunctionBuilder::new("main", &[], None);
        let ten = b.const_int(10);
        let p = b.malloc(ten);
        let dead = b.free(p);
        b.ret(None);
        let mut m = Module::new();
        let fid = m.add_function(b.finish());
        let rbaa = RbaaAnalysis::analyze(&m);
        assert_eq!(rbaa.alias(fid, dead, p), AliasResult::NoAlias);
    }

    /// QueryStats totals add up.
    #[test]
    fn query_stats_accumulate() {
        let mut b = FunctionBuilder::new("main", &[], None);
        let ten = b.const_int(10);
        let p = b.malloc(ten);
        let _q = b.malloc(ten);
        let one = b.const_int(1);
        let _p1 = b.ptr_add(p, one);
        b.ret(None);
        let mut m = Module::new();
        let fid = m.add_function(b.finish());
        let rbaa = RbaaAnalysis::analyze(&m);
        let ptrs = pointer_values(&m, fid);
        assert_eq!(ptrs.len(), 3);
        let stats = QueryStats::run_pairs(&rbaa, fid, &ptrs);
        assert_eq!(stats.queries, 3);
        // p vs q and p1 vs q are separated by sites (distinct locs);
        // p vs p1 share a loc with provably disjoint ranges (global).
        assert_eq!(stats.no_alias, 3);
        assert_eq!(stats.by_distinct_locs, 2);
        assert_eq!(stats.by_global, 1);
        assert!(stats.percent_no_alias() > 99.0);
    }

    /// Functions with zero pointer pairs — no pointers at all, or a
    /// single pointer — must produce an empty matrix and all-zero
    /// stats with finite percentages, not NaN or a panic.
    #[test]
    fn empty_and_single_pointer_functions_yield_empty_matrices() {
        // percent_no_alias at zero queries is 0.0, not NaN.
        let zero = QueryStats::default();
        assert_eq!(zero.queries, 0);
        assert_eq!(zero.percent_no_alias(), 0.0);
        assert!(zero.percent_no_alias().is_finite());

        let mut m = Module::new();
        // An addressless function: integers only.
        let mut b = FunctionBuilder::new("ints", &[Ty::Int], Some(Ty::Int));
        let n = b.param(0);
        let one = b.const_int(1);
        let n1 = b.binop(BinOp::Add, n, one);
        b.ret(Some(n1));
        let ints = m.add_function(b.finish());
        // A single-pointer function: one malloc, zero pairs.
        let mut b = FunctionBuilder::new("one_ptr", &[], None);
        let eight = b.const_int(8);
        let p = b.malloc(eight);
        b.ret(None);
        let one_ptr = m.add_function(b.finish());
        sra_ir::verify::verify_module(&m).expect("verifies");

        let rbaa = RbaaAnalysis::analyze(&m);
        for f in [ints, one_ptr] {
            let matrix = build_on(&rbaa, &m, f, 1);
            assert_eq!(matrix.stats().queries, 0, "{f}");
            assert_eq!(matrix.stats().no_alias, 0, "{f}");
            assert_eq!(matrix.stats().percent_no_alias(), 0.0, "{f}");
        }
        // The empty matrix answers lookups about outsiders with None…
        let matrix = build_on(&rbaa, &m, ints, 1);
        assert!(matrix.pointers().is_empty());
        assert_eq!(matrix.lookup(n, n1), None);
        // …and the single-pointer matrix still covers its diagonal.
        let matrix = build_on(&rbaa, &m, one_ptr, 1);
        assert_eq!(matrix.pointers(), &[p]);
        assert_eq!(matrix.lookup(p, p), Some((AliasResult::MayAlias, None)));
    }

    /// Regression (found by the pipeline deep fuzz): the local test
    /// must not compare offsets taken through *different* σs of the
    /// same φ. In `while (p < e) { *p = x; p = p + 1; }` the body's
    /// `p+1` (σ_< instance of iteration k) and the exit pointer (σ_≥
    /// instance after the last iteration) both read the loop-φ, but at
    /// different instants: with exactly one iteration both concretely
    /// equal `base+1`, so a `NoAlias` verdict would be unsound.
    #[test]
    fn sigma_instances_are_not_comparable_locally() {
        let mut b = FunctionBuilder::new("walk", &[], None);
        let size = b.const_int(8);
        let buf = b.malloc(size);
        let head = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        let one = b.const_int(1);
        let end = b.ptr_add(buf, one); // e = buf + 1: a single iteration
        let entry = b.current_block();
        b.jump(head);
        b.switch_to(head);
        let p = b.phi(Ty::Ptr, &[(entry, buf)]);
        let c = b.cmp(CmpOp::Lt, p, end);
        b.br(c, body, exit);
        b.switch_to(body);
        let zero = b.const_int(0);
        b.store(p, zero);
        let pnext = b.ptr_add(p, one);
        b.add_phi_arg(p, body, pnext);
        b.jump(head);
        b.switch_to(exit);
        b.ret(None);
        let mut f = b.finish();
        f.set_exported(true);
        sra_ir::essa::run(&mut f);
        let mut m = Module::new();
        let fid = m.add_function(f);
        sra_ir::verify::verify_module(&m).expect("verifies");

        let rbaa = RbaaAnalysis::analyze(&m);
        let f = m.function(fid);
        let exit_sigma = f
            .value_ids()
            .find(|&v| {
                matches!(f.value(v).as_inst(),
                    Some(sra_ir::Inst::Sigma { input, op: CmpOp::Ge, .. }) if *input == p)
            })
            .expect("exit σ of the loop φ");
        // `pnext` was rewritten by e-SSA to add from the body σ; its LR
        // offset is [1,1] while the exit σ's is [0,0] — yet both can be
        // `buf+1` at run time. The σ-chain guard must reject the pair.
        assert_eq!(
            rbaa.alias(fid, pnext, exit_sigma),
            AliasResult::MayAlias,
            "offsets from different σ instances of one φ are incomparable"
        );
    }

    /// A module whose pointers exercise every cell code: distinct
    /// mallocs (DistinctLocs), same-base disjoint offsets (Global),
    /// a loaded pointer (⊤ → MayAlias) and a freed one (⊥).
    fn mixed_pointer_module() -> (Module, FuncId) {
        let mut b = FunctionBuilder::new("mixed", &[], None);
        let ten = b.const_int(10);
        let p = b.malloc(ten);
        let q = b.malloc(ten);
        for off in 0..6 {
            let c = b.const_int(off);
            let base = if off % 2 == 0 { p } else { q };
            let _ = b.ptr_add(base, c);
        }
        let _top = b.load(p, Ty::Ptr);
        let _dead = b.free(q);
        b.ret(None);
        let mut m = Module::new();
        let fid = m.add_function(b.finish());
        sra_ir::verify::verify_module(&m).expect("verifies");
        (m, fid)
    }

    /// Every shape of the support partition, in two functions plus
    /// [`mixed_pointer_module`]'s: `solo` is `main`-shaped (each
    /// pointer from its own `malloc`, so every pair is implicit);
    /// `edges` puts an `Unknown` parameter and two distinct `Global`
    /// sites into one block, bridges two `malloc` blocks with a φ whose
    /// support spans both, and adds a ⊤ row, a ⊥ pointer and a
    /// singleton.
    fn partition_edge_module() -> (Module, FuncId, FuncId) {
        let mut m = Module::new();
        let g1 = m.add_global("g1", 16);
        let g2 = m.add_global("g2", 16);

        let mut b = FunctionBuilder::new("solo", &[], None);
        let ten = b.const_int(10);
        for _ in 0..12 {
            b.malloc(ten);
        }
        b.ret(None);
        let solo = m.add_function(b.finish());

        let mut b = FunctionBuilder::new("edges", &[Ty::Ptr, Ty::Int], None);
        let unknown = b.param(0);
        let n = b.param(1);
        let ten = b.const_int(10);
        let one = b.const_int(1);
        let _u1 = b.ptr_add(unknown, one);
        let a = b.global_addr(g1, Ty::Ptr);
        let _a1 = b.ptr_add(a, one);
        let _g = b.global_addr(g2, Ty::Ptr);
        let x = b.malloc(ten);
        let _x1 = b.ptr_add(x, one);
        let y = b.malloc(ten);
        let _y1 = b.ptr_add(y, one);
        let then = b.create_block();
        let other = b.create_block();
        let join = b.create_block();
        let c = b.cmp(CmpOp::Lt, n, ten);
        b.br(c, then, other);
        b.switch_to(then);
        b.jump(join);
        b.switch_to(other);
        b.jump(join);
        b.switch_to(join);
        let xy = b.phi(Ty::Ptr, &[(then, x), (other, y)]);
        let _xy1 = b.ptr_add(xy, one);
        let _top = b.load(x, Ty::Ptr);
        let _dead = b.free(y);
        let _alone = b.malloc(ten);
        b.ret(None);
        let mut f = b.finish();
        f.set_exported(true);
        let edges = m.add_function(f);
        sra_ir::verify::verify_module(&m).expect("verifies");
        (m, solo, edges)
    }

    /// Every function of the partition fixtures, with its module.
    fn partition_fixtures() -> Vec<(Module, FuncId)> {
        let (mixed, f) = mixed_pointer_module();
        let (edges, solo, edge) = partition_edge_module();
        vec![(mixed, f), (edges.clone(), solo), (edges, edge)]
    }

    /// Block-diagonal storage answers every pair exactly like the
    /// uncached reference, its statistics equal the reference sweep's,
    /// and only blocks and ⊤ rows store cells.
    #[test]
    fn partitioned_matrix_matches_reference_on_every_shape() {
        for (m, f) in partition_fixtures() {
            let rbaa = RbaaAnalysis::analyze(&m);
            let ptrs = pointer_values(&m, f);
            let matrix = build_on(&rbaa, &m, f, 1);
            assert_eq!(
                *matrix.stats(),
                QueryStats::run_pairs(&rbaa, f, &ptrs),
                "{f}"
            );
            for &p in &ptrs {
                for &q in &ptrs {
                    assert_eq!(
                        matrix.lookup(p, q),
                        Some(rbaa.alias_with_test(f, p, q)),
                        "{f}: {p} vs {q}"
                    );
                }
            }
        }

        let (m, solo, edges) = partition_edge_module();
        let rbaa = RbaaAnalysis::analyze(&m);
        // `main`-shaped: nothing stored, yet every pair answered.
        let matrix = build_on(&rbaa, &m, solo, 2);
        assert_eq!(matrix.layout.cells, 0);
        assert_eq!(matrix.bytes().packed_bytes, 0);
        assert_eq!(matrix.bytes().pairs, 66);
        assert_eq!(matrix.bytes().saving_ratio(), f64::INFINITY);
        assert_eq!(matrix.stats().by_distinct_locs, 66);

        // `edges`: the Unknown/Global block {u, u+1, g1, g1+1, g2}, the
        // bridged block {x, x+1, y, y+1, xy, xy+1}, the singleton, one
        // ⊤ row over the 12 non-⊥ pointers, and the ⊥ pointer.
        let matrix = build_on(&rbaa, &m, edges, 2);
        let l = &matrix.layout;
        let mut lens: Vec<u32> = l.blocks.iter().map(|b| b.len).collect();
        lens.sort_unstable();
        assert_eq!(lens, [5, 6]);
        assert_eq!((l.multi, l.regular, l.tops), (11, 12, 1));
        assert_eq!(l.cells, tri(5) + tri(6) + 12);
        assert_eq!(matrix.ptrs.len(), 14);
    }

    /// The tiled parallel build must be byte-identical to the serial
    /// one: same verdicts on every pair, same stats, same byte layout.
    #[test]
    fn parallel_build_matches_serial() {
        for (m, fid) in partition_fixtures() {
            let rbaa = RbaaAnalysis::analyze(&m);
            let ptrs = pointer_values(&m, fid);
            let serial = build_on(&rbaa, &m, fid, 1);
            for threads in [2, 4, 7] {
                let tiled = build_on(&rbaa, &m, fid, threads);
                assert_eq!(serial.stats(), tiled.stats(), "t{threads}");
                assert_eq!(serial.bytes(), tiled.bytes(), "t{threads}");
                assert_eq!(serial.cells, tiled.cells, "t{threads}");
                assert_eq!(serial.ids, tiled.ids, "t{threads}");
                for &p in &ptrs {
                    for &q in &ptrs {
                        assert_eq!(serial.lookup(p, q), tiled.lookup(p, q));
                    }
                }
            }
        }
    }

    /// The module-sweep build (cells of many functions tiled together,
    /// scratch overlays reused across every function of a tile) must
    /// be cell-for-cell identical to per-function builds — memoisation
    /// carried across functions can never change a verdict, at any
    /// pool width.
    #[test]
    fn build_all_matches_per_function_builds() {
        let mut m = Module::new();
        let mut fids = Vec::new();
        for i in 0..5 {
            let mut b = FunctionBuilder::new(&format!("f{i}"), &[Ty::Int], None);
            let n = b.param(0);
            let p = b.malloc(n);
            let q = b.malloc(n);
            for off in 0..4 {
                let c = b.const_int(off + i);
                let base = if off % 2 == 0 { p } else { q };
                let _ = b.ptr_add(base, c);
            }
            let _top = b.load(p, Ty::Ptr);
            b.ret(None);
            fids.push(m.add_function(b.finish()));
        }
        sra_ir::verify::verify_module(&m).expect("verifies");
        let rbaa = RbaaAnalysis::analyze(&m);
        let reference: Vec<AliasMatrix> = fids.iter().map(|&f| build_on(&rbaa, &m, f, 1)).collect();
        for threads in [1, 2, 4] {
            let pool = pool::WorkerPool::forced(threads);
            let swept = AliasMatrix::build_all_on(&rbaa, &m, &pool);
            assert_eq!(swept.len(), reference.len(), "t{threads}");
            for (serial, sweep) in reference.iter().zip(&swept) {
                assert_eq!(serial.stats(), sweep.stats(), "t{threads}");
                assert_eq!(serial.cells, sweep.cells, "t{threads}");
                assert_eq!(serial.ptrs, sweep.ptrs, "t{threads}");
            }
        }
    }

    /// Cells pack four verdicts per byte, block ids pack into as few
    /// bits as the block count needs, and the accounting counts both.
    #[test]
    fn packed_cells_quarter_the_bytes() {
        let (m, fid) = mixed_pointer_module();
        let rbaa = RbaaAnalysis::analyze(&m);
        let matrix = build_on(&rbaa, &m, fid, 1);
        let n = matrix.pointers().len();
        let pairs = n * (n - 1) / 2;
        let bytes = matrix.bytes();
        assert_eq!(bytes.pairs, pairs);
        assert_eq!(bytes.unpacked_bytes, pairs);
        // Blocks {p, p+0, p+2, p+4} and {q, q+1, q+3, q+5} (one id bit
        // each, one byte in all) plus the ⊤ row over those eight.
        assert_eq!(matrix.layout.blocks.len(), 2);
        assert_eq!(matrix.layout.cells, 6 + 6 + 8);
        assert_eq!(bytes.packed_bytes, 20usize.div_ceil(4) + 1);
        assert!(bytes.saving_ratio() >= 3.0, "{:?}", bytes);
        let mut total = MatrixBytes::default();
        total.merge(&bytes);
        total.merge(&bytes);
        assert_eq!(total.pairs, 2 * pairs);
        assert_eq!(MatrixBytes::default().saving_ratio(), 0.0);
    }

    /// Bit-packed tables read back what was written at every width.
    #[test]
    fn bit_tables_roundtrip() {
        for width in [0, 1, 2, 3, 7, 13, 32] {
            let max = if width == 0 {
                0
            } else {
                u32::MAX >> (32 - width)
            };
            let values: Vec<u32> = (0..40u32)
                .map(|i| i.wrapping_mul(2_654_435_761) & max)
                .collect();
            let packed = pack_bits(values.iter().copied(), values.len(), width);
            assert!(padding_clear(&packed, values.len() * width as usize));
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(get_bits(&packed, i, width), v, "width {width}, value {i}");
            }
        }
        for t in 0..200 {
            let h = tri_row(t);
            assert!(tri(h) <= t && t < tri(h + 1), "{t}");
        }
    }

    /// Demand-driven answers are byte-identical to the uncached
    /// reference, and repeats hit the memo instead of re-proving.
    #[test]
    fn demand_cache_matches_reference_and_memoises() {
        for (m, fid) in partition_fixtures() {
            let rbaa = RbaaAnalysis::analyze(&m);
            let ptrs = pointer_values(&m, fid);
            let mut cache = rbaa.demand_cache();
            for &p in &ptrs {
                for &q in &ptrs {
                    assert_eq!(
                        cache.query(&rbaa, fid, p, q),
                        rbaa.alias_with_test(fid, p, q)
                    );
                }
            }
            let stats = cache.stats();
            assert_eq!(stats.queries, ptrs.len() * ptrs.len());
            assert_eq!(stats.sig_misses, ptrs.len());
            // Pair verdicts are proved per signature class, not per pair.
            let s = stats.sig_misses;
            assert!(stats.pair_misses <= s * (s + 1) / 2);
            // A repeat query is pure memo traffic.
            let before = cache.stats();
            cache.query(&rbaa, fid, ptrs[0], ptrs[1]);
            let after = cache.stats();
            assert_eq!(after.sig_misses, before.sig_misses);
            assert_eq!(after.pair_misses, before.pair_misses);
            assert_eq!(after.queries, before.queries + 1);
        }
    }

    /// A single cold query proves only the one signature pair it
    /// needs — the "no full matrix build" property of demand mode.
    #[test]
    fn demand_single_query_touches_one_pair() {
        let (m, fid) = mixed_pointer_module();
        let rbaa = RbaaAnalysis::analyze(&m);
        let ptrs = pointer_values(&m, fid);
        let mut cache = rbaa.demand_cache();
        let (p, q) = (ptrs[0], ptrs[1]);
        assert_eq!(
            cache.query(&rbaa, fid, p, q),
            rbaa.alias_with_test(fid, p, q)
        );
        let stats = cache.stats();
        assert_eq!(stats.sig_misses, 2, "only the two queried pointers");
        assert_eq!(stats.pair_misses, 1, "only the one queried pair");
    }

    /// Regression (code review of the σ-chain fix): the instance
    /// confusion also flows through *integer* σs. In
    /// `for (i = 0; i < n; i++) *(p+i) = 0; *(p + (i-1)) = 1;` the
    /// body store uses σ_<(i) (iteration k) and the post-loop store
    /// uses σ_≥(i) − 1 (after the last iteration); with one iteration
    /// both are `p+0`, so ranges [i,i] vs [i−1,i−1] must not be
    /// compared even though no pointer-typed σ is involved.
    #[test]
    fn int_sigma_instances_are_not_comparable_locally() {
        let mut b = FunctionBuilder::new("tail", &[Ty::Ptr, Ty::Int], None);
        let p = b.param(0);
        let n = b.param(1);
        let head = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        let zero = b.const_int(0);
        let entry = b.current_block();
        b.jump(head);
        b.switch_to(head);
        let i = b.phi(Ty::Int, &[(entry, zero)]);
        let c = b.cmp(CmpOp::Lt, i, n);
        b.br(c, body, exit);
        b.switch_to(body);
        let body_addr = b.ptr_add(p, i); // i rewritten to σ_<(i) by e-SSA
        b.store(body_addr, zero);
        let one = b.const_int(1);
        let inext = b.binop(BinOp::Add, i, one);
        b.add_phi_arg(i, body, inext);
        b.jump(head);
        b.switch_to(exit);
        let neg_one = b.const_int(-1);
        let im1 = b.binop(BinOp::Add, i, neg_one); // σ_≥(i) − 1
        let tail_addr = b.ptr_add(p, im1);
        b.store(tail_addr, one);
        b.ret(None);
        let mut f = b.finish();
        f.set_exported(true);
        sra_ir::essa::run(&mut f);
        let mut m = Module::new();
        let fid = m.add_function(f);
        sra_ir::verify::verify_module(&m).expect("verifies");

        let rbaa = RbaaAnalysis::analyze(&m);
        assert_eq!(
            rbaa.alias(fid, body_addr, tail_addr),
            AliasResult::MayAlias,
            "offsets through different int-σ instances are incomparable"
        );
    }
}
