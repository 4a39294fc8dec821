//! Cross-chain hazard analysis over MRF tile intervals.
//!
//! Matrix chains (`m_rd` → `m_wr`) stream `rows × cols` tiles into the
//! matrix register file while earlier `mv_mul`s may still be draining
//! them — the double-buffered DRAM weight streaming pattern of §IV. The
//! simulator serializes such overlaps at run time (`mrf_read_until`);
//! statically they are worth surfacing, and two neighbouring conditions
//! are outright bugs:
//!
//! * **BW020** (info) — an `m_wr` overwrites tiles a previous `mv_mul`
//!   read: the legal double-buffer serialization point.
//! * **BW021** (warning) — tiles are loaded but overwritten (or the
//!   program ends) before any `mv_mul` reads them: the load is dead.
//! * **BW022** (error) — an `mv_mul` reads tiles never loaded by the
//!   program nor declared host-preloaded: the product is computed from
//!   power-on zeros.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use crate::config::NpuConfig;
use crate::isa::{Instruction, Item, MemId, Program};

use super::{format_ranges, walk, AnalysisOptions, DiagCode, Diagnostic};

/// MRF tile ranges a chain touches: `mv_mul` reads, `m_wr(MatrixRf)`
/// writes, both `rows × cols` tiles wide.
enum TileAccess {
    Read { start: u32, count: u32 },
    Write { start: u32, count: u32 },
}

fn tile_accesses(item: &Item, rows: u32, cols: u32) -> Option<TileAccess> {
    let Item::Chain(chain) = item else {
        return None;
    };
    let count = rows.saturating_mul(cols);
    for instr in chain.instructions() {
        match *instr {
            Instruction::MvMul { mrf_index } => {
                return Some(TileAccess::Read {
                    start: mrf_index,
                    count,
                })
            }
            Instruction::MWr {
                mem: MemId::MatrixRf,
                index,
            } => {
                return Some(TileAccess::Write {
                    start: index,
                    count,
                })
            }
            _ => {}
        }
    }
    None
}

struct LoadRec {
    segment: usize,
    item: usize,
    read: bool,
}

/// BW020–BW022: RAW/WAR/WAW interval analysis over MRF tiles.
pub(super) fn check(
    program: &Program,
    config: &NpuConfig,
    options: &AnalysisOptions,
    out: &mut Vec<Diagnostic>,
) {
    // Per-tile tracking is clamped to the MRF capacity: tiles past the
    // end are the capacity check's BW003 territory, and clamping keeps
    // corrupt (e.g. bit-flipped) programs from inflating the tile sets.
    let cap = config.mrf_entries();
    let clamp = move |start: u32, count: u32| start.min(cap)..start.saturating_add(count).min(cap);

    let preloaded: HashSet<u32> = options
        .preloaded
        .iter()
        .filter(|r| r.mem == MemId::MatrixRf)
        .flat_map(|r| clamp(r.start, r.len))
        .collect();

    // Phase 0: tiles the whole program ever reads.
    let mut ever_read: HashSet<u32> = HashSet::new();
    walk(program, |step| {
        if let Some(TileAccess::Read { start, count }) =
            tile_accesses(step.item_ref, step.rows, step.cols)
        {
            ever_read.extend(clamp(start, count));
        }
    });

    // Phase 1: interval walk. `loaded` tracks program loads, keyed per
    // tile; `last_reader` the most recent mv_mul over each tile, reset
    // on overwrite so repeated streaming reports each WAR site once.
    let mut loaded: HashMap<u32, LoadRec> = HashMap::new();
    let mut last_reader: HashMap<u32, (usize, usize)> = HashMap::new();
    let mut uninit: BTreeMap<(usize, usize), BTreeSet<u32>> = BTreeMap::new();
    let mut dead: BTreeMap<(usize, usize), BTreeSet<u32>> = BTreeMap::new();
    let mut war: BTreeMap<(usize, usize), BTreeSet<u32>> = BTreeMap::new();
    walk(program, |step| {
        match tile_accesses(step.item_ref, step.rows, step.cols) {
            Some(TileAccess::Read { start, count }) => {
                for t in clamp(start, count) {
                    if let Some(rec) = loaded.get_mut(&t) {
                        rec.read = true;
                    } else if !preloaded.contains(&t) && step.unroll == 0 {
                        uninit
                            .entry((step.segment, step.item))
                            .or_default()
                            .insert(t);
                    }
                    last_reader.insert(t, (step.segment, step.item));
                }
            }
            Some(TileAccess::Write { start, count }) => {
                for t in clamp(start, count) {
                    if last_reader.remove(&t).is_some() {
                        war.entry((step.segment, step.item)).or_default().insert(t);
                    }
                    let rec = LoadRec {
                        segment: step.segment,
                        item: step.item,
                        read: false,
                    };
                    if let Some(prev) = loaded.insert(t, rec) {
                        if !prev.read {
                            dead.entry((prev.segment, prev.item)).or_default().insert(t);
                        }
                    }
                }
            }
            None => {}
        }
    });

    // Loads that survive to the end unread, with the tile unread
    // program-wide, are dead.
    for (t, rec) in &loaded {
        if !rec.read && !ever_read.contains(t) {
            dead.entry((rec.segment, rec.item)).or_default().insert(*t);
        }
    }

    for ((segment, item), tiles) in uninit {
        out.push(Diagnostic::new(
            DiagCode::MrfUninitializedRead,
            segment,
            item,
            format!(
                "mv_mul reads MRF tiles {} never loaded by the program and \
                 not declared host-preloaded",
                format_ranges(tiles)
            ),
        ));
    }
    for ((segment, item), tiles) in dead {
        out.push(Diagnostic::new(
            DiagCode::MrfDeadLoad,
            segment,
            item,
            format!(
                "MRF tiles {} loaded here are overwritten or unused before \
                 any mv_mul reads them",
                format_ranges(tiles)
            ),
        ));
    }
    for ((segment, item), tiles) in war {
        out.push(Diagnostic::new(
            DiagCode::MrfWriteAfterRead,
            segment,
            item,
            format!(
                "m_wr overwrites MRF tiles {} previously read by mv_mul; the \
                 double-buffered stream serializes here until the read drains",
                format_ranges(tiles)
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use crate::analysis::{analyze_with, AnalysisOptions, DiagCode, Severity};
    use crate::config::NpuConfig;
    use crate::isa::{MemId, ProgramBuilder};

    fn cfg() -> NpuConfig {
        NpuConfig::builder()
            .native_dim(8)
            .lanes(4)
            .tile_engines(2)
            .mfus(2)
            .mrf_entries(16)
            .vrf_entries(32)
            .build()
            .unwrap()
    }

    fn base_options() -> AnalysisOptions {
        AnalysisOptions {
            netq_input_matrices: Some(1_000),
            ..AnalysisOptions::default()
        }
        .with_input_vectors(1_000)
        .preload(MemId::InitialVrf, 0, 32)
    }

    #[test]
    fn mv_mul_of_unloaded_tiles_is_an_error() {
        let mut b = ProgramBuilder::new();
        b.set_rows(2).set_cols(2);
        b.v_rd(MemId::InitialVrf, 0)
            .mv_mul(0)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        let report = analyze_with(&b.build(), &cfg(), base_options());
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == DiagCode::MrfUninitializedRead)
            .expect("BW022 expected");
        assert_eq!(d.severity, Severity::Error);
        assert!(d.message.contains("[0..4]"), "{}", d.message);
    }

    #[test]
    fn streamed_then_multiplied_tiles_are_initialized() {
        let mut b = ProgramBuilder::new();
        b.set_rows(2).set_cols(2);
        b.m_rd(MemId::NetQ, 0)
            .m_wr(MemId::MatrixRf, 0)
            .end_chain()
            .unwrap();
        b.v_rd(MemId::InitialVrf, 0)
            .mv_mul(0)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        let report = analyze_with(&b.build(), &cfg(), base_options());
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn double_buffered_overwrite_is_an_info_serialization_point() {
        let mut b = ProgramBuilder::new();
        b.set_rows(2).set_cols(2);
        b.begin_loop(3).unwrap();
        b.m_rd(MemId::NetQ, 0)
            .m_wr(MemId::MatrixRf, 0)
            .end_chain()
            .unwrap();
        b.v_rd(MemId::InitialVrf, 0)
            .mv_mul(0)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        b.end_loop().unwrap();
        let report = analyze_with(&b.build(), &cfg(), base_options());
        let war: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == DiagCode::MrfWriteAfterRead)
            .collect();
        assert_eq!(war.len(), 1, "{report}");
        assert_eq!((war[0].segment, war[0].item), (1, 0));
        assert!(report.is_clean(), "infos only: {report}");
    }

    #[test]
    fn overwritten_unread_load_is_a_dead_load() {
        let mut b = ProgramBuilder::new();
        b.set_rows(2).set_cols(2);
        b.m_rd(MemId::NetQ, 0)
            .m_wr(MemId::MatrixRf, 0)
            .end_chain()
            .unwrap();
        b.m_rd(MemId::NetQ, 0)
            .m_wr(MemId::MatrixRf, 2)
            .end_chain()
            .unwrap();
        b.v_rd(MemId::InitialVrf, 0)
            .mv_mul(2)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        let report = analyze_with(&b.build(), &cfg(), base_options());
        let dead: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == DiagCode::MrfDeadLoad)
            .collect();
        assert_eq!(dead.len(), 1, "{report}");
        // Tiles 2..4 of the first load are overwritten unread; tiles 0..2
        // are never multiplied at all. All four anchor at the first load.
        assert_eq!((dead[0].segment, dead[0].item), (0, 2));
        assert!(dead[0].message.contains("[0..4]"), "{}", dead[0].message);
    }
}
