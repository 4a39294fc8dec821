//! Chain-shape lints: suspicious but structurally legal chains.
//!
//! * **BW040** (warning) — an `mv_mul` executes while `rows`/`cols` still
//!   hold the power-on 1×1 default: the matrix-vector unit multiplies a
//!   single native tile, which is almost never what firmware means.
//! * **BW041** (warning) — an operation is an identity on its input
//!   (e.g. `v_relu` directly after `v_relu` or `v_sigm`).
//! * **BW042** (warning) — two multicast writes in one chain cover
//!   overlapping destination ranges; the later write wins and the earlier
//!   one is wasted bandwidth.
//! * **BW043** (warning) — a chain with an `mv_mul` reads and writes
//!   overlapping ranges of the same memory at different widths (`cols`
//!   native vectors in, `rows` out): an aliasing width mismatch.

use crate::config::NpuConfig;
use crate::isa::{Chain, Instruction, Item, MemId, Opcode, Program};

use super::{walk, AnalysisOptions, DiagCode, Diagnostic, Step};

fn overlaps(a: u32, a_w: u32, b: u32, b_w: u32) -> bool {
    u64::from(a) < u64::from(b) + u64::from(b_w) && u64::from(b) < u64::from(a) + u64::from(a_w)
}

fn check_chain(step: &Step<'_>, chain: &Chain, out: &mut Vec<Diagnostic>) {
    let (segment, item) = (step.segment, step.item);
    let (w_in, w_out) = chain.widths(step.rows, step.cols);

    if chain.has_mv_mul() && !step.tiling_set {
        out.push(Diagnostic::new(
            DiagCode::DefaultTiling,
            segment,
            item,
            "mv_mul executes with the power-on 1x1 tiling; neither rows nor \
             cols has been set"
                .into(),
        ));
    }

    // Redundant identity ops: relu of an already non-negative value.
    for pair in chain.instructions().windows(2) {
        let prev = pair[0].opcode();
        if pair[1].opcode() == Opcode::VRelu && matches!(prev, Opcode::VRelu | Opcode::VSigm) {
            out.push(Diagnostic::new(
                DiagCode::RedundantOp,
                segment,
                item,
                format!(
                    "v_relu after {} is an identity: its input is already \
                     non-negative",
                    prev.mnemonic()
                ),
            ));
        }
    }

    // Destination overlap among the chain's multicast writes, and between
    // any write and the (differently sized) source range of an mv_mul
    // chain.
    let src = chain.instructions().first().and_then(|i| match *i {
        Instruction::VRd { mem, index } if mem.is_vrf() => Some((mem, index)),
        _ => None,
    });
    let mut writes: Vec<(MemId, u32)> = Vec::new();
    for instr in chain.instructions() {
        let Instruction::VWr { mem, index } = *instr else {
            continue;
        };
        if mem != MemId::NetQ {
            for &(pmem, pindex) in &writes {
                if pmem == mem && overlaps(pindex, w_out, index, w_out) {
                    out.push(Diagnostic::new(
                        DiagCode::OverlappingMulticast,
                        segment,
                        item,
                        format!(
                            "multicast writes v_wr({mem}, {pindex}) and \
                             v_wr({mem}, {index}) overlap at width {w_out}; \
                             the later write wins"
                        ),
                    ));
                }
            }
            if chain.has_mv_mul() && w_in != w_out {
                if let Some((smem, sindex)) = src {
                    if smem == mem && overlaps(sindex, w_in, index, w_out) {
                        out.push(Diagnostic::new(
                            DiagCode::AliasedChainIo,
                            segment,
                            item,
                            format!(
                                "chain reads {mem}[{sindex}..{}] at width cols={w_in} \
                                 but writes the overlapping {mem}[{index}..{}] at \
                                 width rows={w_out}",
                                u64::from(sindex) + u64::from(w_in),
                                u64::from(index) + u64::from(w_out),
                            ),
                        ));
                    }
                }
            }
            writes.push((mem, index));
        }
    }
}

/// BW040–BW043: chain-shape lints.
pub(super) fn check(
    program: &Program,
    _: &NpuConfig,
    _: &AnalysisOptions,
    out: &mut Vec<Diagnostic>,
) {
    walk(program, |step| {
        if step.unroll > 0 {
            return;
        }
        if let Item::Chain(chain) = step.item_ref {
            check_chain(step, chain, out);
        }
    });
}

#[cfg(test)]
mod tests {
    use crate::analysis::{analyze_with, AnalysisOptions, DiagCode};
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

    fn options() -> AnalysisOptions {
        AnalysisOptions::default()
            .with_input_vectors(1_000)
            .preload(MemId::InitialVrf, 0, 32)
            .preload(MemId::MatrixRf, 0, 16)
    }

    #[test]
    fn mv_mul_with_default_tiling_warns() {
        let mut b = ProgramBuilder::new();
        b.v_rd(MemId::NetQ, 0)
            .mv_mul(0)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        let report = analyze_with(&b.build(), &cfg(), options());
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == DiagCode::DefaultTiling)
            .expect("BW040 expected");
        assert_eq!((d.segment, d.item), (0, 0));
    }

    #[test]
    fn relu_after_sigmoid_is_redundant() {
        let mut b = ProgramBuilder::new();
        b.set_rows(1);
        b.v_rd(MemId::NetQ, 0)
            .v_sigm()
            .v_relu()
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        let report = analyze_with(&b.build(), &cfg(), options());
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code == DiagCode::RedundantOp),
            "{report}"
        );
    }

    #[test]
    fn overlapping_multicast_destinations_warn() {
        let mut b = ProgramBuilder::new();
        b.set_rows(4);
        b.v_rd(MemId::NetQ, 0)
            .v_wr(MemId::InitialVrf, 8)
            .v_wr(MemId::InitialVrf, 10) // 10..14 overlaps 8..12
            .end_chain()
            .unwrap();
        // A second chain reads both ranges so liveness stays quiet.
        b.v_rd(MemId::InitialVrf, 8)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        b.v_rd(MemId::InitialVrf, 10)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        let report = analyze_with(&b.build(), &cfg(), options());
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == DiagCode::OverlappingMulticast)
            .expect("BW042 expected");
        assert_eq!((d.segment, d.item), (0, 1));
    }

    #[test]
    fn aliased_mv_mul_io_warns_on_width_mismatch() {
        let mut b = ProgramBuilder::new();
        b.set_rows(2).set_cols(4);
        b.v_rd(MemId::InitialVrf, 4) // reads 4..8 at width cols=4
            .mv_mul(0)
            .v_wr(MemId::InitialVrf, 6) // writes 6..8 at width rows=2
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        b.v_rd(MemId::InitialVrf, 6)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        let report = analyze_with(&b.build(), &cfg(), options());
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code == DiagCode::AliasedChainIo),
            "{report}"
        );
    }

    #[test]
    fn disjoint_multicast_is_quiet() {
        let mut b = ProgramBuilder::new();
        b.set_rows(2);
        b.v_rd(MemId::NetQ, 0)
            .v_wr(MemId::InitialVrf, 8)
            .v_wr(MemId::InitialVrf, 10)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        b.v_rd(MemId::InitialVrf, 8)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        b.v_rd(MemId::InitialVrf, 10)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        let report = analyze_with(&b.build(), &cfg(), options());
        assert!(report.is_clean(), "{report}");
    }
}
