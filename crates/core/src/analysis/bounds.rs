//! BW12x — static cycle bounds from the scheduler's own timeline.
//!
//! The NPU's scheduler is deterministic: completion cycles depend only on
//! the program, the [`NpuConfig`] timing parameters, and the arrival
//! cycles of NetQ input vectors (§V-C of the paper — "the schedule is
//! static, so latency is known before the first request arrives").
//! [`crate::sched`] states that recurrence and shows it is monotone in the
//! arrival stamps, and its data-free timeline is the very type an
//! [`Npu`](crate::Npu) keeps its time with. So a bound over an arrival
//! window `[input_arrival_lo, input_arrival_hi]` is two runs of that
//! timeline, one with every declared input arriving at each end:
//!
//! ```text
//! lower <= measured cycles <= upper    for any arrivals in the window
//! ```
//!
//! With the default window `[0, 0]` — the single-device serving runtime
//! stages every input before `run` — the two runs coincide and the
//! "bounds" are the simulator's cycle count, by construction.
//!
//! The analysis is *sound, not total*: [`cycle_bounds`] returns `None`
//! whenever the timeline faults (see the fault list in [`crate::sched`];
//! queue underflow is judged against the declared budgets) — which is
//! exactly when an [`ExecMode::TimingOnly`](crate::ExecMode::TimingOnly)
//! NPU given those inputs returns `Err` — or when the program is too large
//! to schedule cheaply. A program with no bounds has no guaranteed
//! latency; deployment gates treat `None` as "not provable", never as
//! "fits".
//!
//! [`NpuConfig`]: crate::NpuConfig

use crate::config::NpuConfig;
use crate::isa::Program;
use crate::sched::{FastForward, Timeline};

use super::{AnalysisOptions, DiagCode, Diagnostic};

/// Scheduling cost cap: programs whose `Σ items × iterations` exceeds this
/// are not run (`cycle_bounds` returns `None`). Far above any real firmware
/// (the golden suite tops out near 60k items) while bounding the
/// analyzer's own runtime on adversarial inputs. It counts the items a
/// program schedules, not the fewer that a fast-forward steps
/// ([`crate::sched`]): those are known only once the run is over, and a
/// loop whose line bends more often than its verifications allow — a
/// `completed` set by one chain's slope early and a steeper chain's later —
/// spends them and steps every iteration left. (Absurd `rows × cols`
/// grids and DRAM indices need no cap of their own: the timeline faults on
/// them before it loops or allocates.)
const MAX_REPLAY_ITEMS: u64 = 2_000_000;

/// Guaranteed min/max completion cycles for one program on one config.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CycleBounds {
    /// No execution with arrivals inside the declared window finishes in
    /// fewer cycles than this.
    pub lower: u64,
    /// No execution with arrivals inside the declared window takes more
    /// cycles than this.
    pub upper: u64,
}

impl CycleBounds {
    /// Whether a measured cycle count lies inside the bound.
    #[must_use]
    pub fn contains(&self, measured: u64) -> bool {
        self.lower <= measured && measured <= self.upper
    }

    /// Sequential composition: this program followed by `next`.
    #[must_use]
    pub fn then(&self, next: &CycleBounds) -> CycleBounds {
        CycleBounds {
            lower: self.lower.saturating_add(next.lower),
            upper: self.upper.saturating_add(next.upper),
        }
    }

    /// Parallel composition: shards run concurrently, a gather waits for
    /// the slowest, so both ends take the max.
    #[must_use]
    pub(crate) fn join_max(&self, other: &CycleBounds) -> CycleBounds {
        CycleBounds {
            lower: self.lower.max(other.lower),
            upper: self.upper.max(other.upper),
        }
    }
}

/// Computes guaranteed cycle bounds for `program` on `config`, with NetQ
/// input arrivals ranging over `[options.input_arrival_lo,
/// options.input_arrival_hi]` and queue budgets as declared in `options`.
///
/// Returns `None` when no bound can be proven: the timeline faults exactly
/// where the timing-only simulator faults (it is the same code, so no
/// measured value exists either), or the program exceeds the size cap
/// (`MAX_REPLAY_ITEMS`, 2M scheduled items).
#[must_use]
pub fn cycle_bounds(
    program: &Program,
    config: &NpuConfig,
    options: &AnalysisOptions,
) -> Option<CycleBounds> {
    let mut total: u64 = 0;
    for seg in &program.segments {
        let items = (seg.items.len() as u64).checked_mul(u64::from(seg.iterations))?;
        total = total.checked_add(items)?;
        if total > MAX_REPLAY_ITEMS {
            return None;
        }
    }
    // One end of the window: every declared input arrives at `arrival`.
    let mut ff = FastForward::default();
    let mut cycles_at = |arrival: u64| {
        let mut timeline = Timeline::new(config);
        let arrivals = &mut timeline.arrivals;
        arrivals.push_vectors(arrival, options.netq_input_vectors.unwrap_or(0));
        arrivals.push_matrices(options.netq_input_matrices.unwrap_or(0));
        timeline
            .run_column(config, program, true, Some(&mut ff), |_| {})
            .ok()?;
        Some(timeline.high_water())
    };
    let lo = options.input_arrival_lo;
    let hi = options.input_arrival_hi.max(lo);
    let lower = cycles_at(lo)?;
    let upper = if hi == lo { lower } else { cycles_at(hi)? };
    Some(CycleBounds {
        lower,
        upper: upper.max(lower),
    })
}

/// BW120–BW122: the verdict of `bounds` against a declared SLA of `sla`
/// cycles, at `segment`. A named `artifact` gets the pipeline-scope
/// wording and is the diagnostic's unit; `None` is one program's.
pub(crate) fn sla_verdict(
    sla: u64,
    bounds: Option<CycleBounds>,
    artifact: Option<&str>,
    segment: usize,
) -> Diagnostic {
    let (subject, across, bound) = match artifact {
        Some(_) => ("the artifact", " across the pipeline", "pipeline bound"),
        None => ("this program", "", "bound"),
    };
    let (code, message) = match bounds {
        None => (
            DiagCode::SlaViolation,
            format!(
                "no static cycle bound is provable for {subject}, so the declared \
                 SLA of {sla} cycles cannot be guaranteed"
            ),
        ),
        Some(b) if b.lower > sla => (
            DiagCode::SlaViolation,
            format!(
                "guaranteed minimum of {} cycles{across} exceeds the declared SLA of \
                 {sla} cycles — unmeetable on this config",
                b.lower
            ),
        ),
        Some(b) if b.upper > sla => (
            DiagCode::SlaAtRisk,
            format!(
                "worst-case {bound} of {} cycles exceeds the declared SLA of {sla} \
                 cycles (best case {})",
                b.upper, b.lower
            ),
        ),
        Some(b) => (
            DiagCode::SlaMet,
            format!(
                "static {bound} [{}, {}] cycles meets the declared SLA of {sla} cycles",
                b.lower, b.upper
            ),
        ),
    };
    Diagnostic {
        unit: artifact.map(str::to_owned),
        ..Diagnostic::new(code, segment, 0, message)
    }
}

/// BW120–BW122 for one program, against the SLA declared in
/// [`AnalysisOptions::sla_cycles`]. Silent when none is declared, so plain
/// lint runs stay quiet.
pub(super) fn check(
    program: &Program,
    config: &NpuConfig,
    options: &AnalysisOptions,
    out: &mut Vec<Diagnostic>,
) {
    if let Some(sla) = options.sla_cycles {
        let bounds = cycle_bounds(program, config, options);
        let last_segment = program.segments.len().saturating_sub(1);
        out.push(sla_verdict(sla, bounds, None, last_segment));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{MemId, ProgramBuilder};
    use crate::{analyze_with, ExecMode, Npu, Severity};

    fn cfg() -> NpuConfig {
        NpuConfig::builder()
            .native_dim(8)
            .lanes(4)
            .tile_engines(2)
            .mfus(2)
            .mrf_entries(16)
            .vrf_entries(64)
            .build()
            .unwrap()
    }

    fn small_program() -> Program {
        let mut b = ProgramBuilder::new();
        b.set_rows(2).set_cols(2);
        b.begin_loop(3).unwrap();
        b.v_rd(MemId::NetQ, 0)
            .mv_mul(0)
            .vv_add(0)
            .v_tanh()
            .v_wr(MemId::InitialVrf, 8)
            .end_chain()
            .unwrap();
        b.v_rd(MemId::InitialVrf, 8)
            .vv_mul(0)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        b.end_loop().unwrap();
        b.build()
    }

    fn small_options() -> AnalysisOptions {
        AnalysisOptions::default()
            .preload(MemId::MatrixRf, 0, 4)
            .preload(MemId::AddSubVrf(0), 0, 2)
            .preload(MemId::MultiplyVrf(0), 0, 2)
            .with_input_vectors(6)
    }

    fn measured(program: &Program, pushes: usize) -> u64 {
        let mut npu = Npu::with_mode(cfg(), ExecMode::TimingOnly);
        npu.push_input_zeros(pushes);
        npu.run(program).expect("timing run succeeds").cycles
    }

    #[test]
    fn bounds_are_exact_when_inputs_are_staged() {
        let program = small_program();
        let b = cycle_bounds(&program, &cfg(), &small_options()).expect("bounded");
        assert_eq!(b.lower, b.upper, "zero-width arrival window is exact");
        let m = measured(&program, 6);
        assert!(
            b.contains(m),
            "measured {m} outside [{}, {}]",
            b.lower,
            b.upper
        );
        assert_eq!(b.lower, m, "the bound is the scheduler's own count");
    }

    #[test]
    fn arrival_window_widens_the_bound_and_still_contains_late_arrivals() {
        let program = small_program();
        let opts = small_options().with_input_arrival(0, 50_000);
        let b = cycle_bounds(&program, &cfg(), &opts).expect("bounded");
        assert!(b.lower < b.upper);

        // An actual run with inputs arriving inside the window must land
        // inside the bound. `push_input_zeros` stamps arrival 0 == lo.
        let m = measured(&program, 6);
        assert!(b.contains(m));
    }

    #[test]
    fn matrix_chains_and_dram_traffic_are_bounded_exactly() {
        let mut b = ProgramBuilder::new();
        b.set_rows(2).set_cols(2);
        b.m_rd(MemId::NetQ, 0)
            .m_wr(MemId::MatrixRf, 4)
            .end_chain()
            .unwrap();
        b.v_rd(MemId::NetQ, 0)
            .mv_mul(4)
            .v_wr(MemId::Dram, 0)
            .end_chain()
            .unwrap();
        b.v_rd(MemId::Dram, 0)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        let program = b.build();
        let opts = AnalysisOptions {
            netq_input_matrices: Some(4),
            ..AnalysisOptions::default()
        }
        .with_input_vectors(2);

        let bounds = cycle_bounds(&program, &cfg(), &opts).expect("bounded");

        let mut npu = Npu::with_mode(cfg(), ExecMode::TimingOnly);
        npu.push_input_zeros(2);
        let nd = cfg().native_dim() as usize;
        for _ in 0..4 {
            let tile =
                bw_bfp::BfpMatrix::quantize(nd, nd, &vec![0.25; nd * nd], cfg().matrix_format())
                    .unwrap();
            npu.push_input_matrix(tile).unwrap();
        }
        let m = npu.run(&program).unwrap().cycles;
        assert_eq!(bounds.lower, m);
        assert_eq!(bounds.upper, m);
    }

    #[test]
    fn faulting_programs_have_no_bound() {
        // Pops with no declared input budget.
        let program = small_program();
        assert_eq!(
            cycle_bounds(&program, &cfg(), &AnalysisOptions::default()),
            None
        );

        // Pops beyond the declared budget.
        let short = small_options().with_input_vectors(2);
        assert_eq!(cycle_bounds(&program, &cfg(), &short), None);

        // VRF write out of range.
        let mut b = ProgramBuilder::new();
        b.set_rows(4);
        b.v_rd(MemId::NetQ, 0)
            .v_wr(MemId::InitialVrf, 62)
            .end_chain()
            .unwrap();
        let oob = b.build();
        let opts = AnalysisOptions::default().with_input_vectors(4);
        assert_eq!(cycle_bounds(&oob, &cfg(), &opts), None);
    }

    #[test]
    fn composition_helpers_compose() {
        let a = CycleBounds {
            lower: 10,
            upper: 20,
        };
        let b = CycleBounds {
            lower: 5,
            upper: 40,
        };
        assert_eq!(
            a.then(&b),
            CycleBounds {
                lower: 15,
                upper: 60
            }
        );
        assert_eq!(
            a.join_max(&b),
            CycleBounds {
                lower: 10,
                upper: 40
            }
        );
    }

    #[test]
    fn sla_pass_emits_the_bw12x_family() {
        let program = small_program();
        let exact = cycle_bounds(&program, &cfg(), &small_options())
            .unwrap()
            .lower;

        // Generous SLA: BW122 info.
        let report = analyze_with(&program, &cfg(), small_options().with_sla_cycles(exact));
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::SlaMet));
        assert_eq!(report.error_count(), 0);

        // Impossible SLA: BW120 error.
        let report = analyze_with(&program, &cfg(), small_options().with_sla_cycles(exact - 1));
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == DiagCode::SlaViolation)
            .expect("BW120 fires");
        assert_eq!(d.severity, Severity::Error);

        // At-risk: lower meets, upper does not.
        let windowed = small_options()
            .with_input_arrival(0, 1_000_000)
            .with_sla_cycles(exact);
        let report = analyze_with(&program, &cfg(), windowed);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::SlaAtRisk));

        // No SLA declared: the pass stays silent.
        let report = analyze_with(&program, &cfg(), small_options());
        assert!(!report.diagnostics.iter().any(|d| matches!(
            d.code,
            DiagCode::SlaMet | DiagCode::SlaAtRisk | DiagCode::SlaViolation
        )));
    }
}
