//! Multifunction units (§V-B): crossbar-connected vector function units for
//! point-wise arithmetic and activations.
//!
//! Each MFU holds three function units — an add/subtract/max unit, a
//! Hadamard multiply unit, and an activation unit — joined to the MFU's
//! ports by a non-blocking crossbar, so a chain may route through any
//! subsequence of them in any order. Secondary operations execute in
//! float16 ([`bw_bfp::F16`]), per §VI.
//!
//! Operands are flat element slices (the chain's native vectors
//! concatenated); point-wise semantics make the native-vector boundaries
//! irrelevant to the arithmetic, and the flat layout lets the simulator
//! stream a chain through the MFUs without any per-vector indirection.
//!
//! # Binary operations
//!
//! `vv_add`, both subtracts and `vv_mul` round both operands to the
//! binary16 grid, operate in `f32` and round the result back — the [`F16`]
//! operators' definition, which bw-bfp's [`f16_binary`] loops compute eight
//! lanes at a time with the host's float16 conversions where it has them
//! (its `lanes` module doc). `vv_max` and `v_relu` round lane by lane.
//!
//! # The activation tables
//!
//! `v_sigm` and `v_tanh` round their input to the binary16 grid first, so
//! each is a function of 65,536 possible inputs and is read from a table of
//! that many results indexed by the input's float16 bits, which
//! [`f16_bits`] encodes a block of the chain at a time onto the stack. An
//! entry is filled on its first touch by the scalar expression — round,
//! evaluate in `f32`, round back; what [`F16::sigmoid`] and [`F16::tanh`]
//! compute — so the tables cost no set-up, are bit-identical to evaluating
//! every element by construction, and hold resident pages only for the
//! binades inputs land in (1,024 entries, one 4 KiB page, per sign and
//! binade). Lookups and fills are single atomic loads and stores, never a
//! vector gather, which could race a thread filling the same table.
//!
//! # Kernel modes
//!
//! [`KernelMode::Reference`] runs bw-bfp's portable bodies
//! ([`f16_binary_portable`], [`f16_bits_portable`]), as it runs the naive
//! MVM, so every run that compares the two modes compares the bodies. An
//! [`MfuOp`] is resolved for one mode when a program is lowered, so the
//! data pass picks no body per element or per call.

use std::sync::atomic::{AtomicU32, Ordering};

use bw_bfp::{
    f16_binary, f16_binary_portable, f16_bits, f16_bits_portable, round_to_f16, F16BinaryOp, F16,
};

use crate::isa::Opcode;
use crate::KernelMode;

/// One activation's result for every binary16 input (module doc). `0` is an
/// entry not yet filled; a filled one is the result's `f32` bits with bit 0
/// set, which a value on the binary16 grid leaves clear. `Relaxed` is
/// enough: an entry publishes nothing but itself, and threads that race to
/// fill one store the same bits.
struct Table([AtomicU32; 1 << 16]);

static SIGMOID: Table = Table::new();
static TANH: Table = Table::new();

/// Chain elements encoded per [`f16_bits`] call, into a stack buffer.
const BLOCK: usize = 64;

impl Table {
    const fn new() -> Self {
        Table([const { AtomicU32::new(0) }; 1 << 16])
    }

    /// `f(x rounded to binary16)` for every `x` of `chain`, indexed by
    /// `encode`'s bits; `f` fills the entries this is the first to touch.
    fn map(&self, chain: &mut [f32], kernel: KernelMode, f: impl Fn(f32) -> f32) {
        let mut bits = [0u16; BLOCK];
        for block in chain.chunks_mut(BLOCK) {
            let bits = &mut bits[..block.len()];
            match kernel {
                KernelMode::Fast => f16_bits(block, bits),
                KernelMode::Reference => f16_bits_portable(block, bits),
            }
            for (x, &h) in block.iter_mut().zip(&*bits) {
                let entry = &self.0[usize::from(h)];
                *x = match entry.load(Ordering::Relaxed) {
                    0 => {
                        let y = f(F16::from_bits(h).to_f32());
                        debug_assert_eq!(y.to_bits() & 1, 0, "{y} is not on the binary16 grid");
                        entry.store(y.to_bits() | 1, Ordering::Relaxed);
                        y
                    }
                    filled => f32::from_bits(filled & !1),
                };
            }
        }
    }
}

/// An MFU operation resolved for one kernel mode ("Kernel modes"): what a
/// lowered step of the data pass runs, with no opcode left to match.
#[derive(Clone, Copy, Debug)]
pub(crate) enum MfuOp {
    /// `vv_add`, both subtracts and `vv_mul` (module doc).
    F16(F16BinaryOp, KernelMode),
    Max,
    Relu,
    Sigm(KernelMode),
    Tanh(KernelMode),
}

impl MfuOp {
    /// `op`, an MFU opcode, as `kernel` runs it.
    pub(crate) fn new(op: Opcode, kernel: KernelMode) -> Self {
        match op {
            Opcode::VvAdd => MfuOp::F16(F16BinaryOp::Add, kernel),
            Opcode::VvASubB => MfuOp::F16(F16BinaryOp::ASubB, kernel),
            Opcode::VvBSubA => MfuOp::F16(F16BinaryOp::BSubA, kernel),
            Opcode::VvMul => MfuOp::F16(F16BinaryOp::Mul, kernel),
            Opcode::VvMax => MfuOp::Max,
            Opcode::VRelu => MfuOp::Relu,
            Opcode::VSigm => MfuOp::Sigm(kernel),
            Opcode::VTanh => MfuOp::Tanh(kernel),
            _ => unreachable!("not an MFU opcode"),
        }
    }

    /// Applies the operation in float16 over the flat chain value (module
    /// doc). A binary one takes the chain value as its implicit `IN`
    /// operand (`a`) and `operand`, read from its register file, as `b`;
    /// an activation rounds its input to the binary16 grid, evaluates in
    /// `f32` and rounds back — what [`F16::relu`], [`F16::sigmoid`] and
    /// [`F16::tanh`] do, the latter two read from the activation tables —
    /// and is given no operand.
    pub(crate) fn apply(self, chain: &mut [f32], operand: &[f32]) {
        let nan = F16::NAN.to_f32();
        match self {
            MfuOp::F16(op, KernelMode::Fast) => f16_binary(op, chain, operand),
            MfuOp::F16(op, KernelMode::Reference) => f16_binary_portable(op, chain, operand),
            // [`F16::max`]: the strict comparator turns any NaN into the
            // canonical one; the winner is on the grid already.
            MfuOp::Max => {
                for (a, &b) in chain.iter_mut().zip(operand) {
                    let (x, y) = (round_to_f16(*a), round_to_f16(b));
                    *a = if x.is_nan() || y.is_nan() {
                        nan
                    } else if x >= y {
                        x
                    } else {
                        y
                    };
                }
            }
            // [`F16::relu`]: NaN comes out canonical, negatives and -0.0 as
            // +0.0. The input is on the grid already, so nothing rounds
            // twice.
            MfuOp::Relu => {
                for x in chain {
                    let h = round_to_f16(*x);
                    *x = if h.is_nan() {
                        nan
                    } else if h > 0.0 {
                        h
                    } else {
                        0.0
                    };
                }
            }
            MfuOp::Sigm(kernel) => {
                SIGMOID.map(chain, kernel, |h| round_to_f16(1.0 / (1.0 + (-h).exp())))
            }
            MfuOp::Tanh(kernel) => TANH.map(chain, kernel, |h| round_to_f16(h.tanh())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The MFU as a `Fast` run computes it, checked against what a
    /// `Reference` run computes (module doc, "Kernel modes") but for the
    /// sign of a NaN, which neither pins.
    fn apply_binary(op: Opcode, chain: &mut [f32], operand: &[f32]) {
        let mut portable = chain.to_vec();
        MfuOp::new(op, KernelMode::Reference).apply(&mut portable, operand);
        MfuOp::new(op, KernelMode::Fast).apply(chain, operand);
        assert_same_but_nan_signs(chain, &portable, op);
    }

    /// [`apply_binary`]'s counterpart for the activations.
    fn apply_activation(op: Opcode, chain: &mut [f32]) {
        apply_binary(op, chain, &[]);
    }

    fn assert_same_but_nan_signs(fast: &[f32], reference: &[f32], op: Opcode) {
        for (i, (f, r)) in fast.iter().zip(reference).enumerate() {
            let mask = if f.is_nan() { !(1 << 31) } else { !0 };
            assert_eq!(
                f.to_bits() & mask,
                r.to_bits() & mask,
                "{op:?}, element {i}"
            );
        }
    }

    /// The table index [`Table::map`] reads for `x` in a `Fast` run.
    fn table_index(x: f32) -> u16 {
        let mut h = [0];
        f16_bits(&[x], &mut h);
        h[0]
    }

    #[test]
    fn relu_clamps_negative() {
        let mut v = vec![1.5, -0.5, 0.0];
        apply_activation(Opcode::VRelu, &mut v);
        assert_eq!(v, vec![1.5, 0.0, 0.0]);
    }

    #[test]
    fn sigmoid_and_tanh_in_f16() {
        let mut v = vec![0.0, 100.0, -100.0];
        apply_activation(Opcode::VSigm, &mut v);
        assert_eq!(v[0], 0.5);
        assert_eq!(v[1], 1.0);
        assert_eq!(v[2], 0.0);
        let mut t = vec![0.0];
        apply_activation(Opcode::VTanh, &mut t);
        assert_eq!(t[0], 0.0);
    }

    /// Every binary16 value as an `f32`, in bit order.
    fn every_f16() -> Vec<f32> {
        (0..=u16::MAX).map(|h| F16::from_bits(h).to_f32()).collect()
    }

    #[test]
    fn every_binary16_input_reads_what_the_f16_functions_compute() {
        type Unary = fn(F16) -> F16;
        let cases: [(Opcode, Unary); 2] =
            [(Opcode::VSigm, F16::sigmoid), (Opcode::VTanh, F16::tanh)];
        for (op, f) in cases {
            let want: Vec<f32> = (0..=u16::MAX)
                .map(|h| f(F16::from_bits(h)).to_f32())
                .collect();
            // The first pass fills whatever no other test has touched, the
            // second reads a warm table; then inputs off the grid, a quarter
            // of a step to either side, which round to the same entries.
            for pass in ["cold", "warm"] {
                let mut got = every_f16();
                apply_activation(op, &mut got);
                assert_eq!(bits(&got), bits(&want), "{op:?}, {pass}");
            }
            for nudge in [0x3FF, -0x3FF] {
                let mut got = every_f16();
                let finite = |x: &f32| x.is_finite() && x.abs() >= F16::MIN_POSITIVE.to_f32();
                for x in got.iter_mut().filter(|x| finite(x)) {
                    *x = f32::from_bits(x.to_bits().wrapping_add_signed(nudge));
                }
                apply_activation(op, &mut got);
                assert_eq!(bits(&got), bits(&want), "{op:?}, nudged by {nudge}");
            }
        }
    }

    #[test]
    fn table_index_is_the_binary16_encoding() {
        for h in 0..=u16::MAX {
            let x = F16::from_bits(h);
            assert_eq!(table_index(x.to_f32()), F16::from_f32(x.to_f32()).to_bits());
            if !x.is_nan() {
                assert_eq!(table_index(x.to_f32()), h);
            }
        }
        // Overflow, subnormal results.
        for x in [65520.0, -1.0e9, 3.0e-6, -5.0e-8, 1.0e-10, 6.1e-5] {
            assert_eq!(table_index(x), F16::from_f32(x).to_bits(), "{x}");
        }
    }

    #[test]
    fn two_threads_filling_one_table_agree() {
        // A table of this test's own, so that both threads meet it cold; the
        // barrier starts them on the same entries at the same time, from
        // opposite ends.
        static TABLE: Table = Table::new();
        let f = |h: f32| round_to_f16(h.tanh());
        let barrier = std::sync::Barrier::new(2);
        let run = |reversed: bool| {
            let mut chain = every_f16();
            if reversed {
                chain.reverse();
            }
            barrier.wait();
            TABLE.map(&mut chain, KernelMode::Fast, f);
            if reversed {
                chain.reverse();
            }
            chain
        };
        let (forward, backward) = std::thread::scope(|s| {
            let backward = s.spawn(|| run(true));
            (run(false), backward.join().expect("the filling thread ran"))
        });
        let want: Vec<f32> = every_f16().into_iter().map(f).collect();
        assert_eq!(bits(&forward), bits(&want));
        assert_eq!(bits(&backward), bits(&want));
        // And every entry is filled with exactly that.
        let mut warm = every_f16();
        TABLE.map(&mut warm, KernelMode::Fast, |_| {
            unreachable!("the table is full")
        });
        assert_eq!(bits(&warm), bits(&want));
    }

    #[test]
    fn binary_op_semantics() {
        let b = [1.0, 4.0];
        let mut a = vec![3.0, 1.0];
        apply_binary(Opcode::VvASubB, &mut a, &b);
        assert_eq!(a, vec![2.0, -3.0]);

        let mut a = vec![3.0, 1.0];
        apply_binary(Opcode::VvBSubA, &mut a, &b);
        assert_eq!(a, vec![-2.0, 3.0]);

        let mut a = vec![3.0, 1.0];
        apply_binary(Opcode::VvMax, &mut a, &b);
        assert_eq!(a, vec![3.0, 4.0]);

        let mut a = vec![3.0, 1.0];
        apply_binary(Opcode::VvMul, &mut a, &b);
        assert_eq!(a, vec![3.0, 4.0]);
    }

    #[test]
    fn results_round_to_f16_grid() {
        // 1 + 2^-12 is below half-precision resolution at 1.0.
        let mut a = vec![1.0];
        apply_binary(Opcode::VvAdd, &mut a, &[2.0f32.powi(-12)]);
        assert_eq!(a[0], 1.0);
    }

    /// The MFU as it was written over [`F16`] objects: three conversions in
    /// and three out per binary element. The oracle for the `f32`
    /// grid-rounding formulation above.
    fn f16_object_op(op: Opcode, a: f32, b: f32) -> f32 {
        let (ha, hb) = (F16::from_f32(a), F16::from_f32(b));
        let y = match op {
            Opcode::VvAdd => ha + hb,
            Opcode::VvASubB => ha - hb,
            Opcode::VvBSubA => hb - ha,
            Opcode::VvMax => ha.max(hb),
            Opcode::VvMul => ha * hb,
            Opcode::VRelu => ha.relu(),
            Opcode::VSigm => ha.sigmoid(),
            Opcode::VTanh => ha.tanh(),
            _ => unreachable!("not an MFU opcode"),
        };
        y.to_f32()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `got` is `want` bit for bit — but for its sign where `either_nan`
    /// says an element came out of an `f32` operation on two NaNs: which
    /// operand's that returns is the compiler's choice of operand order,
    /// not either formulation's.
    fn assert_bits(got: &[f32], want: &[f32], either_nan: &[bool], what: &str) {
        let keep = |i: usize| !(u32::from(either_nan[i] && want[i].is_nan()) << 31);
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                g.to_bits() & keep(i),
                w.to_bits() & keep(i),
                "{what}, element {i}"
            );
        }
    }

    #[test]
    fn chains_bit_identical_to_the_f16_object_formulation() {
        // Off-grid values, both zeros, subnormal-range and overflowing
        // magnitudes, infinities and NaNs of both signs, on either side.
        let specials = [
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            0.1,
            -0.3,
            1.0 + 2.0f32.powi(-11),
            3.0e-6,
            -5.0e-8,
            1.0e-10,
            250.0,
            -300.0,
            65504.0,
            65519.9,
            65520.0,
            -1.0e9,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7F80_0001),
        ];
        let mut a0 = Vec::new();
        let mut b0 = Vec::new();
        for &x in &specials {
            for &y in &specials {
                a0.push(x);
                b0.push(y);
            }
        }
        for i in 0..2000 {
            a0.push((i as f32 * 0.37).sin() * 2.0f32.powi(i % 23 - 9));
            b0.push((i as f32 * 0.91).cos() * 2.0f32.powi((i / 7) % 19 - 6));
        }
        let binaries = [
            Opcode::VvAdd,
            Opcode::VvMul,
            Opcode::VvMax,
            Opcode::VvASubB,
            Opcode::VvBSubA,
        ];
        let activations = [Opcode::VSigm, Opcode::VTanh, Opcode::VRelu];
        // Every op alone on the raw operands ...
        for op in binaries {
            let mut got = a0.clone();
            apply_binary(op, &mut got, &b0);
            let want: Vec<f32> = a0
                .iter()
                .zip(&b0)
                .map(|(&a, &b)| f16_object_op(op, a, b))
                .collect();
            // `vv_max` answers any NaN with the canonical one.
            let either_nan: Vec<bool> = a0
                .iter()
                .zip(&b0)
                .map(|(a, b)| op != Opcode::VvMax && a.is_nan() && b.is_nan())
                .collect();
            assert_bits(&got, &want, &either_nan, &format!("{op:?}"));
        }
        for op in activations {
            let mut got = a0.clone();
            apply_activation(op, &mut got);
            let want: Vec<f32> = a0.iter().map(|&a| f16_object_op(op, a, 0.0)).collect();
            assert_eq!(bits(&got), bits(&want), "{op:?}");
        }
        // ... and as chains: add → mul → activation, then max and both
        // subtract orders over the result, as an LSTM gate strings them.
        for act in activations {
            let chain = [
                Opcode::VvAdd,
                Opcode::VvMul,
                act,
                Opcode::VvMax,
                Opcode::VvASubB,
                Opcode::VvBSubA,
            ];
            let mut got = a0.clone();
            let mut want = a0.clone();
            // An either-operand NaN stays one through the sign-preserving
            // ops, until `vv_max` or `v_relu` makes it the canonical NaN.
            let mut either_nan = vec![false; a0.len()];
            for op in chain {
                if activations.contains(&op) {
                    apply_activation(op, &mut got);
                } else {
                    apply_binary(op, &mut got, &b0);
                }
                for ((w, &b), either) in want.iter_mut().zip(&b0).zip(&mut either_nan) {
                    *either = match op {
                        Opcode::VvMax | Opcode::VRelu => false,
                        Opcode::VSigm | Opcode::VTanh => *either,
                        _ => *either || (w.is_nan() && b.is_nan()),
                    };
                    *w = f16_object_op(op, *w, b);
                }
                let what = format!("after {op:?} in the {act:?} chain");
                assert_bits(&got, &want, &either_nan, &what);
            }
        }
    }
}
