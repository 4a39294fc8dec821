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
//! operators' definition, which bw-bfp's [`Simd::f16_binary`] computes
//! eight lanes at a time with the host's float16 conversions where it has
//! them (its `lanes` module doc). `vv_max` and `v_relu` round lane by lane.
//!
//! # The activation tables
//!
//! `v_sigm` and `v_tanh` round their input to the binary16 grid first, so
//! each is a function of 65,536 possible inputs, read from a table of that
//! many results indexed by the input's float16 bits. The tables are
//! bw-bfp's, beside [`F16::sigmoid`] and [`F16::tanh`], which fill an
//! entry on its first touch, and [`Simd::f16_activation`] reads them: the
//! encoding eight lanes at a time, then one atomic load per element.
//!
//! # Kernel modes
//!
//! [`KernelMode::Reference`] runs bw-bfp's portable bodies
//! ([`Simd::PORTABLE`]), as it runs the naive MVM, so every run that
//! compares the two modes compares the bodies. An [`MfuOp`] is resolved
//! when a program is lowered, with the [`Simd`] its mode runs ([`simd`]),
//! so the data pass detects no CPU feature and picks no body per element
//! or per call.

use bw_bfp::{round_to_f16, F16Activation, F16BinaryOp, Simd, F16};

use crate::isa::Opcode;
use crate::KernelMode;

/// The bodies `kernel` runs: the widest the CPU has for `Fast`, the
/// portable definitions for `Reference` ("Kernel modes").
pub(crate) fn simd(kernel: KernelMode) -> Simd {
    match kernel {
        KernelMode::Fast => Simd::detect(),
        KernelMode::Reference => Simd::PORTABLE,
    }
}

/// An MFU operation resolved for one kernel mode ("Kernel modes"): what a
/// lowered step of the data pass runs, with no opcode left to match.
#[derive(Clone, Copy, Debug)]
pub(crate) enum MfuOp {
    /// `vv_add`, both subtracts and `vv_mul` (module doc).
    F16(F16BinaryOp, Simd),
    Max,
    Relu,
    /// `v_sigm` and `v_tanh` ("The activation tables").
    Table(F16Activation, Simd),
}

impl MfuOp {
    /// `op`, an MFU opcode, with `simd`'s bodies.
    pub(crate) fn new(op: Opcode, simd: Simd) -> Self {
        match op {
            Opcode::VvAdd => MfuOp::F16(F16BinaryOp::Add, simd),
            Opcode::VvASubB => MfuOp::F16(F16BinaryOp::ASubB, simd),
            Opcode::VvBSubA => MfuOp::F16(F16BinaryOp::BSubA, simd),
            Opcode::VvMul => MfuOp::F16(F16BinaryOp::Mul, simd),
            Opcode::VvMax => MfuOp::Max,
            Opcode::VRelu => MfuOp::Relu,
            Opcode::VSigm => MfuOp::Table(F16Activation::Sigmoid, simd),
            Opcode::VTanh => MfuOp::Table(F16Activation::Tanh, simd),
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
            MfuOp::F16(op, simd) => simd.f16_binary(op, chain, operand),
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
            MfuOp::Table(f, simd) => simd.f16_activation(f, chain),
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
        MfuOp::new(op, simd(KernelMode::Reference)).apply(&mut portable, operand);
        MfuOp::new(op, simd(KernelMode::Fast)).apply(chain, operand);
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
