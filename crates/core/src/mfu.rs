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

use bw_bfp::{round_to_f16, round_to_f16_in_range, F16};

use crate::isa::Opcode;
use crate::npu::SimError;

/// Applies a unary activation in float16, element-wise over the flat chain
/// value: the input rounds to the binary16 grid, the function evaluates in
/// `f32`, and the result rounds back — what [`F16::sigmoid`] and
/// [`F16::tanh`] do, without the `F16` round trip per element.
pub(crate) fn apply_activation(op: Opcode, chain: &mut [f32]) {
    fn map(chain: &mut [f32], f: impl Fn(f32) -> f32) {
        for x in chain {
            *x = f(round_to_f16(*x));
        }
    }
    match op {
        // [`F16::relu`]: NaN comes out canonical, negatives and -0.0 as
        // +0.0. The input is on the grid already, so nothing rounds twice.
        Opcode::VRelu => {
            let nan = F16::NAN.to_f32();
            map(chain, |h| {
                if h.is_nan() {
                    nan
                } else if h > 0.0 {
                    h
                } else {
                    0.0
                }
            });
        }
        Opcode::VSigm => map(chain, |h| round_to_f16(1.0 / (1.0 + (-h).exp()))),
        Opcode::VTanh => map(chain, |h| round_to_f16(h.tanh())),
        _ => unreachable!("not an activation opcode"),
    }
}

/// Applies a binary point-wise operation in float16: the chain value is the
/// implicit `IN` operand (`a`), the register file supplies the explicit
/// operand (`b`). Both round to the binary16 grid, the operation runs in
/// `f32`, and the result rounds back — the [`F16`] operators' definition.
pub(crate) fn apply_binary(op: Opcode, chain: &mut [f32], operand: &[f32]) -> Result<(), SimError> {
    if chain.len() != operand.len() {
        return Err(SimError::VectorLengthMismatch {
            expected: chain.len(),
            actual: operand.len(),
        });
    }
    /// `op` over on-grid operands with the result rounded back, eight
    /// lanes at a time by the branch-free in-range rounding — a loop that
    /// vectorizes — and a group again, lane by lane, if any of its inputs or
    /// results is one of the rare cases that rounding does not cover.
    fn map(chain: &mut [f32], operand: &[f32], op: impl Fn(f32, f32) -> f32) {
        const LANES: usize = 8;
        let exact = |a: &mut f32, b: f32| *a = round_to_f16(op(round_to_f16(*a), round_to_f16(b)));
        let whole = chain.len() / LANES * LANES;
        let (groups, rest) = chain.split_at_mut(whole);
        for (a, b) in groups
            .chunks_exact_mut(LANES)
            .zip(operand.chunks_exact(LANES))
        {
            let mut rounded = [0.0; LANES];
            let mut in_range = true;
            for ((y, &a), &b) in rounded.iter_mut().zip(&*a).zip(b) {
                let ((a, a_ok), (b, b_ok)) = (round_to_f16_in_range(a), round_to_f16_in_range(b));
                let (r, r_ok) = round_to_f16_in_range(op(a, b));
                *y = r;
                in_range &= a_ok & b_ok & r_ok;
            }
            if in_range {
                a.copy_from_slice(&rounded);
            } else {
                a.iter_mut().zip(b).for_each(|(a, &b)| exact(a, b));
            }
        }
        rest.iter_mut()
            .zip(&operand[whole..])
            .for_each(|(a, &b)| exact(a, b));
    }
    match op {
        Opcode::VvAdd => map(chain, operand, |a, b| a + b),
        Opcode::VvASubB => map(chain, operand, |a, b| a - b),
        Opcode::VvBSubA => map(chain, operand, |a, b| b - a),
        Opcode::VvMul => map(chain, operand, |a, b| a * b),
        // [`F16::max`]: the strict comparator turns any NaN into the
        // canonical one; the winner is on the grid already. Its branches
        // keep it a lane at a time.
        Opcode::VvMax => {
            let nan = F16::NAN.to_f32();
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
        _ => unreachable!("not a binary MFU opcode"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn binary_op_semantics() {
        let b = [1.0, 4.0];
        let mut a = vec![3.0, 1.0];
        apply_binary(Opcode::VvASubB, &mut a, &b).unwrap();
        assert_eq!(a, vec![2.0, -3.0]);

        let mut a = vec![3.0, 1.0];
        apply_binary(Opcode::VvBSubA, &mut a, &b).unwrap();
        assert_eq!(a, vec![-2.0, 3.0]);

        let mut a = vec![3.0, 1.0];
        apply_binary(Opcode::VvMax, &mut a, &b).unwrap();
        assert_eq!(a, vec![3.0, 4.0]);

        let mut a = vec![3.0, 1.0];
        apply_binary(Opcode::VvMul, &mut a, &b).unwrap();
        assert_eq!(a, vec![3.0, 4.0]);
    }

    #[test]
    fn results_round_to_f16_grid() {
        // 1 + 2^-12 is below half-precision resolution at 1.0.
        let mut a = vec![1.0];
        apply_binary(Opcode::VvAdd, &mut a, &[2.0f32.powi(-12)]).unwrap();
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
            apply_binary(op, &mut got, &b0).unwrap();
            let want: Vec<f32> = a0
                .iter()
                .zip(&b0)
                .map(|(&a, &b)| f16_object_op(op, a, b))
                .collect();
            assert_eq!(bits(&got), bits(&want), "{op:?}");
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
            for op in chain {
                if activations.contains(&op) {
                    apply_activation(op, &mut got);
                } else {
                    apply_binary(op, &mut got, &b0).unwrap();
                }
                for (w, &b) in want.iter_mut().zip(&b0) {
                    *w = f16_object_op(op, *w, b);
                }
                assert_eq!(bits(&got), bits(&want), "after {op:?} in the {act:?} chain");
            }
        }
    }

    #[test]
    fn mismatched_shapes_error() {
        let mut a = vec![1.0];
        assert!(apply_binary(Opcode::VvAdd, &mut a, &[1.0, 2.0]).is_err());
        let mut a = vec![1.0, 2.0];
        assert!(apply_binary(Opcode::VvAdd, &mut a, &[1.0]).is_err());
    }
}
