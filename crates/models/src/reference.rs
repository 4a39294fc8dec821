//! Golden-model reference implementations in `f32`.
//!
//! These are the numerically straightforward versions of every model the
//! firmware generators target. Tests validate the NPU's functional
//! execution (BFP matrix math + float16 secondary operations) against these
//! references within quantization tolerances.

/// Logistic sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Dense matrix-vector product `y = W·x` for a row-major `rows × cols` `W`.
///
/// # Panics
///
/// Panics if `w.len() != rows * cols` or `x.len() != cols`.
pub fn matvec(w: &[f32], rows: usize, cols: usize, x: &[f32]) -> Vec<f32> {
    assert_eq!(w.len(), rows * cols, "weight shape mismatch");
    assert_eq!(x.len(), cols, "input length mismatch");
    (0..rows)
        .map(|r| {
            let row = &w[r * cols..(r + 1) * cols];
            row.iter().zip(x).map(|(a, b)| a * b).sum()
        })
        .collect()
}

/// One LSTM cell step (the standard formulation of §III / Hochreiter &
/// Schmidhuber), returning `(h_next, c_next)`.
///
/// Gate order in the packed weights is `[f, i, o, c̃]`:
/// `w_x` holds four `hidden × input` matrices, `w_h` four
/// `hidden × hidden`, `bias` four `hidden` vectors.
///
/// # Panics
///
/// Panics on shape mismatch.
#[allow(clippy::too_many_arguments)]
pub fn lstm_cell(
    w_x: &[Vec<f32>; 4],
    w_h: &[Vec<f32>; 4],
    bias: &[Vec<f32>; 4],
    input: usize,
    hidden: usize,
    x: &[f32],
    h_prev: &[f32],
    c_prev: &[f32],
) -> (Vec<f32>, Vec<f32>) {
    let gate = |g: usize| -> Vec<f32> {
        let xw = matvec(&w_x[g], hidden, input, x);
        let hw = matvec(&w_h[g], hidden, hidden, h_prev);
        (0..hidden).map(|j| xw[j] + hw[j] + bias[g][j]).collect()
    };
    let f: Vec<f32> = gate(0).into_iter().map(sigmoid).collect();
    let i: Vec<f32> = gate(1).into_iter().map(sigmoid).collect();
    let o: Vec<f32> = gate(2).into_iter().map(sigmoid).collect();
    let c_tilde: Vec<f32> = gate(3).into_iter().map(f32::tanh).collect();
    let c_next: Vec<f32> = (0..hidden)
        .map(|j| f[j] * c_prev[j] + i[j] * c_tilde[j])
        .collect();
    let h_next: Vec<f32> = (0..hidden).map(|j| o[j] * c_next[j].tanh()).collect();
    (h_next, c_next)
}

/// One GRU cell step in the cuDNN formulation DeepBench uses (reset gate
/// applied to the recurrent projection):
///
/// ```text
/// r  = σ(Wr·x + br + Ur·h)
/// z  = σ(Wz·x + bz + Uz·h)
/// ñ  = tanh(Wn·x + r ∘ (Un·h + bn))
/// h' = (1 − z) ∘ ñ + z ∘ h
/// ```
///
/// Gate order in the packed weights is `[r, z, n]`.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn gru_cell(
    w_x: &[Vec<f32>; 3],
    w_h: &[Vec<f32>; 3],
    bias: &[Vec<f32>; 3],
    input: usize,
    hidden: usize,
    x: &[f32],
    h_prev: &[f32],
) -> Vec<f32> {
    let xw: Vec<Vec<f32>> = (0..3).map(|g| matvec(&w_x[g], hidden, input, x)).collect();
    let hw: Vec<Vec<f32>> = (0..3)
        .map(|g| matvec(&w_h[g], hidden, hidden, h_prev))
        .collect();
    let r: Vec<f32> = (0..hidden)
        .map(|j| sigmoid(xw[0][j] + bias[0][j] + hw[0][j]))
        .collect();
    let z: Vec<f32> = (0..hidden)
        .map(|j| sigmoid(xw[1][j] + bias[1][j] + hw[1][j]))
        .collect();
    let n: Vec<f32> = (0..hidden)
        .map(|j| (xw[2][j] + r[j] * (hw[2][j] + bias[2][j])).tanh())
        .collect();
    (0..hidden)
        .map(|j| (1.0 - z[j]) * n[j] + z[j] * h_prev[j])
        .collect()
}

/// A 2-D convolution over an `H × W × C_in` input (HWC layout) with an
/// `C_out × K × K × C_in` kernel, zero padding `pad`, and stride `stride`,
/// returning the `H_out × W_out × C_out` output in HWC layout.
///
/// # Panics
///
/// Panics on shape mismatch.
#[allow(clippy::too_many_arguments)]
pub fn conv2d(
    input: &[f32],
    h: usize,
    w: usize,
    c_in: usize,
    kernel: &[f32],
    k: usize,
    c_out: usize,
    stride: usize,
    pad: usize,
) -> Vec<f32> {
    assert_eq!(input.len(), h * w * c_in, "input shape mismatch");
    assert_eq!(kernel.len(), c_out * k * k * c_in, "kernel shape mismatch");
    assert!(stride > 0, "stride must be positive");
    let h_out = (h + 2 * pad - k) / stride + 1;
    let w_out = (w + 2 * pad - k) / stride + 1;
    let mut out = vec![0.0f32; h_out * w_out * c_out];
    for oy in 0..h_out {
        for ox in 0..w_out {
            for oc in 0..c_out {
                let mut acc = 0.0f32;
                for ky in 0..k {
                    for kx in 0..k {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                            continue;
                        }
                        let (iy, ix) = (iy as usize, ix as usize);
                        for ic in 0..c_in {
                            acc += input[(iy * w + ix) * c_in + ic]
                                * kernel[((oc * k + ky) * k + kx) * c_in + ic];
                        }
                    }
                }
                out[(oy * w_out + ox) * c_out + oc] = acc;
            }
        }
    }
    out
}

/// Extracts the im2col patch for output position `(oy, ox)`: the flattened
/// `K·K·C_in` receptive field (zero-padded at borders), ordered to match
/// [`conv2d`]'s kernel layout. This is the input vector the NPU's
/// matrix-vector lowering of convolution consumes.
#[allow(clippy::too_many_arguments)]
pub fn im2col_patch(
    input: &[f32],
    h: usize,
    w: usize,
    c_in: usize,
    k: usize,
    stride: usize,
    pad: usize,
    oy: usize,
    ox: usize,
) -> Vec<f32> {
    let mut patch = vec![0.0f32; k * k * c_in];
    for ky in 0..k {
        for kx in 0..k {
            let iy = (oy * stride + ky) as isize - pad as isize;
            let ix = (ox * stride + kx) as isize - pad as isize;
            if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                continue;
            }
            let (iy, ix) = (iy as usize, ix as usize);
            for ic in 0..c_in {
                patch[(ky * k + kx) * c_in + ic] = input[(iy * w + ix) * c_in + ic];
            }
        }
    }
    patch
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_identity() {
        let w = vec![1.0, 0.0, 0.0, 1.0];
        assert_eq!(matvec(&w, 2, 2, &[3.0, 4.0]), vec![3.0, 4.0]);
    }

    #[test]
    fn lstm_zero_weights_give_zero_h() {
        let hidden = 3;
        let input = 2;
        let zeros_x = || vec![0.0f32; hidden * input];
        let zeros_h = || vec![0.0f32; hidden * hidden];
        let zeros_b = || vec![0.0f32; hidden];
        let (h, c) = lstm_cell(
            &[zeros_x(), zeros_x(), zeros_x(), zeros_x()],
            &[zeros_h(), zeros_h(), zeros_h(), zeros_h()],
            &[zeros_b(), zeros_b(), zeros_b(), zeros_b()],
            input,
            hidden,
            &[1.0, -1.0],
            &vec![0.0; hidden],
            &vec![0.0; hidden],
        );
        // All gates are 0.5/0: c = 0.5*0 + 0.5*tanh(0) = 0, h = 0.5*tanh(0).
        assert!(h.iter().all(|&v| v == 0.0));
        assert!(c.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn lstm_forget_gate_carries_cell_state() {
        // Large positive forget bias, everything else zero: c' = c.
        let hidden = 2;
        let input = 1;
        let zx = || vec![0.0f32; hidden * input];
        let zh = || vec![0.0f32; hidden * hidden];
        let (h, c) = lstm_cell(
            &[zx(), zx(), zx(), zx()],
            &[zh(), zh(), zh(), zh()],
            &[
                vec![100.0; hidden],  // f ≈ 1
                vec![-100.0; hidden], // i ≈ 0
                vec![-100.0; hidden], // o ≈ 0
                vec![0.0; hidden],
            ],
            input,
            hidden,
            &[0.0],
            &[0.0, 0.0],
            &[0.7, -0.3],
        );
        assert!((c[0] - 0.7).abs() < 1e-6);
        assert!((c[1] + 0.3).abs() < 1e-6);
        assert!(h.iter().all(|&v| v.abs() < 1e-6)); // o ≈ 0
    }

    #[test]
    fn gru_z_one_keeps_state() {
        // Large positive z bias: h' = h.
        let hidden = 2;
        let input = 1;
        let zx = || vec![0.0f32; hidden * input];
        let zh = || vec![0.0f32; hidden * hidden];
        let h = gru_cell(
            &[zx(), zx(), zx()],
            &[zh(), zh(), zh()],
            &[vec![0.0; hidden], vec![100.0; hidden], vec![0.0; hidden]],
            input,
            hidden,
            &[5.0],
            &[0.25, -0.5],
        );
        assert!((h[0] - 0.25).abs() < 1e-6);
        assert!((h[1] + 0.5).abs() < 1e-6);
    }

    #[test]
    fn conv2d_identity_kernel() {
        // 1x1 kernel copying the single channel.
        let input: Vec<f32> = (0..9).map(|i| i as f32).collect();
        let out = conv2d(&input, 3, 3, 1, &[1.0], 1, 1, 1, 0);
        assert_eq!(out, input);
    }

    #[test]
    fn conv2d_stride_and_padding() {
        // 3x3 sum kernel over a 3x3 input of ones with pad 1, stride 2:
        // output 2x2; corners see a 2x2 window = 4.
        let input = vec![1.0f32; 9];
        let kernel = vec![1.0f32; 9];
        let out = conv2d(&input, 3, 3, 1, &kernel, 3, 1, 2, 1);
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|&v| v == 4.0));
    }

    #[test]
    fn conv2d_matches_im2col_lowering() {
        let (h, w, c_in, k, c_out, stride, pad) = (5, 4, 3, 3, 2, 2, 1);
        let input: Vec<f32> = (0..h * w * c_in)
            .map(|i| ((i * 7) % 11) as f32 - 5.0)
            .collect();
        let kernel: Vec<f32> = (0..c_out * k * k * c_in)
            .map(|i| ((i * 5) % 9) as f32 / 4.0 - 1.0)
            .collect();
        let direct = conv2d(&input, h, w, c_in, &kernel, k, c_out, stride, pad);
        let h_out = (h + 2 * pad - k) / stride + 1;
        let w_out = (w + 2 * pad - k) / stride + 1;
        for oy in 0..h_out {
            for ox in 0..w_out {
                let patch = im2col_patch(&input, h, w, c_in, k, stride, pad, oy, ox);
                let y = matvec(&kernel, c_out, k * k * c_in, &patch);
                for oc in 0..c_out {
                    let want = direct[(oy * w_out + ox) * c_out + oc];
                    assert!((y[oc] - want).abs() < 1e-4, "({oy},{ox},{oc})");
                }
            }
        }
    }
}
