//! A minimal dense 2-D tensor ("matrix") tuned for small-MLP workloads.
//!
//! Row-major storage, `f64` elements. Batched matrix products parallelize
//! over output rows with rayon once the work is large enough to amortize
//! the fork-join cost; small products (single-ring inference) stay on one
//! thread, matching the latency-sensitive on-board deployment.

use rand::Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Minimum number of scalar multiply-accumulates before a *scalar*
/// kernel goes parallel. Below this, rayon overhead dominates. Used by
/// the training-path matmuls here, which stay on the portable scalar
/// kernel.
///
/// Re-measured with `cargo bench --bench inference_plan` era kernels
/// (Xeon @ 2.7 GHz): the scalar kernel sustains ~0.7 ns/MAC and the
/// vendored rayon pays ~23 us of thread spawn+join per extra worker on
/// every call (it has no persistent pool). Splitting across two workers
/// saves half the sequential time, so the break-even batch is
/// ~2 * 23 us / 0.7 ns = ~64k MACs — the old threshold forked exactly at
/// break-even and won nothing. 256k MACs (~180 us sequential) keeps a
/// ~4x margin over the fork cost; on a single-core host rayon runs
/// inline and the threshold is moot.
pub const PAR_FLOP_THRESHOLD: usize = 256 * 1024;

/// Minimum MACs before a *vectorized* compiled-plan stage goes parallel.
///
/// The SIMD kernels moved the break-even by over an order of magnitude:
/// the AVX2 INT8 GEMM+requant kernel measures ~35 ps/MAC and the f64
/// FMA kernel ~57 ps/MAC (400 us and 643 us for 256 x 44352-MAC
/// samples, measured at commit 42edfad; the compiled and
/// `_portable` arms of `benches/inference_plan.rs` time the same
/// kernels on the same batch), against the same ~23 us spawn+join per
/// worker. Two-way break-even at the INT8 rate is
/// ~2 * 23 us / 35 ps = ~1.3M MACs; 4M MACs (~140 us sequential on the
/// vector path) keeps a ~3x margin so a fork only happens when it
/// clearly pays. Stages between the two thresholds — parallel in the
/// scalar era — now run sequentially on one core faster than the old
/// forked scalar version ran on several.
pub const PAR_SIMD_FLOP_THRESHOLD: usize = 4 * 1024 * 1024;

/// A dense row-major matrix. The `Default` is the empty `0 × 0` matrix
/// (a staging buffer before its first `resize`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a flat row-major buffer.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Matrix { rows, cols, data }
    }

    /// Build from nested rows (test convenience).
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map(|x| x.len()).unwrap_or(0);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// He-uniform initialization for a weight matrix with `cols` fan-in.
    pub fn he_uniform<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let limit = (6.0 / cols as f64).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-limit..limit))
            .collect();
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// Flat data access.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Flat mutable access.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Reshape in place to `rows × cols`, keeping the backing buffer's
    /// capacity: a matrix that has held its largest batch is reshaped to
    /// any smaller batch without touching the allocator (the staging
    /// buffer contract of the inference hot loop). Contents after a
    /// resize are unspecified — callers overwrite every row.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// `self · rhsᵀ` where `rhs` is `[n × cols]`: the shape used by a
    /// linear layer (`x · Wᵀ`). Output is `[rows × n]`.
    pub fn matmul_transpose(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.cols, "inner dimension mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        let flops = self.rows * rhs.rows * self.cols;
        let cols = self.cols;
        if flops >= PAR_FLOP_THRESHOLD && self.rows > 1 {
            out.data
                .par_chunks_mut(rhs.rows)
                .zip(self.data.par_chunks(cols))
                .for_each(|(out_row, x_row)| {
                    for (o, w_row) in out_row.iter_mut().zip(rhs.data.chunks(cols)) {
                        *o = dot(x_row, w_row);
                    }
                });
        } else {
            for i in 0..self.rows {
                let x_row = self.row(i);
                for j in 0..rhs.rows {
                    out.data[i * rhs.rows + j] = dot(x_row, rhs.row(j));
                }
            }
        }
        out
    }

    /// Plain matrix product `self · rhs` (`[rows × k] · [k × n]`).
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "inner dimension mismatch");
        let n = rhs.cols;
        let k = self.cols;
        let mut out = Matrix::zeros(self.rows, n);
        let run_row = |x_row: &[f64], out_row: &mut [f64]| {
            for (kk, &xv) in x_row.iter().enumerate() {
                if xv == 0.0 {
                    continue;
                }
                let rrow = &rhs.data[kk * n..(kk + 1) * n];
                for (o, &rv) in out_row.iter_mut().zip(rrow) {
                    *o += xv * rv;
                }
            }
        };
        if self.rows * n * k >= PAR_FLOP_THRESHOLD && self.rows > 1 {
            out.data
                .par_chunks_mut(n)
                .zip(self.data.par_chunks(k))
                .for_each(|(out_row, x_row)| run_row(x_row, out_row));
        } else {
            for i in 0..self.rows {
                let (head, tail) = out.data.split_at_mut(i * n);
                let _ = head;
                run_row(&self.data[i * k..(i + 1) * k], &mut tail[..n]);
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Add a bias row vector to every row.
    pub fn add_row_vector(&mut self, bias: &[f64]) {
        assert_eq!(bias.len(), self.cols);
        for r in 0..self.rows {
            for (v, b) in self.row_mut(r).iter_mut().zip(bias) {
                *v += b;
            }
        }
    }

    /// Column means.
    pub fn col_means(&self) -> Vec<f64> {
        let mut m = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (acc, v) in m.iter_mut().zip(self.row(r)) {
                *acc += v;
            }
        }
        let n = self.rows.max(1) as f64;
        for v in m.iter_mut() {
            *v /= n;
        }
        m
    }

    /// Column (population) variances given precomputed means.
    pub fn col_variances(&self, means: &[f64]) -> Vec<f64> {
        assert_eq!(means.len(), self.cols);
        let mut var = vec![0.0; self.cols];
        for r in 0..self.rows {
            for ((acc, v), m) in var.iter_mut().zip(self.row(r)).zip(means) {
                let d = v - m;
                *acc += d * d;
            }
        }
        let n = self.rows.max(1) as f64;
        for v in var.iter_mut() {
            *v /= n;
        }
        var
    }

    /// In-place elementwise map.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for v in self.data.iter_mut() {
            *v = f(*v);
        }
    }

    /// Extract a subset of rows (by index) into a new matrix.
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }

    /// Frobenius norm — handy for gradient-magnitude diagnostics.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    // 4-wide manual unroll: the compiler reliably vectorizes this shape
    let mut acc0 = 0.0;
    let mut acc1 = 0.0;
    let mut acc2 = 0.0;
    let mut acc3 = 0.0;
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let j = i * 4;
        acc0 += a[j] * b[j];
        acc1 += a[j + 1] * b[j + 1];
        acc2 += a[j + 2] * b[j + 2];
        acc3 += a[j + 3] * b[j + 3];
    }
    let mut acc = acc0 + acc1 + acc2 + acc3;
    for i in chunks * 4..a.len() {
        acc += a[i] * b[i];
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn matmul_transpose_matches_manual() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let w = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0], vec![9.0, 10.0]]);
        let y = x.matmul_transpose(&w); // [2x2]·[3x2]^T = [2x3]
        assert_eq!(y.rows(), 2);
        assert_eq!(y.cols(), 3);
        assert_eq!(y.row(0), &[17.0, 23.0, 29.0]);
        assert_eq!(y.row(1), &[39.0, 53.0, 67.0]);
    }

    #[test]
    fn matmul_matches_transpose_path() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let a = Matrix::he_uniform(7, 5, &mut rng);
        let b = Matrix::he_uniform(5, 9, &mut rng);
        let direct = a.matmul(&b);
        let via_t = a.matmul_transpose(&b.transpose());
        assert_eq!(direct.rows(), via_t.rows());
        for (x, y) in direct.as_slice().iter().zip(via_t.as_slice()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn parallel_threshold_consistency() {
        // large enough to trigger the parallel path; must equal serial math
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
        let a = Matrix::he_uniform(128, 64, &mut rng);
        let w = Matrix::he_uniform(96, 64, &mut rng);
        let par = a.matmul_transpose(&w);
        // serial reference
        let mut want = Matrix::zeros(128, 96);
        for i in 0..128 {
            for j in 0..96 {
                let mut s = 0.0;
                for k in 0..64 {
                    s += a.get(i, k) * w.get(j, k);
                }
                want.set(i, j, s);
            }
        }
        for (x, y) in par.as_slice().iter().zip(want.as_slice()) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn transpose_involution() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let a = Matrix::he_uniform(4, 6, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn bias_and_stats() {
        let mut m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 6.0]]);
        m.add_row_vector(&[10.0, 20.0]);
        assert_eq!(m.row(0), &[11.0, 22.0]);
        let means = m.col_means();
        assert_eq!(means, vec![12.0, 24.0]);
        let var = m.col_variances(&means);
        assert_eq!(var, vec![1.0, 4.0]);
    }

    #[test]
    fn gather_rows_selects() {
        let m = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let g = m.gather_rows(&[2, 0]);
        assert_eq!(g.row(0), &[3.0]);
        assert_eq!(g.row(1), &[1.0]);
    }

    #[test]
    fn he_uniform_bounds() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4);
        let m = Matrix::he_uniform(10, 24, &mut rng);
        let limit = (6.0f64 / 24.0).sqrt();
        assert!(m.as_slice().iter().all(|v| v.abs() <= limit));
        // not all zero
        assert!(m.frobenius_norm() > 0.0);
    }

    #[test]
    fn map_inplace_applies() {
        let mut m = Matrix::from_rows(&[vec![-1.0, 2.0]]);
        m.map_inplace(|v| v.max(0.0));
        assert_eq!(m.row(0), &[0.0, 2.0]);
    }
}
