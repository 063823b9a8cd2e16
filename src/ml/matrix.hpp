// Minimal dense row-major matrix — the numeric substrate of the GNN.
// Double precision throughout so finite-difference gradient checks in
// the test suite are meaningful.
//
// matmul runs a cache-blocked, k-unrolled kernel that parallelizes over
// row stripes on the process-wide pool above a size threshold
// (ml/kernels.hpp); it is bit-identical to the reference triple loop
// (matmul_naive), which is kept for tests and the perf-bench baseline.
// The _nt/_tn variants fuse the transposes the autograd backward needs
// so no transposed temporary is ever materialized.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace mpidetect::ml {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix zeros(std::size_t r, std::size_t c) { return Matrix(r, c); }

  /// Glorot/Xavier-uniform initialisation (PyTorch Geometric's default
  /// for GATv2 weights).
  static Matrix glorot(std::size_t r, std::size_t c, Rng& rng);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool same_shape(const Matrix& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_;
  }

  double& at(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double at(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }
  double* row(std::size_t r) { return data_.data() + r * cols_; }
  const double* row(std::size_t r) const { return data_.data() + r * cols_; }

  std::vector<double>& data() { return data_; }
  const std::vector<double>& data() const { return data_; }

  void fill(double v) { std::fill(data_.begin(), data_.end(), v); }

  /// this += other (same shape).
  void add_in_place(const Matrix& o);
  /// this += s * other (fused scale-and-accumulate; same shape).
  void axpy_in_place(double s, const Matrix& o);
  /// this[i,:] += bias[0,:] for every row (fused bias broadcast);
  /// `bias` is (1 x cols).
  void add_row_in_place(const Matrix& bias);
  /// this[i,:] *= alpha[i,0] for every row (fused row scaling);
  /// `alpha` is (rows x 1).
  void scale_rows_in_place(const Matrix& alpha);

  /// \brief this (m x k) times `o` (k x n) -> (m x n).
  ///
  /// Cache-blocked (kernels::kKPanel), k-unrolled (kernels::kUnroll) and
  /// parallelized over row stripes above kernels::kParallelMinFlops.
  /// Per-element accumulation order is k-ascending exactly like
  /// matmul_naive, so the result is bit-identical to the reference
  /// kernel on finite inputs at any thread count.
  Matrix matmul(const Matrix& o) const;

  /// Reference triple-loop kernel (the seed implementation): the
  /// ground truth matmul is tested against, and the baseline the perf
  /// harness times (kernels::ScopedNaiveMatmul routes matmul here).
  Matrix matmul_naive(const Matrix& o) const;

  /// this (m x k) times `o`^T (n x k) -> (m x n). Small right-hand
  /// sides (the weight matrices of the autograd backward) are packed
  /// transposed once and streamed through the blocked kernel; large
  /// ones take a transpose-free dot kernel. Bit-identical to
  /// matmul_naive(o.transpose()).
  Matrix matmul_nt(const Matrix& o) const;

  /// this^T (k x m) times `o` (m x n) -> (k x n). Packs the left
  /// operand transposed (one O(m*k) copy) so the reduction dimension is
  /// contiguous for the blocked kernel. Bit-identical to
  /// transpose().matmul_naive(o).
  Matrix matmul_tn(const Matrix& o) const;

  Matrix transpose() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace mpidetect::ml
