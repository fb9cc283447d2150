#pragma once

/// \file matrix.hpp
/// Row-major dense matrices and the handful of BLAS-like kernels the GNN
/// needs. Double precision throughout so finite-difference gradient checks
/// are meaningful.

#include <cstddef>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/rng.hpp"

namespace pnp::graph {
struct RowPlan;
}  // namespace pnp::graph

namespace pnp::nn {

class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols);

  static Matrix zeros(int rows, int cols) { return Matrix(rows, cols); }

  /// Xavier/Glorot uniform initialization: U(-a, a), a = sqrt(6/(fan_in+fan_out)).
  static Matrix xavier(int rows, int cols, Rng& rng);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(int r, int c) {
    return data_[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
                 static_cast<std::size_t>(c)];
  }
  double operator()(int r, int c) const {
    return data_[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
                 static_cast<std::size_t>(c)];
  }

  double* row(int r) {
    return data_.data() + static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_);
  }
  const double* row(int r) const {
    return data_.data() + static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_);
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  std::span<const double> flat() const { return data_; }
  std::span<double> flat() { return data_; }

  void fill(double v);
  void zero() { fill(0.0); }

  /// Reshape in place, reusing the existing allocation when it is large
  /// enough (the zero-allocation training workspaces rely on this).
  /// Contents are unspecified afterwards — callers must overwrite or zero.
  void resize(int rows, int cols);

  /// this += a * other (axpy); shapes must match.
  void add_scaled(const Matrix& other, double a);

  bool same_shape(const Matrix& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_;
  }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<double> data_;
};

/// C += A · B. Shapes: A (m×k), B (k×n), C (m×n).
///
/// The gemm kernels hold register-blocked C tiles across the whole k
/// reduction and use FMA SIMD micro-kernels when the build targets AVX-512
/// or AVX2 (e.g. -march=native via the PNP_NATIVE option), falling back to
/// a cache-blocked scalar path elsewhere. They run on the calling thread:
/// the trainer parallelizes across samples and tensors, and the LOOCV
/// driver across folds, never inside one product.
void gemm_acc(const Matrix& a, const Matrix& b, Matrix& c);

/// C += Aᵀ · B. Shapes: A (k×m), B (k×n), C (m×n).
void gemm_tn_acc(const Matrix& a, const Matrix& b, Matrix& c);

/// C += A · Bᵀ. Shapes: A (m×k), B (n×k), C (m×n).
void gemm_nt_acc(const Matrix& a, const Matrix& b, Matrix& c);

/// One RGCN layer's output in one pass over it (the fused layer kernel).
/// For every node i of `plan`, with s the signature of i's tile:
///
///   C.row(i) = act( bias + A.row(i)·B + Σ_{r∈s, ascending} M[r].row(m_ir)·W[r] )
///
/// with act(x) = x > 0 ? x : slope·x and m_ir the plan's M-row map. A
/// tile's C rows stay in registers from the bias to the activation, and
/// every element sees the multiply-add chain of detail::gemm_bias followed
/// by one detail::gemm_acc_rows per active relation, in ascending order,
/// and an activation pass: the result is bit-identical to that
/// composition. Shapes: A (N×k), B (k×n), bias n, C (N×n), and per
/// relation r, M[r] (active_r×k) and W[r] (k×n).
void rgcn_layer(const Matrix& a, const Matrix& b, std::span<const double> bias,
                std::span<const Matrix* const> m,
                std::span<const Matrix* const> w, const graph::RowPlan& plan,
                double slope, Matrix& c);

/// The tile pass of one RGCN layer's input-gradient backward, the mirror
/// of rgcn_layer. For every node i of `plan`, with s the signature of i's
/// tile and m_ir the plan's M-row map:
///
///   DH.row(i) = DZ.row(i)·W₀ᵀ
///   D.row(rel_base[r] + m_ir) = inv[r][m_ir] · (DZ.row(i)·W[r]ᵀ)  for r ∈ s
///
/// D stacks the compressed rows of every relation (graph::SourceIndex). A
/// tile's DZ rows feed every segment, and each weight is transposed once
/// per call. Every element sees gemm_nt's multiply-add chain from zero,
/// then (relations only) one rounding multiply by inv: bit-identical to
/// detail::gemm_nt for DH and to detail::gemm_nt_rows followed by a ×inv
/// pass for D. Shapes: DZ (N×k), W₀ and W[r] (n×k), DH (N×n), D (≥ rel_base[|W|] ×
/// n); inv[r] holds one entry per compressed row of relation r.
void rgcn_layer_backward(const Matrix& dz, const Matrix& w0,
                         std::span<const Matrix* const> w,
                         std::span<const double* const> inv,
                         std::span<const int> rel_base,
                         const graph::RowPlan& plan, Matrix& dh, Matrix& d);

/// The gather pass that completes rgcn_layer_backward. For every node s:
///
///   DH.row(s) += D.row(rows[q]) for q in [offset[s], offset[s+1]), in
///                order, stopping at the first rows[q] ≥ row_end;
///   then, when `act` is set, DH.row(s) ⊙= (act.row(s) > 0 ? 1 : slope).
///
/// With graph::SourceIndex's offsets and rows, every element receives the
/// adds of a scatter over each relation's CSR rows in the same order, then
/// the activation mask of the layer below. Shapes: D (≥ row_end × n), DH
/// and act (N×n), offset N + 1.
void rgcn_gather(const Matrix& d, std::span<const int> offset,
                 std::span<const int> rows, int row_end, const Matrix* act,
                 double slope, Matrix& dh);

/// C += Aᵀ · B_sel with B_sel.row(p) = b.row(rows[p]) — a row-mapped
/// variant for CSR message passing: the kernel indexes the compressed
/// per-relation matrix's rows directly instead of materializing a gathered
/// copy. `rows` must hold distinct valid row indices of b.
void gemm_tn_acc_rows(const Matrix& a, const Matrix& b,
                      std::span<const int> rows, Matrix& c);

namespace detail {

/// Textbook triple-loop reference kernels. Kept (and exported) as the
/// ground truth the property tests in tests/nn_kernels_test.cpp compare
/// the blocked kernels against.
void gemm_acc_naive(const Matrix& a, const Matrix& b, Matrix& c);
void gemm_tn_acc_naive(const Matrix& a, const Matrix& b, Matrix& c);
void gemm_nt_acc_naive(const Matrix& a, const Matrix& b, Matrix& c);

/// The blocked kernels rgcn_layer fuses, kept as the composition its
/// bit-identity test compares against.
///
/// C = A · B (+ bias broadcast to every row when non-empty); shapes as
/// gemm_acc, bias size n or 0.
void gemm_bias(const Matrix& a, const Matrix& b, std::span<const double> bias,
               Matrix& c);

/// C.row(rows[i]) += A.row(i) · B — scatter-accumulate into distinct rows.
void gemm_acc_rows(const Matrix& a, const Matrix& b, Matrix& c,
                   std::span<const int> rows);

/// The self and relation terms of the backward that rgcn_layer_backward
/// fuses, kept for its bit-identity test:
///
/// C = A · Bᵀ (overwrite). Shapes as gemm_nt_acc.
void gemm_nt(const Matrix& a, const Matrix& b, Matrix& c);

/// C = A_sel · Bᵀ with A_sel.row(i) = a.row(rows[i]) — gathered A.
void gemm_nt_rows(const Matrix& a, std::span<const int> rows, const Matrix& b,
                  Matrix& c);

}  // namespace detail

/// Inference precision tier (docs/SERVING.md, "Precision tiers"). f64 is
/// the bit-exact reference — identical to training arithmetic. f32 is the
/// opt-in fast tier: weights and encodings are down-converted once at
/// load/publish and the dense phase runs the float kernels below at twice
/// the SIMD width.
enum class Precision { f64, f32 };

inline const char* precision_name(Precision p) {
  return p == Precision::f32 ? "f32" : "f64";
}

/// Inverse of precision_name; nullopt for any other name, so each tool
/// keeps its own error text for a bad `--precision`.
inline std::optional<Precision> precision_from_name(std::string_view name) {
  if (name == "f64") return Precision::f64;
  if (name == "f32") return Precision::f32;
  return std::nullopt;
}

/// Row-major single-precision matrix for the f32 inference tier. Only the
/// forward-pass surface — training stays f64 so gradient checks remain
/// meaningful.
class MatrixF {
 public:
  MatrixF() = default;
  MatrixF(int rows, int cols);

  /// Down-convert an f64 matrix once (load/publish time).
  static MatrixF from(const Matrix& m);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float* row(int r) {
    return data_.data() + static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_);
  }
  const float* row(int r) const {
    return data_.data() + static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_);
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  std::span<const float> flat() const { return data_; }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<float> data_;
};

/// out = xᵀ·W + bias — the dense-layer primitive of the f32 tier. Shapes:
/// x (k), W (k×n), bias (n or empty → 0), out (n). Row-major W is streamed
/// row-by-row with x broadcast, so the hot loop is n-wide FMA at float
/// SIMD width (16 lanes under AVX-512, 8 under AVX2 — double the f64
/// kernels'). Column blocks are independent; the per-column summation
/// order is fixed, so results are deterministic.
void gemv_f32(std::span<const float> x, const MatrixF& w,
              std::span<const float> bias, std::span<float> out);

namespace detail {

/// Scalar reference for gemv_f32 — the ground truth of its property test.
void gemv_f32_naive(std::span<const float> x, const MatrixF& w,
                    std::span<const float> bias, std::span<float> out);

}  // namespace detail

/// Add a bias row vector to every row of m.
void add_bias_rows(Matrix& m, std::span<const double> bias);

/// Accumulate the column sums of m into out (size cols).
void colsum_acc(const Matrix& m, std::span<double> out);

/// Frobenius inner product Σᵢⱼ aᵢⱼ·bᵢⱼ.
double frob_inner(const Matrix& a, const Matrix& b);

}  // namespace pnp::nn
