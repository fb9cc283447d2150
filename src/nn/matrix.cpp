#include "nn/matrix.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <vector>

#if defined(__AVX512F__) || (defined(__AVX2__) && defined(__FMA__))
#include <immintrin.h>
#endif

#include "common/error.hpp"
#include "graph/flow_graph.hpp"

namespace pnp::nn {

Matrix::Matrix(int rows, int cols)
    : rows_(rows),
      cols_(cols),
      data_(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols),
            0.0) {
  PNP_CHECK(rows >= 0 && cols >= 0);
}

Matrix Matrix::xavier(int rows, int cols, Rng& rng) {
  Matrix m(rows, cols);
  const double a = std::sqrt(6.0 / static_cast<double>(rows + cols));
  for (double& v : m.data_) v = rng.uniform(-a, a);
  return m;
}

void Matrix::fill(double v) { std::fill(data_.begin(), data_.end(), v); }

void Matrix::resize(int rows, int cols) {
  PNP_CHECK(rows >= 0 && cols >= 0);
  rows_ = rows;
  cols_ = cols;
  data_.resize(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols));
}

void Matrix::add_scaled(const Matrix& other, double a) {
  PNP_CHECK(same_shape(other));
  const double* o = other.data_.data();
  double* d = data_.data();
  for (std::size_t i = 0; i < data_.size(); ++i) d[i] += a * o[i];
}

namespace {

// ---------------------------------------------------------------------------
// GEMM engine. One driver serves all public entry points:
//  - A can be read normally (av = A[i][p]) or transposed (av = A[p][i]);
//  - C tiles either accumulate (loaded first) or are freshly initialized
//    (from a broadcast bias row, or zero) — fusing away the separate
//    zero-fill/bias passes;
//  - A·Bᵀ products transpose B once into a per-thread scratch and reuse
//    the same driver, so the hot reduction always streams B rows.
// Each micro-tile holds an MI-row × (≤kColTile)-column patch of C in
// registers across the whole k reduction; B row loads amortize over MI
// rows. Three ISA levels: AVX-512, AVX2+FMA, and a blocked scalar
// fallback with identical structure.
// ---------------------------------------------------------------------------

enum class AMode { Normal, Transposed };
enum class CInit { Acc, Fresh };  // Fresh: init from bias row (null → 0)

struct GemmArgs {
  const double* a;
  std::size_t lda;
  const double* b;
  std::size_t ldb;
  double* c;
  std::size_t ldc;
  const double* bias;  // only read in CInit::Fresh mode; may be null
  int m, n, k;
  // Optional row maps (CSR gather/scatter without materialized copies):
  // row i of A reads a[amap[i]], row p of B reads b[bmap[p]], row i of C
  // writes c[cmap[i]]. cmap rows must be distinct (they are CSR targets).
  const int* amap = nullptr;
  const int* bmap = nullptr;
  const int* cmap = nullptr;
};

inline const double* b_row(const GemmArgs& g, int p) {
  const int idx = g.bmap ? g.bmap[p] : p;
  return g.b + static_cast<std::size_t>(idx) * g.ldb;
}

inline double* c_row(const GemmArgs& g, int i) {
  const int idx = g.cmap ? g.cmap[i] : i;
  return g.c + static_cast<std::size_t>(idx) * g.ldc;
}

template <AMode AM>
inline double a_elem(const GemmArgs& g, int i, int p) {
  if constexpr (AM == AMode::Normal) {
    const int row = g.amap ? g.amap[i] : i;
    return g.a[static_cast<std::size_t>(row) * g.lda +
               static_cast<std::size_t>(p)];
  } else {
    return g.a[static_cast<std::size_t>(p) * g.lda +
               static_cast<std::size_t>(i)];
  }
}

// ---------------------------------------------------------------------------
// Fused RGCN layer kernel (rgcn_layer). A micro-tile is a slice of one row
// plan tile: its C rows share a relation set, so they accumulate the self
// term and the same relation segments in registers, then leave through the
// activation in one store. Operand row strides are the shapes' widths: k
// for A and every M, n for B, every W and C.
// ---------------------------------------------------------------------------

struct LayerArgs {
  const double* a;
  const double* b;
  const double* bias;
  const double* const* m;  // per relation
  const double* const* w;  // per relation
  double* c;
  int n, k, nrel;
  double slope;
};

// Up to kRowTile rows of one plan tile: node ids `rows`, relation set
// `sig`, and the M-row maps of its q-th relation at mrow + q * stride.
struct TileRows {
  const int* rows;
  unsigned sig;
  const int* mrow;
  int stride;
};

template <class T>
inline T* k_row(T* base, int row, int width) {
  return base + static_cast<std::size_t>(row) * static_cast<std::size_t>(width);
}

// The segments of one micro-tile, in the order every ISA branch must
// accumulate them for bit-identity with the composed kernels: the self
// term H·W₀, then each relation of the tile's set in ascending order.
// Calls seg(rows, weights) with the tile rows of that segment's A operand.
template <int MI, class Seg>
inline void for_each_segment(const LayerArgs& g, const TileRows& t, Seg&& seg) {
  const double* ar[MI];
  for (int r = 0; r < MI; ++r) ar[r] = k_row(g.a, t.rows[r], g.k);
  seg(ar, g.b);
  const int* mr = t.mrow;
  for (int rel = 0; rel < g.nrel; ++rel) {
    if (!((t.sig >> rel) & 1u)) continue;
    for (int r = 0; r < MI; ++r) ar[r] = k_row(g.m[rel], mr[r], g.k);
    seg(ar, g.w[rel]);
    mr += t.stride;
  }
}

// ---------------------------------------------------------------------------
// Two-pass RGCN layer backward (rgcn_layer_backward, rgcn_gather). The tile
// pass walks the row plan like the forward kernel, but each segment leaves
// through its own store: the self term into DH, relation r's into its
// compressed rows of D, times the row's 1/c. The entry point transposes
// each weight once (k×n), so every segment streams rows as the GEMM driver
// does. Its row and column loops are spelled out per kernel, as the
// forward's are: with the forward routed through shared generic-lambda
// loops instead, GCC 12 kept its accumulators in memory and the encode
// ran 40% slower.
// ---------------------------------------------------------------------------

struct BackArgs {
  const double* dz;                                 // N×k
  const double* wt[1 + graph::kNumModelRelations];  // self, then per relation
  const double* inv[graph::kNumModelRelations];     // per compressed row
  double* dh;                                       // N×n
  double* d[graph::kNumModelRelations];             // compressed rows, n wide
  int n, k, nrel;
};

// The segments of one backward micro-tile: the self term, then each
// relation of the tile's set in ascending order. Calls
// seg(dz rows, Wᵀ, output rows, row scales); the self term's scale is 1,
// which leaves its products untouched (x·1 = x exactly).
template <int MI, class Seg>
inline void for_each_back_segment(const BackArgs& g, const TileRows& t,
                                  Seg&& seg) {
  const double* ar[MI];
  double* out[MI];
  double scale[MI];
  for (int r = 0; r < MI; ++r) {
    ar[r] = k_row(g.dz, t.rows[r], g.k);
    out[r] = k_row(g.dh, t.rows[r], g.n);
    scale[r] = 1.0;
  }
  seg(ar, g.wt[0], out, scale);
  const int* mr = t.mrow;
  for (int rel = 0; rel < g.nrel; ++rel) {
    if (!((t.sig >> rel) & 1u)) continue;
    for (int r = 0; r < MI; ++r) {
      out[r] = k_row(g.d[rel], mr[r], g.n);
      scale[r] = g.inv[rel][mr[r]];
    }
    seg(ar, g.wt[1 + rel], out, scale);
    mr += t.stride;
  }
}

struct GatherArgs {
  const double* d;  // stacked compressed rows, n wide
  const int* offset;
  const int* rows;
  int row_end;         // rows at or past this index are not gathered
  const double* act;   // N×n activation for the mask, or null
  double slope;
  double* dh;  // N×n
  int n;
};

// The rows node s gathers: [offset[s], offset[s+1]) cut at the first row
// past row_end (each node's rows are non-decreasing).
template <class F>
inline void for_each_gathered_row(const GatherArgs& g, int s, F&& f) {
  for (int q = g.offset[s]; q < g.offset[s + 1]; ++q) {
    if (g.rows[q] >= g.row_end) break;
    f(k_row(g.d, g.rows[q], g.n));
  }
}

#if defined(__AVX512F__)

constexpr int kRowTile = 8;   // C rows per micro-tile
constexpr int kColTile = 24;  // 3 × 8 lanes (8×3 zmm accs + 3 B + av fit in 32 regs)

template <AMode AM, CInit CI, int MI, int NV>
void micro(const GemmArgs& g, int i0, int j0, __mmask8 tail) {
  __m512d acc[MI][NV];
  for (int r = 0; r < MI; ++r) {
    const double* cr = c_row(g, i0 + r) + j0;
    for (int v = 0; v < NV; ++v) {
      if constexpr (CI == CInit::Acc) {
        acc[r][v] = (v == NV - 1) ? _mm512_maskz_loadu_pd(tail, cr + 8 * v)
                                  : _mm512_loadu_pd(cr + 8 * v);
      } else {
        acc[r][v] =
            g.bias == nullptr
                ? _mm512_setzero_pd()
                : ((v == NV - 1)
                       ? _mm512_maskz_loadu_pd(tail, g.bias + j0 + 8 * v)
                       : _mm512_loadu_pd(g.bias + j0 + 8 * v));
      }
    }
  }
  for (int p = 0; p < g.k; ++p) {
    const double* bp = b_row(g, p) + j0;
    __m512d bv[NV];
    for (int v = 0; v < NV; ++v)
      bv[v] = (v == NV - 1) ? _mm512_maskz_loadu_pd(tail, bp + 8 * v)
                            : _mm512_loadu_pd(bp + 8 * v);
    for (int r = 0; r < MI; ++r) {
      const __m512d av = _mm512_set1_pd(a_elem<AM>(g, i0 + r, p));
      for (int v = 0; v < NV; ++v)
        acc[r][v] = _mm512_fmadd_pd(av, bv[v], acc[r][v]);
    }
  }
  for (int r = 0; r < MI; ++r) {
    double* cr = c_row(g, i0 + r) + j0;
    for (int v = 0; v < NV; ++v) {
      if (v == NV - 1)
        _mm512_mask_storeu_pd(cr + 8 * v, tail, acc[r][v]);
      else
        _mm512_storeu_pd(cr + 8 * v, acc[r][v]);
    }
  }
}

template <AMode AM, CInit CI, int MI>
void micro_cols(const GemmArgs& g, int i0, int j0, int nv, __mmask8 tail) {
  switch (nv) {
    case 1: micro<AM, CI, MI, 1>(g, i0, j0, tail); break;
    case 2: micro<AM, CI, MI, 2>(g, i0, j0, tail); break;
    case 3: micro<AM, CI, MI, 3>(g, i0, j0, tail); break;
    default: break;
  }
}

template <AMode AM, CInit CI>
void row_block(const GemmArgs& g, int i0, int mi) {
  auto cols = [&](auto mi_tag) {
    constexpr int MI = decltype(mi_tag)::value;
    int j0 = 0;
    for (; j0 + kColTile <= g.n; j0 += kColTile)
      micro<AM, CI, MI, 3>(g, i0, j0, 0xff);
    const int rem = g.n - j0;
    if (rem == 0) return;
    const int nv = (rem + 7) / 8;
    const auto tail = static_cast<__mmask8>(
        (rem % 8) ? ((1u << (rem % 8)) - 1u) : 0xffu);
    micro_cols<AM, CI, MI>(g, i0, j0, nv, tail);
  };
  switch (mi) {
    case 8: cols(std::integral_constant<int, 8>{}); break;
    case 7: cols(std::integral_constant<int, 7>{}); break;
    case 6: cols(std::integral_constant<int, 6>{}); break;
    case 5: cols(std::integral_constant<int, 5>{}); break;
    case 4: cols(std::integral_constant<int, 4>{}); break;
    case 3: cols(std::integral_constant<int, 3>{}); break;
    case 2: cols(std::integral_constant<int, 2>{}); break;
    case 1: cols(std::integral_constant<int, 1>{}); break;
    default: break;
  }
}

template <int MI, int NV>
inline void layer_segment(__m512d (&acc)[MI][NV], const double* const (&ar)[MI],
                          const double* b, const LayerArgs& g, int j0,
                          __mmask8 tail) {
  for (int p = 0; p < g.k; ++p) {
    const double* bp = k_row(b, p, g.n) + j0;
    __m512d bv[NV];
    for (int v = 0; v < NV; ++v)
      bv[v] = (v == NV - 1) ? _mm512_maskz_loadu_pd(tail, bp + 8 * v)
                            : _mm512_loadu_pd(bp + 8 * v);
    for (int r = 0; r < MI; ++r) {
      const __m512d av = _mm512_set1_pd(ar[r][p]);
      for (int v = 0; v < NV; ++v)
        acc[r][v] = _mm512_fmadd_pd(av, bv[v], acc[r][v]);
    }
  }
}

// One segment of the backward tile pass: out[r] = scale[r] · (A rows ·
// Wᵀ), the product chain from zero. The accumulators are locals no load
// here can alias, so they stay in registers across the reduction.
template <int MI, int NV>
inline void back_segment(const double* const (&ar)[MI], const double* wt,
                         int k, int n, double* const (&out)[MI],
                         const double (&scale)[MI], int j0, __mmask8 tail) {
  const double* a[MI];
  __m512d acc[MI][NV];
  for (int r = 0; r < MI; ++r) {
    a[r] = ar[r];
    for (int v = 0; v < NV; ++v) acc[r][v] = _mm512_setzero_pd();
  }
  for (int p = 0; p < k; ++p) {
    const double* bp = k_row(wt, p, n) + j0;
    __m512d bv[NV];
    for (int v = 0; v < NV; ++v)
      bv[v] = (v == NV - 1) ? _mm512_maskz_loadu_pd(tail, bp + 8 * v)
                            : _mm512_loadu_pd(bp + 8 * v);
    for (int r = 0; r < MI; ++r) {
      const __m512d av = _mm512_set1_pd(a[r][p]);
      for (int v = 0; v < NV; ++v)
        acc[r][v] = _mm512_fmadd_pd(av, bv[v], acc[r][v]);
    }
  }
  for (int r = 0; r < MI; ++r) {
    const __m512d sc = _mm512_set1_pd(scale[r]);
    double* cr = out[r] + j0;
    for (int v = 0; v < NV; ++v) {
      const __m512d y = _mm512_mul_pd(acc[r][v], sc);
      if (v == NV - 1)
        _mm512_mask_storeu_pd(cr + 8 * v, tail, y);
      else
        _mm512_storeu_pd(cr + 8 * v, y);
    }
  }
}

template <int MI, int NV>
void layer_micro(const LayerArgs& g, const TileRows& t, int j0, __mmask8 tail) {
  __m512d acc[MI][NV];
  for (int r = 0; r < MI; ++r)
    for (int v = 0; v < NV; ++v)
      acc[r][v] = (v == NV - 1)
                      ? _mm512_maskz_loadu_pd(tail, g.bias + j0 + 8 * v)
                      : _mm512_loadu_pd(g.bias + j0 + 8 * v);
  for_each_segment<MI>(g, t, [&](const double* const (&ar)[MI], const double* b) {
    layer_segment<MI, NV>(acc, ar, b, g, j0, tail);
  });
  const __m512d zero = _mm512_setzero_pd();
  const __m512d slope = _mm512_set1_pd(g.slope);
  for (int r = 0; r < MI; ++r) {
    double* cr = k_row(g.c, t.rows[r], g.n) + j0;
    for (int v = 0; v < NV; ++v) {
      const __m512d x = acc[r][v];
      const __m512d y =
          _mm512_mask_blend_pd(_mm512_cmp_pd_mask(x, zero, _CMP_GT_OQ),
                               _mm512_mul_pd(slope, x), x);
      if (v == NV - 1)
        _mm512_mask_storeu_pd(cr + 8 * v, tail, y);
      else
        _mm512_storeu_pd(cr + 8 * v, y);
    }
  }
}

template <int MI>
void layer_cols(const LayerArgs& g, const TileRows& t) {
  int j0 = 0;
  for (; j0 + kColTile <= g.n; j0 += kColTile)
    layer_micro<MI, 3>(g, t, j0, 0xff);
  const int rem = g.n - j0;
  if (rem == 0) return;
  const auto tail =
      static_cast<__mmask8>((rem % 8) ? ((1u << (rem % 8)) - 1u) : 0xffu);
  switch ((rem + 7) / 8) {
    case 1: layer_micro<MI, 1>(g, t, j0, tail); break;
    case 2: layer_micro<MI, 2>(g, t, j0, tail); break;
    case 3: layer_micro<MI, 3>(g, t, j0, tail); break;
    default: break;
  }
}

template <int MI, int NV>
void back_micro(const BackArgs& g, const TileRows& t, int j0, __mmask8 tail) {
  for_each_back_segment<MI>(g, t,
                            [&](const double* const (&ar)[MI], const double* wt,
                                double* const (&out)[MI],
                                const double (&scale)[MI]) {
    back_segment<MI, NV>(ar, wt, g.k, g.n, out, scale, j0, tail);
  });
}

template <int NV>
void gather_block(const GatherArgs& g, int s, int j0, __mmask8 tail) {
  double* out = k_row(g.dh, s, g.n) + j0;
  __m512d acc[NV];
  for (int v = 0; v < NV; ++v)
    acc[v] = (v == NV - 1) ? _mm512_maskz_loadu_pd(tail, out + 8 * v)
                           : _mm512_loadu_pd(out + 8 * v);
  for_each_gathered_row(g, s, [&](const double* src) {
    src += j0;
    for (int v = 0; v < NV; ++v) {
      const __m512d x = (v == NV - 1) ? _mm512_maskz_loadu_pd(tail, src + 8 * v)
                                      : _mm512_loadu_pd(src + 8 * v);
      acc[v] = _mm512_add_pd(acc[v], x);
    }
  });
  if (g.act != nullptr) {
    const double* a = k_row(g.act, s, g.n) + j0;
    const __m512d zero = _mm512_setzero_pd();
    const __m512d slope = _mm512_set1_pd(g.slope);
    for (int v = 0; v < NV; ++v) {
      const __m512d av = (v == NV - 1) ? _mm512_maskz_loadu_pd(tail, a + 8 * v)
                                       : _mm512_loadu_pd(a + 8 * v);
      acc[v] = _mm512_mask_blend_pd(_mm512_cmp_pd_mask(av, zero, _CMP_GT_OQ),
                                    _mm512_mul_pd(acc[v], slope), acc[v]);
    }
  }
  for (int v = 0; v < NV; ++v) {
    if (v == NV - 1)
      _mm512_mask_storeu_pd(out + 8 * v, tail, acc[v]);
    else
      _mm512_storeu_pd(out + 8 * v, acc[v]);
  }
}

template <int MI>
void back_cols(const BackArgs& g, const TileRows& t) {
  int j0 = 0;
  for (; j0 + kColTile <= g.n; j0 += kColTile)
    back_micro<MI, 3>(g, t, j0, 0xff);
  const int rem = g.n - j0;
  if (rem == 0) return;
  const auto tail =
      static_cast<__mmask8>((rem % 8) ? ((1u << (rem % 8)) - 1u) : 0xffu);
  switch ((rem + 7) / 8) {
    case 1: back_micro<MI, 1>(g, t, j0, tail); break;
    case 2: back_micro<MI, 2>(g, t, j0, tail); break;
    case 3: back_micro<MI, 3>(g, t, j0, tail); break;
    default: break;
  }
}

void gather_row(const GatherArgs& g, int s) {
  int j0 = 0;
  for (; j0 + kColTile <= g.n; j0 += kColTile) gather_block<3>(g, s, j0, 0xff);
  const int rem = g.n - j0;
  if (rem == 0) return;
  const auto tail =
      static_cast<__mmask8>((rem % 8) ? ((1u << (rem % 8)) - 1u) : 0xffu);
  switch ((rem + 7) / 8) {
    case 1: gather_block<1>(g, s, j0, tail); break;
    case 2: gather_block<2>(g, s, j0, tail); break;
    case 3: gather_block<3>(g, s, j0, tail); break;
    default: break;
  }
}

#elif defined(__AVX2__) && defined(__FMA__)

constexpr int kRowTile = 4;  // C rows per micro-tile
constexpr int kColTile = 8;  // 2 × 4 lanes

inline __m256i avx2_tail_mask(int lanes) {
  // lanes in 1..4: all-ones in the first `lanes` 64-bit slots.
  alignas(32) static constexpr std::int64_t kBits[8] = {-1, -1, -1, -1,
                                                       0,  0,  0,  0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kBits + (4 - lanes)));
}

template <AMode AM, CInit CI, int MI, int NV>
void micro(const GemmArgs& g, int i0, int j0, __m256i tail) {
  __m256d acc[MI][NV];
  for (int r = 0; r < MI; ++r) {
    const double* cr = c_row(g, i0 + r) + j0;
    for (int v = 0; v < NV; ++v) {
      if constexpr (CI == CInit::Acc) {
        acc[r][v] = (v == NV - 1) ? _mm256_maskload_pd(cr + 4 * v, tail)
                                  : _mm256_loadu_pd(cr + 4 * v);
      } else {
        acc[r][v] =
            g.bias == nullptr
                ? _mm256_setzero_pd()
                : ((v == NV - 1)
                       ? _mm256_maskload_pd(g.bias + j0 + 4 * v, tail)
                       : _mm256_loadu_pd(g.bias + j0 + 4 * v));
      }
    }
  }
  for (int p = 0; p < g.k; ++p) {
    const double* bp = b_row(g, p) + j0;
    __m256d bv[NV];
    for (int v = 0; v < NV; ++v)
      bv[v] = (v == NV - 1) ? _mm256_maskload_pd(bp + 4 * v, tail)
                            : _mm256_loadu_pd(bp + 4 * v);
    for (int r = 0; r < MI; ++r) {
      const __m256d av = _mm256_set1_pd(a_elem<AM>(g, i0 + r, p));
      for (int v = 0; v < NV; ++v)
        acc[r][v] = _mm256_fmadd_pd(av, bv[v], acc[r][v]);
    }
  }
  for (int r = 0; r < MI; ++r) {
    double* cr = c_row(g, i0 + r) + j0;
    for (int v = 0; v < NV; ++v) {
      if (v == NV - 1)
        _mm256_maskstore_pd(cr + 4 * v, tail, acc[r][v]);
      else
        _mm256_storeu_pd(cr + 4 * v, acc[r][v]);
    }
  }
}

template <AMode AM, CInit CI>
void row_block(const GemmArgs& g, int i0, int mi) {
  auto cols = [&](auto mi_tag) {
    constexpr int MI = decltype(mi_tag)::value;
    const __m256i full = avx2_tail_mask(4);
    int j0 = 0;
    for (; j0 + kColTile <= g.n; j0 += kColTile)
      micro<AM, CI, MI, 2>(g, i0, j0, full);
    const int rem = g.n - j0;
    if (rem == 0) return;
    const __m256i tail = avx2_tail_mask((rem % 4) ? rem % 4 : 4);
    if (rem > 4)
      micro<AM, CI, MI, 2>(g, i0, j0, tail);
    else
      micro<AM, CI, MI, 1>(g, i0, j0, tail);
  };
  switch (mi) {
    case 4: cols(std::integral_constant<int, 4>{}); break;
    case 3: cols(std::integral_constant<int, 3>{}); break;
    case 2: cols(std::integral_constant<int, 2>{}); break;
    case 1: cols(std::integral_constant<int, 1>{}); break;
    default: break;
  }
}

template <int MI, int NV>
inline void layer_segment(__m256d (&acc)[MI][NV], const double* const (&ar)[MI],
                          const double* b, const LayerArgs& g, int j0,
                          __m256i tail) {
  for (int p = 0; p < g.k; ++p) {
    const double* bp = k_row(b, p, g.n) + j0;
    __m256d bv[NV];
    for (int v = 0; v < NV; ++v)
      bv[v] = (v == NV - 1) ? _mm256_maskload_pd(bp + 4 * v, tail)
                            : _mm256_loadu_pd(bp + 4 * v);
    for (int r = 0; r < MI; ++r) {
      const __m256d av = _mm256_set1_pd(ar[r][p]);
      for (int v = 0; v < NV; ++v)
        acc[r][v] = _mm256_fmadd_pd(av, bv[v], acc[r][v]);
    }
  }
}

// One segment of the backward tile pass: out[r] = scale[r] · (A rows ·
// Wᵀ), the product chain from zero. The accumulators are locals no load
// here can alias, so they stay in registers across the reduction.
template <int MI, int NV>
inline void back_segment(const double* const (&ar)[MI], const double* wt,
                         int k, int n, double* const (&out)[MI],
                         const double (&scale)[MI], int j0, __m256i tail) {
  const double* a[MI];
  __m256d acc[MI][NV];
  for (int r = 0; r < MI; ++r) {
    a[r] = ar[r];
    for (int v = 0; v < NV; ++v) acc[r][v] = _mm256_setzero_pd();
  }
  for (int p = 0; p < k; ++p) {
    const double* bp = k_row(wt, p, n) + j0;
    __m256d bv[NV];
    for (int v = 0; v < NV; ++v)
      bv[v] = (v == NV - 1) ? _mm256_maskload_pd(bp + 4 * v, tail)
                            : _mm256_loadu_pd(bp + 4 * v);
    for (int r = 0; r < MI; ++r) {
      const __m256d av = _mm256_set1_pd(a[r][p]);
      for (int v = 0; v < NV; ++v)
        acc[r][v] = _mm256_fmadd_pd(av, bv[v], acc[r][v]);
    }
  }
  for (int r = 0; r < MI; ++r) {
    const __m256d sc = _mm256_set1_pd(scale[r]);
    double* cr = out[r] + j0;
    for (int v = 0; v < NV; ++v) {
      const __m256d y = _mm256_mul_pd(acc[r][v], sc);
      if (v == NV - 1)
        _mm256_maskstore_pd(cr + 4 * v, tail, y);
      else
        _mm256_storeu_pd(cr + 4 * v, y);
    }
  }
}

template <int MI, int NV>
void layer_micro(const LayerArgs& g, const TileRows& t, int j0, __m256i tail) {
  __m256d acc[MI][NV];
  for (int r = 0; r < MI; ++r)
    for (int v = 0; v < NV; ++v)
      acc[r][v] = (v == NV - 1) ? _mm256_maskload_pd(g.bias + j0 + 4 * v, tail)
                                : _mm256_loadu_pd(g.bias + j0 + 4 * v);
  for_each_segment<MI>(g, t, [&](const double* const (&ar)[MI], const double* b) {
    layer_segment<MI, NV>(acc, ar, b, g, j0, tail);
  });
  const __m256d zero = _mm256_setzero_pd();
  const __m256d slope = _mm256_set1_pd(g.slope);
  for (int r = 0; r < MI; ++r) {
    double* cr = k_row(g.c, t.rows[r], g.n) + j0;
    for (int v = 0; v < NV; ++v) {
      const __m256d x = acc[r][v];
      const __m256d y = _mm256_blendv_pd(_mm256_mul_pd(slope, x), x,
                                         _mm256_cmp_pd(x, zero, _CMP_GT_OQ));
      if (v == NV - 1)
        _mm256_maskstore_pd(cr + 4 * v, tail, y);
      else
        _mm256_storeu_pd(cr + 4 * v, y);
    }
  }
}

template <int MI>
void layer_cols(const LayerArgs& g, const TileRows& t) {
  const __m256i full = avx2_tail_mask(4);
  int j0 = 0;
  for (; j0 + kColTile <= g.n; j0 += kColTile)
    layer_micro<MI, 2>(g, t, j0, full);
  const int rem = g.n - j0;
  if (rem == 0) return;
  const __m256i tail = avx2_tail_mask((rem % 4) ? rem % 4 : 4);
  if (rem > 4)
    layer_micro<MI, 2>(g, t, j0, tail);
  else
    layer_micro<MI, 1>(g, t, j0, tail);
}

template <int MI, int NV>
void back_micro(const BackArgs& g, const TileRows& t, int j0, __m256i tail) {
  for_each_back_segment<MI>(g, t,
                            [&](const double* const (&ar)[MI], const double* wt,
                                double* const (&out)[MI],
                                const double (&scale)[MI]) {
    back_segment<MI, NV>(ar, wt, g.k, g.n, out, scale, j0, tail);
  });
}

template <int NV>
void gather_block(const GatherArgs& g, int s, int j0, __m256i tail) {
  double* out = k_row(g.dh, s, g.n) + j0;
  __m256d acc[NV];
  for (int v = 0; v < NV; ++v)
    acc[v] = (v == NV - 1) ? _mm256_maskload_pd(out + 4 * v, tail)
                           : _mm256_loadu_pd(out + 4 * v);
  for_each_gathered_row(g, s, [&](const double* src) {
    src += j0;
    for (int v = 0; v < NV; ++v) {
      const __m256d x = (v == NV - 1) ? _mm256_maskload_pd(src + 4 * v, tail)
                                      : _mm256_loadu_pd(src + 4 * v);
      acc[v] = _mm256_add_pd(acc[v], x);
    }
  });
  if (g.act != nullptr) {
    const double* a = k_row(g.act, s, g.n) + j0;
    const __m256d zero = _mm256_setzero_pd();
    const __m256d slope = _mm256_set1_pd(g.slope);
    for (int v = 0; v < NV; ++v) {
      const __m256d av = (v == NV - 1) ? _mm256_maskload_pd(a + 4 * v, tail)
                                       : _mm256_loadu_pd(a + 4 * v);
      acc[v] = _mm256_blendv_pd(_mm256_mul_pd(acc[v], slope), acc[v],
                                _mm256_cmp_pd(av, zero, _CMP_GT_OQ));
    }
  }
  for (int v = 0; v < NV; ++v) {
    if (v == NV - 1)
      _mm256_maskstore_pd(out + 4 * v, tail, acc[v]);
    else
      _mm256_storeu_pd(out + 4 * v, acc[v]);
  }
}

template <int MI>
void back_cols(const BackArgs& g, const TileRows& t) {
  const __m256i full = avx2_tail_mask(4);
  int j0 = 0;
  for (; j0 + kColTile <= g.n; j0 += kColTile)
    back_micro<MI, 2>(g, t, j0, full);
  const int rem = g.n - j0;
  if (rem == 0) return;
  const __m256i tail = avx2_tail_mask((rem % 4) ? rem % 4 : 4);
  if (rem > 4)
    back_micro<MI, 2>(g, t, j0, tail);
  else
    back_micro<MI, 1>(g, t, j0, tail);
}

void gather_row(const GatherArgs& g, int s) {
  const __m256i full = avx2_tail_mask(4);
  int j0 = 0;
  for (; j0 + kColTile <= g.n; j0 += kColTile) gather_block<2>(g, s, j0, full);
  const int rem = g.n - j0;
  if (rem == 0) return;
  const __m256i tail = avx2_tail_mask((rem % 4) ? rem % 4 : 4);
  if (rem > 4)
    gather_block<2>(g, s, j0, tail);
  else
    gather_block<1>(g, s, j0, tail);
}

#else  // scalar fallback

constexpr int kRowTile = 4;
constexpr int kColTile = 32;

template <AMode AM, CInit CI, int MI>
void micro(const GemmArgs& g, int i0, int j0, int nj) {
  double acc[MI][kColTile];
  for (int r = 0; r < MI; ++r) {
    if constexpr (CI == CInit::Acc) {
      const double* cr = c_row(g, i0 + r) + j0;
      for (int j = 0; j < nj; ++j) acc[r][j] = cr[j];
    } else if (g.bias != nullptr) {
      for (int j = 0; j < nj; ++j) acc[r][j] = g.bias[j0 + j];
    } else {
      for (int j = 0; j < nj; ++j) acc[r][j] = 0.0;
    }
  }
  for (int p = 0; p < g.k; ++p) {
    const double* bp = b_row(g, p) + j0;
    double av[MI];
    for (int r = 0; r < MI; ++r) av[r] = a_elem<AM>(g, i0 + r, p);
    for (int r = 0; r < MI; ++r)
      for (int j = 0; j < nj; ++j) acc[r][j] += av[r] * bp[j];
  }
  for (int r = 0; r < MI; ++r) {
    double* cr = c_row(g, i0 + r) + j0;
    for (int j = 0; j < nj; ++j) cr[j] = acc[r][j];
  }
}

template <AMode AM, CInit CI>
void row_block(const GemmArgs& g, int i0, int mi) {
  for (int j0 = 0; j0 < g.n; j0 += kColTile) {
    const int nj = std::min(kColTile, g.n - j0);
    switch (mi) {
      case 4: micro<AM, CI, 4>(g, i0, j0, nj); break;
      case 3: micro<AM, CI, 3>(g, i0, j0, nj); break;
      case 2: micro<AM, CI, 2>(g, i0, j0, nj); break;
      case 1: micro<AM, CI, 1>(g, i0, j0, nj); break;
      default: break;
    }
  }
}

template <int MI>
inline void layer_segment(double (&acc)[MI][kColTile],
                          const double* const (&ar)[MI], const double* b,
                          const LayerArgs& g, int j0, int nj) {
  for (int p = 0; p < g.k; ++p) {
    const double* bp = k_row(b, p, g.n) + j0;
    double av[MI];
    for (int r = 0; r < MI; ++r) av[r] = ar[r][p];
    for (int r = 0; r < MI; ++r)
      for (int j = 0; j < nj; ++j) acc[r][j] += av[r] * bp[j];
  }
}

template <int MI>
void layer_micro(const LayerArgs& g, const TileRows& t, int j0, int nj) {
  double acc[MI][kColTile];
  for (int r = 0; r < MI; ++r)
    for (int j = 0; j < nj; ++j) acc[r][j] = g.bias[j0 + j];
  for_each_segment<MI>(g, t, [&](const double* const (&ar)[MI], const double* b) {
    layer_segment<MI>(acc, ar, b, g, j0, nj);
  });
  for (int r = 0; r < MI; ++r) {
    double* cr = k_row(g.c, t.rows[r], g.n) + j0;
    for (int j = 0; j < nj; ++j) {
      const double x = acc[r][j];
      cr[j] = x > 0.0 ? x : g.slope * x;
    }
  }
}

template <int MI>
void layer_cols(const LayerArgs& g, const TileRows& t) {
  for (int j0 = 0; j0 < g.n; j0 += kColTile)
    layer_micro<MI>(g, t, j0, std::min(kColTile, g.n - j0));
}

template <int MI>
void back_micro(const BackArgs& g, const TileRows& t, int j0, int nj) {
  for_each_back_segment<MI>(g, t,
                            [&](const double* const (&ar)[MI], const double* wt,
                                double* const (&out)[MI],
                                const double (&scale)[MI]) {
    double acc[MI][kColTile];
    for (int r = 0; r < MI; ++r)
      for (int j = 0; j < nj; ++j) acc[r][j] = 0.0;
    for (int p = 0; p < g.k; ++p) {
      const double* bp = k_row(wt, p, g.n) + j0;
      double av[MI];
      for (int r = 0; r < MI; ++r) av[r] = ar[r][p];
      for (int r = 0; r < MI; ++r)
        for (int j = 0; j < nj; ++j) acc[r][j] += av[r] * bp[j];
    }
    for (int r = 0; r < MI; ++r) {
      double* cr = out[r] + j0;
      for (int j = 0; j < nj; ++j) cr[j] = acc[r][j] * scale[r];
    }
  });
}

inline void gather_block(const GatherArgs& g, int s, int j0, int nj) {
  double* out = k_row(g.dh, s, g.n) + j0;
  double acc[kColTile];
  for (int j = 0; j < nj; ++j) acc[j] = out[j];
  for_each_gathered_row(g, s, [&](const double* src) {
    for (int j = 0; j < nj; ++j) acc[j] += src[j0 + j];
  });
  if (g.act != nullptr) {
    const double* a = k_row(g.act, s, g.n) + j0;
    for (int j = 0; j < nj; ++j) acc[j] *= a[j] > 0.0 ? 1.0 : g.slope;
  }
  for (int j = 0; j < nj; ++j) out[j] = acc[j];
}

template <int MI>
void back_cols(const BackArgs& g, const TileRows& t) {
  for (int j0 = 0; j0 < g.n; j0 += kColTile)
    back_micro<MI>(g, t, j0, std::min(kColTile, g.n - j0));
}

void gather_row(const GatherArgs& g, int s) {
  for (int j0 = 0; j0 < g.n; j0 += kColTile)
    gather_block(g, s, j0, std::min(kColTile, g.n - j0));
}

#endif  // ISA selection

static_assert(graph::RowPlan::kTileRows % kRowTile == 0,
              "a plan tile splits into whole micro-tiles");

/// layer_cols<mi> for a runtime row count mi in [1, kRowTile].
template <int MI = kRowTile>
void layer_rows(const LayerArgs& g, const TileRows& t, int mi) {
  if constexpr (MI >= 1) {
    if (mi == MI)
      layer_cols<MI>(g, t);
    else
      layer_rows<MI - 1>(g, t, mi);
  }
}

/// back_cols<mi> for a runtime row count mi in [1, kRowTile].
template <int MI = kRowTile>
void back_rows(const BackArgs& g, const TileRows& t, int mi) {
  if constexpr (MI >= 1) {
    if (mi == MI)
      back_cols<MI>(g, t);
    else
      back_rows<MI - 1>(g, t, mi);
  }
}

template <AMode AM, CInit CI>
void gemm_drive(const GemmArgs& g) {
  for (int i0 = 0; i0 < g.m; i0 += kRowTile)
    row_block<AM, CI>(g, i0, std::min(kRowTile, g.m - i0));
}

/// B (n×k) transposed into bt (k×n).
void transpose_into(const Matrix& b, double* bt) {
  const int n = b.rows(), k = b.cols();
  for (int j = 0; j < n; ++j) {
    const double* bj = b.row(j);
    for (int p = 0; p < k; ++p)
      bt[static_cast<std::size_t>(p) * n + j] = bj[p];
  }
}

/// B (n×k) transposed into a per-thread scratch (k×n) so A·Bᵀ runs through
/// the row-streaming driver. The scratch grows once per thread and is
/// reused, so steady-state training does not allocate here.
const double* transpose_to_scratch(const Matrix& b) {
  thread_local std::vector<double> scratch;
  scratch.resize(b.size());
  transpose_into(b, scratch.data());
  return scratch.data();
}

}  // namespace

void gemm_acc(const Matrix& a, const Matrix& b, Matrix& c) {
  PNP_CHECK_MSG(a.cols() == b.rows() && a.rows() == c.rows() &&
                    b.cols() == c.cols(),
                "gemm shapes: (" << a.rows() << "x" << a.cols() << ")·("
                                 << b.rows() << "x" << b.cols() << ") -> ("
                                 << c.rows() << "x" << c.cols() << ")");
  const GemmArgs g{a.data(),  static_cast<std::size_t>(a.cols()),
                   b.data(),  static_cast<std::size_t>(b.cols()),
                   c.data(),  static_cast<std::size_t>(c.cols()),
                   nullptr,   c.rows(), c.cols(), a.cols()};
  gemm_drive<AMode::Normal, CInit::Acc>(g);
}

void rgcn_layer(const Matrix& a, const Matrix& b, std::span<const double> bias,
                std::span<const Matrix* const> m,
                std::span<const Matrix* const> w, const graph::RowPlan& plan,
                double slope, Matrix& c) {
  const int k = a.cols(), n = b.cols();
  PNP_CHECK_MSG(b.rows() == k && c.rows() == a.rows() && c.cols() == n &&
                    static_cast<int>(bias.size()) == n &&
                    static_cast<int>(plan.order.size()) == a.rows() &&
                    m.size() == w.size() &&
                    m.size() <= static_cast<std::size_t>(
                                    graph::kNumModelRelations),
                "rgcn_layer shapes mismatch");
  std::array<const double*, graph::kNumModelRelations> mp{}, wp{};
  for (std::size_t r = 0; r < m.size(); ++r) {
    PNP_CHECK(m[r]->cols() == k && w[r]->rows() == k && w[r]->cols() == n);
    mp[r] = m[r]->data();
    wp[r] = w[r]->data();
  }
  const LayerArgs g{a.data(), b.data(),  bias.data(),
                    mp.data(), wp.data(), c.data(),
                    n,         k,         static_cast<int>(m.size()),
                    slope};
  for (int t = 0; t < plan.num_tiles(); ++t) {
    const auto ti = static_cast<std::size_t>(t);
    const int first = plan.tile_start[ti];
    const int rows = plan.tile_start[ti + 1] - first;
    const int* mrow = plan.mrow.data() + plan.tile_mrow[ti];
    for (int i0 = 0; i0 < rows; i0 += kRowTile)
      layer_rows(g,
                 TileRows{plan.order.data() + first + i0, plan.tile_sig[ti],
                          mrow + i0, rows},
                 std::min(kRowTile, rows - i0));
  }
}

void rgcn_layer_backward(const Matrix& dz, const Matrix& w0,
                         std::span<const Matrix* const> w,
                         std::span<const double* const> inv,
                         std::span<const int> rel_base,
                         const graph::RowPlan& plan, Matrix& dh, Matrix& d) {
  const int k = dz.cols(), n = w0.rows();
  const auto nrel = w.size();
  PNP_CHECK_MSG(w0.cols() == k && dh.rows() == dz.rows() && dh.cols() == n &&
                    static_cast<int>(plan.order.size()) == dz.rows() &&
                    inv.size() == nrel && rel_base.size() > nrel &&
                    nrel <= static_cast<std::size_t>(
                                graph::kNumModelRelations) &&
                    d.cols() == n && d.rows() >= rel_base[nrel],
                "rgcn_layer_backward shapes mismatch");
  // Every weight the tile pass reads, transposed once into a per-thread
  // scratch (grown once, then reused): the self weight, then each
  // relation with compressed rows.
  thread_local std::vector<double> scratch;
  const auto wsize = static_cast<std::size_t>(k) * static_cast<std::size_t>(n);
  scratch.resize((nrel + 1) * wsize);
  BackArgs g{};
  g.dz = dz.data();
  g.dh = dh.data();
  g.n = n;
  g.k = k;
  g.nrel = static_cast<int>(nrel);
  transpose_into(w0, scratch.data());
  g.wt[0] = scratch.data();
  for (std::size_t r = 0; r < nrel; ++r) {
    if (rel_base[r + 1] == rel_base[r]) continue;  // no rows: never read
    PNP_CHECK(w[r]->rows() == n && w[r]->cols() == k);
    double* wt = scratch.data() + (r + 1) * wsize;
    transpose_into(*w[r], wt);
    g.wt[r + 1] = wt;
    g.inv[r] = inv[r];
    g.d[r] = d.row(rel_base[r]);
  }
  for (int t = 0; t < plan.num_tiles(); ++t) {
    const auto ti = static_cast<std::size_t>(t);
    const int first = plan.tile_start[ti];
    const int rows = plan.tile_start[ti + 1] - first;
    const int* mrow = plan.mrow.data() + plan.tile_mrow[ti];
    for (int i0 = 0; i0 < rows; i0 += kRowTile)
      back_rows(g,
                TileRows{plan.order.data() + first + i0, plan.tile_sig[ti],
                         mrow + i0, rows},
                std::min(kRowTile, rows - i0));
  }
}

void rgcn_gather(const Matrix& d, std::span<const int> offset,
                 std::span<const int> rows, int row_end, const Matrix* act,
                 double slope, Matrix& dh) {
  const int n = dh.cols();
  PNP_CHECK_MSG(d.cols() == n && row_end <= d.rows() &&
                    static_cast<int>(offset.size()) == dh.rows() + 1 &&
                    (act == nullptr || act->same_shape(dh)),
                "rgcn_gather shapes mismatch");
  const GatherArgs g{d.data(),      offset.data(),
                     rows.data(),   row_end,
                     act == nullptr ? nullptr : act->data(),
                     slope,         dh.data(),
                     n};
  for (int s = 0; s < dh.rows(); ++s) gather_row(g, s);
}

void gemm_tn_acc(const Matrix& a, const Matrix& b, Matrix& c) {
  PNP_CHECK_MSG(a.rows() == b.rows() && a.cols() == c.rows() &&
                    b.cols() == c.cols(),
                "gemm_tn shapes mismatch");
  const GemmArgs g{a.data(),  static_cast<std::size_t>(a.cols()),
                   b.data(),  static_cast<std::size_t>(b.cols()),
                   c.data(),  static_cast<std::size_t>(c.cols()),
                   nullptr,   c.rows(), c.cols(), a.rows()};
  gemm_drive<AMode::Transposed, CInit::Acc>(g);
}

void gemm_nt_acc(const Matrix& a, const Matrix& b, Matrix& c) {
  PNP_CHECK_MSG(a.cols() == b.cols() && a.rows() == c.rows() &&
                    b.rows() == c.cols(),
                "gemm_nt shapes mismatch");
  const GemmArgs g{a.data(),  static_cast<std::size_t>(a.cols()),
                   transpose_to_scratch(b),
                   static_cast<std::size_t>(b.rows()),
                   c.data(),  static_cast<std::size_t>(c.cols()),
                   nullptr,   c.rows(), c.cols(), a.cols()};
  gemm_drive<AMode::Normal, CInit::Acc>(g);
}

void gemm_tn_acc_rows(const Matrix& a, const Matrix& b,
                      std::span<const int> rows, Matrix& c) {
  PNP_CHECK_MSG(static_cast<int>(rows.size()) == a.rows() &&
                    a.cols() == c.rows() && b.cols() == c.cols(),
                "gemm_tn_acc_rows shapes mismatch");
  GemmArgs g{a.data(),  static_cast<std::size_t>(a.cols()),
             b.data(),  static_cast<std::size_t>(b.cols()),
             c.data(),  static_cast<std::size_t>(c.cols()),
             nullptr,   c.rows(), c.cols(), a.rows()};
  g.bmap = rows.data();
  gemm_drive<AMode::Transposed, CInit::Acc>(g);
}

namespace detail {

void gemm_acc_naive(const Matrix& a, const Matrix& b, Matrix& c) {
  PNP_CHECK(a.cols() == b.rows() && a.rows() == c.rows() &&
            b.cols() == c.cols());
  const int m = a.rows(), k = a.cols(), n = b.cols();
  for (int i = 0; i < m; ++i) {
    const double* ai = a.row(i);
    double* ci = c.row(i);
    for (int p = 0; p < k; ++p) {
      const double aip = ai[p];
      if (aip == 0.0) continue;
      const double* bp = b.row(p);
      for (int j = 0; j < n; ++j) ci[j] += aip * bp[j];
    }
  }
}

void gemm_tn_acc_naive(const Matrix& a, const Matrix& b, Matrix& c) {
  PNP_CHECK(a.rows() == b.rows() && a.cols() == c.rows() &&
            b.cols() == c.cols());
  const int k = a.rows(), m = a.cols(), n = b.cols();
  for (int p = 0; p < k; ++p) {
    const double* ap = a.row(p);
    const double* bp = b.row(p);
    for (int i = 0; i < m; ++i) {
      const double api = ap[i];
      if (api == 0.0) continue;
      double* ci = c.row(i);
      for (int j = 0; j < n; ++j) ci[j] += api * bp[j];
    }
  }
}

void gemm_nt_acc_naive(const Matrix& a, const Matrix& b, Matrix& c) {
  PNP_CHECK(a.cols() == b.cols() && a.rows() == c.rows() &&
            b.rows() == c.cols());
  const int m = a.rows(), k = a.cols(), n = b.rows();
  for (int i = 0; i < m; ++i) {
    const double* ai = a.row(i);
    double* ci = c.row(i);
    for (int j = 0; j < n; ++j) {
      const double* bj = b.row(j);
      double s = 0.0;
      for (int p = 0; p < k; ++p) s += ai[p] * bj[p];
      ci[j] += s;
    }
  }
}

void gemm_bias(const Matrix& a, const Matrix& b, std::span<const double> bias,
               Matrix& c) {
  PNP_CHECK_MSG(a.cols() == b.rows() && a.rows() == c.rows() &&
                    b.cols() == c.cols(),
                "gemm_bias shapes mismatch");
  PNP_CHECK(bias.empty() || static_cast<int>(bias.size()) == c.cols());
  const GemmArgs g{a.data(),  static_cast<std::size_t>(a.cols()),
                   b.data(),  static_cast<std::size_t>(b.cols()),
                   c.data(),  static_cast<std::size_t>(c.cols()),
                   bias.empty() ? nullptr : bias.data(),
                   c.rows(),  c.cols(),  a.cols()};
  gemm_drive<AMode::Normal, CInit::Fresh>(g);
}

void gemm_acc_rows(const Matrix& a, const Matrix& b, Matrix& c,
                   std::span<const int> rows) {
  PNP_CHECK_MSG(a.cols() == b.rows() && b.cols() == c.cols() &&
                    static_cast<int>(rows.size()) == a.rows(),
                "gemm_acc_rows shapes mismatch");
  GemmArgs g{a.data(),  static_cast<std::size_t>(a.cols()),
             b.data(),  static_cast<std::size_t>(b.cols()),
             c.data(),  static_cast<std::size_t>(c.cols()),
             nullptr,   a.rows(), c.cols(), a.cols()};
  g.cmap = rows.data();
  gemm_drive<AMode::Normal, CInit::Acc>(g);
}

void gemm_nt(const Matrix& a, const Matrix& b, Matrix& c) {
  PNP_CHECK_MSG(a.cols() == b.cols() && a.rows() == c.rows() &&
                    b.rows() == c.cols(),
                "gemm_nt shapes mismatch");
  const GemmArgs g{a.data(),  static_cast<std::size_t>(a.cols()),
                   transpose_to_scratch(b),
                   static_cast<std::size_t>(b.rows()),
                   c.data(),  static_cast<std::size_t>(c.cols()),
                   nullptr,   c.rows(), c.cols(), a.cols()};
  gemm_drive<AMode::Normal, CInit::Fresh>(g);
}

void gemm_nt_rows(const Matrix& a, std::span<const int> rows, const Matrix& b,
                  Matrix& c) {
  PNP_CHECK_MSG(a.cols() == b.cols() && b.rows() == c.cols() &&
                    static_cast<int>(rows.size()) == c.rows(),
                "gemm_nt_rows shapes mismatch");
  GemmArgs g{a.data(),  static_cast<std::size_t>(a.cols()),
             transpose_to_scratch(b),
             static_cast<std::size_t>(b.rows()),
             c.data(),  static_cast<std::size_t>(c.cols()),
             nullptr,   c.rows(), c.cols(), a.cols()};
  g.amap = rows.data();
  gemm_drive<AMode::Normal, CInit::Fresh>(g);
}

}  // namespace detail

MatrixF::MatrixF(int rows, int cols)
    : rows_(rows),
      cols_(cols),
      data_(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols),
            0.0f) {
  PNP_CHECK(rows >= 0 && cols >= 0);
}

MatrixF MatrixF::from(const Matrix& m) {
  MatrixF f(m.rows(), m.cols());
  const double* src = m.data();
  float* dst = f.data();
  for (std::size_t i = 0; i < f.size(); ++i)
    dst[i] = static_cast<float>(src[i]);
  return f;
}

void gemv_f32(std::span<const float> x, const MatrixF& w,
              std::span<const float> bias, std::span<float> out) {
  const int k = w.rows(), n = w.cols();
  PNP_CHECK_MSG(static_cast<int>(x.size()) == k &&
                    static_cast<int>(out.size()) == n &&
                    (bias.empty() || static_cast<int>(bias.size()) == n),
                "gemv_f32 shapes: x(" << x.size() << ")·W(" << k << "x" << n
                                      << ") -> out(" << out.size() << ")");
#if defined(__AVX512F__)
  for (int j0 = 0; j0 < n; j0 += 16) {
    const int rem = std::min(16, n - j0);
    const auto m = static_cast<__mmask16>(
        rem == 16 ? 0xffffu : ((1u << rem) - 1u));
    __m512 acc = bias.empty()
                     ? _mm512_setzero_ps()
                     : _mm512_maskz_loadu_ps(m, bias.data() + j0);
    for (int i = 0; i < k; ++i)
      acc = _mm512_fmadd_ps(_mm512_set1_ps(x[static_cast<std::size_t>(i)]),
                            _mm512_maskz_loadu_ps(m, w.row(i) + j0), acc);
    _mm512_mask_storeu_ps(out.data() + j0, m, acc);
  }
#elif defined(__AVX2__) && defined(__FMA__)
  alignas(32) static constexpr std::int32_t kBits[16] = {
      -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0};
  for (int j0 = 0; j0 < n; j0 += 8) {
    const int rem = std::min(8, n - j0);
    const __m256i m = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(kBits + (8 - rem)));
    __m256 acc = bias.empty()
                     ? _mm256_setzero_ps()
                     : _mm256_maskload_ps(bias.data() + j0, m);
    for (int i = 0; i < k; ++i)
      acc = _mm256_fmadd_ps(_mm256_set1_ps(x[static_cast<std::size_t>(i)]),
                            _mm256_maskload_ps(w.row(i) + j0, m), acc);
    _mm256_maskstore_ps(out.data() + j0, m, acc);
  }
#else
  detail::gemv_f32_naive(x, w, bias, out);
#endif
}

namespace detail {

void gemv_f32_naive(std::span<const float> x, const MatrixF& w,
                    std::span<const float> bias, std::span<float> out) {
  const int k = w.rows(), n = w.cols();
  PNP_CHECK(static_cast<int>(x.size()) == k &&
            static_cast<int>(out.size()) == n &&
            (bias.empty() || static_cast<int>(bias.size()) == n));
  for (int j = 0; j < n; ++j)
    out[static_cast<std::size_t>(j)] =
        bias.empty() ? 0.0f : bias[static_cast<std::size_t>(j)];
  for (int i = 0; i < k; ++i) {
    const float xi = x[static_cast<std::size_t>(i)];
    const float* wi = w.row(i);
    for (int j = 0; j < n; ++j) out[static_cast<std::size_t>(j)] += xi * wi[j];
  }
}

}  // namespace detail

void add_bias_rows(Matrix& m, std::span<const double> bias) {
  PNP_CHECK(static_cast<int>(bias.size()) == m.cols());
  for (int i = 0; i < m.rows(); ++i) {
    double* mi = m.row(i);
    for (int j = 0; j < m.cols(); ++j) mi[j] += bias[static_cast<std::size_t>(j)];
  }
}

void colsum_acc(const Matrix& m, std::span<double> out) {
  PNP_CHECK(static_cast<int>(out.size()) == m.cols());
  for (int i = 0; i < m.rows(); ++i) {
    const double* mi = m.row(i);
    for (int j = 0; j < m.cols(); ++j) out[static_cast<std::size_t>(j)] += mi[j];
  }
}

double frob_inner(const Matrix& a, const Matrix& b) {
  PNP_CHECK(a.same_shape(b));
  const double* pa = a.data();
  const double* pb = b.data();
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += pa[i] * pb[i];
  return s;
}

}  // namespace pnp::nn
