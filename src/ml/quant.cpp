#include "ml/quant.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "ml/kernels.hpp"
#include "support/check.hpp"

namespace mpidetect::ml {
namespace {

// Float row-major buffer for the quantized forward's activations.
struct FloatMat {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<float> data;

  FloatMat() = default;
  FloatMat(std::size_t r, std::size_t c) : rows(r), cols(c), data(r * c) {}
  float* row(std::size_t r) { return data.data() + r * cols; }
  const float* row(std::size_t r) const { return data.data() + r * cols; }
};

std::vector<float> bf16_row_vector(const Matrix& m) {
  std::vector<float> out(m.size());
  const std::vector<double>& src = m.data();
  for (std::size_t i = 0; i < src.size(); ++i) {
    out[i] = bf16_round(static_cast<float>(src[i]));
  }
  return out;
}

// out = a (N x K) times w (K x M), dequantized per column and rounded to
// bf16 — the only matmul the quantized forward uses. Parallelizes over
// output rows on the process-wide pool like the fp matmul; rows are
// independent, so any split is bit-identical to serial.
FloatMat qmatmul(const FloatMat& a, const QuantizedMatrix& w) {
  MPIDETECT_EXPECTS(a.cols == w.rows);
  const std::size_t N = a.rows;
  const std::size_t K = w.rows;
  const std::size_t M = w.cols;
  kernels::OpTimer timer(kernels::Op::QMatmul, 2 * N * K * M);
  FloatMat out(N, M);
  const kernels::KernelFns& fns = kernels::fns();
  const std::int8_t* wd = w.data.data();
  const float* scale = w.scale.data();
  const bool parallel = N * K * M >= kernels::kParallelMinFlops;
  kernels::parallel_ranges(N, parallel, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      float* orow = out.row(i);
      fns.qmatmul_row(orow, a.row(i), wd, K, M);
      for (std::size_t j = 0; j < M; ++j) {
        orow[j] = bf16_round(orow[j] * scale[j]);
      }
    }
  });
  return out;
}

float leaky_relu_f(float x, float slope) { return x > 0.0f ? x : slope * x; }

}  // namespace

float bf16_round(float x) {
  std::uint32_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  if ((bits & 0x7F800000u) == 0x7F800000u) return x;  // inf / NaN
  // Round-to-nearest-even on the truncated 16 low bits.
  bits += 0x7FFFu + ((bits >> 16) & 1u);
  bits &= 0xFFFF0000u;
  float out;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

QuantizedMatrix QuantizedMatrix::quantize(const Matrix& w) {
  QuantizedMatrix q;
  q.rows = w.rows();
  q.cols = w.cols();
  q.data.resize(q.rows * q.cols);
  q.scale.resize(q.cols);
  for (std::size_t j = 0; j < q.cols; ++j) {
    double max_abs = 0.0;
    for (std::size_t k = 0; k < q.rows; ++k) {
      max_abs = std::max(max_abs, std::abs(w.at(k, j)));
    }
    // A zero column (an untrained bias-like weight) keeps scale 1 so the
    // division below is defined; every code is 0 either way.
    q.scale[j] =
        max_abs == 0.0 ? 1.0f : static_cast<float>(max_abs / 127.0);
    const double inv = 1.0 / static_cast<double>(q.scale[j]);
    for (std::size_t k = 0; k < q.rows; ++k) {
      const long code = std::lround(w.at(k, j) * inv);
      q.data[k * q.cols + j] = static_cast<std::int8_t>(
          std::clamp(code, long{-127}, long{127}));
    }
  }
  return q;
}

QuantizedGnnModel::QuantizedGnnModel(const GnnModel& model)
    : cfg_(model.config()) {
  const std::vector<const Matrix*> params = model.parameters();
  std::size_t p = 0;
  auto next = [&]() -> const Matrix& {
    MPIDETECT_EXPECTS(p < params.size());
    return *params[p++];
  };
  embedding_ = bf16_row_vector(next());
  layers_.resize(cfg_.layers.size());
  for (Layer& layer : layers_) {
    layer.rel.resize(programl::kNumEdgeTypes);
    for (Rel& rel : layer.rel) {
      rel.w_left = QuantizedMatrix::quantize(next());
      rel.w_right = QuantizedMatrix::quantize(next());
      rel.attn = bf16_row_vector(next());  // (d_out x 1)
    }
    layer.w_self = QuantizedMatrix::quantize(next());
    layer.bias = bf16_row_vector(next());  // (1 x d_out)
  }
  fc1_w_ = QuantizedMatrix::quantize(next());
  fc1_b_ = bf16_row_vector(next());
  fc2_w_ = QuantizedMatrix::quantize(next());
  fc2_b_ = bf16_row_vector(next());
  MPIDETECT_EXPECTS(p == params.size());
}

std::vector<float> QuantizedGnnModel::forward_batch(
    std::span<const std::uint32_t> tokens,
    const std::array<std::vector<programl::Edge>,
                     programl::kNumEdgeTypes>& all_edges,
    std::span<const std::uint32_t> segments, std::size_t n_segments) const {
  MPIDETECT_EXPECTS(!tokens.empty());
  MPIDETECT_EXPECTS(segments.size() == tokens.size());
  const std::size_t n = tokens.size();

  // Token embedding lookup (rows are already bf16-rounded).
  FloatMat x(n, cfg_.embed_dim);
  for (std::size_t i = 0; i < n; ++i) {
    MPIDETECT_EXPECTS(tokens[i] < cfg_.vocab);
    const float* src = embedding_.data() +
                       static_cast<std::size_t>(tokens[i]) * cfg_.embed_dim;
    std::copy(src, src + cfg_.embed_dim, x.row(i));
  }

  for (const Layer& layer : layers_) {
    const std::size_t d = layer.w_self.cols;
    // Self path, then one GATv2 pass per relation accumulated on top.
    // Unlike the fp engine there is no sparse-relation branch: the
    // dense gathered path is always taken (the tolerance contract —
    // not bit-identity — governs this forward, so one shape keeps the
    // path count tested at 1).
    FloatMat out = qmatmul(x, layer.w_self);
    for (std::size_t r = 0; r < programl::kNumEdgeTypes; ++r) {
      const auto& edges = all_edges[r];
      if (edges.empty()) continue;
      const Rel& rel = layer.rel[r];
      const FloatMat h_left = qmatmul(x, rel.w_left);
      const FloatMat h_right = qmatmul(x, rel.w_right);
      const std::size_t ne = edges.size();
      // GATv2 scores a^T LeakyReLU(W_l h_t + W_r h_s), float32.
      std::vector<float> scores(ne);
      for (std::size_t e = 0; e < ne; ++e) {
        const float* hl = h_left.row(edges[e].dst);
        const float* hr = h_right.row(edges[e].src);
        float s = 0.0f;
        for (std::size_t j = 0; j < d; ++j) {
          s += rel.attn[j] * leaky_relu_f(hl[j] + hr[j], 0.2f);
        }
        scores[e] = s;
      }
      // Per-destination softmax (numerically stable, like the fp
      // segment_softmax).
      std::vector<float> node_max(n, -std::numeric_limits<float>::infinity());
      for (std::size_t e = 0; e < ne; ++e) {
        node_max[edges[e].dst] = std::max(node_max[edges[e].dst], scores[e]);
      }
      std::vector<float> node_sum(n, 0.0f);
      for (std::size_t e = 0; e < ne; ++e) {
        scores[e] = std::exp(scores[e] - node_max[edges[e].dst]);
        node_sum[edges[e].dst] += scores[e];
      }
      // Alpha-weighted message aggregation into the layer sum.
      for (std::size_t e = 0; e < ne; ++e) {
        const float alpha = scores[e] / node_sum[edges[e].dst];
        const float* hr = h_right.row(edges[e].src);
        float* o = out.row(edges[e].dst);
        for (std::size_t j = 0; j < d; ++j) o[j] += alpha * hr[j];
      }
    }
    // Bias + ELU, rounded to bf16 — the layer's activation hand-off.
    for (std::size_t i = 0; i < n; ++i) {
      float* o = out.row(i);
      for (std::size_t j = 0; j < d; ++j) {
        const float t = o[j] + layer.bias[j];
        o[j] = bf16_round(t > 0.0f ? t : std::expm1(t));
      }
    }
    x = std::move(out);
  }

  // Per-segment max pooling (first-row seeding like the fp engine).
  const std::size_t dl = x.cols;
  FloatMat pooled(n_segments, dl);
  std::vector<bool> seen(n_segments, false);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t s = segments[i];
    MPIDETECT_EXPECTS(s < n_segments);
    const float* src = x.row(i);
    float* dst = pooled.row(s);
    if (!seen[s]) {
      seen[s] = true;
      std::copy(src, src + dl, dst);
      continue;
    }
    for (std::size_t j = 0; j < dl; ++j) dst[j] = std::max(dst[j], src[j]);
  }
  for (std::size_t s = 0; s < n_segments; ++s) MPIDETECT_EXPECTS(seen[s]);

  // FC head: relu(pooled W1 + b1) W2 + b2.
  FloatMat hidden = qmatmul(pooled, fc1_w_);
  for (std::size_t i = 0; i < n_segments; ++i) {
    float* h = hidden.row(i);
    for (std::size_t j = 0; j < hidden.cols; ++j) {
      h[j] = bf16_round(std::max(0.0f, h[j] + fc1_b_[j]));
    }
  }
  FloatMat logits = qmatmul(hidden, fc2_w_);
  for (std::size_t i = 0; i < n_segments; ++i) {
    float* l = logits.row(i);
    for (std::size_t j = 0; j < logits.cols; ++j) l[j] += fc2_b_[j];
  }
  return std::move(logits.data);
}

std::vector<double> QuantizedGnnModel::predict_proba(
    const programl::ProgramGraph& g) const {
  std::vector<std::uint32_t> tokens(g.num_nodes());
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    tokens[i] = g.nodes[i].token;
  }
  const std::vector<std::uint32_t> segments(tokens.size(), 0);
  const std::vector<float> logits =
      forward_batch(tokens, g.edges, segments, 1);
  // Softmax in double, like the fp predict_proba, so downstream verdict
  // thresholds see the same numeric type.
  std::vector<double> p(logits.size());
  double m = -std::numeric_limits<double>::infinity();
  for (const float l : logits) m = std::max(m, static_cast<double>(l));
  double sum = 0.0;
  for (std::size_t j = 0; j < p.size(); ++j) {
    p[j] = std::exp(static_cast<double>(logits[j]) - m);
    sum += p[j];
  }
  for (double& v : p) v /= sum;
  return p;
}

std::vector<std::vector<double>> QuantizedGnnModel::predict_proba(
    std::span<const programl::ProgramGraph> graphs) const {
  std::vector<std::vector<double>> out;
  out.reserve(graphs.size());
  const std::size_t chunk = std::max<std::size_t>(1, cfg_.infer_batch);
  for (std::size_t b = 0; b < graphs.size(); b += chunk) {
    const std::size_t end = std::min(graphs.size(), b + chunk);
    const programl::GraphBatch gb =
        programl::make_batch(graphs.subspan(b, end - b));
    const std::vector<float> logits =
        forward_batch(gb.tokens, gb.edges, gb.segments, gb.size);
    const std::size_t classes = cfg_.classes;
    for (std::size_t s = 0; s < gb.size; ++s) {
      const float* lrow = logits.data() + s * classes;
      std::vector<double> p(classes);
      double m = -std::numeric_limits<double>::infinity();
      for (std::size_t j = 0; j < classes; ++j) {
        m = std::max(m, static_cast<double>(lrow[j]));
      }
      double sum = 0.0;
      for (std::size_t j = 0; j < classes; ++j) {
        p[j] = std::exp(static_cast<double>(lrow[j]) - m);
        sum += p[j];
      }
      for (double& v : p) v /= sum;
      out.push_back(std::move(p));
    }
  }
  return out;
}

std::vector<std::vector<double>> predict_proba_guarded(
    const QuantizedGnnModel& q, GnnModel& fp,
    std::span<const programl::ProgramGraph> graphs) {
  std::vector<std::vector<double>> probas = q.predict_proba(graphs);
  for (std::size_t i = 0; i < probas.size(); ++i) {
    std::vector<double>& p = probas[i];
    if (p.size() < 2) continue;
    double top = -std::numeric_limits<double>::infinity();
    double second = top;
    for (const double v : p) {
      if (v > top) {
        second = top;
        top = v;
      } else if (v > second) {
        second = v;
      }
    }
    if (top - second <= 2.0 * kQuantProbaTolerance) {
      p = fp.predict_proba(graphs[i]);
    }
  }
  return probas;
}

}  // namespace mpidetect::ml
