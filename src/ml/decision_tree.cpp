#include "ml/decision_tree.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>

#include "support/check.hpp"

namespace mpidetect::ml {

double gini(std::span<const std::size_t> class_counts, std::size_t total) {
  if (total == 0) return 0.0;
  double sum_sq = 0.0;
  for (const std::size_t c : class_counts) {
    const double p = static_cast<double>(c) / static_cast<double>(total);
    sum_sq += p * p;
  }
  return 1.0 - sum_sq;
}

/// The presorted working set of one fit() (layout in the header).
struct DecisionTree::Presorted {
  std::size_t n = 0;                    // training rows
  const std::size_t* y = nullptr;       // labels, indexed by row
  std::vector<std::size_t> features;    // candidate features, subset order
  std::vector<double> cols;             // cols[j * n + row]
  std::vector<std::uint32_t> order;     // order[j * n + k]: sorted rows
  std::vector<std::uint32_t> rows;      // node rows, for the class counts
  std::vector<std::uint8_t> goes_left;  // by row: side of the last split
  std::vector<std::uint32_t> spill;     // right-hand rows of a partition
  std::vector<std::size_t> counts, left_counts;
};

namespace {

/// Stable partition of a[0, n) into the rows that go left, then the
/// rows that go right; each side keeps its relative order.
void split_range(std::uint32_t* a, std::size_t n,
                 const std::vector<std::uint8_t>& goes_left,
                 std::vector<std::uint32_t>& spill) {
  std::size_t l = 0, r = 0;
  for (std::size_t k = 0; k < n; ++k) {
    // Branch-free, since the sides of a split are unpredictable: store
    // both ways and advance one cursor. a[l] is already read (l <= k).
    const std::uint32_t row = a[k];
    const std::size_t left = goes_left[row];
    a[l] = row;
    spill[r] = row;
    l += left;
    r += 1 - left;
  }
  std::copy(spill.begin(), spill.begin() + static_cast<std::ptrdiff_t>(r),
            a + l);
}

/// An unsigned key whose order is the numeric order of v, with -0.0 and
/// +0.0 on one key because they compare equal.
std::uint64_t sort_key(double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v == 0.0 ? 0.0 : v);
  return (bits >> 63) != 0 ? ~bits : bits | (std::uint64_t{1} << 63);
}

/// Sorts the rows of column x by (value, label) into order[0, n): an LSD
/// radix sort over the bytes of sort_key, which is stable, started from
/// the rows in label order. Unlike a comparison sort it takes no
/// data-dependent branch, and the columns of a GA feature search are
/// full of ties.
void radix_sort_rows(const double* x,
                     const std::vector<std::uint32_t>& by_label,
                     std::uint32_t* order, std::vector<std::uint64_t>& keys,
                     std::vector<std::uint32_t>& buf) {
  const std::size_t n = by_label.size();
  std::uint32_t hist[8][256] = {};
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = sort_key(x[i]);
    for (int b = 0; b < 8; ++b) ++hist[b][(keys[i] >> (8 * b)) & 0xffu];
  }
  std::copy(by_label.begin(), by_label.end(), order);
  std::uint32_t* src = order;
  std::uint32_t* dst = buf.data();
  for (int b = 0; b < 8; ++b) {
    const int shift = 8 * b;
    if (hist[b][(keys[0] >> shift) & 0xffu] == n) continue;  // one digit
    std::uint32_t offset[256];
    std::uint32_t sum = 0;
    for (int d = 0; d < 256; ++d) {
      offset[d] = sum;
      sum += hist[b][d];
    }
    for (std::size_t k = 0; k < n; ++k) {
      dst[offset[(keys[src[k]] >> shift) & 0xffu]++] = src[k];
    }
    std::swap(src, dst);
  }
  if (src != order) std::copy(src, src + n, order);
}

}  // namespace

void DecisionTree::fit(const std::vector<std::vector<double>>& X,
                       const std::vector<std::size_t>& y) {
  MPIDETECT_EXPECTS(!X.empty() && X.size() == y.size());
  MPIDETECT_EXPECTS(X.size() <= std::numeric_limits<std::uint32_t>::max());
  nodes_.clear();
  n_classes_ = *std::max_element(y.begin(), y.end()) + 1;
  n_features_ = X.front().size();

  Presorted p;
  p.n = X.size();
  p.y = y.data();
  std::vector<bool> seen(n_features_, false);
  const auto add = [&](std::size_t f) {
    if (f < n_features_ && !seen[f]) {
      seen[f] = true;
      p.features.push_back(f);
    }
  };
  if (cfg_.feature_subset.has_value()) {
    for (const std::size_t f : *cfg_.feature_subset) add(f);
  } else {
    for (std::size_t f = 0; f < n_features_; ++f) add(f);
  }

  const std::size_t n = p.n;
  const std::size_t m = p.features.size();
  p.cols.resize(m * n);
  for (std::size_t i = 0; i < n; ++i) {  // row by row: one page per row
    const std::vector<double>& row = X[i];
    for (std::size_t j = 0; j < m; ++j) {
      p.cols[j * n + i] = row[p.features[j]];
    }
  }
  std::vector<std::uint32_t> by_label(n);
  {
    std::vector<std::size_t> start(n_classes_ + 1, 0);
    for (std::size_t i = 0; i < n; ++i) ++start[y[i] + 1];
    for (std::size_t c = 0; c < n_classes_; ++c) start[c + 1] += start[c];
    for (std::size_t i = 0; i < n; ++i) {
      by_label[start[y[i]]++] = static_cast<std::uint32_t>(i);
    }
  }
  p.order.resize(m * n);
  std::vector<std::uint64_t> keys(n);
  std::vector<std::uint32_t> buf(n);
  for (std::size_t j = 0; j < m; ++j) {
    radix_sort_rows(p.cols.data() + j * n, by_label, p.order.data() + j * n,
                    keys, buf);
  }
  p.rows.resize(n);
  std::iota(p.rows.begin(), p.rows.end(), std::uint32_t{0});
  p.goes_left.resize(n);
  p.spill.resize(n);
  p.counts.resize(n_classes_);
  p.left_counts.resize(n_classes_);
  build(p, 0, n, 0);
}

std::size_t DecisionTree::build(Presorted& p, std::size_t lo, std::size_t hi,
                                std::size_t depth) {
  const std::size_t me = nodes_.size();
  nodes_.push_back(Node{});
  nodes_[me].depth = depth;
  const std::size_t n = hi - lo;

  std::vector<std::size_t>& counts = p.counts;
  std::fill(counts.begin(), counts.end(), 0);
  for (std::size_t k = lo; k < hi; ++k) ++counts[p.y[p.rows[k]]];
  nodes_[me].label = static_cast<std::size_t>(
      std::max_element(counts.begin(), counts.end()) - counts.begin());

  const double impurity = gini(counts, n);
  const bool depth_ok = cfg_.max_depth == 0 || depth < cfg_.max_depth;
  if (impurity <= 0.0 || n < cfg_.min_samples_split || !depth_ok) {
    return me;
  }

  // Best split by weighted Gini.
  double best_score = impurity;
  std::size_t best_col = 0;
  double best_threshold = 0.0;
  bool found = false;

  std::vector<std::size_t>& left_counts = p.left_counts;
  for (std::size_t j = 0; j < p.features.size(); ++j) {
    const double* x = p.cols.data() + j * p.n;
    const std::uint32_t* ord = p.order.data() + j * p.n + lo;
    std::fill(left_counts.begin(), left_counts.end(), 0);
    std::size_t n_left = 0;
    for (std::size_t k = 0; k + 1 < n; ++k) {
      ++left_counts[p.y[ord[k]]];
      ++n_left;
      const double here = x[ord[k]];
      const double next = x[ord[k + 1]];
      if (here == next) continue;  // no boundary
      // Right counts = total - left.
      double right_gini;
      {
        double sum_sq = 0.0;
        const std::size_t n_right = n - n_left;
        for (std::size_t c = 0; c < n_classes_; ++c) {
          const double q = static_cast<double>(counts[c] - left_counts[c]) /
                           static_cast<double>(n_right);
          sum_sq += q * q;
        }
        right_gini = 1.0 - sum_sq;
      }
      const double left_gini = gini(left_counts, n_left);
      const double score =
          (static_cast<double>(n_left) * left_gini +
           static_cast<double>(n - n_left) * right_gini) /
          static_cast<double>(n);
      if (score + 1e-12 < best_score) {
        best_score = score;
        best_col = j;
        best_threshold = (here + next) / 2.0;
        found = true;
      }
    }
  }
  if (!found) return me;

  const double* xb = p.cols.data() + best_col * p.n;
  std::size_t n_left = 0;
  for (std::size_t k = lo; k < hi; ++k) {
    const std::uint32_t row = p.rows[k];
    const bool left = xb[row] <= best_threshold;
    p.goes_left[row] = left;
    n_left += left;
  }
  if (n_left == 0 || n_left == n) return me;

  split_range(p.rows.data() + lo, n, p.goes_left, p.spill);
  for (std::size_t j = 0; j < p.features.size(); ++j) {
    split_range(p.order.data() + j * p.n + lo, n, p.goes_left, p.spill);
  }

  nodes_[me].leaf = false;
  nodes_[me].feature = p.features[best_col];
  nodes_[me].threshold = best_threshold;
  const std::size_t l = build(p, lo, lo + n_left, depth + 1);
  nodes_[me].left = static_cast<std::int32_t>(l);
  const std::size_t r = build(p, lo + n_left, hi, depth + 1);
  nodes_[me].right = static_cast<std::int32_t>(r);
  return me;
}

std::size_t DecisionTree::predict(std::span<const double> row) const {
  MPIDETECT_EXPECTS(trained());
  std::size_t cur = 0;
  while (!nodes_[cur].leaf) {
    const Node& n = nodes_[cur];
    cur = static_cast<std::size_t>(
        row[n.feature] <= n.threshold ? n.left : n.right);
  }
  return nodes_[cur].label;
}

std::vector<std::size_t> DecisionTree::predict(
    const std::vector<std::vector<double>>& X) const {
  std::vector<std::size_t> out;
  out.reserve(X.size());
  for (const auto& row : X) out.push_back(predict(row));
  return out;
}

std::size_t DecisionTree::depth() const {
  std::size_t d = 0;
  for (const Node& n : nodes_) d = std::max(d, n.depth);
  return d;
}

DecisionTree DecisionTree::from_nodes(DecisionTreeConfig cfg,
                                      std::vector<Node> nodes,
                                      std::size_t n_classes,
                                      std::size_t n_features) {
  MPIDETECT_EXPECTS(!nodes.empty());
  MPIDETECT_EXPECTS(n_classes >= 1);
  MPIDETECT_EXPECTS(n_features >= 1);
  const std::int32_t n = static_cast<std::int32_t>(nodes.size());
  for (std::int32_t i = 0; i < n; ++i) {
    const Node& node = nodes[static_cast<std::size_t>(i)];
    MPIDETECT_CHECK(node.label < n_classes);
    if (!node.leaf) {
      // Split feature inside the training row width: predict() never
      // reads past the end of a feature row.
      MPIDETECT_CHECK(node.feature < n_features);
      // Children strictly after their parent: predict() is guaranteed to
      // terminate, whatever bytes the node list came from.
      MPIDETECT_CHECK(node.left > i && node.left < n);
      MPIDETECT_CHECK(node.right > i && node.right < n);
    }
  }
  DecisionTree tree(std::move(cfg));
  tree.nodes_ = std::move(nodes);
  tree.n_classes_ = n_classes;
  tree.n_features_ = n_features;
  return tree;
}

}  // namespace mpidetect::ml
