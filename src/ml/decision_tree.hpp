// CART decision tree with Gini impurity and best-first splits, matching
// scikit-learn 1.0's DecisionTreeClassifier defaults the paper uses:
// unlimited depth, min_samples_split=2, grown to purity. Supports
// restricting splits to a feature subset (the GA selection of §IV-A).
//
// fit() presorts once (the exact-CART layout of scikit-learn's
// `presort`): each candidate feature is copied into a column-major
// array, and one row order per column is sorted by (value, label) with
// a stable radix sort on the values' order-preserving bits. A node owns
// the same contiguous range [lo, hi) of every order array, so its split
// scan walks each column in sorted order with no sort of its own. The
// chosen split stable-partitions every order array (and a row array
// that feeds the class counts) into a left and a right sub-range, which
// stay sorted. Nodes are numbered in the same pre-order, left child
// first. The working set is 12 bytes per (row, candidate feature) and
// lives only for the fit.
//
// The trees are bit-identical to the textbook form of CART, which sorts
// the node's rows again for every feature at every node. A split is
// scored only at a boundary between two distinct values, where the
// cumulative class counts do not depend on how tied rows are ordered.
// The threshold (a + b) / 2 of distinct neighbours is the same whichever
// signed zero a tie group ends with, since x + (-0.0) == x + (+0.0) for
// x != 0. Features are scanned in subset order with the same strict
// `score + 1e-12 < best` rule, and a repeated subset index is scanned
// once: its second scan would see only the scores its first one already
// lost or set.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace mpidetect::ml {

struct DecisionTreeConfig {
  std::size_t max_depth = 0;          // 0 = unlimited (sklearn default)
  std::size_t min_samples_split = 2;  // sklearn default
  /// When set, only these feature indices are candidates for splits.
  std::optional<std::vector<std::size_t>> feature_subset;
};

class DecisionTree final {
 public:
  /// Flattened tree node. Public because it is the unit of the model
  /// serialization format (io/model_io.hpp): nodes() / from_nodes()
  /// round-trip a trained tree exactly.
  struct Node {
    bool leaf = true;
    std::size_t label = 0;      // majority class at this node
    std::size_t feature = 0;    // split feature (internal nodes)
    double threshold = 0.0;     // go left when x[feature] <= threshold
    std::int32_t left = -1, right = -1;
    std::size_t depth = 0;
  };

  explicit DecisionTree(DecisionTreeConfig cfg = {}) : cfg_(std::move(cfg)) {}

  /// X: one row per sample; y: class labels (0-based, small ints).
  void fit(const std::vector<std::vector<double>>& X,
           const std::vector<std::size_t>& y);

  std::size_t predict(std::span<const double> row) const;
  std::vector<std::size_t> predict(
      const std::vector<std::vector<double>>& X) const;

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t depth() const;
  bool trained() const { return !nodes_.empty(); }

  /// The flattened tree (children always follow their parent), the
  /// number of classes and the training-time feature-row width —
  /// everything a deserializer needs.
  const std::vector<Node>& nodes() const { return nodes_; }
  const DecisionTreeConfig& config() const { return cfg_; }
  std::size_t num_classes() const { return n_classes_; }
  std::size_t num_features() const { return n_features_; }

  /// Rebuilds a trained tree from a flattened node list (the inverse of
  /// nodes()). Validates the structure — labels < n_classes, split
  /// features < n_features, children in range and strictly after their
  /// parent (acyclic) — and throws ContractViolation on malformed
  /// input, so a corrupt model file can never produce a tree whose
  /// predict() loops or reads past the end of a feature row.
  static DecisionTree from_nodes(DecisionTreeConfig cfg,
                                 std::vector<Node> nodes,
                                 std::size_t n_classes,
                                 std::size_t n_features);

 private:
  struct Presorted;
  /// Grows the node owning rows [lo, hi) of every presorted array.
  std::size_t build(Presorted& p, std::size_t lo, std::size_t hi,
                    std::size_t depth);

  DecisionTreeConfig cfg_;
  std::vector<Node> nodes_;
  std::size_t n_classes_ = 0;
  std::size_t n_features_ = 0;
};

/// Gini impurity of a label multiset given class counts.
double gini(std::span<const std::size_t> class_counts, std::size_t total);

}  // namespace mpidetect::ml
