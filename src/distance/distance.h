// The cell-pair distance function of §2.3:
//
//   d(s1, s2) = alpha * d_syn(s1, s2) + (1 - alpha) * d_sem(s1, s2)
//
// d_syn averages token-length, character-class and type differences
// (Appendix I); d_sem transforms corpus NPMI into [0.5, 1] (§2.3.1). The
// combination satisfies non-negativity, symmetry and the triangle inequality,
// which the TEGRA 2-approximation (Theorem 2) relies on; these properties are
// property-tested in tests/distance_test.cc.

#ifndef TEGRA_DISTANCE_DISTANCE_H_
#define TEGRA_DISTANCE_DISTANCE_H_

#include <memory>
#include <utility>
#include <vector>

#include "corpus/corpus_stats.h"
#include "distance/cell.h"

namespace tegra {

/// \brief Knobs of the distance function.
struct DistanceOptions {
  /// Weight of the syntactic component; (1 - alpha) weighs the semantic one.
  /// The paper's default and empirically best setting is 0.5 (Fig 8(b)).
  double alpha = 0.5;
  /// Which corpus measure drives semantic distance (NPMI by default,
  /// Jaccard per Appendix H as the alternative).
  SemanticMeasure measure = SemanticMeasure::kNpmi;

  // --- Ablation knobs (DESIGN.md §3; exercised by bench_ablations) -------

  /// Treat same-specific-type values (two integers, two dates, ...) as
  /// semantically domain-coherent (d_sem = 0.55) even without corpus
  /// co-occurrence. Substitute for numeral-space density at web scale.
  bool type_coherence = true;
  /// Give corpus-known value pairs without co-occurrence a 0.85 prior
  /// instead of the maximal 1.0 (the Appendix J single-value signal).
  bool known_value_prior = true;
  /// Combined distance of a null-null pair. 1.0 keeps all-null columns from
  /// being free in the per-column objective.
  double null_null_distance = 1.0;
};

/// \brief Computes cell-pair distances over interned cells.
///
/// Stateless apart from configuration; safe for concurrent use. Use
/// DistanceCache for memoization inside one extraction.
class CellDistance {
 public:
  /// \param stats background-corpus statistics; may be null, in which case
  /// semantic distance is identically 1 except for equal strings (pure
  /// syntactic operation, the alpha = 1 end of Fig 8(b)).
  CellDistance(const CorpusStats* stats, DistanceOptions options = {});

  /// Full distance d(a, b). Handles null cells per Appendix I:
  /// d_sem(null, s) = 1, d_syn(null, s) = d_syn("", s); and
  /// d(null, null) = alpha * 0 + (1 - alpha) * 1 so padding whole columns
  /// with nulls is never free (see DESIGN.md §3). With alpha = 1 the
  /// semantic component, of weight 0, is skipped: the corpus is never read.
  double Distance(const CellInfo& a, const CellInfo& b) const;

  /// The syntactic component (average of d_len, d_char, d_type).
  double SyntacticDistance(const CellInfo& a, const CellInfo& b) const;

  /// The semantic component in [0.5, 1] (or exactly 1 for unknown values).
  double SemanticDistance(const CellInfo& a, const CellInfo& b) const;

  const DistanceOptions& options() const { return options_; }
  const CorpusStats* stats() const { return stats_; }

 private:
  const CorpusStats* stats_;  // Not owned; may be null.
  DistanceOptions options_;
};

/// \brief Memoizes CellDistance over catalog-local id pairs.
///
/// One extraction instance evaluates the same cell pairs many times across
/// DP matrices, the A* heuristic and the objective, and the free-distance
/// heuristic touches nearly every pair of the catalog. The memo is therefore
/// a dense lower-triangular matrix indexed by local id: row = the larger id,
/// column = the smaller. A row is allocated the first time one of its pairs
/// is looked up; its uncomputed slots hold kUncomputed. The matrix holds at
/// most kMaxEntries slots, which covers every pair of a 2047-cell catalog.
/// Past that, a pair whose row has no storage is recomputed on each lookup:
/// with the corpus statistics warm this is cheaper than a hash-map memo of
/// the spilled pairs, and it allocates nothing. Not thread-safe: parallel
/// anchor tasks each own a cache.
class DistanceCache {
 public:
  /// Most slots allocated over all rows: 2^21 doubles, 16 MiB.
  static constexpr size_t kMaxEntries = size_t{1} << 21;

  explicit DistanceCache(const CellDistance* distance)
      : distance_(distance) {}

  double operator()(const CellInfo& a, const CellInfo& b) {
    uint32_t row = a.local_id;
    uint32_t col = b.local_id;
    if (row < col) std::swap(row, col);
    if (row < rows_.size() && rows_[row] != nullptr) {
      double& slot = rows_[row][col];
      if (slot == kUncomputed) {
        slot = distance_->Distance(a, b);
        ++size_;
      }
      return slot;
    }
    return LookupUnallocated(a, b, row, col);
  }

  /// Distinct pairs memoized.
  size_t size() const { return size_; }
  /// CellDistance::Distance calls made; exceeds size() only once a pair's
  /// row missed the kMaxEntries cap.
  size_t evaluations() const { return size_ + recomputed_; }
  const CellDistance& base() const { return *distance_; }

 private:
  /// Marks a matrix slot not yet computed; distances are >= 0.
  static constexpr double kUncomputed = -1.0;

  /// Computes d(a, b) for a pair whose row has no storage, allocating and
  /// filling the row unless that would take the matrix past kMaxEntries.
  double LookupUnallocated(const CellInfo& a, const CellInfo& b, uint32_t row,
                           uint32_t col);

  const CellDistance* distance_;  // Not owned.
  std::vector<std::unique_ptr<double[]>> rows_;  // Row r has r + 1 slots.
  size_t allocated_ = 0;                         // Slots over all rows.
  size_t size_ = 0;
  size_t recomputed_ = 0;  // Evaluations not memoized (past the cap).
};

}  // namespace tegra

#endif  // TEGRA_DISTANCE_DISTANCE_H_
