// The admissible A* heuristic of §3.2.2 (Definition 7, Equation 15,
// Algorithm 4).
//
// For an anchor line l_i, the free distance of a candidate column c is the
// sum over other lines of the minimum distance between c and *any* candidate
// cell of that line (including null) — a lower bound on what aligning c can
// ever cost. h(p, w) is then the cheapest way to split the remaining tokens
// of l_i into the remaining m - p columns when each column only pays its
// free distance; it underestimates (and never overestimates) the true future
// cost, and is monotonic (Lemma 2), which makes the A* anchor search exact.

#ifndef TEGRA_CORE_FREE_DISTANCE_H_
#define TEGRA_CORE_FREE_DISTANCE_H_

#include <cstdint>
#include <vector>

#include "core/list_context.h"
#include "distance/distance.h"

namespace tegra {

/// \brief One anchor line's free distances, kept across the anchor searches
/// of an extraction.
///
/// A free distance depends on m only through the other lines' width caps,
/// and those stop changing once m >= |l| / base_cap. So the unsupervised
/// sweep, which rebuilds the heuristic of the same anchors for every m,
/// reuses every value computed under the same caps. Values are indexed by
/// the anchor line's LineCells slots and are exactly the doubles a fresh
/// computation returns. Only the search of its anchor may write it.
class FreeDistances {
 private:
  friend class AnchorHeuristic;

  /// Marks a value not yet computed; free distances are >= 0.
  static constexpr double kUncomputed = -1.0;

  // The other lines' width caps the values hold for (entry `anchor`
  // unused), and the anchor line's cell stride that indexes `slots_`.
  std::vector<uint32_t> line_widths_;
  uint32_t stride_ = 0;
  double null_ = kUncomputed;  // freeD(null).
  std::vector<double> slots_;  // [start * stride_ + len - 1].
};

/// \brief Precomputed h(p, w) table for one anchor line.
class AnchorHeuristic {
 public:
  /// \param anchor index of the anchor line.
  /// \param m number of columns.
  /// \param anchor_width candidate column width cap for the anchor line.
  /// \param line_widths width caps for every line (indexed by line id;
  ///   entry `anchor` is unused).
  /// \param dist shared memoizing distance.
  /// \param memo the anchor's free distances: reused when they were filled
  ///   under the same `line_widths`, refilled otherwise. It must outlive
  ///   this heuristic.
  AnchorHeuristic(const ListContext& ctx, size_t anchor, int m,
                  uint32_t anchor_width,
                  const std::vector<uint32_t>& line_widths,
                  DistanceCache* dist, FreeDistances* memo);

  /// h(p, w): lower bound on the cost of any suffix path from node [p, w]
  /// to the target. +infinity for unreachable states.
  double Get(int p, uint32_t w) const { return h_[p][w]; }

  /// freeD of the anchor's candidate column of tokens [start, start+len),
  /// or of the null column when len is 0 (testing hook). +infinity past
  /// the anchor's width cap.
  double FreeDistanceOf(uint32_t start, uint32_t len) const;

 private:
  const FreeDistances* free_;
  uint32_t cap_;  // The anchor's width cap.
  std::vector<std::vector<double>> h_;  // [p][w]
};

}  // namespace tegra

#endif  // TEGRA_CORE_FREE_DISTANCE_H_
