// Anchor-distance minimization: find the segmentation t_i* of an anchor line
// that minimizes AD(t_i, R(t_i)) = sum_j min_{t_j} d(t_i, t_j).
//
// Two implementations:
//  * MinimizeAnchorDistanceAStar — Algorithm 2: A* over the anchor
//    segmentation graph G_i (nodes [p, w]) with the free-distance heuristic
//    (admissible + monotonic, Lemma 2), extending per-line SLGR rows
//    incrementally along each path.
//  * MinimizeAnchorDistanceExhaustive — the inner loop of TEGRA-naive
//    (Algorithm 1, lines 2-6): enumerate every anchor segmentation. Also the
//    test oracle for the A* implementation.
//
// Both honor supervised pair weights and fixed example segmentations.

#ifndef TEGRA_CORE_ANCHOR_SEARCH_H_
#define TEGRA_CORE_ANCHOR_SEARCH_H_

#include <cstdint>
#include <vector>

#include "core/free_distance.h"
#include "core/list_context.h"
#include "core/slgr.h"
#include "distance/distance.h"

namespace tegra {

/// \brief The memo tables of one extraction, handed to the anchor search as
/// one object: cell-pair distances, and each anchor line's free distances,
/// which the unsupervised sweep reuses from one m to the next.
struct ExtractionMemo {
  ExtractionMemo(const CellDistance* distance, size_t num_lines)
      : distance(distance), free_distances(num_lines) {}

  DistanceCache distance;
  std::vector<FreeDistances> free_distances;  ///< Indexed by anchor line.
};

/// \brief Outcome of minimizing anchor distance for one anchor line.
struct AnchorSearchResult {
  /// min_t AD(t, R(t)), with supervised weights applied.
  double anchor_distance = 0;
  /// The minimizing anchor segmentation t_i*.
  Bounds anchor_bounds;
  /// Number of search nodes expanded (A*) or segmentations scored
  /// (exhaustive) — the efficiency metric behind Figure 9.
  size_t nodes_expanded = 0;
};

/// \brief Algorithm 2: A* search for t_i*.
///
/// \param base_cap candidate-column width cap (TegraOptions::max_cell_tokens;
///   0 = unbounded). Effective per-line caps are derived via
///   ListContext::EffectiveWidth. Candidate substrings must be registered
///   (ListContext::EnsureWidth) for every line beforehand.
/// \param slgr_cap optional tighter width cap for the *non-anchor* lines'
///   SLGR alignment DP (0 = same as base_cap). Lowering it shrinks every
///   per-line DP row without touching the anchor's own candidate space;
///   feasibility is preserved because EffectiveWidth never caps below
///   ceil(|l|/m). Used by the qos degradation ladder.
/// \param max_nodes node-expansion budget (0 = unbounded). When the budget
///   is exhausted the search turns anytime: it returns the best *complete*
///   segmentation found so far, continuing only until the first complete
///   solution exists. The result may then be suboptimal but is always a
///   valid segmentation.
/// \param memo distances and `anchor`'s free distances; the search fills
///   both.
AnchorSearchResult MinimizeAnchorDistanceAStar(const ListContext& ctx,
                                               size_t anchor, int m,
                                               ExtractionMemo* memo,
                                               uint32_t base_cap,
                                               uint32_t slgr_cap = 0,
                                               size_t max_nodes = 0);

/// \brief Exhaustive minimization over all anchor segmentations. `max_nodes`
/// caps the number of candidate segmentations scored (0 = all); at least one
/// candidate is always scored so the result stays valid.
AnchorSearchResult MinimizeAnchorDistanceExhaustive(const ListContext& ctx,
                                                    size_t anchor, int m,
                                                    DistanceCache* dist,
                                                    uint32_t base_cap,
                                                    uint32_t slgr_cap = 0,
                                                    size_t max_nodes = 0);

/// \brief Re-derives the induced table R(t_i*) for a solved anchor: aligns
/// every line against the anchor segmentation (fixed lines keep their
/// bounds). Returns one Bounds per line; entry `anchor` is `anchor_bounds`.
std::vector<Bounds> InduceTable(const ListContext& ctx, size_t anchor,
                                const Bounds& anchor_bounds,
                                DistanceCache* dist, uint32_t base_cap,
                                uint32_t slgr_cap = 0);

/// \brief The weighted anchor distance of a *given* anchor segmentation
/// (sum over lines of weight * SLGR cost). Used by both implementations and
/// by tests.
double AnchorDistanceOf(const ListContext& ctx, size_t anchor,
                        const Bounds& anchor_bounds, DistanceCache* dist,
                        uint32_t base_cap, uint32_t slgr_cap = 0);

}  // namespace tegra

#endif  // TEGRA_CORE_ANCHOR_SEARCH_H_
