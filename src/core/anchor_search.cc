#include "core/anchor_search.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <queue>
#include <tuple>

namespace tegra {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Combines the global candidate width cap with the (optional, tighter)
/// SLGR DP cap; either may be 0 = unbounded.
uint32_t LineCap(uint32_t base_cap, uint32_t slgr_cap) {
  if (slgr_cap == 0) return base_cap;
  if (base_cap == 0) return slgr_cap;
  return std::min(base_cap, slgr_cap);
}

/// Per-line width caps for segmenting into m columns.
std::vector<uint32_t> LineWidths(const ListContext& ctx, int m,
                                 uint32_t base_cap) {
  std::vector<uint32_t> widths(ctx.num_lines());
  for (size_t j = 0; j < ctx.num_lines(); ++j) {
    widths[j] = ctx.EffectiveWidth(j, m, base_cap);
  }
  return widths;
}

/// Alignment state one A* node carries for every non-anchor line: either a
/// forward SLGR row (flexible lines) or a prefix cost (fixed example lines).
struct NodeState {
  std::vector<std::vector<double>> rows;   // Per flexible line.
  std::vector<double> fixed_prefix;        // Per fixed line.
};

}  // namespace

double AnchorDistanceOf(const ListContext& ctx, size_t anchor,
                        const Bounds& anchor_bounds, DistanceCache* dist,
                        uint32_t base_cap, uint32_t slgr_cap) {
  const int m = NumColumns(anchor_bounds);
  const uint32_t line_cap = LineCap(base_cap, slgr_cap);
  auto anchor_cells = ctx.CellsFor(anchor, anchor_bounds);
  double total = 0;
  for (size_t j = 0; j < ctx.num_lines(); ++j) {
    if (j == anchor) continue;
    const uint32_t width = ctx.EffectiveWidth(j, m, line_cap);
    SlgrResult r = SegmentLineGivenRecord(ctx, j, anchor_cells, dist, width);
    total += ctx.LineWeight(anchor, j) * r.cost;
  }
  return total;
}

std::vector<Bounds> InduceTable(const ListContext& ctx, size_t anchor,
                                const Bounds& anchor_bounds,
                                DistanceCache* dist, uint32_t base_cap,
                                uint32_t slgr_cap) {
  const int m = NumColumns(anchor_bounds);
  const uint32_t line_cap = LineCap(base_cap, slgr_cap);
  auto anchor_cells = ctx.CellsFor(anchor, anchor_bounds);
  std::vector<Bounds> out(ctx.num_lines());
  for (size_t j = 0; j < ctx.num_lines(); ++j) {
    if (j == anchor) {
      out[j] = anchor_bounds;
      continue;
    }
    const uint32_t width = ctx.EffectiveWidth(j, m, line_cap);
    out[j] = SegmentLineGivenRecord(ctx, j, anchor_cells, dist, width).bounds;
  }
  return out;
}

AnchorSearchResult MinimizeAnchorDistanceExhaustive(const ListContext& ctx,
                                                    size_t anchor, int m,
                                                    DistanceCache* dist,
                                                    uint32_t base_cap,
                                                    uint32_t slgr_cap,
                                                    size_t max_nodes) {
  const uint32_t len = ctx.line_length(anchor);
  const uint32_t width = ctx.EffectiveWidth(anchor, m, base_cap);

  AnchorSearchResult best;
  best.anchor_distance = kInf;

  // Fixed anchors have exactly one admissible segmentation.
  const auto& fixed = ctx.fixed_bounds(anchor);
  std::vector<Bounds> candidates;
  if (fixed.has_value()) {
    candidates.push_back(*fixed);
  } else {
    candidates = EnumerateBounds(len, m, width);
  }

  for (const Bounds& bounds : candidates) {
    const double ad =
        AnchorDistanceOf(ctx, anchor, bounds, dist, base_cap, slgr_cap);
    ++best.nodes_expanded;
    if (ad < best.anchor_distance) {
      best.anchor_distance = ad;
      best.anchor_bounds = bounds;
    }
    // Budget rung: stop scoring candidates once the budget is spent (the
    // best-so-far segmentation is still valid, just not proven optimal).
    if (max_nodes > 0 && best.nodes_expanded >= max_nodes) break;
  }
  return best;
}

AnchorSearchResult MinimizeAnchorDistanceAStar(const ListContext& ctx,
                                               size_t anchor, int m,
                                               ExtractionMemo* memo,
                                               uint32_t base_cap,
                                               uint32_t slgr_cap,
                                               size_t max_nodes) {
  DistanceCache* dist = &memo->distance;
  // A pinned anchor admits a single segmentation; score it directly.
  const auto& fixed = ctx.fixed_bounds(anchor);
  if (fixed.has_value()) {
    AnchorSearchResult result;
    result.anchor_bounds = *fixed;
    result.anchor_distance =
        AnchorDistanceOf(ctx, anchor, *fixed, dist, base_cap, slgr_cap);
    result.nodes_expanded = 1;
    return result;
  }

  const uint32_t len = ctx.line_length(anchor);
  const uint32_t anchor_width = ctx.EffectiveWidth(anchor, m, base_cap);
  const auto line_widths = LineWidths(ctx, m, LineCap(base_cap, slgr_cap));

  const AnchorHeuristic heuristic(ctx, anchor, m, anchor_width, line_widths,
                                  dist, &memo->free_distances[anchor]);

  // Split the other lines into flexible and fixed sets once.
  std::vector<size_t> flex_lines;
  std::vector<size_t> fixed_lines;
  for (size_t j = 0; j < ctx.num_lines(); ++j) {
    if (j == anchor) continue;
    (ctx.fixed_bounds(j).has_value() ? fixed_lines : flex_lines).push_back(j);
  }
  std::vector<std::vector<const CellInfo*>> fixed_cells(fixed_lines.size());
  for (size_t fi = 0; fi < fixed_lines.size(); ++fi) {
    fixed_cells[fi] =
        ctx.CellsFor(fixed_lines[fi], *ctx.fixed_bounds(fixed_lines[fi]));
  }

  // Node grid: id = p * (len + 1) + w for p in [0, m], w in [0, len].
  //
  // Path lengths in G_i are non-additive (Definition 6), so two prefix
  // paths can reach the same node with equal length but different per-line
  // alignment rows — and the one that completes better may be the one a
  // classic closed-set A* discards (its tie-break is arbitrary). To keep
  // Theorem 3 exact we maintain, per node, the set of mutually
  // NON-DOMINATED states: state A dominates B when every per-line
  // alignment entry of A is <= the corresponding entry of B (then every
  // completion of A is at least as cheap). Dominated states are pruned;
  // the admissible heuristic prunes the rest. First target pop is optimal
  // because, by super-additivity (Lemma 1) and admissibility (Lemma 2),
  // every prefix state of the optimal path carries f <= SP-optimal AD.
  const size_t num_nodes = static_cast<size_t>(m + 1) * (len + 1);
  auto node_id = [len](int p, uint32_t w) {
    return static_cast<size_t>(p) * (len + 1) + w;
  };

  struct State {
    double g = 0;
    Bounds prefix;        // Anchor boundaries so far (size p + 1).
    NodeState alignment;  // Per-line DP rows / fixed prefix costs.
    bool dead = false;
  };
  std::vector<std::vector<State>> states(num_nodes);

  constexpr double kEps = 1e-12;
  auto dominates = [&](const NodeState& a, const NodeState& b) {
    for (size_t fi = 0; fi < a.rows.size(); ++fi) {
      for (size_t k = 0; k < a.rows[fi].size(); ++k) {
        if (a.rows[fi][k] > b.rows[fi][k] + kEps) return false;
      }
    }
    for (size_t fi = 0; fi < a.fixed_prefix.size(); ++fi) {
      if (a.fixed_prefix[fi] > b.fixed_prefix[fi] + kEps) return false;
    }
    return true;
  };

  // (f, node, state index) min-queue.
  using QEntry = std::tuple<double, size_t, size_t>;
  std::priority_queue<QEntry, std::vector<QEntry>, std::greater<QEntry>> open;

  {
    State start;
    start.g = 0.0;
    start.prefix = {0};
    start.alignment.rows.reserve(flex_lines.size());
    for (size_t j : flex_lines) {
      start.alignment.rows.push_back(InitialAlignmentRow(ctx.line_length(j)));
    }
    start.alignment.fixed_prefix.assign(fixed_lines.size(), 0.0);
    states[node_id(0, 0)].push_back(std::move(start));
    open.emplace(heuristic.Get(0, 0), node_id(0, 0), 0);
  }

  AnchorSearchResult result;
  result.anchor_distance = kInf;
  const size_t target = node_id(m, len);
  double upper_bound = kInf;  // Best complete solution seen so far.
  Bounds incumbent;           // The segmentation achieving upper_bound.

  while (!open.empty()) {
    const auto [f, node, sidx] = open.top();
    open.pop();
    State& popped = states[node][sidx];
    if (popped.dead) continue;
    if (node == target) {
      result.anchor_distance = popped.g;
      result.anchor_bounds = popped.prefix;
      break;
    }
    // Anytime cutoff (qos degradation rungs): once the node budget is spent,
    // return the best complete segmentation generated so far instead of
    // proving optimality. Until one exists the search must continue — the
    // result has to be a valid m-column segmentation.
    if (max_nodes > 0 && result.nodes_expanded >= max_nodes &&
        upper_bound < kInf) {
      result.anchor_distance = upper_bound;
      result.anchor_bounds = incumbent;
      break;
    }
    if (f > upper_bound + kEps) continue;  // Cannot beat a known solution.
    const int p = static_cast<int>(node / (len + 1));
    const uint32_t w = static_cast<uint32_t>(node % (len + 1));
    if (p == m) continue;  // Row-m nodes other than the target are dead ends.
    ++result.nodes_expanded;
    const State current = std::move(popped);
    popped.dead = true;

    // Neighbor columns: null (w' = w) or tokens [w, w') with width <= cap.
    const uint32_t hi = std::min(len, w + anchor_width);
    for (uint32_t w2 = w; w2 <= hi; ++w2) {
      const int p2 = p + 1;
      // The final column must consume all remaining anchor tokens.
      if (p2 == m && w2 != len) continue;
      const size_t next = node_id(p2, w2);
      const bool at_target = (next == target);

      const CellInfo& column =
          (w2 == w) ? ctx.NullCell() : ctx.Cell(anchor, w, w2 - w);

      // Extend per-line alignment state.
      State next_state;
      next_state.prefix = current.prefix;
      next_state.prefix.push_back(w2);
      next_state.alignment.rows.resize(flex_lines.size());
      next_state.alignment.fixed_prefix.resize(fixed_lines.size());
      double g2 = 0;
      for (size_t fi = 0; fi < flex_lines.size(); ++fi) {
        const size_t j = flex_lines[fi];
        AdvanceAlignmentRow(ctx, j, column, current.alignment.rows[fi],
                            &next_state.alignment.rows[fi], dist,
                            line_widths[j]);
        const auto& row = next_state.alignment.rows[fi];
        // L(X) lets lines consume any number of tokens for a prefix; a
        // complete path pins them to the full line (Definition 6).
        const double contribution =
            at_target ? row.back()
                      : *std::min_element(row.begin(), row.end());
        g2 += ctx.LineWeight(anchor, j) * contribution;
      }
      for (size_t fi = 0; fi < fixed_lines.size(); ++fi) {
        const size_t j = fixed_lines[fi];
        const double d =
            (p < static_cast<int>(fixed_cells[fi].size()))
                ? (*dist)(column, *fixed_cells[fi][p])
                : (*dist)(column, ctx.NullCell());
        next_state.alignment.fixed_prefix[fi] =
            current.alignment.fixed_prefix[fi] + d;
        g2 += ctx.LineWeight(anchor, j) * next_state.alignment.fixed_prefix[fi];
      }
      next_state.g = g2;

      const double f2 = g2 + heuristic.Get(p2, w2);
      if (f2 > upper_bound + kEps) continue;
      if (at_target && g2 < upper_bound) {
        upper_bound = g2;
        incumbent = next_state.prefix;
      }

      // Dominance pruning against sibling states at this node.
      auto& siblings = states[next];
      bool is_dominated = false;
      for (const State& s : siblings) {
        if (!s.dead && dominates(s.alignment, next_state.alignment)) {
          is_dominated = true;
          break;
        }
      }
      if (is_dominated) continue;
      for (State& s : siblings) {
        if (!s.dead && dominates(next_state.alignment, s.alignment)) {
          s.dead = true;
        }
      }
      siblings.push_back(std::move(next_state));
      open.emplace(f2, next, siblings.size() - 1);
    }
  }

  assert(result.anchor_distance < kInf && "target unreachable");
  assert(IsValidBounds(result.anchor_bounds, len, m));
  return result;
}

}  // namespace tegra
