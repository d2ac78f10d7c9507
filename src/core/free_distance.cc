#include "core/free_distance.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace tegra {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// freeD(cell): the weighted sum over the other lines of the cheapest
/// distance from `cell` to null or to any of the line's candidate cells.
double ComputeFreeDistance(const CellInfo& cell, const ListContext& ctx,
                           size_t anchor,
                           const std::vector<uint32_t>& line_widths,
                           DistanceCache* dist) {
  double total = 0;
  const CellInfo& null_cell = ctx.NullCell();
  for (size_t j = 0; j < ctx.num_lines(); ++j) {
    if (j == anchor) continue;
    double best = (*dist)(cell, null_cell);
    const auto& fixed = ctx.fixed_bounds(j);
    if (fixed.has_value()) {
      // Pinned line: the column will align against one of its fixed cells
      // (or consume none of them when the anchor column pairs with null).
      for (const CellInfo* c : ctx.CellsFor(j, *fixed)) {
        best = std::min(best, (*dist)(cell, *c));
      }
    } else {
      const uint32_t len = ctx.line_length(j);
      const uint32_t cap = std::min(line_widths[j], len);
      const uint32_t stride = ctx.cell_stride(j);
      const CellInfo* const* cells = ctx.LineCells(j);
      for (uint32_t start = 0; start < len; ++start, cells += stride) {
        const uint32_t max_w = std::min(cap, len - start);
        for (uint32_t w = 0; w < max_w; ++w) {
          best = std::min(best, (*dist)(cell, *cells[w]));
        }
      }
    }
    total += ctx.LineWeight(anchor, j) * best;
  }
  return total;
}

}  // namespace

AnchorHeuristic::AnchorHeuristic(const ListContext& ctx, size_t anchor, int m,
                                 uint32_t anchor_width,
                                 const std::vector<uint32_t>& line_widths,
                                 DistanceCache* dist, FreeDistances* memo)
    : free_(memo),
      cap_(std::min(anchor_width, ctx.line_length(anchor))) {
  const uint32_t len = ctx.line_length(anchor);
  const uint32_t stride = ctx.cell_stride(anchor);
  assert(cap_ <= stride && "EnsureWidth not called with sufficient width");

  // Phase 1 (Algorithm 4, lines 1-8): free distances of every candidate
  // column of the anchor line, plus the null column. Those already in the
  // memo were computed under the same caps of the other lines, so they are
  // the values this computation would return.
  constexpr double kUncomputed = FreeDistances::kUncomputed;
  bool same_caps = memo->stride_ == stride &&
                   memo->line_widths_.size() == line_widths.size();
  for (size_t j = 0; same_caps && j < line_widths.size(); ++j) {
    same_caps = j == anchor || memo->line_widths_[j] == line_widths[j];
  }
  if (!same_caps) {
    memo->line_widths_ = line_widths;
    memo->stride_ = stride;
    memo->null_ = kUncomputed;
    memo->slots_.assign(size_t{len} * stride, kUncomputed);
  }
  if (memo->null_ == kUncomputed) {
    memo->null_ =
        ComputeFreeDistance(ctx.NullCell(), ctx, anchor, line_widths, dist);
  }
  const CellInfo* const* cells = ctx.LineCells(anchor);
  double* slots = memo->slots_.data();
  for (uint32_t start = 0; start < len; ++start) {
    const uint32_t max_w = std::min(cap_, len - start);
    for (uint32_t w = 1; w <= max_w; ++w) {
      const size_t slot = size_t{start} * stride + w - 1;
      if (slots[slot] != kUncomputed) continue;
      // A cell repeated earlier in the line already has its value.
      for (size_t prev = w - 1; prev < slot; prev += stride) {
        if (cells[prev] == cells[slot] && slots[prev] != kUncomputed) {
          slots[slot] = slots[prev];
          break;
        }
      }
      if (slots[slot] == kUncomputed) {
        slots[slot] =
            ComputeFreeDistance(*cells[slot], ctx, anchor, line_widths, dist);
      }
    }
  }

  // Phase 2 (Algorithm 4, lines 9-16): backward DP over h(p, w), the
  // cheapest (m - p)-column split of the remaining tokens where every column
  // pays only its free distance.
  h_.assign(m + 1, std::vector<double>(len + 1, kInf));
  h_[m][len] = 0.0;
  for (int p = m - 1; p >= 0; --p) {
    const std::vector<double>& next = h_[p + 1];
    for (uint32_t w = 0; w <= len; ++w) {
      double best = next[w] + memo->null_;  // Null column.
      const uint32_t hi = std::min(len, w + cap_);
      const double* columns = slots + size_t{w} * stride;  // [w, x): x-w-1.
      for (uint32_t x = w + 1; x <= hi; ++x) {
        if (next[x] == kInf) continue;
        best = std::min(best, next[x] + columns[x - w - 1]);
      }
      h_[p][w] = best;
    }
  }
}

double AnchorHeuristic::FreeDistanceOf(uint32_t start, uint32_t len) const {
  if (len == 0) return free_->null_;
  if (len > cap_) return kInf;
  return free_->slots_[size_t{start} * free_->stride_ + len - 1];
}

}  // namespace tegra
