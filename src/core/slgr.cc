#include "core/slgr.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace tegra {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

std::vector<double> InitialAlignmentRow(uint32_t num_tokens) {
  std::vector<double> row(num_tokens + 1, kInf);
  row[0] = 0.0;
  return row;
}

void AdvanceAlignmentRow(const ListContext& ctx, size_t line,
                         const CellInfo& anchor_cell,
                         const std::vector<double>& prev,
                         std::vector<double>* next, DistanceCache* dist,
                         uint32_t max_width) {
  const uint32_t len = ctx.line_length(line);
  assert(prev.size() == len + 1);
  const uint32_t stride = ctx.cell_stride(line);
  assert((max_width == 0 ? len : std::min(max_width, len)) <= stride &&
         "EnsureWidth not called with sufficient width");
  const CellInfo* const* cells = ctx.LineCells(line);
  next->assign(len + 1, kInf);
  const CellInfo& null_cell = ctx.NullCell();
  const double null_cost = (*dist)(null_cell, anchor_cell);
  for (uint32_t w = 0; w <= len; ++w) {
    // Null column option: the anchor's column consumes no tokens of `line`.
    double best = prev[w] + null_cost;
    // Non-null: line tokens (x..w] form the column; width w - x <= cap.
    const uint32_t min_x = (max_width > 0 && w > max_width) ? w - max_width : 0;
    for (uint32_t x = min_x; x < w; ++x) {
      if (prev[x] == kInf) continue;
      const double d = (*dist)(*cells[size_t{x} * stride + (w - x - 1)],
                               anchor_cell);
      best = std::min(best, prev[x] + d);
    }
    (*next)[w] = best;
  }
}

std::vector<std::vector<double>> ForwardAlignmentMatrix(
    const ListContext& ctx, size_t line,
    const std::vector<const CellInfo*>& anchor_cells, DistanceCache* dist,
    uint32_t max_width) {
  const uint32_t len = ctx.line_length(line);
  std::vector<std::vector<double>> matrix;
  matrix.reserve(anchor_cells.size() + 1);
  matrix.push_back(InitialAlignmentRow(len));
  for (const CellInfo* cell : anchor_cells) {
    std::vector<double> next;
    AdvanceAlignmentRow(ctx, line, *cell, matrix.back(), &next, dist,
                        max_width);
    matrix.push_back(std::move(next));
  }
  return matrix;
}

std::vector<std::vector<double>> BackwardAlignmentMatrix(
    const ListContext& ctx, size_t line,
    const std::vector<const CellInfo*>& anchor_cells, DistanceCache* dist,
    uint32_t max_width) {
  const uint32_t len = ctx.line_length(line);
  const int m = static_cast<int>(anchor_cells.size());
  const CellInfo& null_cell = ctx.NullCell();
  // N[p][w]: cost of aligning anchor columns p+1..m with tokens (w..len].
  std::vector<std::vector<double>> matrix(
      m + 1, std::vector<double>(len + 1, kInf));
  for (uint32_t w = 0; w <= len; ++w) {
    matrix[m][w] = (w == len) ? 0.0 : kInf;
  }
  for (int p = m - 1; p >= 0; --p) {
    const CellInfo& cell = *anchor_cells[p];
    const double null_cost = (*dist)(null_cell, cell);
    for (uint32_t w = 0; w <= len; ++w) {
      double best = matrix[p + 1][w] + null_cost;
      const uint32_t hi =
          max_width > 0 ? std::min(len, w + max_width) : len;
      for (uint32_t x = w + 1; x <= hi; ++x) {
        if (matrix[p + 1][x] == kInf) continue;
        const double d = (*dist)(ctx.Cell(line, w, x - w), cell);
        best = std::min(best, matrix[p + 1][x] + d);
      }
      matrix[p][w] = best;
    }
  }
  return matrix;
}

SlgrResult SegmentLineGivenRecord(
    const ListContext& ctx, size_t line,
    const std::vector<const CellInfo*>& anchor_cells, DistanceCache* dist,
    uint32_t max_width) {
  const int m = static_cast<int>(anchor_cells.size());
  const uint32_t len = ctx.line_length(line);

  // Supervised variant: lines pinned to user-provided segmentations are
  // scored as-is, never re-segmented.
  const auto& fixed = ctx.fixed_bounds(line);
  if (fixed.has_value()) {
    assert(NumColumns(*fixed) == m);
    SlgrResult result;
    result.bounds = *fixed;
    auto cells = ctx.CellsFor(line, *fixed);
    for (int k = 0; k < m; ++k) {
      result.cost += (*dist)(*cells[k], *anchor_cells[k]);
    }
    return result;
  }

  // Forward DP with per-cell backtrace. back[p][w] = the x that minimized
  // M[p][w] (x == w encodes the null-column option).
  std::vector<double> prev = InitialAlignmentRow(len);
  std::vector<double> curr(len + 1, kInf);
  std::vector<std::vector<uint32_t>> back(
      m, std::vector<uint32_t>(len + 1, 0));
  const CellInfo& null_cell = ctx.NullCell();

  for (int p = 0; p < m; ++p) {
    const CellInfo& cell = *anchor_cells[p];
    const double null_cost = (*dist)(null_cell, cell);
    for (uint32_t w = 0; w <= len; ++w) {
      double best = prev[w] + null_cost;
      uint32_t best_x = w;
      const uint32_t min_x =
          (max_width > 0 && w > max_width) ? w - max_width : 0;
      for (uint32_t x = min_x; x < w; ++x) {
        if (prev[x] == kInf) continue;
        const double d = (*dist)(ctx.Cell(line, x, w - x), cell);
        if (prev[x] + d < best) {
          best = prev[x] + d;
          best_x = x;
        }
      }
      curr[w] = best;
      back[p][w] = best_x;
    }
    std::swap(prev, curr);
  }

  SlgrResult result;
  result.cost = prev[len];
  // Reconstruct boundaries right-to-left.
  Bounds bounds(m + 1);
  bounds[m] = len;
  uint32_t w = len;
  for (int p = m - 1; p >= 0; --p) {
    w = back[p][w];
    bounds[p] = w;
  }
  assert(bounds[0] == 0);
  result.bounds = std::move(bounds);
  return result;
}

}  // namespace tegra
