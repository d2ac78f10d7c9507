#include "baselines/listextract.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <map>

#include "common/stopwatch.h"
#include "core/list_context.h"

namespace tegra {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// A field is a token range [start, end) of its line; start == end is null.
struct Field {
  uint32_t start = 0;
  uint32_t end = 0;
  bool is_null() const { return start == end; }
};

using FieldRow = std::vector<Field>;

const CellInfo& FieldCell(const ListContext& ctx, size_t line,
                          const Field& f) {
  return f.is_null() ? ctx.NullCell() : ctx.Cell(line, f.start, f.end - f.start);
}

/// Representatives of each output column used for consistency scoring.
struct ColumnReps {
  std::vector<std::vector<const CellInfo*>> cells;  // Per column.

  void Add(size_t col, const CellInfo* cell, int cap) {
    if (cells[col].size() < static_cast<size_t>(cap)) {
      cells[col].push_back(cell);
    }
  }
};

/// Field-to-column consistency: average F2FC (1 - distance) against the
/// column's representatives; 0 when the column has none. Distances are not
/// memoized: each pairs a candidate field with one of a few representatives,
/// so a DistanceCache would allocate matrix rows for a handful of slots each.
double Consistency(const CellInfo& cell, const ColumnReps& reps, size_t col,
                   const CellDistance& dist) {
  const auto& rs = reps.cells[col];
  if (rs.empty()) return 0.0;
  double total = 0;
  for (const CellInfo* r : rs) total += 1.0 - dist.Distance(cell, *r);
  return total / static_cast<double>(rs.size());
}

}  // namespace

ListExtract::ListExtract(const CorpusStats* stats, ListExtractOptions options)
    : stats_(stats),
      options_(std::move(options)),
      distance_(stats, options_.distance),
      quality_(stats) {}

namespace {

/// Phase 1: greedy independent splitting of one segment [s, e).
///
/// Carves out the subsequence with the best FQ (ties: shorter, then
/// leftmost — the short-popular-string bias called out in §1) and recurses
/// on the flanks. Every subsequence has positive quality (FQ's LM floor),
/// so lines are fully decomposed greedily, exactly the local-first behaviour
/// whose cost the TEGRA evaluation measures.
void GreedySplit(const ListContext& ctx, size_t line, uint32_t s, uint32_t e,
                 uint32_t cap, const FieldQuality& quality, FieldRow* out) {
  if (s >= e) return;
  double best_score = kNegInf;
  uint32_t best_a = s;
  uint32_t best_b = e;
  for (uint32_t width = 1; width <= std::min(cap, e - s); ++width) {
    for (uint32_t a = s; a + width <= e; ++a) {
      const double score = quality.Score(ctx.Cell(line, a, width));
      // Strictly-better wins; at equal quality the earlier (shorter-first
      // iteration order) candidate is kept.
      if (score > best_score) {
        best_score = score;
        best_a = a;
        best_b = a + width;
      }
    }
  }
  GreedySplit(ctx, line, s, best_a, cap, quality, out);
  out->push_back({best_a, best_b});
  GreedySplit(ctx, line, best_b, e, cap, quality, out);
}

/// Phase 2a (fewer fields than columns): inserts nulls by assigning the k
/// fields to k of the m columns, order preserving, maximizing total
/// consistency.
FieldRow PadWithNulls(const ListContext& ctx, size_t line,
                      const FieldRow& fields, int m, const ColumnReps& reps,
                      const CellDistance& dist) {
  const int k = static_cast<int>(fields.size());
  assert(k <= m);
  // dp[i][c]: best consistency assigning first i fields within first c
  // columns. choice[i][c]: true if field i-1 is placed at column c-1.
  std::vector<std::vector<double>> dp(k + 1,
                                      std::vector<double>(m + 1, kNegInf));
  std::vector<std::vector<char>> choice(k + 1, std::vector<char>(m + 1, 0));
  for (int c = 0; c <= m; ++c) dp[0][c] = 0.0;
  for (int i = 1; i <= k; ++i) {
    const CellInfo& cell = FieldCell(ctx, line, fields[i - 1]);
    for (int c = i; c <= m - (k - i); ++c) {
      const double skip = dp[i][c - 1];
      const double place =
          dp[i - 1][c - 1] + Consistency(cell, reps, c - 1, dist);
      if (place >= skip) {
        dp[i][c] = place;
        choice[i][c] = 1;
      } else {
        dp[i][c] = skip;
      }
    }
  }
  // Backtrack.
  FieldRow out(m);
  int i = k;
  int c = m;
  while (c > 0) {
    if (i > 0 && choice[i][c]) {
      out[c - 1] = fields[i - 1];
      --i;
    } else {
      // Null column anchored at the next field boundary.
      const uint32_t pos = (i > 0) ? fields[i - 1].end : 0;
      out[c - 1] = {pos, pos};
    }
    --c;
  }
  return out;
}

/// Phase 2b (more fields than columns): merge everything back to tokens and
/// re-split into exactly m fields, maximizing total FQ (nulls allowed).
FieldRow ResplitToColumns(const ListContext& ctx, size_t line, int m,
                          uint32_t cap, const FieldQuality& quality) {
  const uint32_t len = ctx.line_length(line);
  // dp[p][w]: best FQ sum segmenting first w tokens into p fields.
  std::vector<std::vector<double>> dp(m + 1,
                                      std::vector<double>(len + 1, kNegInf));
  std::vector<std::vector<uint32_t>> back(m + 1,
                                          std::vector<uint32_t>(len + 1, 0));
  dp[0][0] = 0.0;
  for (int p = 1; p <= m; ++p) {
    for (uint32_t w = 0; w <= len; ++w) {
      // Null field.
      if (dp[p - 1][w] > dp[p][w]) {
        dp[p][w] = dp[p - 1][w];
        back[p][w] = w;
      }
      const uint32_t min_x = (cap > 0 && w > cap) ? w - cap : 0;
      for (uint32_t x = min_x; x < w; ++x) {
        if (dp[p - 1][x] == kNegInf) continue;
        const double score =
            dp[p - 1][x] + quality.Score(ctx.Cell(line, x, w - x));
        if (score > dp[p][w]) {
          dp[p][w] = score;
          back[p][w] = x;
        }
      }
    }
  }
  FieldRow out(m);
  uint32_t w = len;
  for (int p = m; p >= 1; --p) {
    const uint32_t x = back[p][w];
    out[p - 1] = {x, w};
    w = x;
  }
  return out;
}

/// Phase 3 helper: re-split a streak's tokens into `cols` fields maximizing
/// consistency with those columns' representatives.
FieldRow ResplitStreak(const ListContext& ctx, size_t line, uint32_t s,
                       uint32_t e, size_t first_col, size_t cols,
                       const ColumnReps& reps, const CellDistance& dist,
                       uint32_t cap) {
  const uint32_t len = e - s;
  std::vector<std::vector<double>> dp(
      cols + 1, std::vector<double>(len + 1, kNegInf));
  std::vector<std::vector<uint32_t>> back(
      cols + 1, std::vector<uint32_t>(len + 1, 0));
  dp[0][0] = 0.0;
  for (size_t p = 1; p <= cols; ++p) {
    for (uint32_t w = 0; w <= len; ++w) {
      if (dp[p - 1][w] > dp[p][w]) {  // Null field.
        dp[p][w] = dp[p - 1][w];
        back[p][w] = w;
      }
      const uint32_t min_x = (cap > 0 && w > cap) ? w - cap : 0;
      for (uint32_t x = min_x; x < w; ++x) {
        if (dp[p - 1][x] == kNegInf) continue;
        const CellInfo& cell = ctx.Cell(line, s + x, w - x);
        const double score =
            dp[p - 1][x] + Consistency(cell, reps, first_col + p - 1, dist);
        if (score > dp[p][w]) {
          dp[p][w] = score;
          back[p][w] = x;
        }
      }
    }
  }
  FieldRow out(cols);
  uint32_t w = len;
  for (size_t p = cols; p >= 1; --p) {
    const uint32_t x = back[p][w];
    out[p - 1] = {s + x, s + w};
    w = x;
  }
  return out;
}

}  // namespace

Result<BaselineResult> ListExtract::ExtractWithExamples(
    const std::vector<std::string>& lines,
    const std::vector<SegmentationExample>& examples) const {
  if (lines.empty()) {
    return Status::InvalidArgument("input list has no lines");
  }
  Stopwatch watch;
  Tokenizer tokenizer(options_.tokenizer);
  std::vector<std::vector<std::string>> token_lines;
  token_lines.reserve(lines.size());
  for (const auto& line : lines) {
    token_lines.push_back(tokenizer.Tokenize(line));
  }

  const CorpusView* index = stats_ ? &stats_->index() : nullptr;
  ListContext ctx(std::move(token_lines), index);
  const size_t n = ctx.num_lines();
  const uint32_t cap = static_cast<uint32_t>(options_.max_cell_tokens);
  for (size_t j = 0; j < n; ++j) {
    // ListExtract evaluates arbitrary subsequences during splitting and
    // refinement; register everything.
    ctx.EnsureWidth(j, ctx.line_length(j));
  }

  // Convert examples to field rows; they are held fixed throughout.
  std::vector<std::optional<FieldRow>> fixed(n);
  int example_cols = 0;
  for (const SegmentationExample& ex : examples) {
    if (ex.line_index >= n) {
      return Status::OutOfRange("example line index out of range");
    }
    Result<Bounds> bounds =
        CellsToBounds(ctx.tokens(ex.line_index), ex.cells, tokenizer);
    if (!bounds.ok()) return bounds.status();
    FieldRow row;
    for (size_t k = 0; k + 1 < bounds->size(); ++k) {
      row.push_back({(*bounds)[k], (*bounds)[k + 1]});
    }
    example_cols = static_cast<int>(row.size());
    fixed[ex.line_index] = std::move(row);
  }

  // ---- Phase 1: independent greedy splitting --------------------------
  std::vector<FieldRow> rows(n);
  for (size_t j = 0; j < n; ++j) {
    if (fixed[j].has_value()) {
      rows[j] = *fixed[j];
      continue;
    }
    const uint32_t len = ctx.line_length(j);
    const uint32_t eff = std::min(len == 0 ? 0 : len, cap == 0 ? len : cap);
    GreedySplit(ctx, j, 0, len, std::max(1u, eff), quality_, &rows[j]);
  }

  // ---- Phase 2: alignment ---------------------------------------------
  int m = options_.fixed_columns;
  if (example_cols > 0) m = example_cols;
  if (m <= 0) {
    std::map<size_t, size_t> counts;
    for (const auto& row : rows) {
      if (!row.empty()) ++counts[row.size()];
    }
    size_t best_count = 0;
    for (const auto& [cols, count] : counts) {
      if (count > best_count) {
        best_count = count;
        m = static_cast<int>(cols);
      }
    }
    if (m <= 0) m = 1;
  }

  // Column representatives from records that already have m fields (and
  // from user examples).
  ColumnReps reps;
  reps.cells.resize(m);
  for (size_t j = 0; j < n; ++j) {
    if (static_cast<int>(rows[j].size()) != m) continue;
    if (!fixed[j].has_value() && example_cols > 0) continue;
    for (int c = 0; c < m; ++c) {
      reps.Add(c, &FieldCell(ctx, j, rows[j][c]), options_.representatives);
    }
  }

  const uint32_t resplit_cap = std::max(
      cap == 0 ? ctx.max_line_length() : cap, 1u);
  for (size_t j = 0; j < n; ++j) {
    if (fixed[j].has_value()) continue;
    const int k = static_cast<int>(rows[j].size());
    if (k == m) continue;
    if (k < m) {
      rows[j] = PadWithNulls(ctx, j, rows[j], m, reps, distance_);
    } else {
      rows[j] = ResplitToColumns(ctx, j, m,
                                 std::max(resplit_cap,
                                          (ctx.line_length(j) + m - 1) /
                                              std::max(1, m)),
                                 quality_);
    }
  }

  // ---- Phase 3: refinement ---------------------------------------------
  // Rebuild representatives from the aligned table.
  ColumnReps full_reps;
  full_reps.cells.resize(m);
  for (size_t j = 0; j < n; ++j) {
    for (int c = 0; c < m; ++c) {
      full_reps.Add(c, &FieldCell(ctx, j, rows[j][c]),
                    options_.representatives * 2);
    }
  }
  for (size_t j = 0; j < n; ++j) {
    if (fixed[j].has_value()) continue;
    // Identify low-consistency streaks.
    std::vector<char> bad(m, 0);
    for (int c = 0; c < m; ++c) {
      const CellInfo& cell = FieldCell(ctx, j, rows[j][c]);
      bad[c] =
          Consistency(cell, full_reps, c, distance_) <
          options_.refinement_threshold;
    }
    int c = 0;
    while (c < m) {
      if (!bad[c]) {
        ++c;
        continue;
      }
      int end = c;
      while (end + 1 < m && bad[end + 1]) ++end;
      // Merge the streak's tokens and re-split against its columns.
      const uint32_t s = rows[j][c].start;
      const uint32_t e = rows[j][end].end;
      if (e > s && end > c) {
        FieldRow replacement =
            ResplitStreak(ctx, j, s, e, c, end - c + 1, full_reps, distance_,
                          std::max(resplit_cap, e - s));
        for (int cc = c; cc <= end; ++cc) rows[j][cc] = replacement[cc - c];
      }
      c = end + 1;
    }
  }

  // ---- Materialize -------------------------------------------------------
  BaselineResult out;
  out.num_columns = m;
  Table table(static_cast<size_t>(m));
  for (size_t j = 0; j < n; ++j) {
    std::vector<std::string> cells;
    cells.reserve(m);
    for (const Field& f : rows[j]) {
      cells.push_back(FieldCell(ctx, j, f).text);
    }
    table.AddRow(std::move(cells));
  }
  out.table = std::move(table);
  out.seconds = watch.ElapsedSeconds();
  return out;
}

Result<BaselineResult> ListExtract::Extract(
    const std::vector<std::string>& lines) const {
  return ExtractWithExamples(lines, {});
}

}  // namespace tegra
