// Tests for the segmentation model, boundary enumeration, CellsToBounds and
// the ListContext working state.

#include <gtest/gtest.h>

#include <set>

#include "common/string_util.h"
#include "core/list_context.h"
#include "core/segmentation.h"

namespace tegra {
namespace {

// ---- bounds ------------------------------------------------------------------

TEST(BoundsTest, Validity) {
  EXPECT_TRUE(IsValidBounds({0, 2, 3, 5}, 5, 3));
  EXPECT_TRUE(IsValidBounds({0, 0, 5, 5}, 5, 3));  // Null columns allowed.
  EXPECT_FALSE(IsValidBounds({0, 3, 2, 5}, 5, 3));  // Decreasing.
  EXPECT_FALSE(IsValidBounds({0, 2, 5}, 5, 3));     // Wrong column count.
  EXPECT_FALSE(IsValidBounds({1, 2, 3, 5}, 5, 3));  // Does not start at 0.
  EXPECT_FALSE(IsValidBounds({0, 2, 3, 4}, 5, 3));  // Does not end at |l|.
  EXPECT_EQ(NumColumns({0, 2, 5}), 2);
}

TEST(BoundsToCellsTest, JoinsTokenRanges) {
  const std::vector<std::string> tokens = {"Los", "Angeles", "California",
                                           "United", "States"};
  EXPECT_EQ(BoundsToCells(tokens, {0, 2, 3, 5}),
            (std::vector<std::string>{"Los Angeles", "California",
                                      "United States"}));
  EXPECT_EQ(BoundsToCells(tokens, {0, 0, 5, 5}),
            (std::vector<std::string>{
                "", "Los Angeles California United States", ""}));
}

TEST(EnumerateBoundsTest, CountsMatchCombinatorics) {
  // m-column segmentations of n tokens with nulls allowed = C(n + m - 1,
  // m - 1) (stars and bars).
  EXPECT_EQ(EnumerateBounds(3, 2).size(), 4u);   // C(4,1).
  EXPECT_EQ(EnumerateBounds(4, 3).size(), 15u);  // C(6,2).
  EXPECT_EQ(EnumerateBounds(0, 2).size(), 1u);   // All-null.
  EXPECT_EQ(EnumerateBounds(5, 1).size(), 1u);   // Whole line.
}

TEST(EnumerateBoundsTest, AllResultsValidAndDistinct) {
  const auto all = EnumerateBounds(5, 3);
  std::set<Bounds> unique(all.begin(), all.end());
  EXPECT_EQ(unique.size(), all.size());
  for (const Bounds& b : all) {
    EXPECT_TRUE(IsValidBounds(b, 5, 3));
  }
}

TEST(EnumerateBoundsTest, WidthCapFiltersWideColumns) {
  const auto capped = EnumerateBounds(6, 2, /*max_width=*/3);
  for (const Bounds& b : capped) {
    for (size_t k = 0; k + 1 < b.size(); ++k) {
      EXPECT_LE(b[k + 1] - b[k], 3u);
    }
  }
  // 6 tokens into 2 columns of width <= 3: only the even split.
  EXPECT_EQ(capped.size(), 1u);
}

TEST(EnumerateBoundsTest, InfeasibleCapYieldsNothing) {
  EXPECT_TRUE(EnumerateBounds(10, 2, 3).empty());
}

// ---- CellsToBounds ------------------------------------------------------------

TEST(CellsToBoundsTest, RoundTripsSegmentations) {
  Tokenizer tok;
  const std::vector<std::string> tokens = {"a", "b", "c", "d"};
  Result<Bounds> r = CellsToBounds(tokens, {"a b", "", "c d"}, tok);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (Bounds{0, 2, 2, 4}));
}

TEST(CellsToBoundsTest, RejectsMismatchedCells) {
  Tokenizer tok;
  const std::vector<std::string> tokens = {"a", "b"};
  EXPECT_FALSE(CellsToBounds(tokens, {"a", "x"}, tok).ok());
  EXPECT_FALSE(CellsToBounds(tokens, {"a"}, tok).ok());       // Undercovers.
  EXPECT_FALSE(CellsToBounds(tokens, {"a", "b", "c"}, tok).ok());
}

// ---- ListContext ---------------------------------------------------------------

TEST(ListContextTest, BasicAccessors) {
  ListContext ctx({{"a", "b", "c"}, {"x"}}, nullptr);
  EXPECT_EQ(ctx.num_lines(), 2u);
  EXPECT_EQ(ctx.line_length(0), 3u);
  EXPECT_EQ(ctx.line_length(1), 1u);
  EXPECT_EQ(ctx.max_line_length(), 3u);
}

TEST(ListContextTest, CellJoinsTokens) {
  ListContext ctx({{"New", "York", "City"}}, nullptr);
  ctx.EnsureWidth(0, 3);
  EXPECT_EQ(ctx.Cell(0, 0, 2).text, "New York");
  EXPECT_EQ(ctx.Cell(0, 0, 3).text, "New York City");
  EXPECT_EQ(ctx.Cell(0, 2, 1).text, "City");
  EXPECT_EQ(ctx.Cell(0, 0, 2).token_count, 2u);
}

TEST(ListContextTest, EnsureWidthIsIncremental) {
  ListContext ctx({{"a", "b", "c", "d"}}, nullptr);
  ctx.EnsureWidth(0, 1);
  EXPECT_EQ(ctx.Cell(0, 1, 1).text, "b");
  ctx.EnsureWidth(0, 3);
  EXPECT_EQ(ctx.Cell(0, 1, 3).text, "b c d");
  // Re-ensuring a smaller width is a no-op.
  ctx.EnsureWidth(0, 2);
  EXPECT_EQ(ctx.Cell(0, 1, 3).text, "b c d");
}

TEST(ListContextTest, FlatCellsStayInternedAsWidthsGrow) {
  // Each wider EnsureWidth re-strides a line's flat cell array; a cell
  // interned from outside the lines comes last. Every slot must still hold
  // the catalog's cell for its joined tokens.
  const std::vector<std::vector<std::string>> tokens = {
      {"new", "york", "city", "ny", "10001"}, {"a", "b", "a", "b"}, {"x"}};
  ListContext ctx(tokens, nullptr);
  for (uint32_t width : {1u, 3u, 5u}) {
    for (size_t line = 0; line < ctx.num_lines(); ++line) {
      ctx.EnsureWidth(line, width);
    }
  }
  const size_t catalog_size = ctx.catalog().size();
  const CellInfo& external =
      ctx.RegisterExternalCell("york city ny 10001 x", 5);
  EXPECT_EQ(external.local_id, catalog_size);

  for (size_t line = 0; line < ctx.num_lines(); ++line) {
    const uint32_t len = ctx.line_length(line);
    ASSERT_EQ(ctx.cell_stride(line), len);
    const CellInfo* const* cells = ctx.LineCells(line);
    for (uint32_t start = 0; start < len; ++start) {
      for (uint32_t w = 1; w <= len; ++w) {
        const CellInfo* slot = cells[start * len + w - 1];
        if (start + w > len) {
          EXPECT_EQ(slot, nullptr);
          continue;
        }
        const std::string text =
            JoinRange(tokens[line], start, start + w, " ");
        const CellInfo& cell = ctx.Cell(line, start, w);
        EXPECT_EQ(slot, &cell);
        EXPECT_EQ(&cell, &ctx.RegisterExternalCell(text, w)) << text;
        EXPECT_EQ(&cell, &ctx.catalog().Get(cell.local_id));
        EXPECT_EQ(cell.token_count, w);
      }
    }
  }
  // Looking the substrings up interned nothing new.
  EXPECT_EQ(ctx.catalog().size(), catalog_size + 1);
}

TEST(ListContextTest, EffectiveWidthRelaxesForFeasibility) {
  ListContext ctx({{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}},
                  nullptr);
  // Cap 3 but 10 tokens into 2 columns needs width 5.
  EXPECT_EQ(ctx.EffectiveWidth(0, 2, 3), 5u);
  // Cap 3 suffices for 4 columns.
  EXPECT_EQ(ctx.EffectiveWidth(0, 4, 3), 3u);
  // Cap 0 = unbounded.
  EXPECT_EQ(ctx.EffectiveWidth(0, 2, 0), 10u);
}

TEST(ListContextTest, CellsForMaterializesNulls) {
  ListContext ctx({{"a", "b"}}, nullptr);
  ctx.EnsureWidth(0, 2);
  auto cells = ctx.CellsFor(0, {0, 0, 2, 2});
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_TRUE(cells[0]->is_null());
  EXPECT_EQ(cells[1]->text, "a b");
  EXPECT_TRUE(cells[2]->is_null());
}

TEST(ListContextTest, FixedBoundsAndWeights) {
  ListContext ctx({{"a", "b"}, {"c", "d"}, {"e", "f"}, {"g", "h"}}, nullptr);
  EXPECT_DOUBLE_EQ(ctx.PairWeight(0, 1), 1.0);
  ctx.SetFixedBounds(1, {0, 1, 2});
  EXPECT_TRUE(ctx.has_examples());
  EXPECT_EQ(ctx.num_examples(), 1u);
  // w_ij = n/k = 4/1 for pairs touching the example, 1 otherwise (§4).
  EXPECT_DOUBLE_EQ(ctx.PairWeight(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(ctx.PairWeight(1, 3), 4.0);
  EXPECT_DOUBLE_EQ(ctx.PairWeight(0, 2), 1.0);
  ASSERT_TRUE(ctx.fixed_bounds(1).has_value());
  EXPECT_EQ(*ctx.fixed_bounds(1), (Bounds{0, 1, 2}));
}

TEST(ListContextTest, SetFixedBoundsRegistersCells) {
  ListContext ctx({{"a", "b", "c"}}, nullptr);
  ctx.SetFixedBounds(0, {0, 3, 3});  // Wide first column.
  auto cells = ctx.CellsFor(0, *ctx.fixed_bounds(0));
  EXPECT_EQ(cells[0]->text, "a b c");
}

}  // namespace
}  // namespace tegra
