// Tests for the A* anchor search (Algorithm 2), the free-distance heuristic
// (Algorithm 4, Lemma 2) and super-additivity (Lemma 1).
//
// The central property: A* must find exactly the same minimal anchor
// distance as exhaustive enumeration of all anchor segmentations
// (TEGRA-naive), for random lists, column counts and width caps — with both
// a null corpus (pure syntax) and a small real corpus.

#include <gtest/gtest.h>

#include <limits>

#include "common/random.h"
#include "core/anchor_search.h"
#include "core/free_distance.h"
#include "core/slgr.h"
#include "synth/corpus_gen.h"
#include "synth/list_gen.h"
#include "corpus/column_index.h"

namespace tegra {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

ListContext RandomContext(Rng* rng, size_t lines, uint32_t max_tokens,
                          const ColumnIndex* index) {
  static const char* kAlphabet[] = {"new",    "york", "city", "toronto",
                                    "boston", "42",   "1984", "7.5",
                                    "jan",    "ave"};
  std::vector<std::vector<std::string>> token_lines;
  for (size_t i = 0; i < lines; ++i) {
    const uint32_t n = static_cast<uint32_t>(rng->UniformInt(1, max_tokens));
    std::vector<std::string> toks;
    for (uint32_t t = 0; t < n; ++t) {
      toks.push_back(kAlphabet[rng->Uniform(std::size(kAlphabet))]);
    }
    token_lines.push_back(std::move(toks));
  }
  return ListContext(std::move(token_lines), index);
}

void PrepareWidths(ListContext* ctx, int m, uint32_t cap) {
  for (size_t j = 0; j < ctx->num_lines(); ++j) {
    ctx->EnsureWidth(j, ctx->EffectiveWidth(j, m, cap));
  }
}

class AStarEqualsNaiveTest : public ::testing::TestWithParam<int> {};

TEST_P(AStarEqualsNaiveTest, OnRandomLists) {
  Rng rng(GetParam() * 7919 + 5);
  CellDistance distance(nullptr);
  for (int iter = 0; iter < 12; ++iter) {
    ListContext ctx = RandomContext(&rng, 3, 6, nullptr);
    const int m = static_cast<int>(rng.UniformInt(1, 4));
    const uint32_t cap = static_cast<uint32_t>(rng.UniformInt(2, 4));
    PrepareWidths(&ctx, m, cap);
    for (size_t anchor = 0; anchor < ctx.num_lines(); ++anchor) {
      ExtractionMemo c1(&distance, ctx.num_lines());
      DistanceCache c2(&distance);
      const auto astar =
          MinimizeAnchorDistanceAStar(ctx, anchor, m, &c1, cap);
      const auto naive =
          MinimizeAnchorDistanceExhaustive(ctx, anchor, m, &c2, cap);
      ASSERT_NEAR(astar.anchor_distance, naive.anchor_distance, 1e-9)
          << "anchor=" << anchor << " m=" << m << " cap=" << cap;
      // The A* bounds must realize the same AD (the argmin may differ only
      // when there are ties).
      DistanceCache c3(&distance);
      ASSERT_NEAR(
          AnchorDistanceOf(ctx, anchor, astar.anchor_bounds, &c3, cap),
          naive.anchor_distance, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AStarEqualsNaiveTest, ::testing::Range(1, 7));

TEST(AStarWithCorpusTest, MatchesNaiveOnRealDistances) {
  ColumnIndex index = synth::BuildBackgroundIndex(
      synth::CorpusProfile::kWeb, /*num_tables=*/300, /*seed=*/33);
  CorpusStats stats(&index);
  CellDistance distance(&stats);
  Rng rng(99);
  for (int iter = 0; iter < 5; ++iter) {
    // Lines drawn from real generated tables for realistic distances.
    synth::TableGenOptions opts =
        synth::DefaultTableGenOptions(synth::CorpusProfile::kWeb);
    opts.min_rows = 3;
    opts.max_rows = 3;
    opts.min_cols = 3;
    opts.max_cols = 3;
    synth::TableGenerator gen(synth::CorpusProfile::kWeb, opts,
                              rng.Next());
    auto instance = synth::MakeBenchmarkInstance(gen.Generate());
    Tokenizer tok;
    std::vector<std::vector<std::string>> token_lines;
    for (const auto& line : instance.lines) {
      token_lines.push_back(tok.Tokenize(line));
    }
    ListContext ctx(std::move(token_lines), &index);
    const int m = 3;
    PrepareWidths(&ctx, m, 3);
    ExtractionMemo c1(&distance, ctx.num_lines());
    DistanceCache c2(&distance);
    const auto astar = MinimizeAnchorDistanceAStar(ctx, 0, m, &c1, 3);
    const auto naive = MinimizeAnchorDistanceExhaustive(ctx, 0, m, &c2, 3);
    ASSERT_NEAR(astar.anchor_distance, naive.anchor_distance, 1e-9);
  }
}

TEST(AStarTest, PrunesRelativeToExhaustive) {
  Rng rng(7);
  CellDistance distance(nullptr);
  ListContext ctx = RandomContext(&rng, 4, 8, nullptr);
  const int m = 3;
  PrepareWidths(&ctx, m, 4);
  ExtractionMemo c1(&distance, ctx.num_lines());
  DistanceCache c2(&distance);
  const auto astar = MinimizeAnchorDistanceAStar(ctx, 0, m, &c1, 4);
  const auto naive = MinimizeAnchorDistanceExhaustive(ctx, 0, m, &c2, 4);
  EXPECT_LT(astar.nodes_expanded, naive.nodes_expanded)
      << "A* should visit fewer states than full enumeration";
}

TEST(AStarTest, FixedAnchorShortCircuits) {
  CellDistance distance(nullptr);
  ListContext ctx({{"a", "b"}, {"x", "y"}}, nullptr);
  PrepareWidths(&ctx, 2, 2);
  ctx.SetFixedBounds(0, {0, 1, 2});
  ExtractionMemo memo(&distance, ctx.num_lines());
  const auto result = MinimizeAnchorDistanceAStar(ctx, 0, 2, &memo, 2);
  EXPECT_EQ(result.anchor_bounds, (Bounds{0, 1, 2}));
  EXPECT_EQ(result.nodes_expanded, 1u);
}

TEST(AStarTest, SupervisedWeightsScaleAnchorDistance) {
  CellDistance distance(nullptr);
  ListContext unweighted({{"a", "b"}, {"x", "y"}, {"p", "q"}}, nullptr);
  ListContext weighted({{"a", "b"}, {"x", "y"}, {"p", "q"}}, nullptr);
  PrepareWidths(&unweighted, 2, 2);
  PrepareWidths(&weighted, 2, 2);
  weighted.SetFixedBounds(1, {0, 1, 2});
  ExtractionMemo c1(&distance, unweighted.num_lines());
  ExtractionMemo c2(&distance, weighted.num_lines());
  const auto plain = MinimizeAnchorDistanceAStar(unweighted, 0, 2, &c1, 2);
  const auto sup = MinimizeAnchorDistanceAStar(weighted, 0, 2, &c2, 2);
  // The example pair weight n/k = 3 must increase the anchor distance.
  EXPECT_GT(sup.anchor_distance, plain.anchor_distance);
}

// ---- heuristic properties -----------------------------------------------------

TEST(HeuristicTest, AdmissibleAlongOptimalPath) {
  // h(p, w) must underestimate the cost-to-go: for the optimal complete
  // segmentation found by exhaustive search, check every prefix node it
  // passes through.
  Rng rng(23);
  CellDistance distance(nullptr);
  for (int iter = 0; iter < 10; ++iter) {
    ListContext ctx = RandomContext(&rng, 3, 5, nullptr);
    const int m = 3;
    const uint32_t cap = 3;
    PrepareWidths(&ctx, m, cap);
    const uint32_t anchor_width = ctx.EffectiveWidth(0, m, cap);
    std::vector<uint32_t> line_widths(ctx.num_lines());
    for (size_t j = 0; j < ctx.num_lines(); ++j) {
      line_widths[j] = ctx.EffectiveWidth(j, m, cap);
    }
    DistanceCache cache(&distance);
    FreeDistances free;
    AnchorHeuristic h(ctx, 0, m, anchor_width, line_widths, &cache, &free);

    DistanceCache c2(&distance);
    const auto best = MinimizeAnchorDistanceExhaustive(ctx, 0, m, &c2, cap);
    // h at the start node must not exceed the optimal total cost.
    EXPECT_LE(h.Get(0, 0), best.anchor_distance + 1e-9);
    // h at the target is zero.
    EXPECT_DOUBLE_EQ(h.Get(m, ctx.line_length(0)), 0.0);
  }
}

TEST(HeuristicTest, FreeDistanceIsLowerBoundOnAlignment) {
  // freeD(c) <= the cost line j pays to align any column against c in any
  // full alignment, for each candidate column c of the anchor.
  Rng rng(29);
  CellDistance distance(nullptr);
  ListContext ctx = RandomContext(&rng, 2, 4, nullptr);
  const int m = 2;
  const uint32_t cap = 4;
  PrepareWidths(&ctx, m, cap);
  const uint32_t aw = ctx.EffectiveWidth(0, m, cap);
  std::vector<uint32_t> widths(ctx.num_lines());
  for (size_t j = 0; j < ctx.num_lines(); ++j) {
    widths[j] = ctx.EffectiveWidth(j, m, cap);
  }
  DistanceCache cache(&distance);
  FreeDistances free;
  AnchorHeuristic h(ctx, 0, m, aw, widths, &cache, &free);

  const uint32_t len = ctx.line_length(0);
  for (uint32_t start = 0; start < len; ++start) {
    for (uint32_t w = 1; w <= std::min(aw, len - start); ++w) {
      const CellInfo& c = ctx.Cell(0, start, w);
      const double free_d = h.FreeDistanceOf(start, w);
      // Against line 1, any candidate cell (or null) costs at least freeD's
      // per-line minimum; verify via direct minimization.
      double best = cache(c, ctx.NullCell());
      for (uint32_t s2 = 0; s2 < ctx.line_length(1); ++s2) {
        for (uint32_t w2 = 1;
             w2 <= std::min(widths[1], ctx.line_length(1) - s2); ++w2) {
          best = std::min(best, cache(c, ctx.Cell(1, s2, w2)));
        }
      }
      EXPECT_NEAR(free_d, best, 1e-9) << c.text;
    }
  }
}

TEST(HeuristicTest, MemoReuseIsExactAcrossTheSweep) {
  // The anchor's heuristic is rebuilt through one memo for m = 1..6, as the
  // unsupervised sweep does, and compared with a fresh one at every m. With
  // cap 3, line 1 (12 tokens) has width caps 12, 6, 4, 3, 3, 3: the memo is
  // refilled at m = 2, 3 and 4, and reused at m = 5 and 6.
  CellDistance distance(nullptr);
  ListContext ctx({{"jan", "7.5", "new", "york", "42", "jan"},
                   {"boston", "1984", "ave", "7.5", "city", "new", "york",
                    "42", "toronto", "jan", "ave", "1984"},
                   {"city", "42", "ave"}},
                  nullptr);
  const uint32_t cap = 3;
  const uint32_t len = ctx.line_length(0);
  FreeDistances memo;
  for (int m = 1; m <= 6; ++m) {
    PrepareWidths(&ctx, m, cap);
    const uint32_t anchor_width = ctx.EffectiveWidth(0, m, cap);
    std::vector<uint32_t> line_widths(ctx.num_lines());
    for (size_t j = 0; j < ctx.num_lines(); ++j) {
      line_widths[j] = ctx.EffectiveWidth(j, m, cap);
    }
    DistanceCache memo_cache(&distance);
    const AnchorHeuristic reused(ctx, 0, m, anchor_width, line_widths,
                                 &memo_cache, &memo);
    DistanceCache fresh_cache(&distance);
    FreeDistances fresh_memo;
    const AnchorHeuristic fresh(ctx, 0, m, anchor_width, line_widths,
                                &fresh_cache, &fresh_memo);

    for (int p = 0; p <= m; ++p) {
      for (uint32_t w = 0; w <= len; ++w) {
        EXPECT_EQ(reused.Get(p, w), fresh.Get(p, w))
            << "m=" << m << " p=" << p << " w=" << w;
      }
    }
    for (uint32_t start = 0; start < len; ++start) {
      for (uint32_t w = 0; start + w <= len; ++w) {
        EXPECT_EQ(reused.FreeDistanceOf(start, w),
                  fresh.FreeDistanceOf(start, w))
            << "m=" << m << " start=" << start << " w=" << w;
      }
    }
    // Reused free distances need no distance at all.
    if (m >= 5) {
      EXPECT_EQ(memo_cache.evaluations(), 0u) << "m=" << m;
    } else {
      EXPECT_EQ(memo_cache.evaluations(), fresh_cache.evaluations())
          << "m=" << m;
    }
  }
}

// ---- super-additivity (Lemma 1) ------------------------------------------------

TEST(SuperAdditivityTest, PrefixPlusSuffixUnderestimatesComplete) {
  // L(X) + L(Y) <= L(Z) for a complete path Z split at any node: realized
  // here via the forward and backward alignment matrices (min over seam
  // tokens on each side, independently chosen, can only be cheaper).
  Rng rng(31);
  CellDistance distance(nullptr);
  DistanceCache cache(&distance);
  ListContext ctx = RandomContext(&rng, 2, 6, nullptr);
  const int m = 3;
  PrepareWidths(&ctx, m, 0);
  const auto anchors = EnumerateBounds(ctx.line_length(0), m, 0);
  ASSERT_FALSE(anchors.empty());
  const auto anchor_cells = ctx.CellsFor(0, anchors[anchors.size() / 2]);

  const auto fwd = ForwardAlignmentMatrix(ctx, 1, anchor_cells, &cache, 0);
  const auto bwd = BackwardAlignmentMatrix(ctx, 1, anchor_cells, &cache, 0);
  const uint32_t len = ctx.line_length(1);
  const double complete = fwd[m][len];
  for (int p = 0; p <= m; ++p) {
    double prefix_min = kInf;
    double suffix_min = kInf;
    for (uint32_t w = 0; w <= len; ++w) {
      prefix_min = std::min(prefix_min, fwd[p][w]);
      suffix_min = std::min(suffix_min, bwd[p][w]);
    }
    if (prefix_min == kInf || suffix_min == kInf) continue;
    EXPECT_LE(prefix_min + suffix_min, complete + 1e-9) << "p=" << p;
  }
}

}  // namespace
}  // namespace tegra
