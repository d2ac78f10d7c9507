// End-to-end tests of the TEGRA extractor on small hand-built corpora,
// including the paper's running example (Figures 2-4).

#include "core/tegra.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/hash.h"
#include "corpus/column_index.h"
#include "corpus/corpus_stats.h"
#include "synth/corpus_gen.h"
#include "synth/list_gen.h"

namespace tegra {
namespace {

/// Builds a small background corpus where cities, regions and countries each
/// co-occur heavily, mimicking web-table statistics for the running example.
ColumnIndex BuildToyCorpus() {
  ColumnIndex index;
  const std::vector<std::vector<std::string>> city_columns = {
      {"Los Angeles", "Toronto", "New York City", "Chicago"},
      {"Toronto", "New York City", "Montreal"},
      {"Los Angeles", "New York City", "Houston"},
      {"Toronto", "Los Angeles", "Vancouver"},
      {"New York City", "Boston", "Los Angeles"},
      {"Toronto", "Chicago", "Seattle", "Los Angeles"},
  };
  const std::vector<std::vector<std::string>> region_columns = {
      {"California", "New York", "Texas"},
      {"New York", "California", "Ontario"},
      {"California", "Ontario", "Quebec"},
      {"New York", "Washington", "California"},
      {"Ontario", "California", "New York"},
  };
  const std::vector<std::vector<std::string>> country_columns = {
      {"United States", "Canada", "USA"},
      {"Canada", "USA", "Mexico"},
      {"United States", "Canada", "France"},
      {"USA", "United States", "Canada"},
      {"Canada", "United States", "USA"},
      {"USA", "Canada", "Germany"},
  };
  for (const auto& col : city_columns) index.AddColumn(col);
  for (const auto& col : region_columns) index.AddColumn(col);
  for (const auto& col : country_columns) index.AddColumn(col);
  // Unrelated filler columns so probabilities are not degenerate.
  for (int i = 0; i < 40; ++i) {
    index.AddColumn({"filler" + std::to_string(i),
                     "filler" + std::to_string(i + 1),
                     "filler" + std::to_string(i + 2)});
  }
  index.Finalize();
  return index;
}

class RunningExampleTest : public ::testing::Test {
 protected:
  RunningExampleTest() : index_(BuildToyCorpus()), stats_(&index_) {}

  ColumnIndex index_;
  CorpusStats stats_;
  const std::vector<std::string> lines_ = {
      "Los Angeles California United States",
      "Toronto Canada",
      "New York City New York USA",
  };
};

TEST_F(RunningExampleTest, GivenThreeColumnsRecoversFigure3) {
  TegraExtractor tegra(&stats_);
  auto result = tegra.ExtractWithColumns(lines_, 3);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Table& t = result->table;
  ASSERT_EQ(t.NumCols(), 3u);
  ASSERT_EQ(t.NumRows(), 3u);
  EXPECT_EQ(t.Cell(0, 0), "Los Angeles");
  EXPECT_EQ(t.Cell(0, 1), "California");
  EXPECT_EQ(t.Cell(0, 2), "United States");
  EXPECT_EQ(t.Cell(1, 0), "Toronto");
  EXPECT_EQ(t.Cell(1, 1), "");
  EXPECT_EQ(t.Cell(1, 2), "Canada");
  EXPECT_EQ(t.Cell(2, 0), "New York City");
  EXPECT_EQ(t.Cell(2, 1), "New York");
  EXPECT_EQ(t.Cell(2, 2), "USA");
}

TEST_F(RunningExampleTest, UnsupervisedPicksThreeColumns) {
  TegraExtractor tegra(&stats_);
  auto result = tegra.Extract(lines_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_columns, 3);
  EXPECT_EQ(result->table.Cell(2, 0), "New York City");
}

TEST_F(RunningExampleTest, NaiveAndAStarAgree) {
  TegraOptions astar_opts;
  TegraOptions naive_opts;
  naive_opts.use_astar = false;
  TegraExtractor astar(&stats_, astar_opts);
  TegraExtractor naive(&stats_, naive_opts);
  auto a = astar.ExtractWithColumns(lines_, 3);
  auto b = naive.ExtractWithColumns(lines_, 3);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->anchor_distance, b->anchor_distance);
  EXPECT_EQ(a->table.rows(), b->table.rows());
  // A* should do no more work than exhaustive enumeration.
  EXPECT_LE(a->nodes_expanded, b->nodes_expanded);
}

TEST_F(RunningExampleTest, SupervisedExamplePinsSegmentation) {
  TegraExtractor tegra(&stats_);
  std::vector<SegmentationExample> examples = {
      {0, {"Los Angeles", "California", "United States"}},
  };
  auto result = tegra.ExtractWithExamples(lines_, examples);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_columns, 3);
  EXPECT_EQ(result->table.Cell(0, 0), "Los Angeles");
  EXPECT_EQ(result->table.Cell(2, 0), "New York City");
}

TEST_F(RunningExampleTest, BadExampleIsRejected) {
  TegraExtractor tegra(&stats_);
  std::vector<SegmentationExample> examples = {
      {0, {"Los Angeles", "California"}},  // Does not cover all tokens.
  };
  auto result = tegra.ExtractWithExamples(lines_, examples);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(TegraEdgeCases, EmptyListRejected) {
  TegraExtractor tegra(nullptr);
  auto result = tegra.Extract({});
  EXPECT_FALSE(result.ok());
}

TEST(TegraEdgeCases, SingleLineDoesNotCrash) {
  TegraExtractor tegra(nullptr);
  auto result = tegra.ExtractWithColumns({"a b c"}, 2);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->table.NumRows(), 1u);
  EXPECT_EQ(result->table.NumCols(), 2u);
}

TEST(TegraEdgeCases, LineWithoutTokens) {
  TegraExtractor tegra(nullptr);
  auto result = tegra.ExtractWithColumns({"a b", "   "}, 2);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->table.NumRows(), 2u);
  EXPECT_EQ(result->table.Cell(1, 0), "");
  EXPECT_EQ(result->table.Cell(1, 1), "");
}

TEST(TegraEdgeCases, MoreColumnsThanTokens) {
  TegraExtractor tegra(nullptr);
  auto result = tegra.ExtractWithColumns({"a b", "c d"}, 4);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->table.NumCols(), 4u);
}

TEST(TegraPinnedOutput, UnsupervisedEnterpriseListsAreUnchanged) {
  // The unsupervised sweep on generated Enterprise lists, some with lines
  // long enough that their width caps change with m. The digest of every
  // column count and boundary vector, and the total nodes expanded, were
  // recorded with the free-distance heuristic rebuilt from scratch for
  // every m; reusing free distances across the sweep must not move them,
  // at one thread or several.
  const ColumnIndex index = synth::BuildBackgroundIndex(
      synth::CorpusProfile::kEnterprise, /*num_tables=*/300, /*seed=*/11);
  const std::vector<synth::BenchmarkInstance> lists = synth::MakeBenchmark(
      synth::CorpusProfile::kEnterprise, /*count=*/6, /*seed=*/12);
  size_t longest = 0;
  const Tokenizer tokenizer;
  for (const synth::BenchmarkInstance& list : lists) {
    for (const std::string& line : list.lines) {
      longest = std::max(longest, tokenizer.Tokenize(line).size());
    }
  }
  ASSERT_GT(longest, static_cast<size_t>(TegraOptions().max_cell_tokens));

  for (int threads : {1, 3}) {
    const CorpusStats stats(&index);
    TegraOptions options;
    options.num_threads = threads;
    const TegraExtractor tegra(&stats, options);
    std::string bounds;
    size_t nodes_expanded = 0;
    for (const synth::BenchmarkInstance& list : lists) {
      const auto result = tegra.Extract(list.lines);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      nodes_expanded += result->nodes_expanded;
      bounds += std::to_string(result->num_columns) + ':';
      for (const Bounds& line : result->bounds) {
        for (uint32_t b : line) bounds += std::to_string(b) + ',';
        bounds += ';';
      }
      bounds += '|';
    }
    EXPECT_EQ(Fnv1a64(bounds), 0xf96654d87acad48full) << "threads=" << threads;
    EXPECT_EQ(nodes_expanded, 2353u) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace tegra
