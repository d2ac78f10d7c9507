// Tests for the cell catalog and the distance function, including the metric
// properties (non-negativity, symmetry, triangle inequality) that the
// 2-approximation guarantee of Theorem 2 requires — verified as property
// tests over randomized cell triples.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "core/list_context.h"
#include "core/tegra.h"
#include "distance/cell.h"
#include "distance/distance.h"
#include "synth/corpus_gen.h"
#include "synth/list_gen.h"
#include "corpus/column_index.h"
#include "text/tokenizer.h"

namespace tegra {
namespace {

// ---- CellCatalog ---------------------------------------------------------

TEST(CellCatalogTest, NullCellIsIdZero) {
  CellCatalog catalog(nullptr);
  EXPECT_TRUE(catalog.NullCell().is_null());
  EXPECT_EQ(catalog.NullCell().token_count, 0u);
  EXPECT_EQ(catalog.NullCell().type, ValueType::kEmpty);
}

TEST(CellCatalogTest, RegisterInternsOnce) {
  CellCatalog catalog(nullptr);
  const CellInfo& a = catalog.Register("New York", 2);
  const CellInfo& b = catalog.Register("New York", 2);
  EXPECT_EQ(a.local_id, b.local_id);
  EXPECT_EQ(catalog.size(), 2u);  // Null + one value.
}

TEST(CellCatalogTest, FeaturesPrecomputed) {
  CellCatalog catalog(nullptr);
  const CellInfo& cell = catalog.Register("645,966", 1);
  EXPECT_EQ(cell.type, ValueType::kInteger);
  EXPECT_EQ(cell.token_count, 1u);
  EXPECT_EQ(cell.profile.digits, 6);
}

TEST(CellCatalogTest, CorpusIdResolvedWhenIndexGiven) {
  ColumnIndex index;
  index.AddColumn({"Toronto", "Boston"});
  index.Finalize();
  CellCatalog catalog(&index);
  EXPECT_NE(catalog.Register("Toronto", 1).corpus_id, kInvalidValueId);
  EXPECT_EQ(catalog.Register("Nowhere", 1).corpus_id, kInvalidValueId);
}

TEST(CellCatalogTest, StableReferencesAcrossGrowth) {
  CellCatalog catalog(nullptr);
  const CellInfo& first = catalog.Register("first", 1);
  for (int i = 0; i < 1000; ++i) {
    catalog.Register("cell" + std::to_string(i), 1);
  }
  EXPECT_EQ(first.text, "first");  // deque keeps addresses stable.
}

// ---- distance fixture --------------------------------------------------------

class DistanceTest : public ::testing::Test {
 protected:
  DistanceTest()
      : index_(synth::BuildBackgroundIndex(synth::CorpusProfile::kWeb,
                                           /*num_tables=*/800, /*seed=*/21)),
        stats_(&index_),
        distance_(&stats_),
        catalog_(&index_) {}

  const CellInfo& Cell(const std::string& text) {
    size_t tokens = 1 + std::count(text.begin(), text.end(), ' ');
    return catalog_.Register(text, text.empty() ? 0 : tokens);
  }

  ColumnIndex index_;
  CorpusStats stats_;
  CellDistance distance_;
  CellCatalog catalog_;
};

TEST_F(DistanceTest, NullHandlingPerAppendixI) {
  const CellInfo& null_cell = catalog_.NullCell();
  const CellInfo& toronto = Cell("Toronto");
  // d_sem(null, s) = 1.
  EXPECT_DOUBLE_EQ(distance_.SemanticDistance(null_cell, toronto), 1.0);
  // d_syn(null, s) = d_syn("", s): length part 1, type part 1.
  const double syn = distance_.SyntacticDistance(null_cell, toronto);
  EXPECT_GT(syn, 0.5);
  EXPECT_LE(syn, 1.0);
  // Combined d(null, s) around 0.9 (the paper's Figure 5 uses 0.9).
  EXPECT_NEAR(distance_.Distance(null_cell, toronto), 0.9, 0.1);
}

TEST_F(DistanceTest, NullNullIsMaximal) {
  const CellInfo& null_cell = catalog_.NullCell();
  EXPECT_DOUBLE_EQ(distance_.Distance(null_cell, null_cell), 1.0);
}

TEST_F(DistanceTest, IdenticalKnownValuesAreFloor) {
  const CellInfo& a = Cell("London");
  EXPECT_DOUBLE_EQ(distance_.SemanticDistance(a, a), 0.5);
  EXPECT_DOUBLE_EQ(distance_.SyntacticDistance(a, a), 0.0);
  EXPECT_DOUBLE_EQ(distance_.Distance(a, a), 0.25);  // alpha=0.5 mix.
}

TEST_F(DistanceTest, IdenticalUnknownValuesAreFloor) {
  const CellInfo& a = Cell("zzz-unseen-value");
  EXPECT_DOUBLE_EQ(distance_.SemanticDistance(a, a), 0.5);
}

TEST_F(DistanceTest, SameDomainValuesAreCloserThanCrossDomain) {
  const double same =
      distance_.SemanticDistance(Cell("London"), Cell("Paris"));
  const double cross =
      distance_.SemanticDistance(Cell("London"), Cell("Monday"));
  EXPECT_LT(same, cross);
  EXPECT_GE(same, 0.5);
}

TEST_F(DistanceTest, TypedUnknownPairsAreDomainCoherent) {
  // Unique numerals never co-occur in the corpus, but share a type.
  const double d =
      distance_.SemanticDistance(Cell("1,532,001"), Cell("874,223"));
  EXPECT_DOUBLE_EQ(d, 0.55);
  const double cross =
      distance_.SemanticDistance(Cell("1,532,001"), Cell("12:30"));
  EXPECT_GT(cross, 0.55);
}

TEST_F(DistanceTest, BothKnownWithoutCoOccurrenceGetsPrior) {
  // Two known values from unrelated domains that never share a column, and
  // with different types... both are kText: person-vs-city style. Compose a
  // pair guaranteed known: head vocabulary entries from distinct domains.
  const CellInfo& a = Cell("James");     // May or may not be known.
  const CellInfo& b = Cell("Honolulu");  // Tail city.
  const double d = distance_.SemanticDistance(a, b);
  EXPECT_GE(d, 0.5);
  EXPECT_LE(d, 1.0);
}

TEST_F(DistanceTest, UnknownTextPairsAreMaximal) {
  EXPECT_DOUBLE_EQ(
      distance_.SemanticDistance(Cell("qqq zzz"), Cell("jjj www")), 1.0);
}

TEST_F(DistanceTest, AlphaMixesComponents) {
  const CellInfo& a = Cell("London");
  const CellInfo& b = Cell("New York City");
  CellDistance syntactic_only(&stats_, {.alpha = 1.0});
  CellDistance semantic_only(&stats_, {.alpha = 0.0});
  EXPECT_DOUBLE_EQ(syntactic_only.Distance(a, b),
                   distance_.SyntacticDistance(a, b));
  EXPECT_DOUBLE_EQ(semantic_only.Distance(a, b),
                   distance_.SemanticDistance(a, b));
}

TEST_F(DistanceTest, NullCorpusStatsIsPureSyntaxPlusPenalty) {
  CellDistance no_corpus(nullptr);
  const CellInfo& a = Cell("London");
  const CellInfo& b = Cell("Paris");
  // Semantic part falls back to 1.0 for distinct values without stats.
  EXPECT_DOUBLE_EQ(no_corpus.SemanticDistance(a, b), 1.0);
}

TEST_F(DistanceTest, JaccardMeasureMode) {
  CellDistance jaccard(&stats_, {.alpha = 0.5,
                                 .measure = SemanticMeasure::kJaccard});
  const double d = jaccard.SemanticDistance(Cell("London"), Cell("Paris"));
  EXPECT_GE(d, 0.0);
  EXPECT_LE(d, 1.0);
}

// ---- metric properties (property test) ---------------------------------------

class DistancePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DistancePropertyTest, MetricPropertiesOnRandomTriples) {
  ColumnIndex index = synth::BuildBackgroundIndex(
      synth::CorpusProfile::kWeb, /*num_tables=*/400, /*seed=*/50);
  CorpusStats stats(&index);
  CellDistance distance(&stats);
  CellCatalog catalog(&index);

  // A pool of realistic cells: known values, unknown junk, numerals, nulls.
  synth::TableGenerator gen(synth::CorpusProfile::kWeb,
                            static_cast<uint64_t>(GetParam()) * 7919 + 13);
  std::vector<const CellInfo*> pool;
  pool.push_back(&catalog.NullCell());
  Rng rng(GetParam());
  for (int i = 0; i < 40; ++i) {
    Table t = gen.Generate();
    const std::string& cell =
        t.Cell(rng.Uniform(t.NumRows()), rng.Uniform(t.NumCols()));
    if (cell.empty()) continue;
    const size_t tokens = 1 + std::count(cell.begin(), cell.end(), ' ');
    pool.push_back(&catalog.Register(cell, tokens));
    // Also junk: a fragment of the cell.
    const size_t half = cell.size() / 2;
    if (half > 0) {
      pool.push_back(&catalog.Register(cell.substr(0, half), 1));
    }
  }

  for (size_t x = 0; x < pool.size(); ++x) {
    for (size_t y = 0; y < pool.size(); ++y) {
      const double dxy = distance.Distance(*pool[x], *pool[y]);
      // Non-negativity and boundedness.
      ASSERT_GE(dxy, 0.0);
      ASSERT_LE(dxy, 1.0 + 1e-12);
      // Symmetry.
      ASSERT_DOUBLE_EQ(dxy, distance.Distance(*pool[y], *pool[x]));
    }
  }
  // Triangle inequality over all triples.
  for (size_t x = 0; x < pool.size(); x += 2) {
    for (size_t y = 0; y < pool.size(); y += 2) {
      for (size_t z = 0; z < pool.size(); z += 2) {
        const double dxz = distance.Distance(*pool[x], *pool[z]);
        const double dxy = distance.Distance(*pool[x], *pool[y]);
        const double dyz = distance.Distance(*pool[y], *pool[z]);
        ASSERT_LE(dxz, dxy + dyz + 1e-9)
            << "triangle violated: '" << pool[x]->text << "' '"
            << pool[y]->text << "' '" << pool[z]->text << "'";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistancePropertyTest,
                         ::testing::Range(1, 6));

// ---- DistanceCache ---------------------------------------------------------

TEST_F(DistanceTest, CacheReturnsSameValues) {
  DistanceCache cache(&distance_);
  const CellInfo& a = Cell("London");
  const CellInfo& b = Cell("Paris");
  const double direct = distance_.Distance(a, b);
  EXPECT_DOUBLE_EQ(cache(a, b), direct);
  EXPECT_DOUBLE_EQ(cache(b, a), direct);  // Symmetric key.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_DOUBLE_EQ(cache(a, b), direct);
  EXPECT_EQ(cache.size(), 1u);
}

// Tokenized lines of `num_lines` x `tokens` distinct words.
std::vector<std::vector<std::string>> WordLines(int num_lines, int tokens) {
  std::vector<std::vector<std::string>> lines(num_lines);
  for (int i = 0; i < num_lines; ++i) {
    for (int t = 0; t < tokens; ++t) {
      lines[i].push_back("w" + std::to_string(i) + "x" + std::to_string(t));
    }
  }
  return lines;
}

TEST_F(DistanceTest, CacheMatchesDistanceOverEveryCatalogPair) {
  ListContext ctx({{"Boston", "Massachusetts", "645,966"},
                   {"Worcester", "Massachusetts", "182,544"},
                   {"Providence", "Rhode", "Island", "178,042"}},
                  &index_);
  for (size_t line = 0; line < ctx.num_lines(); ++line) {
    ctx.EnsureWidth(line, ctx.line_length(line));
  }
  const CellCatalog& catalog = ctx.catalog();
  const size_t n = catalog.size();
  DistanceCache cache(&distance_);
  for (uint32_t x = 0; x < n; ++x) {
    for (uint32_t y = x; y < n; ++y) {
      const CellInfo& a = catalog.Get(x);
      const CellInfo& b = catalog.Get(y);
      const double direct = distance_.Distance(a, b);
      ASSERT_EQ(cache(a, b), direct) << a.text << " / " << b.text;
      ASSERT_EQ(cache(b, a), direct) << b.text << " / " << a.text;
    }
  }
  EXPECT_EQ(cache.size(), n * (n + 1) / 2);
  EXPECT_EQ(cache.evaluations(), cache.size());
}

TEST_F(DistanceTest, CacheServesCellsRegisteredAfterFirstLookup) {
  ListContext ctx({{"London", "Paris"}, {"Rome", "Berlin"}}, &index_);
  ctx.EnsureWidth(0, 1);
  ctx.EnsureWidth(1, 1);
  DistanceCache cache(&distance_);
  const CellInfo& london = ctx.Cell(0, 0, 1);
  const CellInfo& rome = ctx.Cell(1, 0, 1);
  EXPECT_EQ(cache(london, rome), distance_.Distance(london, rome));

  // The new cell's id is past every row allocated so far.
  const CellInfo& madrid = ctx.RegisterExternalCell("Madrid", 1);
  EXPECT_GT(madrid.local_id, rome.local_id);
  EXPECT_EQ(cache(madrid, london), distance_.Distance(madrid, london));
  EXPECT_EQ(cache(rome, madrid), distance_.Distance(rome, madrid));
  EXPECT_EQ(cache(madrid, madrid), distance_.Distance(madrid, madrid));
  EXPECT_EQ(cache(london, rome), distance_.Distance(london, rome));
  EXPECT_EQ(cache.size(), 4u);
}

TEST_F(DistanceTest, CacheStaysExactPastItsCap) {
  // Every substring of 5 lines x 40 tokens registered: the full triangle
  // over this catalog is about 4x the cap.
  ListContext ctx(WordLines(5, 40), &index_);
  for (size_t line = 0; line < ctx.num_lines(); ++line) {
    ctx.EnsureWidth(line, ctx.line_length(line));
  }
  const CellCatalog& catalog = ctx.catalog();
  const size_t n = catalog.size();
  ASSERT_GT(n * (n + 1) / 2, DistanceCache::kMaxEntries);

  DistanceCache cache(&distance_);
  std::set<std::pair<uint32_t, uint32_t>> distinct;
  for (int pass = 0; pass < 2; ++pass) {
    for (uint32_t x = 0; x < n; ++x) {
      for (const uint32_t y : {0u, x / 3, x}) {
        distinct.insert({x, y});
        const CellInfo& a = catalog.Get(x);
        const CellInfo& b = catalog.Get(y);
        const double direct = distance_.Distance(a, b);
        ASSERT_EQ(cache(a, b), direct) << x << ", " << y;
        ASSERT_EQ(cache(b, a), direct) << y << ", " << x;
        ASSERT_LE(cache.size(), DistanceCache::kMaxEntries);
      }
    }
  }
  // Rows past the cap were computed on every lookup but not memoized.
  EXPECT_LT(cache.size(), distinct.size());
  EXPECT_GT(cache.evaluations(), distinct.size());
}

TEST_F(DistanceTest, ExtractionPastTheCapIsUnchanged) {
  // A 100-record list whose candidate cells pair up past the cap, so some
  // pairs are recomputed rather than memoized. The digest was recorded with
  // a memo that kept every pair.
  synth::TableGenerator generator(synth::CorpusProfile::kWeb, /*seed=*/5);
  std::vector<synth::DomainKind> schema;
  while (schema.size() != 6) {
    schema = generator.SampleSchema();
    if (schema.size() > 6) schema.resize(6);
  }
  const synth::BenchmarkInstance list = synth::MakeBenchmarkInstance(
      generator.GenerateWithShape(schema, /*num_rows=*/100));

  Tokenizer tokenizer;
  std::vector<std::vector<std::string>> tokens;
  for (const std::string& line : list.lines) {
    tokens.push_back(tokenizer.Tokenize(line));
  }
  ListContext ctx(std::move(tokens), &index_);
  const uint32_t max_width = TegraOptions().max_cell_tokens;
  for (size_t line = 0; line < ctx.num_lines(); ++line) {
    ctx.EnsureWidth(line, std::min(max_width, ctx.line_length(line)));
  }
  const size_t n = ctx.catalog().size();
  ASSERT_GT(n * (n + 1) / 2, DistanceCache::kMaxEntries);

  CorpusStats stats(&index_);
  TegraExtractor extractor(&stats);
  Result<ExtractionResult> result = extractor.ExtractWithColumns(list.lines, 6);
  ASSERT_TRUE(result.ok());
  std::string cells;
  for (size_t row = 0; row < result->table.NumRows(); ++row) {
    for (const std::string& cell : result->table.Row(row)) {
      cells += cell;
      cells += '\x1f';
    }
    cells += '\x1e';
  }
  EXPECT_EQ(Fnv1a64(cells), 0x7238af67bc3f2a2aull);
}

}  // namespace
}  // namespace tegra
