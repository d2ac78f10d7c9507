// Per-layer measurement for the traced runs: a counting CorpusView placed
// under CorpusStats, a timing probe of the distance layer, and the core /
// distance / corpus metrics derived from the counters and extract.phase.*
// histograms the program already exports (in-process or over /varz).

#ifndef TEGRA_BENCH_LEDGER_LAYERS_H_
#define TEGRA_BENCH_LEDGER_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "corpus/corpus_view.h"
#include "ledger.h"
#include "service/metrics.h"
#include "service/serve_json.h"

namespace ledger {

/// Forwards every call to `base`, counting calls and timing Lookup and
/// CoOccurrenceCount. Single-threaded: the traced passes run on one thread.
class CountingView : public tegra::CorpusView {
 public:
  struct Counts {
    uint64_t lookups = 0;
    uint64_t lookup_hits = 0;
    uint64_t column_count_calls = 0;
    uint64_t co_calls = 0;
    uint64_t co_postings_scanned = 0;  ///< Sum of min(|C(a)|, |C(b)|).
    double lookup_ns = 0;
    double co_ns = 0;

    Counts& operator+=(const Counts& o) {
      lookups += o.lookups;
      lookup_hits += o.lookup_hits;
      column_count_calls += o.column_count_calls;
      co_calls += o.co_calls;
      co_postings_scanned += o.co_postings_scanned;
      lookup_ns += o.lookup_ns;
      co_ns += o.co_ns;
      return *this;
    }
  };

  explicit CountingView(const tegra::CorpusView* base) : base_(base) {}

  uint64_t TotalColumns() const override { return base_->TotalColumns(); }
  size_t NumValues() const override { return base_->NumValues(); }
  tegra::ValueId Lookup(std::string_view value) const override;
  uint32_t ColumnCount(tegra::ValueId id) const override;
  uint32_t CoOccurrenceCount(tegra::ValueId a, tegra::ValueId b) const override;
  std::string ValueString(tegra::ValueId id) const override {
    return base_->ValueString(id);
  }
  const char* FormatName() const override { return base_->FormatName(); }
  size_t HeapBytes() const override { return base_->HeapBytes(); }
  size_t MappedBytes() const override { return base_->MappedBytes(); }

  const Counts& counts() const { return counts_; }

 private:
  const tegra::CorpusView* base_;
  mutable Counts counts_;
};

/// Cost of the distance layer on one workload's lists.
struct DistanceProbe {
  double ns_per_pair = 0;         ///< CellDistance::Distance, memo warm.
  double memo_ns_per_lookup = 0;  ///< A pre-filled DistanceCache.
};

/// The first two lines of a list and its true column count.
struct ProbeList {
  std::string line0;
  std::string line1;
  int columns = 1;
};

/// Times CellDistance::Distance over every candidate-cell pair of lines 0
/// and 1 of each list (cells up to the extractor's default width cap at the
/// list's true column count), repeating for at least `min_seconds`.
DistanceProbe ProbeDistance(const tegra::CorpusView* view,
                            const std::vector<ProbeList>& lists,
                            double min_seconds);

/// Counters and histogram sums/counts/percentiles by name: counters as
/// "name", histograms as "name.sum", "name.count", "name.p50", "name.p99".
using Flat = std::map<std::string, double>;

Flat Flatten(const tegra::MetricsSnapshot& snapshot);
/// The same view of a /varz document.
Flat Flatten(const tegra::serve::JsonValue& varz);

/// The value under `key`, 0 when absent.
double At(const Flat& flat, const std::string& key);
double Delta(const Flat& before, const Flat& after, const std::string& key);

/// core.*, distance.pairs and the co-occurrence memo metrics per extraction,
/// from the change in the extract.* and corpus.co_* instruments between two
/// snapshots. Every value is 0 when no extraction ran in between.
std::vector<Metric> CoreMetrics(const Flat& before, const Flat& after);

}  // namespace ledger

#endif  // TEGRA_BENCH_LEDGER_LAYERS_H_
