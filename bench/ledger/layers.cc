#include "layers.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "core/list_context.h"
#include "core/tegra.h"
#include "corpus/corpus_stats.h"
#include "distance/distance.h"
#include "text/tokenizer.h"

namespace ledger {

namespace {

double NsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// Keeps probe results observable so the timed loops cannot be elided.
volatile double g_sink = 0;

}  // namespace

tegra::ValueId CountingView::Lookup(std::string_view value) const {
  const Clock::time_point t0 = Clock::now();
  const tegra::ValueId id = base_->Lookup(value);
  counts_.lookup_ns += NsSince(t0);
  ++counts_.lookups;
  if (id != tegra::kInvalidValueId) ++counts_.lookup_hits;
  return id;
}

uint32_t CountingView::ColumnCount(tegra::ValueId id) const {
  ++counts_.column_count_calls;
  return base_->ColumnCount(id);
}

uint32_t CountingView::CoOccurrenceCount(tegra::ValueId a,
                                         tegra::ValueId b) const {
  const Clock::time_point t0 = Clock::now();
  const uint32_t count = base_->CoOccurrenceCount(a, b);
  counts_.co_ns += NsSince(t0);
  ++counts_.co_calls;
  counts_.co_postings_scanned += std::min(base_->ColumnCount(a),
                                          base_->ColumnCount(b));
  return count;
}

DistanceProbe ProbeDistance(const tegra::CorpusView* view,
                            const std::vector<ProbeList>& lists,
                            double min_seconds) {
  using CellPair = std::pair<const tegra::CellInfo*, const tegra::CellInfo*>;
  // One per list: the context owns the interned cells its pairs point at.
  struct Probed {
    std::unique_ptr<tegra::ListContext> ctx;
    std::vector<CellPair> pairs;
  };
  const tegra::Tokenizer tokenizer;
  const uint32_t base_cap =
      static_cast<uint32_t>(tegra::TegraOptions{}.max_cell_tokens);
  std::vector<Probed> probed;
  uint64_t pairs = 0;
  for (const ProbeList& list : lists) {
    Probed p;
    p.ctx = std::make_unique<tegra::ListContext>(
        std::vector<std::vector<std::string>>{tokenizer.Tokenize(list.line0),
                                              tokenizer.Tokenize(list.line1)},
        view);
    std::vector<const tegra::CellInfo*> cells[2];
    for (size_t line = 0; line < 2; ++line) {
      const uint32_t width = p.ctx->EffectiveWidth(line, list.columns, base_cap);
      p.ctx->EnsureWidth(line, width);
      const uint32_t n = p.ctx->line_length(line);
      for (uint32_t start = 0; start < n; ++start) {
        for (uint32_t len = 1; len <= width && start + len <= n; ++len) {
          cells[line].push_back(&p.ctx->Cell(line, start, len));
        }
      }
    }
    for (const tegra::CellInfo* a : cells[0]) {
      for (const tegra::CellInfo* b : cells[1]) p.pairs.emplace_back(a, b);
    }
    pairs += p.pairs.size();
    probed.push_back(std::move(p));
  }
  DistanceProbe probe;
  if (pairs == 0) return probe;

  auto time_loop = [&](auto&& body) {
    uint64_t evaluated = 0;
    const Clock::time_point t0 = Clock::now();
    do {
      body();
      evaluated += pairs;
    } while (SecondsSince(t0) < min_seconds);
    return NsSince(t0) / static_cast<double>(evaluated);
  };

  // One CorpusStats memo serves every list, as in a pass; it is filled
  // before timing so the probe measures the warm distance path.
  tegra::CorpusStats stats(view);
  const tegra::CellDistance distance(&stats);
  double sum = 0;
  for (const Probed& p : probed) {
    for (const auto& [a, b] : p.pairs) sum += distance.Distance(*a, *b);
  }
  probe.ns_per_pair = time_loop([&] {
    for (const Probed& p : probed) {
      for (const auto& [a, b] : p.pairs) sum += distance.Distance(*a, *b);
    }
  });

  // Cell ids are local to a list's catalog, so each list gets its own cache.
  std::vector<tegra::DistanceCache> caches;
  caches.reserve(probed.size());
  for (const Probed& p : probed) {
    caches.emplace_back(&distance);
    for (const auto& [a, b] : p.pairs) sum += caches.back()(*a, *b);
  }
  probe.memo_ns_per_lookup = time_loop([&] {
    for (size_t i = 0; i < probed.size(); ++i) {
      for (const auto& [a, b] : probed[i].pairs) sum += caches[i](*a, *b);
    }
  });
  g_sink = sum;
  return probe;
}

Flat Flatten(const tegra::MetricsSnapshot& snapshot) {
  Flat flat;
  for (const auto& [name, value] : snapshot.counters) {
    flat[name] = static_cast<double>(value);
  }
  for (const auto& [name, h] : snapshot.histograms) {
    flat[name + ".sum"] = h.sum;
    flat[name + ".count"] = static_cast<double>(h.count);
    flat[name + ".p50"] = h.p50;
    flat[name + ".p99"] = h.p99;
  }
  return flat;
}

Flat Flatten(const tegra::serve::JsonValue& varz) {
  Flat flat;
  for (const auto& [name, value] : varz["counters"].AsObject()) {
    flat[name] = value.AsNumber();
  }
  for (const auto& [name, h] : varz["histograms"].AsObject()) {
    flat[name + ".sum"] = h["sum"].AsNumber();
    flat[name + ".count"] = h["count"].AsNumber();
    flat[name + ".p50"] = h["p50"].AsNumber();
    flat[name + ".p99"] = h["p99"].AsNumber();
  }
  return flat;
}

double At(const Flat& flat, const std::string& key) {
  const auto it = flat.find(key);
  return it == flat.end() ? 0.0 : it->second;
}

double Delta(const Flat& before, const Flat& after, const std::string& key) {
  return At(after, key) - At(before, key);
}

std::vector<Metric> CoreMetrics(const Flat& before, const Flat& after) {
  const double n = Delta(before, after, "extract.requests_total");
  auto per = [&](const std::string& key, double scale = 1) {
    return n > 0 ? Delta(before, after, key) * scale / n : 0.0;
  };
  auto phase_ms = [&](const char* phase) {
    return per(std::string("extract.phase.") + phase + ".sum", 1e3);
  };
  const double total = Delta(before, after, "extract.phase.total.sum");
  const double co_lookups = Delta(before, after, "corpus.co_lookups_total");
  const double co_hits = Delta(before, after, "corpus.co_lookup_hits_total");
  return {
      {"core.tokenize_ms", phase_ms("tokenize"), "ms"},
      {"core.list_context_ms", phase_ms("list_context"), "ms"},
      {"core.candidate_cells_ms", phase_ms("segmentation"), "ms"},
      {"core.anchor_search_ms", phase_ms("anchor_search"), "ms"},
      {"core.induce_sp_ms", phase_ms("slgr_dp"), "ms"},
      {"core.materialize_ms", phase_ms("materialize"), "ms"},
      {"core.anchor_search_share",
       total > 0 ? Delta(before, after, "extract.phase.anchor_search.sum") /
                       total
                 : 0.0,
       "ratio"},
      {"core.nodes_expanded", per("extract.nodes_expanded_total"), "count"},
      {"core.anchors_evaluated", per("extract.anchors_total"), "count"},
      {"distance.pairs", per("extract.distance_calls_total"), "count"},
      {"corpus.co_calls", n > 0 ? (co_lookups - co_hits) / n : 0.0, "count"},
      {"corpus.memo_hit_ratio", co_lookups > 0 ? co_hits / co_lookups : 0.0,
       "ratio"},
  };
}

}  // namespace ledger
