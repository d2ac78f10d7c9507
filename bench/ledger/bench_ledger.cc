// bench_ledger — the repository benchmark. run.sh builds and invokes it; see
// README.md for the workloads, metrics and how to compare two commits.
//
//   bench_ledger --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                --bin-dir DIR --work-dir DIR --out-dir DIR --reference FILE
//                [--corpus-spec SPEC]
//   bench_ledger --write-reference FILE --bin-dir DIR --work-dir DIR
//
// One invocation runs one workload. It prints every metric by name and
// unit, checks every output against the committed reference digests, writes
// a results JSON under --out-dir and ends its standard output with one JSON
// line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones. Exit status: 0 ok, 1 wrong output, 2 usage or set-up
// failure (no result line), 3 a measurement-validity check failed.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/tegra.h"
#include "corpus/corpus_stats.h"
#include "daemon.h"
#include "eval/benchmark_data.h"
#include "eval/mapping_metric.h"
#include "layers.h"
#include "ledger.h"
#include "loadgen.h"
#include "net/http_client.h"
#include "service/serve_json.h"
#include "store/corpus_loader.h"
#include "store/mmap_corpus.h"
#include "trace/trace.h"

namespace ledger {
namespace {

namespace fs = std::filesystem;
using tegra::eval::DatasetId;
using tegra::serve::JsonValue;

constexpr char kCorpusSpec[] = "web:20000:101";
constexpr int kSetups = 3;          // set-ups per run; setup_s is the median
constexpr size_t kMinPasses = 3;
constexpr double kMaxLagMs = 10.0;  // open-loop validity limit (p99 lateness)
constexpr int kOpenLoopThreads = 4;
constexpr double kOpenLoopShare = 0.6;  // of --seconds; phase B gets the rest
constexpr double kProbeSeconds = 0.2;

enum class Mode { kFixedM, kUnsupervised, kServeBypass, kServeCached };

struct Workload {
  const char* name;
  Mode mode;
  DatasetId dataset;
  // The lists are fixed: the seed only orders them. Per-table cost is
  // heavy-tailed, so a seed-dependent list set would move every timing by
  // more than any bound (README.md, "Why the lists are fixed").
  uint64_t dataset_seed = 0;
  size_t pool = 0;            // lists generated
  size_t max_list_chars = 0;  // keep lists at most this long (0: all)
  // Serve workloads only.
  double open_rate = 0;        // phase A requests per second
  int closed_connections = 0;  // phase B clients (and warm-up clients)
  size_t closed_cycles = 0;    // phase B pass: sends of every list
  double p90_limit_ms = 0;     // phase A latency limit (reported, not gated)
};

const Workload kWorkloads[] = {
    {.name = "web_fixed_m",
     .mode = Mode::kFixedM,
     .dataset = DatasetId::kWeb,
     .dataset_seed = 0,
     .pool = 20},
    {.name = "enterprise_unsup",
     .mode = Mode::kUnsupervised,
     .dataset = DatasetId::kEnterprise,
     .dataset_seed = 1,
     .pool = 30},
    {.name = "serve_wiki",
     .mode = Mode::kServeBypass,
     .dataset = DatasetId::kWiki,
     .dataset_seed = 0,
     .pool = 120,
     .max_list_chars = 500,
     .open_rate = 20,
     .closed_connections = 2,
     .closed_cycles = 4,
     .p90_limit_ms = 250},
    {.name = "serve_cached",
     .mode = Mode::kServeCached,
     .dataset = DatasetId::kWiki,
     .dataset_seed = 0,
     .pool = 120,
     .max_list_chars = 500,
     .open_rate = 2000,
     .closed_connections = 4,
     .closed_cycles = 16,
     .p90_limit_ms = 5},
};

std::vector<tegra::eval::EvalInstance> MakeLists(const Workload& w) {
  auto pool = tegra::eval::BuildDataset(w.dataset, w.pool, w.dataset_seed);
  std::vector<tegra::eval::EvalInstance> lists;
  for (auto& inst : pool) {
    size_t chars = 0;
    for (const std::string& line : inst.lines) chars += line.size();
    if (w.max_list_chars == 0 || chars <= w.max_list_chars) {
      lists.push_back(std::move(inst));
    }
  }
  return lists;
}

bool IsServe(const Workload& w) {
  return w.mode == Mode::kServeBypass || w.mode == Mode::kServeCached;
}

struct MetricDef {
  const char* name;
  const char* unit;
};

// The reported metrics, in BENCHMARK.json order. Every run reports all of
// its set; a layer a workload does not pass through reports 0.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_per_s", "1/s"},
    {"latency_ms_p50", "ms"},
    {"latency_ms_p90", "ms"},
    {"peak_rss_mb", "MB"},
    {"f1_mean", "ratio"},
};

const MetricDef kPerLayer[] = {
    {"core.tokenize_ms", "ms"},
    {"core.list_context_ms", "ms"},
    {"core.candidate_cells_ms", "ms"},
    {"core.anchor_search_ms", "ms"},
    {"core.induce_sp_ms", "ms"},
    {"core.materialize_ms", "ms"},
    {"core.anchor_search_share", "ratio"},
    {"core.nodes_expanded", "count"},
    {"core.anchors_evaluated", "count"},
    {"distance.pairs", "count"},
    {"distance.ns_per_pair", "ns"},
    {"distance.memo_ns_per_lookup", "ns"},
    {"corpus.lookups", "count"},
    {"corpus.lookup_hit_ratio", "ratio"},
    {"corpus.column_count_calls", "count"},
    {"corpus.co_calls", "count"},
    {"corpus.co_postings_scanned", "count"},
    {"corpus.memo_hit_ratio", "ratio"},
    {"corpus.lookup_ms", "ms"},
    {"corpus.co_ms", "ms"},
    {"corpus.co_us_per_call", "us"},
    {"store.build_s", "s"},
    {"store.snapshot_mb", "MB"},
    {"store.open_ms", "ms"},
    {"service.queue_ms_mean", "ms"},
    {"service.queue_ms_p95", "ms"},
    {"service.extract_ms_p50", "ms"},
    {"service.extract_ms_p95", "ms"},
    {"service.result_cache_hit_ratio", "ratio"},
    {"service.rejected", "count"},
    {"net.request_ms_p50", "ms"},
    {"net.request_ms_p99", "ms"},
    {"net.connections_total", "count"},
    {"net.bad_requests", "count"},
    {"net.overhead_ms_p50", "ms"},
    {"daemon.cpu_ms_per_request", "ms"},
    {"loadgen.lag_ms_p99", "ms"},
    {"loadgen.sent", "count"},
    {"loadgen.prewarm_s", "s"},
    {"bench.trace_overhead_ratio", "ratio"},
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string bin_dir;
  std::string work_dir;
  std::string out_dir;
  std::string reference;
  std::string corpus_spec = kCorpusSpec;
  std::string write_reference;
};

/// State of one invocation.
struct Run {
  Options opt;
  const Workload* w = nullptr;
  std::string dir;  // scratch directory, removed at exit
  std::vector<tegra::eval::EvalInstance> lists;
  std::vector<size_t> order;  // seeded order the lists are sent in
  JsonValue reference;        // this workload's entry of the reference file
  std::string reference_corpus_digest;

  std::map<std::string, double> values;
  std::vector<std::string> errors;   // wrong output: correct = false
  std::vector<std::string> invalid;  // a measurement-validity check failed
  std::vector<std::string> notes;    // reported, not gated
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string corpus_digest;
  std::string output_digest;
  std::string samples_json = "{}";  // raw timings, for the results file

  void Set(const std::string& name, double value) { values[name] = value; }
};

int Usage(const char* msg) {
  std::fprintf(stderr, "bench_ledger: %s\n", msg);
  std::fprintf(stderr,
               "usage: bench_ledger --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] --bin-dir DIR --work-dir DIR --out-dir DIR "
               "--reference FILE [--corpus-spec SPEC]\n"
               "       bench_ledger --write-reference FILE --bin-dir DIR "
               "--work-dir DIR\nworkloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

std::string FormatNumber(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

double Ms(Clock::time_point t0) { return SecondsSince(t0) * 1e3; }

std::string JsonNumbers(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += FormatNumber(values[i]);
  }
  return out + "]";
}

// ---------------------------------------------------------------------------
// Inputs and digests.

std::vector<size_t> SeededOrder(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::mt19937_64 rng(seed);
  for (size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng() % i]);
  return order;
}

/// Digest of an offline extraction: the column count and every line's
/// boundary vector.
uint64_t BoundsDigest(const tegra::ExtractionResult& r) {
  Digest d;
  d.Add(static_cast<uint64_t>(r.num_columns));
  for (const auto& bounds : r.bounds) {
    for (uint32_t b : bounds) d.Add(static_cast<uint64_t>(b));
    d.Add(kRowEnd);
  }
  return d.value();
}

tegra::Result<tegra::ExtractionResult> ExtractOne(
    const tegra::TegraExtractor& tegra, const Workload& w,
    const tegra::eval::EvalInstance& inst) {
  return w.mode == Mode::kFixedM
             ? tegra.ExtractWithColumns(inst.lines,
                                        static_cast<int>(inst.truth.NumCols()))
             : tegra.Extract(inst.lines);
}

uint64_t ListDigest(const Workload& w, const tegra::ExtractionResult& r) {
  return IsServe(w) ? RowsDigest(r.table.rows()) : BoundsDigest(r);
}

// ---------------------------------------------------------------------------
// Set-up: build the corpus snapshot with the shipped tool, then open it
// (offline) or start the daemon on it (serve).

struct Setup {
  std::string snapshot;
  std::vector<double> build_s;
  std::vector<double> ready_s;  // open (offline) or spawn to data_ready

  double SetupSeconds() const {
    std::vector<double> total;
    for (size_t i = 0; i < build_s.size(); ++i) {
      total.push_back(build_s[i] + ready_s[i]);
    }
    return Median(total);
  }
};

bool BuildSnapshot(const Run& run, Setup* setup) {
  const Clock::time_point t0 = Clock::now();
  const int rc = RunToCompletion(
      {run.opt.bin_dir + "/tegra_corpusctl", "build", run.opt.corpus_spec,
       setup->snapshot, "--format", "v2"},
      run.dir + "/corpusctl.log");
  if (rc != 0) {
    std::fprintf(stderr, "tegra_corpusctl build failed (%d); see %s\n", rc,
                 (run.dir + "/corpusctl.log").c_str());
    return false;
  }
  setup->build_s.push_back(SecondsSince(t0));
  return true;
}

std::unique_ptr<tegra::store::MmapCorpus> OpenSnapshot(
    const std::string& path, double* seconds) {
  const Clock::time_point t0 = Clock::now();
  auto opened = tegra::store::MmapCorpus::Open(path);
  if (seconds != nullptr) *seconds = SecondsSince(t0);
  if (!opened.ok()) {
    std::fprintf(stderr, "open %s: %s\n", path.c_str(),
                 opened.status().ToString().c_str());
    return nullptr;
  }
  return std::move(opened).value();
}

std::unique_ptr<tegra::store::MmapCorpus> SetupOffline(const Run& run,
                                                       Setup* setup) {
  setup->snapshot = run.dir + "/corpus.tgra";
  std::unique_ptr<tegra::store::MmapCorpus> corpus;
  for (int i = 0; i < kSetups; ++i) {
    corpus.reset();
    if (!BuildSnapshot(run, setup)) return nullptr;
    double open_s = 0;
    corpus = OpenSnapshot(setup->snapshot, &open_s);
    if (corpus == nullptr) return nullptr;
    setup->ready_s.push_back(open_s);
  }
  return corpus;
}

bool SetupServe(const Run& run, Daemon* daemon, Setup* setup) {
  setup->snapshot = run.dir + "/corpus.tgra";
  std::vector<std::string> argv = {run.opt.bin_dir + "/tegra_serve",
                                   "--corpus", setup->snapshot,
                                   "--port", "0",
                                   "--workers", "2",
                                   "--trace", run.opt.trace ? "on" : "off"};
  if (run.opt.trace) {
    argv.push_back("--admin-port");
    argv.push_back("0");
  }
  for (int i = 0; i < kSetups; ++i) {
    if (daemon->running() && !daemon->Stop()) {
      std::fprintf(stderr, "tegra_serve did not exit cleanly on stdin EOF\n");
      return false;
    }
    if (!BuildSnapshot(run, setup)) return false;
    const Clock::time_point t0 = Clock::now();
    const tegra::Status started =
        daemon->Start(argv, run.dir + "/tegra_serve.log", run.opt.trace);
    if (!started.ok()) {
      std::fprintf(stderr, "%s\n", started.ToString().c_str());
      return false;
    }
    setup->ready_s.push_back(SecondsSince(t0));
  }
  return true;
}

void CheckCorpus(Run& run, const tegra::CorpusView& view) {
  run.corpus_digest = Hex(tegra::store::ComputeCorpusDigest(view).digest);
  if (run.corpus_digest != run.reference_corpus_digest) {
    run.errors.push_back("corpus digest " + run.corpus_digest +
                         " != reference " + run.reference_corpus_digest);
  }
}

void CheckOutputDigest(Run& run, uint64_t digest) {
  run.output_digest = Hex(digest);
  const std::string& want = run.reference["output_digest"].AsString();
  if (run.output_digest != want) {
    run.errors.push_back("output digest " + run.output_digest +
                         " != reference " + want);
  }
}

void SetStoreMetrics(Run& run, const Setup& setup,
                     const std::vector<double>& open_s) {
  std::error_code ec;
  run.Set("store.build_s", Median(setup.build_s));
  run.Set("store.snapshot_mb",
          static_cast<double>(fs::file_size(setup.snapshot, ec)) / (1 << 20));
  run.Set("store.open_ms", Median(open_s) * 1e3);
}

void SetDistanceMetrics(Run& run, const tegra::CorpusView* view) {
  std::vector<ProbeList> probe_lists;
  for (const auto& inst : run.lists) {
    probe_lists.push_back({inst.lines[0],
                           inst.lines.size() > 1 ? inst.lines[1]
                                                 : inst.lines[0],
                           static_cast<int>(inst.truth.NumCols())});
  }
  const DistanceProbe probe = ProbeDistance(view, probe_lists, kProbeSeconds);
  run.Set("distance.ns_per_pair", probe.ns_per_pair);
  run.Set("distance.memo_ns_per_lookup", probe.memo_ns_per_lookup);
}

// ---------------------------------------------------------------------------
// Offline workloads: extraction through the core API, one thread.

struct Pass {
  double wall_s = 0;
  std::vector<double> table_ms;   // by list index
  std::vector<uint64_t> digests;  // by list index
  std::vector<tegra::Table> tables;  // by list index, when kept
  uint64_t nodes = 0;
  uint64_t co_misses = 0;  // co-occurrence memo misses, all tables
  uint64_t failed = 0;
};

/// One pass over every list in the seeded order. Each table gets a fresh
/// extractor and co-occurrence memo, as a one-shot request would: a table's
/// work then does not depend on which tables ran before it, so the seed
/// cannot move per-table times.
Pass RunPass(const Run& run, const tegra::CorpusView* view,
             tegra::MetricsRegistry* metrics, bool keep_tables) {
  tegra::CorpusStatsOptions stats_options;
  stats_options.metrics = metrics;
  Pass pass;
  pass.table_ms.assign(run.lists.size(), 0);
  pass.digests.assign(run.lists.size(), 0);
  if (keep_tables) pass.tables.resize(run.lists.size());
  const Clock::time_point start = Clock::now();
  for (size_t idx : run.order) {
    const Clock::time_point t0 = Clock::now();
    const tegra::CorpusStats stats(view, stats_options);
    const tegra::TegraExtractor tegra(&stats);
    auto result = ExtractOne(tegra, *run.w, run.lists[idx]);
    pass.table_ms[idx] = Ms(t0);
    pass.co_misses += stats.CoCacheStats().misses;
    if (!result.ok()) {
      ++pass.failed;
      continue;
    }
    pass.digests[idx] = BoundsDigest(*result);
    pass.nodes += result->nodes_expanded;
    if (keep_tables) pass.tables[idx] = std::move(result->table);
  }
  pass.wall_s = SecondsSince(start);
  return pass;
}

/// Counts the pass into the run and checks its output against the reference
/// and its work against the first pass.
void CheckPass(Run& run, const Pass& pass, const Pass& first) {
  run.attempted += pass.table_ms.size();
  run.failed += pass.failed;
  const uint64_t digest = CombineDigests(pass.digests);
  if (&pass == &first) {
    CheckOutputDigest(run, digest);
  } else if (Hex(digest) != run.output_digest) {
    run.errors.push_back("pass output digest " + Hex(digest) +
                         " differs from the first pass");
  }
  if (pass.nodes != first.nodes) {
    run.invalid.push_back("nodes expanded differ between passes (" +
                          std::to_string(pass.nodes) + " vs " +
                          std::to_string(first.nodes) + ")");
  }
}

double MeanF1(const Run& run, const std::vector<tegra::Table>& tables) {
  std::vector<double> f1;
  for (size_t i = 0; i < run.lists.size(); ++i) {
    f1.push_back(tegra::eval::ScoreTable(run.lists[i].truth, tables[i]).f1);
  }
  return Mean(f1);
}

/// False when set-up failed and nothing was measured.
bool RunOffline(Run& run) {
  Setup setup;
  auto corpus = SetupOffline(run, &setup);
  if (corpus == nullptr) return false;
  CheckCorpus(run, *corpus);

  // Warm-up: one untimed pass, so first-touch costs (page faults on the
  // snapshot postings the lists need, allocator growth) stay out of every
  // timed pass.
  run.Set("loadgen.prewarm_s",
          RunPass(run, corpus.get(), nullptr, false).wall_s);

  tegra::trace::Tracer& tracer = tegra::trace::Tracer::Global();
  tegra::MetricsRegistry registry;
  tracer.BindMetrics(&registry);
  std::vector<Pass> plain;   // untraced: bare snapshot, tracer off
  std::vector<Pass> traced;  // tracer on, counting view under CorpusStats
  std::vector<CountingView::Counts> counts;
  std::vector<Flat> snapshots = {Flatten(registry.Snapshot())};
  double last_s = 0;
  const Clock::time_point start = Clock::now();
  // The traced run alternates untraced and traced passes, so both see the
  // same host conditions and the trace overhead is their ratio.
  while (AnotherPass(start, plain.size() + traced.size(), last_s,
                     run.opt.seconds, run.opt.trace ? 2 * kMinPasses
                                                    : kMinPasses)) {
    const bool trace_this = run.opt.trace && plain.size() > traced.size();
    if (!trace_this) {
      plain.push_back(RunPass(run, corpus.get(), nullptr, plain.empty()));
      last_s = plain.back().wall_s;
      continue;
    }
    const CountingView view(corpus.get());
    tracer.SetEnabled(true);
    traced.push_back(RunPass(run, &view, &registry, false));
    tracer.SetEnabled(false);
    last_s = traced.back().wall_s;
    counts.push_back(view.counts());
    snapshots.push_back(Flatten(registry.Snapshot()));
    if (view.counts().co_calls != traced.back().co_misses) {
      run.invalid.push_back("counting-view co_calls " +
                            std::to_string(view.counts().co_calls) +
                            " != co-occurrence memo misses " +
                            std::to_string(traced.back().co_misses));
    }
  }
  tracer.BindMetrics(nullptr);

  for (const Pass& pass : plain) CheckPass(run, pass, plain.front());
  for (const Pass& pass : traced) CheckPass(run, pass, plain.front());

  const double n = static_cast<double>(run.lists.size());
  if (!run.opt.trace) {
    // Each table's time is its best over the passes: interference from
    // other tenants of the host only ever adds time, and the best of
    // repeated passes varies far less from run to run than pooled samples
    // (README.md, "Noise on this host").
    std::vector<double> walls;
    std::vector<double> best_ms = plain.front().table_ms;
    std::string per_pass;
    for (const Pass& pass : plain) {
      walls.push_back(pass.wall_s);
      for (size_t i = 0; i < best_ms.size(); ++i) {
        best_ms[i] = std::min(best_ms[i], pass.table_ms[i]);
      }
      if (!per_pass.empty()) per_pass += ",";
      per_pass += JsonNumbers(pass.table_ms);
    }
    run.samples_json = "{\"pass_s\":" + JsonNumbers(walls) +
                       ",\"table_ms\":[" + per_pass + "]}";
    double best_total_ms = 0;
    for (double ms : best_ms) best_total_ms += ms;
    struct rusage usage;
    ::getrusage(RUSAGE_SELF, &usage);
    run.Set("setup_s", setup.SetupSeconds());
    run.Set("throughput_per_s", n / (best_total_ms / 1e3));
    run.Set("latency_ms_p50", Percentile(best_ms, 0.5));
    run.Set("latency_ms_p90", Percentile(best_ms, 0.9));
    run.Set("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);
    run.Set("f1_mean", MeanF1(run, plain.front().tables));
    return true;
  }

  // Per-layer numbers: the work counts must repeat exactly in every traced
  // pass; times are means over all traced passes.
  const auto first = CoreMetrics(snapshots[0], snapshots[1]);
  for (size_t i = 1; i < snapshots.size(); ++i) {
    const auto now = CoreMetrics(snapshots[i - 1], snapshots[i]);
    for (size_t k = 0; k < first.size(); ++k) {
      if (first[k].unit == "count" && first[k].value != now[k].value) {
        run.invalid.push_back(first[k].name + " differs between passes");
      }
    }
    const CountingView::Counts& a = counts[0];
    const CountingView::Counts& b = counts[i - 1];
    if (a.lookups != b.lookups || a.co_calls != b.co_calls ||
        a.column_count_calls != b.column_count_calls ||
        a.co_postings_scanned != b.co_postings_scanned) {
      run.invalid.push_back("corpus call counts differ between passes");
    }
  }
  for (const Metric& m : CoreMetrics(snapshots.front(), snapshots.back())) {
    run.Set(m.name, m.value);
  }
  CountingView::Counts sum;
  for (const auto& c : counts) sum += c;
  const double tables = n * static_cast<double>(counts.size());
  run.Set("corpus.lookups", sum.lookups / tables);
  run.Set("corpus.lookup_hit_ratio",
          sum.lookups > 0 ? static_cast<double>(sum.lookup_hits) / sum.lookups
                          : 0.0);
  run.Set("corpus.column_count_calls", sum.column_count_calls / tables);
  run.Set("corpus.co_postings_scanned", sum.co_postings_scanned / tables);
  run.Set("corpus.lookup_ms", sum.lookup_ns / 1e6 / tables);
  run.Set("corpus.co_ms", sum.co_ns / 1e6 / tables);
  run.Set("corpus.co_us_per_call",
          sum.co_calls > 0 ? sum.co_ns / 1e3 / sum.co_calls : 0.0);

  std::vector<double> plain_s, traced_s;
  for (const Pass& p : plain) plain_s.push_back(p.wall_s);
  for (const Pass& p : traced) traced_s.push_back(p.wall_s);
  run.Set("bench.trace_overhead_ratio", Median(plain_s) / Median(traced_s));
  run.samples_json = "{\"untraced_pass_s\":" + JsonNumbers(plain_s) +
                     ",\"traced_pass_s\":" + JsonNumbers(traced_s) + "}";
  run.Set("loadgen.sent", static_cast<double>(plain.size() + traced.size()) * n);
  SetStoreMetrics(run, setup, setup.ready_s);
  SetDistanceMetrics(run, corpus.get());
  return true;
}

// ---------------------------------------------------------------------------
// Serve workloads: POST /v1/extract against a live tegra_serve.

std::string RequestBody(size_t id, const std::vector<std::string>& lines,
                        bool bypass_cache) {
  std::string body = "{\"id\":" + std::to_string(id) + ",\"lines\":[";
  for (size_t i = 0; i < lines.size(); ++i) {
    body += i > 0 ? ",\"" : "\"";
    body += tegra::serve::JsonEscape(lines[i]);
    body += '"';
  }
  body += "]";
  if (bypass_cache) body += ",\"bypass_cache\":true";
  return body + "}";
}

/// Counts every sample into the run and checks it is a full-quality success
/// serving the same table as the first response for its list.
void Tally(Run& run, const LoadResult& load,
           const std::vector<uint64_t>& per_list) {
  uint64_t differ = 0;
  for (const Sample& s : load.samples) {
    ++run.attempted;
    if (!s.reply.good()) {
      ++run.failed;
    } else if (s.reply.rows_digest != per_list[s.list]) {
      ++differ;
    }
  }
  if (differ > 0) {
    run.errors.push_back(std::to_string(differ) +
                         " responses differ from their list's first response");
  }
}

tegra::Result<Flat> ScrapeVarz(int admin_port) {
  tegra::net::HttpClient client("127.0.0.1", admin_port, 10000);
  auto response = client.Get("/varz");
  if (!response.ok()) return response.status();
  if (response->status != 200) {
    return tegra::Status::Unavailable("/varz answered " +
                                      std::to_string(response->status));
  }
  auto parsed = tegra::serve::ParseJson(response->body);
  if (!parsed.ok()) return parsed.status();
  return Flatten(parsed.value());
}

/// False when set-up failed and nothing was measured.
bool RunServe(Run& run) {
  const Workload& w = *run.w;
  Setup setup;
  Daemon daemon;
  if (!SetupServe(run, &daemon, &setup)) return false;
  double open_s = 0;
  auto corpus = OpenSnapshot(setup.snapshot, &open_s);
  if (corpus == nullptr) return false;
  CheckCorpus(run, *corpus);

  std::vector<std::string> bodies;
  for (size_t i = 0; i < run.lists.size(); ++i) {
    bodies.push_back(RequestBody(i, run.lists[i].lines,
                                 w.mode == Mode::kServeBypass));
  }
  const int port = daemon.data_port();

  // Warm-up: every list once. It fills the co-occurrence memo (and, for
  // serve_cached, the result cache) so every later pass does identical
  // work, and it yields the served tables the digest and F1 are taken from.
  const Clock::time_point warm_start = Clock::now();
  const LoadResult warm =
      RunClosedLoop(port, bodies, run.order, w.closed_connections,
                    run.lists.size(), 0, /*keep_rows=*/true);
  run.Set("loadgen.prewarm_s", SecondsSince(warm_start));
  std::vector<uint64_t> per_list(run.lists.size(), 0);
  std::vector<tegra::Table> tables(run.lists.size());
  for (const Sample& s : warm.samples) {
    if (!s.reply.good()) continue;
    per_list[s.list] = s.reply.rows_digest;
    tables[s.list] = tegra::Table(s.rows);
  }
  CheckOutputDigest(run, CombineDigests(per_list));
  Tally(run, warm, per_list);

  tegra::Result<Flat> before = Flat();
  if (run.opt.trace) before = ScrapeVarz(daemon.admin_port());
  const double cpu_before = daemon.CpuSeconds();
  // Whole cycles over the lists only, so every list is sent equally often
  // whatever the seeded order.
  const size_t cycles = std::max<size_t>(
      1, static_cast<size_t>(w.open_rate * run.opt.seconds * kOpenLoopShare /
                             static_cast<double>(run.lists.size())));
  const LoadResult open =
      RunOpenLoop(port, bodies, run.order, w.open_rate,
                  cycles * run.lists.size(), kOpenLoopThreads);
  const LoadResult closed = RunClosedLoop(
      port, bodies, run.order, w.closed_connections,
      w.closed_cycles * run.lists.size(),
      run.opt.seconds * (1 - kOpenLoopShare));
  tegra::Result<Flat> after = Flat();
  if (run.opt.trace) after = ScrapeVarz(daemon.admin_port());
  const double cpu_after = daemon.CpuSeconds();
  const double peak_rss_mb = daemon.PeakRssMb();
  Tally(run, open, per_list);
  Tally(run, closed, per_list);
  if (!daemon.Stop()) {
    run.invalid.push_back("tegra_serve did not exit cleanly on stdin EOF");
  }

  std::vector<double> latency, lag, queue, extract, server_total;
  for (const Sample& s : open.samples) {
    latency.push_back(s.latency_ms);
    lag.push_back(s.lag_ms);
    queue.push_back(s.reply.queue_ms);
    extract.push_back(s.reply.extract_ms);
    server_total.push_back(s.reply.total_ms);
  }
  const double lag_p99 = Percentile(lag, 0.99);
  if (lag_p99 > kMaxLagMs) {
    run.invalid.push_back("load generator p99 lateness " +
                          FormatNumber(lag_p99) + " ms > " +
                          FormatNumber(kMaxLagMs) + " ms");
  }
  if (open.samples.size() != open.scheduled) {
    run.invalid.push_back("sent " + std::to_string(open.samples.size()) +
                          " of " + std::to_string(open.scheduled) +
                          " scheduled requests");
  }

  if (!run.opt.trace) {
    run.samples_json = "{\"open_latency_ms\":" + JsonNumbers(latency) +
                       ",\"closed_pass_s\":" +
                       JsonNumbers(closed.pass_seconds) + "}";
    run.Set("setup_s", setup.SetupSeconds());
    run.Set("throughput_per_s", static_cast<double>(closed.per_pass) /
                                    Median(closed.pass_seconds));
    run.Set("latency_ms_p50", Percentile(latency, 0.5));
    run.Set("latency_ms_p90", Percentile(latency, 0.9));
    run.Set("peak_rss_mb", peak_rss_mb);
    run.Set("f1_mean", MeanF1(run, tables));
    const bool met = Percentile(latency, 0.9) <= w.p90_limit_ms;
    run.notes.push_back("latency limit p90 <= " +
                        FormatNumber(w.p90_limit_ms) + " ms at " +
                        FormatNumber(w.open_rate) + " req/s: " +
                        (met ? "met" : "missed"));
    return true;
  }

  if (!before.ok() || !after.ok()) {
    run.invalid.push_back("/varz scrape failed");
    return true;
  }
  const Flat& b = before.value();
  const Flat& a = after.value();
  for (const Metric& m : CoreMetrics(b, a)) run.Set(m.name, m.value);
  const double hits = Delta(b, a, "service.result_cache_hits");
  const double misses = Delta(b, a, "service.result_cache_misses");
  const double requests =
      static_cast<double>(open.samples.size() + closed.samples.size());
  const double connections = Delta(b, a, "net.connections_total");
  if (connections != static_cast<double>(open.connects + closed.connects)) {
    run.invalid.push_back("server saw " + FormatNumber(connections) +
                          " connections, clients made " +
                          std::to_string(open.connects + closed.connects));
  }
  run.Set("service.queue_ms_mean", Mean(queue));
  run.Set("service.queue_ms_p95", Percentile(queue, 0.95));
  run.Set("service.extract_ms_p50", Percentile(extract, 0.5));
  run.Set("service.extract_ms_p95", Percentile(extract, 0.95));
  run.Set("service.result_cache_hit_ratio",
          hits + misses > 0 ? hits / (hits + misses) : 0.0);
  run.Set("service.rejected", Delta(b, a, "service.rejected_total"));
  // The daemon's histogram percentiles cover its whole life.
  run.Set("net.request_ms_p50", At(a, "net.request_seconds.p50") * 1e3);
  run.Set("net.request_ms_p99", At(a, "net.request_seconds.p99") * 1e3);
  run.Set("net.connections_total", connections);
  run.Set("net.bad_requests", Delta(b, a, "net.bad_request_total"));
  run.Set("net.overhead_ms_p50", Median(latency) - Median(server_total));
  run.Set("daemon.cpu_ms_per_request",
          (cpu_after - cpu_before) * 1e3 / requests);
  run.Set("loadgen.lag_ms_p99", lag_p99);
  run.Set("loadgen.sent", requests);
  SetStoreMetrics(run, setup, {open_s});
  SetDistanceMetrics(run, corpus.get());
  return true;
}

// ---------------------------------------------------------------------------
// Reporting.

std::string JsonStrings(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    out += i > 0 ? ",\"" : "\"";
    out += tegra::serve::JsonEscape(items[i]);
    out += '"';
  }
  return out + "]";
}

void Report(const Run& run, const fs::path& results_file) {
  const bool correct = run.errors.empty();
  const std::span<const MetricDef> defs =
      run.opt.trace ? std::span<const MetricDef>(kPerLayer)
                    : std::span<const MetricDef>(kEndToEnd);
  std::printf("workload %s  seed %llu  seconds %s  trace %d\n", run.w->name,
              static_cast<unsigned long long>(run.opt.seed),
              FormatNumber(run.opt.seconds).c_str(), run.opt.trace ? 1 : 0);
  std::printf("corpus digest %s  output digest %s\n", run.corpus_digest.c_str(),
              run.output_digest.c_str());
  std::string metrics_json;
  for (const MetricDef& def : defs) {
    const auto it = run.values.find(def.name);
    const double value = it == run.values.end() ? 0.0 : it->second;
    std::printf("  %-32s %14.6g %s\n", def.name, value, def.unit);
    if (!metrics_json.empty()) metrics_json += ",";
    metrics_json += std::string("\"") + def.name + "\":{\"value\":" +
                    FormatNumber(value) + ",\"unit\":\"" + def.unit + "\"}";
  }
  for (const std::string& e : run.notes) std::printf("%s\n", e.c_str());
  for (const std::string& e : run.errors) {
    std::printf("WRONG OUTPUT: %s\n", e.c_str());
  }
  for (const std::string& e : run.invalid) {
    std::printf("INVALID: %s\n", e.c_str());
  }

  const std::string result =
      std::string("{\"correct\":") + (correct ? "true" : "false") +
      ",\"attempted\":" + std::to_string(run.attempted) +
      ",\"failed\":" + std::to_string(run.failed) + ",\"metrics\":{" +
      metrics_json + "}}";
  std::ofstream out(results_file);
  out << "{\"workload\":\"" << run.w->name << "\",\"seed\":" << run.opt.seed
      << ",\"seconds\":" << FormatNumber(run.opt.seconds)
      << ",\"trace\":" << (run.opt.trace ? 1 : 0) << ",\"corpus_digest\":\""
      << run.corpus_digest << "\",\"output_digest\":\"" << run.output_digest
      << "\",\"errors\":" << JsonStrings(run.errors)
      << ",\"invalid\":" << JsonStrings(run.invalid)
      << ",\"notes\":" << JsonStrings(run.notes)
      << ",\"samples\":" << run.samples_json << ",\"result\":" << result
      << "}\n";
  std::printf("results: %s\n", results_file.c_str());
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Reference digests: direct in-process TegraExtractor calls on every
// workload's lists, written once and committed.

int WriteReference(const Options& opt, const std::string& dir) {
  Run run;
  run.opt = opt;
  run.dir = dir;
  Setup setup;
  setup.snapshot = dir + "/corpus.tgra";
  if (!BuildSnapshot(run, &setup)) return 2;
  auto corpus = OpenSnapshot(setup.snapshot, nullptr);
  if (corpus == nullptr) return 2;
  const tegra::CorpusStats stats(corpus.get());
  const tegra::TegraExtractor tegra(&stats);
  std::ostringstream out;
  out << "{\n  \"corpus_spec\": \"" << opt.corpus_spec
      << "\",\n  \"corpus_digest\": \""
      << Hex(tegra::store::ComputeCorpusDigest(*corpus).digest)
      << "\",\n  \"workloads\": {";
  bool first = true;
  for (const Workload& w : kWorkloads) {
    const auto lists = MakeLists(w);
    std::vector<uint64_t> digests;
    for (const auto& inst : lists) {
      auto result = ExtractOne(tegra, w, inst);
      if (!result.ok()) {
        std::fprintf(stderr, "%s: extraction failed: %s\n", w.name,
                     result.status().ToString().c_str());
        return 2;
      }
      digests.push_back(ListDigest(w, *result));
    }
    out << (first ? "" : ",") << "\n    \"" << w.name
        << "\": {\"output_digest\": \"" << Hex(CombineDigests(digests))
        << "\"}";
    first = false;
  }
  out << "\n  }\n}\n";
  std::ofstream file(opt.write_reference);
  file << out.str();
  std::printf("%s", out.str().c_str());
  return file.good() ? 0 : 2;
}

bool LoadReference(Run& run) {
  std::ifstream in(run.opt.reference);
  std::stringstream text;
  text << in.rdbuf();
  auto parsed = tegra::serve::ParseJson(text.str());
  if (!in || !parsed.ok()) {
    std::fprintf(stderr, "cannot read reference %s\n",
                 run.opt.reference.c_str());
    return false;
  }
  run.reference_corpus_digest = parsed.value()["corpus_digest"].AsString();
  run.reference = parsed.value()["workloads"][run.w->name];
  return true;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") opt.workload = value;
    else if (arg == "--seed") opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (arg == "--seconds") opt.seconds = std::atof(value.c_str());
    else if (arg == "--trace") opt.trace = value == "1";
    else if (arg == "--bin-dir") opt.bin_dir = value;
    else if (arg == "--work-dir") opt.work_dir = value;
    else if (arg == "--out-dir") opt.out_dir = value;
    else if (arg == "--reference") opt.reference = value;
    else if (arg == "--corpus-spec") opt.corpus_spec = value;
    else if (arg == "--write-reference") opt.write_reference = value;
    else return Usage(("unknown flag " + arg).c_str());
  }
  if (opt.bin_dir.empty() || opt.work_dir.empty()) {
    return Usage("--bin-dir and --work-dir are required");
  }

  InstallChildReaper();
  // A fresh scratch directory per invocation; TEGRA_CACHE_DIR points into it
  // so no run reuses another's cached corpus.
  const fs::path dir = fs::path(opt.work_dir) /
                       ((opt.write_reference.empty() ? opt.workload
                                                     : std::string("reference")) +
                        "-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir / "cache");
  ::setenv("TEGRA_CACHE_DIR", (dir / "cache").c_str(), 1);
  struct Cleanup {
    fs::path dir;
    ~Cleanup() {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  } cleanup{dir};

  if (!opt.write_reference.empty()) return WriteReference(opt, dir.string());

  Run run;
  run.opt = opt;
  run.dir = dir.string();
  for (const Workload& w : kWorkloads) {
    if (opt.workload == w.name) run.w = &w;
  }
  if (run.w == nullptr) return Usage("unknown or missing --workload");
  if (opt.out_dir.empty() || opt.reference.empty()) {
    return Usage("--out-dir and --reference are required");
  }
  if (!(opt.seconds > 0)) return Usage("--seconds must be positive");
  if (!LoadReference(run)) return 2;

  run.lists = MakeLists(*run.w);
  run.order = SeededOrder(run.lists.size(), opt.seed);
  if (!(IsServe(*run.w) ? RunServe(run) : RunOffline(run))) {
    std::fprintf(stderr, "bench_ledger: set-up failed\n");
    return 2;
  }

  fs::create_directories(opt.out_dir);
  Report(run, fs::path(opt.out_dir) /
                  (std::string(run.w->name) + "-seed" +
                   std::to_string(opt.seed) + "-trace" +
                   (opt.trace ? "1" : "0") + ".json"));
  if (!run.errors.empty()) return 1;
  return run.invalid.empty() ? 0 : 3;
}

}  // namespace
}  // namespace ledger

int main(int argc, char** argv) { return ledger::Main(argc, argv); }
