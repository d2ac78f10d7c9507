// The benchmark's load generator for POST /v1/extract: an open loop on a
// fixed schedule and a closed loop over repeated passes, each worker thread
// owning one keep-alive net::HttpClient.

#ifndef TEGRA_BENCH_LEDGER_LOADGEN_H_
#define TEGRA_BENCH_LEDGER_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ledger.h"

namespace ledger {

/// One /v1/extract response, reduced to what the benchmark checks and times.
struct Reply {
  bool transport_ok = false;  ///< A complete HTTP response arrived.
  int status = 0;             ///< HTTP status.
  bool ok = false;            ///< The body says "ok":true.
  int quality_level = -1;
  double total_ms = 0;    ///< Server-side submit-to-completion time.
  double queue_ms = 0;    ///< Server-side wait for a worker.
  double extract_ms = 0;  ///< Server-side extraction time (0 on cache hit).
  uint64_t rows_digest = 0;

  /// A 200 with "ok":true at full quality (rung 0).
  bool good() const {
    return transport_ok && status == 200 && ok && quality_level == 0;
  }
};

/// Parses a /v1/extract body into `out`; `rows`, when non-null, receives
/// the served table. False when the body is not a well-formed success.
bool ParseReply(const std::string& body, Reply* out,
                std::vector<std::vector<std::string>>* rows);

struct Sample {
  size_t list = 0;        ///< Index of the list sent.
  double latency_ms = 0;  ///< Open loop: from when it was due; else from send.
  double lag_ms = 0;      ///< Open loop: how late it was sent.
  Reply reply;
  /// The served table, when the loop was asked to keep it.
  std::vector<std::vector<std::string>> rows;
};

struct LoadResult {
  std::vector<Sample> samples;
  uint64_t scheduled = 0;              ///< Requests the schedule asked for.
  uint64_t connects = 0;               ///< TCP connections the clients made.
  std::vector<double> pass_seconds;    ///< Closed loop: wall time per pass.
  size_t per_pass = 0;                 ///< Closed loop: requests per pass.
};

/// Open loop: `requests` requests, request k carrying list
/// `order[k % order.size()]` and due at start + k / rate. Each of `threads`
/// workers takes the next slot once its previous request completed and
/// sleeps until it is due; a slot sent late is still timed from when it was
/// due.
LoadResult RunOpenLoop(int port, const std::vector<std::string>& bodies,
                       const std::vector<size_t>& order, double rate,
                       uint64_t requests, int threads);

/// Closed loop: `connections` clients send back to back. One pass sends
/// `per_pass` requests, cycling through `order`. The first pass always
/// runs; more run while another as long as the last still fits in
/// `seconds`. `keep_rows` stores each served table in its sample.
LoadResult RunClosedLoop(int port, const std::vector<std::string>& bodies,
                         const std::vector<size_t>& order, int connections,
                         size_t per_pass, double seconds,
                         bool keep_rows = false);

}  // namespace ledger

#endif  // TEGRA_BENCH_LEDGER_LOADGEN_H_
