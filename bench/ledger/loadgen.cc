#include "loadgen.h"

#include <sys/prctl.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string_view>
#include <thread>

#include "ledger.h"
#include "net/http_client.h"

namespace ledger {

namespace {

constexpr int kClientTimeoutMs = 60000;

void AppendUtf8(uint32_t cp, std::string* out) {
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

bool Hex4(std::string_view s, size_t at, uint32_t* out) {
  if (at + 4 > s.size()) return false;
  *out = 0;
  for (size_t i = at; i < at + 4; ++i) {
    const char c = s[i];
    *out <<= 4;
    if (c >= '0' && c <= '9') *out |= static_cast<uint32_t>(c - '0');
    else if (c >= 'a' && c <= 'f') *out |= static_cast<uint32_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') *out |= static_cast<uint32_t>(c - 'A' + 10);
    else return false;
  }
  return true;
}

/// Decodes the JSON string literal at s[*pos] == '"'; leaves *pos after it.
bool ParseString(std::string_view s, size_t* pos, std::string* out) {
  out->clear();
  if (*pos >= s.size() || s[*pos] != '"') return false;
  size_t i = *pos + 1;
  while (i < s.size()) {
    const char c = s[i++];
    if (c == '"') {
      *pos = i;
      return true;
    }
    if (c != '\\') {
      out->push_back(c);
      continue;
    }
    if (i >= s.size()) return false;
    const char e = s[i++];
    switch (e) {
      case '"': out->push_back('"'); break;
      case '\\': out->push_back('\\'); break;
      case '/': out->push_back('/'); break;
      case 'b': out->push_back('\b'); break;
      case 'f': out->push_back('\f'); break;
      case 'n': out->push_back('\n'); break;
      case 'r': out->push_back('\r'); break;
      case 't': out->push_back('\t'); break;
      case 'u': {
        uint32_t cp = 0;
        if (!Hex4(s, i, &cp)) return false;
        i += 4;
        uint32_t low = 0;
        if (cp >= 0xD800 && cp < 0xDC00 && i + 6 <= s.size() && s[i] == '\\' &&
            s[i + 1] == 'u' && Hex4(s, i + 2, &low) && low >= 0xDC00 &&
            low < 0xE000) {
          cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          i += 6;
        }
        AppendUtf8(cp, out);
        break;
      }
      default:
        return false;
    }
  }
  return false;
}

void SkipSpace(std::string_view s, size_t* pos) {
  while (*pos < s.size() && (s[*pos] == ' ' || s[*pos] == '\n' ||
                             s[*pos] == '\r' || s[*pos] == '\t')) {
    ++*pos;
  }
}

/// Parses the [[string, ...], ...] value at *pos into a digest (and rows).
bool ParseRows(std::string_view s, size_t pos, uint64_t* digest,
               std::vector<std::vector<std::string>>* rows) {
  Digest d;
  std::string cell;
  SkipSpace(s, &pos);
  if (pos >= s.size() || s[pos++] != '[') return false;
  SkipSpace(s, &pos);
  if (pos < s.size() && s[pos] == ']') {
    *digest = d.value();
    return true;
  }
  while (true) {
    SkipSpace(s, &pos);
    if (pos >= s.size() || s[pos++] != '[') return false;
    if (rows != nullptr) rows->emplace_back();
    SkipSpace(s, &pos);
    if (pos < s.size() && s[pos] == ']') {
      ++pos;
    } else {
      while (true) {
        SkipSpace(s, &pos);
        if (!ParseString(s, &pos, &cell)) return false;
        d.Add(cell);
        if (rows != nullptr) rows->back().push_back(cell);
        SkipSpace(s, &pos);
        if (pos >= s.size()) return false;
        const char sep = s[pos++];
        if (sep == ']') break;
        if (sep != ',') return false;
      }
    }
    d.Add(kRowEnd);
    SkipSpace(s, &pos);
    if (pos >= s.size()) return false;
    const char sep = s[pos++];
    if (sep == ']') break;
    if (sep != ',') return false;
  }
  *digest = d.value();
  return true;
}

/// Position just after `"key":` in a response body, or npos. Inside a
/// string value every quote is escaped, so the pattern only matches keys.
size_t ValueAt(std::string_view body, std::string_view key) {
  std::string pattern = "\"";
  pattern.append(key);
  pattern.append("\":");
  const size_t at = body.find(pattern);
  return at == std::string_view::npos ? at : at + pattern.size();
}

double NumberOr(std::string_view body, std::string_view key, double fallback) {
  const size_t at = ValueAt(body, key);
  if (at == std::string_view::npos) return fallback;
  return std::strtod(std::string(body.substr(at, 32)).c_str(), nullptr);
}

bool TrueAt(std::string_view body, std::string_view key) {
  const size_t at = ValueAt(body, key);
  return at != std::string_view::npos && body.substr(at, 4) == "true";
}

Sample Send(tegra::net::HttpClient* client, size_t list,
            const std::string& body, bool keep_rows) {
  Sample sample;
  sample.list = list;
  auto response = client->Post("/v1/extract", body);
  if (response.ok()) {
    sample.reply.transport_ok = true;
    sample.reply.status = response->status;
    ParseReply(response->body, &sample.reply,
               keep_rows ? &sample.rows : nullptr);
  }
  return sample;
}

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

}  // namespace

bool ParseReply(const std::string& body, Reply* out,
                std::vector<std::vector<std::string>>* rows) {
  out->ok = TrueAt(body, "ok");
  out->quality_level = static_cast<int>(NumberOr(body, "quality_level", -1));
  out->total_ms = NumberOr(body, "total_ms", 0);
  out->queue_ms = NumberOr(body, "queue_ms", 0);
  out->extract_ms = NumberOr(body, "extract_ms", 0);
  const size_t rows_at = ValueAt(body, "rows");
  if (!out->ok || rows_at == std::string::npos) {
    out->ok = false;
    return false;
  }
  if (!ParseRows(body, rows_at, &out->rows_digest, rows)) {
    out->ok = false;
    return false;
  }
  return true;
}

LoadResult RunOpenLoop(int port, const std::vector<std::string>& bodies,
                       const std::vector<size_t>& order, double rate,
                       uint64_t requests, int threads) {
  LoadResult result;
  result.scheduled = requests;
  std::vector<std::unique_ptr<tegra::net::HttpClient>> clients;
  std::vector<std::vector<Sample>> per_thread(threads);
  for (int t = 0; t < threads; ++t) {
    clients.push_back(std::make_unique<tegra::net::HttpClient>(
        "127.0.0.1", port, kClientTimeoutMs));
  }
  std::atomic<uint64_t> next_slot{0};
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const uint64_t total = result.scheduled;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      // The default 50 us timer slack would add to every measured latency
      // at the sub-millisecond response times of cached requests.
      ::prctl(PR_SET_TIMERSLACK, 1UL);
      while (true) {
        const uint64_t k = next_slot.fetch_add(1);
        if (k >= total) break;
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(k / rate));
        std::this_thread::sleep_until(due);
        const Clock::time_point sent = Clock::now();
        const size_t list = order[k % order.size()];
        Sample sample = Send(clients[t].get(), list, bodies[list], false);
        sample.latency_ms = Ms(Clock::now() - due);
        sample.lag_ms = Ms(sent - due);
        per_thread[t].push_back(std::move(sample));
      }
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 0; t < threads; ++t) {
    result.connects += clients[t]->connects();
    for (Sample& s : per_thread[t]) result.samples.push_back(std::move(s));
  }
  return result;
}

LoadResult RunClosedLoop(int port, const std::vector<std::string>& bodies,
                         const std::vector<size_t>& order, int connections,
                         size_t per_pass, double seconds, bool keep_rows) {
  LoadResult result;
  result.per_pass = per_pass;
  std::vector<std::unique_ptr<tegra::net::HttpClient>> clients;
  std::vector<std::vector<Sample>> per_thread(connections);
  for (int c = 0; c < connections; ++c) {
    clients.push_back(std::make_unique<tegra::net::HttpClient>(
        "127.0.0.1", port, kClientTimeoutMs));
  }
  const Clock::time_point start = Clock::now();
  while (AnotherPass(start, result.pass_seconds.size(),
                     result.pass_seconds.empty() ? 0
                                                 : result.pass_seconds.back(),
                     seconds, 1)) {
    std::atomic<size_t> next{0};
    const Clock::time_point pass_start = Clock::now();
    std::vector<std::thread> workers;
    for (int c = 0; c < connections; ++c) {
      workers.emplace_back([&, c] {
        while (true) {
          const size_t k = next.fetch_add(1);
          if (k >= per_pass) break;
          const size_t list = order[k % order.size()];
          const Clock::time_point sent = Clock::now();
          Sample sample =
              Send(clients[c].get(), list, bodies[list], keep_rows);
          sample.latency_ms = Ms(Clock::now() - sent);
          per_thread[c].push_back(std::move(sample));
        }
      });
    }
    for (auto& w : workers) w.join();
    result.pass_seconds.push_back(SecondsSince(pass_start));
    result.scheduled += per_pass;
  }
  for (int c = 0; c < connections; ++c) {
    result.connects += clients[c]->connects();
    for (Sample& s : per_thread[c]) result.samples.push_back(std::move(s));
  }
  return result;
}

}  // namespace ledger
