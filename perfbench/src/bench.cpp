#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>

#include "dfdbg/common/json.hpp"

namespace perfbench {

dfdbg::h264::H264AppConfig Workload::decoder_config() const {
  dfdbg::h264::H264AppConfig cfg;
  cfg.params.width = width;
  cfg.params.height = height;
  cfg.params.frame_count = frames;
  cfg.params.qp = qp;
  cfg.seed = seed;
  cfg.fault.kind = fault;
  return cfg;
}

std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double Samples::quantile(double q) const {
  if (v_.empty()) return 0.0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const double pos = q * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
}

void Tracer::absorb(Tracer& other) {
  spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  other.spans_.clear();
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t base = spans_.empty() ? 0 : spans_.front().t0;
  for (const Span& s : spans_) base = std::min(base, s.t0);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"op\":%llu}}",
                 i == 0 ? "" : ",\n", s.name, s.tid, static_cast<double>(s.t0 - base) / 1e3,
                 static_cast<double>(s.t1 - s.t0) / 1e3, static_cast<unsigned long long>(s.op));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

std::string check_frames(const std::vector<dfdbg::h264::Frame>& got,
                         const std::vector<dfdbg::h264::Frame>& want) {
  if (got.size() != want.size())
    return "decoded " + std::to_string(got.size()) + " frames, want " + std::to_string(want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    if (!(got[i] == want[i])) return "frame " + std::to_string(i) + " differs from the reference";
  return {};
}

std::string check_conservation(const std::vector<LinkCount>& links) {
  for (const LinkCount& l : links) {
    if (l.pushes < l.pops + l.removed || l.pushes - l.pops - l.removed != l.occupancy)
      return "link " + l.name + ": pushes " + std::to_string(l.pushes) + " - pops " +
             std::to_string(l.pops) + " - removed " + std::to_string(l.removed) +
             " != occupancy " + std::to_string(l.occupancy);
  }
  return {};
}

std::string check_count(const char* what, std::uint64_t got, std::uint64_t want) {
  if (got == want) return {};
  return std::string(what) + " " + std::to_string(got) + ", want " + std::to_string(want);
}

namespace {

// The generator's stream and stage transform (bench/wide_graph.hpp),
// written out again so the check does not call the code it checks.
std::uint32_t xorshift32(std::uint32_t x) {
  x ^= x << 13;
  x ^= x >> 17;
  x ^= x << 5;
  return x;
}

std::uint32_t spin(std::uint32_t iters, std::uint32_t seed) {
  std::uint32_t x = seed | 1u;
  for (std::uint32_t i = 0; i < iters; ++i) x = xorshift32(x);
  return x;
}

}  // namespace

std::uint64_t wide_reference_checksum(const Workload& w) {
  std::uint64_t sum = 0;
  for (int p = 0; p < w.lanes; ++p) {
    std::uint32_t x = w.wide_seed() ^ (0x9E3779B9u * static_cast<std::uint32_t>(p + 1));
    for (int j = 0; j < w.tokens; ++j) {
      x = xorshift32(x == 0 ? 1u : x);
      std::uint32_t v = x;
      for (int s = 0; s < w.stages; ++s) v = v + 1u + (spin(w.spin, v) & 1u);
      sum += v;
    }
  }
  return sum;
}

std::string check_response(std::string_view frame, std::uint64_t id, dfdbg::JsonValue* out) {
  auto doc = dfdbg::JsonValue::parse(frame);
  if (!doc.ok()) return "unparsable response: " + std::string(frame.substr(0, 120));
  const dfdbg::JsonValue* rid = doc->find("id");
  if (rid == nullptr || !rid->is_number() || rid->as_u64() != id)
    return "response does not echo id " + std::to_string(id);
  if (doc->find("result") == nullptr)
    return "response " + std::to_string(id) + " has no result: " +
           std::string(frame.substr(0, 160));
  *out = std::move(*doc);
  return {};
}

namespace {

std::uint64_t number_after(std::string_view frame, std::string_view key) {
  std::size_t at = frame.find(key);
  if (at == std::string_view::npos) return UINT64_MAX;
  return std::strtoull(std::string(frame.substr(at + key.size(), 24)).c_str(), nullptr, 10);
}

std::uint64_t count_of(std::string_view s, std::string_view needle) {
  std::uint64_t n = 0;
  for (std::size_t at = s.find(needle); at != std::string_view::npos;
       at = s.find(needle, at + needle.size()))
    ++n;
  return n;
}

}  // namespace

void tally_journal_delta(std::string_view frame, JournalTally* t) {
  const std::uint64_t from = number_after(frame, R"("from":)");
  const std::uint64_t next = number_after(frame, R"("next":)");
  const std::uint64_t gap = number_after(frame, R"("gap":)");
  const std::uint64_t events = count_of(frame, R"({"t":)");
  if (from != t->next + gap || next < from || events != next - from) ++t->broken;
  t->delivered += events;
  t->gaps += gap;
  t->next = next;
}

std::string check_journal(const JournalTally& t, std::uint64_t recorded) {
  if (t.broken != 0)
    return std::to_string(t.broken) + " journal deltas disagree with their cursors";
  if (t.next != recorded)
    return "journal stream ended at " + std::to_string(t.next) + ", journal recorded up to " +
           std::to_string(recorded);
  if (t.delivered + t.gaps != recorded - t.start)
    return "journal delivered " + std::to_string(t.delivered) + " + gaps " +
           std::to_string(t.gaps) + " != recorded " + std::to_string(recorded - t.start);
  return {};
}

std::string check_trace_counts(const std::vector<LinkCount>& traced,
                               const std::vector<LinkCount>& links) {
  if (traced.size() != links.size())
    return "trace saw " + std::to_string(traced.size()) + " links, the application has " +
           std::to_string(links.size());
  for (std::size_t i = 0; i < links.size(); ++i) {
    const LinkCount& t = traced[i];
    const LinkCount& l = links[i];
    if (t.pushes != l.pushes || t.pops != l.pops)
      return "trace counted " + std::to_string(t.pushes) + "/" + std::to_string(t.pops) +
             " pushes/pops on " + l.name + ", link says " + std::to_string(l.pushes) + "/" +
             std::to_string(l.pops);
  }
  return check_conservation(traced);
}

std::string check_inject_remove(std::uint64_t before, std::uint64_t injected,
                                std::uint64_t restored) {
  if (std::string e = check_count("occupancy after inject", injected, before + 1); !e.empty())
    return e;
  return check_count("occupancy after remove", restored, before);
}

std::string check_csv_rows(std::string_view csv, std::uint64_t events) {
  return check_count("CSV rows", count_of(csv, "\n"), events + 1);
}

}  // namespace perfbench
