// dfdbg-top: live terminal dashboard over the debug server's push streams
// (docs/PROTOCOL.md "Subscriptions"). Connects, subscribes to every stream,
// and repaints a single screen — per-link occupancy bars with push/pop
// rates, the busiest filters by consumed cycles, and the journal tail —
// from notifications alone: after the initial subscribe handshake the tool
// never polls.
//
//   dfdbg-top [--host H] --port N | --unix PATH
//             [--session NAME]  session_attach first: dashboard a specific
//                               hosted session instead of the default
//             [--interval MS]   minimum repaint spacing (default 100)
//             [--journal N]     journal-tail lines to keep (default 8)
//             [--no-ansi]       append screens instead of in-place repaint
//             [--run]           send `run` once subscribed; exit on its
//                               response (scripted/CI mode)
//             [--max-frames N]  exit after N received frames (scripted mode)
//
// Rendering is plain ANSI (home + clear per repaint), no curses: the tool
// must run anywhere the tests do.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "dfdbg/common/json.hpp"
#include "dfdbg/common/strings.hpp"

namespace {

using dfdbg::JsonValue;
using dfdbg::strformat;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--host H] --port N | --unix PATH [--session NAME]\n"
               "          [--interval MS] [--journal N] [--no-ansi] [--run] [--max-frames N]\n",
               argv0);
  return 2;
}

int connect_tcp(const std::string& host, int port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::string& s) {
  std::size_t off = 0;
  while (off < s.size()) {
    ssize_t n = send(fd, s.data() + off, s.size() - off, 0);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool read_frame(int fd, std::string& spill, std::string& frame) {
  for (;;) {
    std::size_t nl = spill.find('\n');
    if (nl != std::string::npos) {
      frame = spill.substr(0, nl);
      spill.erase(0, nl + 1);
      return true;
    }
    char buf[65536];
    ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    spill.append(buf, static_cast<std::size_t>(n));
  }
}

/// Dashboard model: everything the last notifications said.
struct LinkState {
  std::uint64_t occupancy = 0;
  std::uint64_t d_pushes = 0;
  std::uint64_t d_pops = 0;
  std::uint64_t peak = 1;  ///< max occupancy seen; scales the bar
};

struct FilterState {
  std::uint64_t firings = 0;
  std::uint64_t cycles = 0;
};

/// Per-worker attribution accumulated from `shard.rounds` notifications
/// (parallel backend only; stays empty elsewhere).
struct WorkerState {
  std::uint64_t dispatches = 0;
  std::uint64_t work_ns = 0;
  std::uint64_t wait_ns = 0;
  std::uint64_t stalls = 0;
  std::uint64_t skips = 0;  ///< rounds this worker slept through (no ready work)
};

struct Model {
  std::uint64_t sim_time = 0;
  std::map<std::string, LinkState> links;       // ordered: stable screen rows
  std::map<std::string, FilterState> filters;
  std::deque<std::string> journal_tail;
  std::size_t journal_keep = 8;
  std::uint64_t frames = 0;        ///< notifications received
  std::uint64_t journal_events = 0;
  std::uint64_t gap_total = 0;     ///< journal events lost to ring laps
  std::string last_run_event;
  std::string backend;             ///< from capabilities: active process backend
  std::uint64_t workers = 0;       ///< from capabilities: partition count
  std::vector<WorkerState> shard;  ///< indexed by partition; grown on demand
  std::uint64_t barrier_rounds = 0;  ///< shard.rounds records consumed
};

/// One journal event object -> one compact tail line.
std::string journal_line(const JsonValue& ev) {
  std::string line = strformat("t=%-8llu %-10s",
                               static_cast<unsigned long long>(ev.u64_or("t", 0)),
                               ev.str_or("kind", "?").c_str());
  if (const JsonValue* tok = ev.find("token"); tok != nullptr)
    line += strformat(" tok#%llu", static_cast<unsigned long long>(tok->as_u64()));
  if (const JsonValue* actor = ev.find("actor"); actor != nullptr)
    line += " " + actor->as_string();
  if (const JsonValue* link = ev.find("link"); link != nullptr)
    line += " [" + link->as_string() + "]";
  return line;
}

void apply_notification(Model& m, const JsonValue& frame) {
  m.frames++;
  std::string method = frame.str_or("method");
  const JsonValue* p = frame.find("params");
  if (p == nullptr) return;
  if (method == "flow.snapshot") {
    m.sim_time = p->u64_or("time", m.sim_time);
    if (const JsonValue* links = p->find("links"); links != nullptr && links->is_array()) {
      for (std::size_t i = 0; i < links->size(); ++i) {
        const JsonValue& l = links->at(i);
        LinkState& ls = m.links[l.str_or("name", "?")];
        ls.occupancy = l.u64_or("occupancy", 0);
        ls.d_pushes = l.u64_or("d_pushes", 0);
        ls.d_pops = l.u64_or("d_pops", 0);
        ls.peak = std::max(ls.peak, ls.occupancy);
      }
    }
    if (const JsonValue* fs = p->find("filters"); fs != nullptr && fs->is_array()) {
      for (std::size_t i = 0; i < fs->size(); ++i) {
        const JsonValue& f = fs->at(i);
        FilterState& st = m.filters[f.str_or("path", "?")];
        st.firings = f.u64_or("firings", 0);
        st.cycles = f.u64_or("cycles", 0);
      }
    }
  } else if (method == "journal.delta") {
    m.gap_total += p->u64_or("gap", 0);
    if (const JsonValue* evs = p->find("events"); evs != nullptr && evs->is_array()) {
      m.journal_events += evs->size();
      for (std::size_t i = 0; i < evs->size(); ++i) {
        m.journal_tail.push_back(journal_line(evs->at(i)));
        while (m.journal_tail.size() > m.journal_keep) m.journal_tail.pop_front();
      }
    }
  } else if (method == "run.event") {
    std::string msg = p->str_or("message");
    m.last_run_event = msg.empty() ? p->str_or("kind") : msg;
  } else if (method == "shard.rounds") {
    if (const JsonValue* rounds = p->find("rounds"); rounds != nullptr && rounds->is_array()) {
      m.barrier_rounds += rounds->size();
      for (std::size_t i = 0; i < rounds->size(); ++i) {
        const JsonValue* parts = rounds->at(i).find("partitions");
        if (parts == nullptr || !parts->is_array()) continue;
        if (m.shard.size() < parts->size()) m.shard.resize(parts->size());
        for (std::size_t k = 0; k < parts->size(); ++k) {
          const JsonValue& d = parts->at(k);
          WorkerState& w = m.shard[k];
          w.dispatches += d.u64_or("dispatches", 0);
          w.work_ns += d.u64_or("work_ns", 0);
          w.wait_ns += d.u64_or("wait_ns", 0);
          if (d.bool_or("stalled", false)) w.stalls++;
          if (d.bool_or("skipped", false)) w.skips++;
        }
      }
    }
  }
  // stats.delta is accepted but not rendered row-by-row; the header counts
  // already summarize what a dashboard needs.
}

void render(const Model& m, bool ansi) {
  std::string scr;
  if (ansi) scr += "\x1b[H\x1b[2J";
  scr += strformat("dfdbg-top  sim t=%llu  frames=%llu  journal ev=%llu  gaps=%llu\n",
                   static_cast<unsigned long long>(m.sim_time),
                   static_cast<unsigned long long>(m.frames),
                   static_cast<unsigned long long>(m.journal_events),
                   static_cast<unsigned long long>(m.gap_total));
  if (!m.backend.empty())
    scr += strformat("backend: %s  workers=%llu\n", m.backend.c_str(),
                     static_cast<unsigned long long>(m.workers));
  if (!m.last_run_event.empty()) scr += strformat("last stop: %s\n", m.last_run_event.c_str());
  scr += "\nlinks                                  occupancy  d_push  d_pop\n";
  for (const auto& [name, l] : m.links) {
    std::string bar(static_cast<std::size_t>(
                        l.peak == 0 ? 0 : (16 * l.occupancy + l.peak - 1) / l.peak),
                    '#');
    bar.resize(16, '.');
    scr += strformat("  %-28s [%s] %5llu %7llu %6llu\n", name.c_str(), bar.c_str(),
                     static_cast<unsigned long long>(l.occupancy),
                     static_cast<unsigned long long>(l.d_pushes),
                     static_cast<unsigned long long>(l.d_pops));
  }
  // Busiest filters first (by simulated cycles consumed), top 8.
  std::vector<std::pair<std::string, FilterState>> busy(m.filters.begin(), m.filters.end());
  std::sort(busy.begin(), busy.end(),
            [](const auto& a, const auto& b) { return a.second.cycles > b.second.cycles; });
  if (busy.size() > 8) busy.resize(8);
  scr += "\ntop filters                              firings      cycles\n";
  for (const auto& [path, f] : busy)
    scr += strformat("  %-36s %8llu %11llu\n", path.c_str(),
                     static_cast<unsigned long long>(f.firings),
                     static_cast<unsigned long long>(f.cycles));
  // Worker utilization (parallel backend): share of work vs barrier-wait
  // accumulated from shard.rounds, as a bar per worker.
  if (!m.shard.empty()) {
    scr += strformat(
        "\nworkers (%llu rounds)                 util  dispatches  stalls  skips\n",
        static_cast<unsigned long long>(m.barrier_rounds));
    for (std::size_t i = 0; i < m.shard.size(); ++i) {
      const WorkerState& w = m.shard[i];
      const std::uint64_t denom = w.work_ns + w.wait_ns;
      const double util = denom == 0 ? 0.0 : static_cast<double>(w.work_ns) / denom;
      std::string bar(static_cast<std::size_t>(util * 16.0 + 0.5), '#');
      bar.resize(16, '.');
      scr += strformat("  worker %-2zu [%s] %5.1f%% %11llu %7llu %6llu\n", i, bar.c_str(),
                       util * 100.0, static_cast<unsigned long long>(w.dispatches),
                       static_cast<unsigned long long>(w.stalls),
                       static_cast<unsigned long long>(w.skips));
    }
  }
  scr += "\njournal tail\n";
  for (const std::string& line : m.journal_tail) scr += "  " + line + "\n";
  std::fputs(scr.c_str(), stdout);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::string unix_path;
  std::string session;
  int port = 0;
  int interval_ms = 100;
  bool ansi = true;
  bool do_run = false;
  std::uint64_t max_frames = 0;
  Model model;

  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (a == "--host" && (v = next()) != nullptr) {
      host = v;
    } else if (a == "--port" && (v = next()) != nullptr) {
      port = std::atoi(v);
    } else if (a == "--unix" && (v = next()) != nullptr) {
      unix_path = v;
    } else if (a == "--session" && (v = next()) != nullptr) {
      session = v;
    } else if (a == "--interval" && (v = next()) != nullptr) {
      interval_ms = std::atoi(v);
    } else if (a == "--journal" && (v = next()) != nullptr) {
      model.journal_keep = static_cast<std::size_t>(std::strtoull(v, nullptr, 0));
    } else if (a == "--no-ansi") {
      ansi = false;
    } else if (a == "--run") {
      do_run = true;
    } else if (a == "--max-frames" && (v = next()) != nullptr) {
      max_frames = std::strtoull(v, nullptr, 0);
    } else {
      return usage(argv[0]);
    }
  }
  if (unix_path.empty() && port == 0) return usage(argv[0]);

  int fd = unix_path.empty() ? connect_tcp(host, port) : connect_unix(unix_path);
  if (fd < 0) {
    std::fprintf(stderr, "connect failed: %s\n", std::strerror(errno));
    return 2;
  }

  // Subscribe to every stream, then (optionally) start the run. Responses
  // and notifications interleave; we route on the presence of `id`.
  std::string handshake;
  int next_id = 1;
  if (!session.empty()) {
    // Attach first so capabilities and every subscribe bind to that session.
    bool numeric = session.find_first_not_of("0123456789") == std::string::npos;
    std::string sid = numeric ? session : dfdbg::json_quote(session);
    handshake += strformat(
        "{\"jsonrpc\":\"2.0\",\"id\":%d,\"method\":\"session_attach\",\"params\":{\"session\":%s}}\n",
        next_id++, sid.c_str());
  }
  const int cap_id = next_id;
  handshake += strformat("{\"jsonrpc\":\"2.0\",\"id\":%d,\"method\":\"capabilities\"}\n", next_id++);
  for (const char* stream : {"journal", "info_flow", "stats", "run_events", "shard_rounds"})
    handshake += strformat(
        "{\"jsonrpc\":\"2.0\",\"id\":%d,\"method\":\"subscribe\",\"params\":{\"stream\":\"%s\"}}\n",
        next_id++, stream);
  const int run_id = next_id;
  if (do_run) handshake += strformat("{\"jsonrpc\":\"2.0\",\"id\":%d,\"method\":\"run\"}\n", next_id++);
  if (!send_all(fd, handshake)) {
    std::fprintf(stderr, "send failed\n");
    close(fd);
    return 2;
  }

  std::string spill;
  std::string frame;
  auto last_paint = std::chrono::steady_clock::now() - std::chrono::hours(1);
  int rc = 0;
  while (read_frame(fd, spill, frame)) {
    auto parsed = JsonValue::parse(frame);
    if (!parsed.ok() || !parsed->is_object()) continue;
    const JsonValue* id = parsed->find("id");
    bool done = false;
    if (id == nullptr) {
      apply_notification(model, *parsed);
    } else {
      if (parsed->find("error") != nullptr) {
        std::fprintf(stderr, "error response: %s\n", frame.c_str());
        rc = 1;
      }
      if (id->as_i64() == cap_id) {
        if (const JsonValue* r = parsed->find("result"); r != nullptr) {
          model.backend = r->str_or("backend");
          model.workers = r->u64_or("workers", 0);
        }
      }
      // The `run` response means the simulation ended: final paint + exit.
      if (do_run && id->as_i64() == run_id) done = true;
    }
    if (max_frames != 0 && model.frames >= max_frames) done = true;
    auto now = std::chrono::steady_clock::now();
    if (done || now - last_paint >= std::chrono::milliseconds(interval_ms)) {
      render(model, ansi);
      last_paint = now;
    }
    if (done) break;
  }
  close(fd);
  return rc;
}
