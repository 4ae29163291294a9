// The remote arm: a DebugServer with the default config (one poll loop)
// serves a decoder session on the main thread while a client thread drives
// it over TCP loopback with two connections — a control connection issuing verbs and a
// subscriber to the journal and run-event streams. The same verb script
// also runs through DebugServer::handle_frame with no socket, which splits
// a round trip into server time and socket/poll time.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <cerrno>
#include <functional>
#include <thread>

#include "dfdbg/debug/session.hpp"
#include "dfdbg/obs/journal.hpp"
#include "dfdbg/obs/metrics.hpp"
#include "dfdbg/server/server.hpp"
#include "runner.hpp"

namespace perfbench {

using namespace dfdbg;

namespace {

constexpr int kReplyTimeoutMs = 10000;
constexpr const char* kInjectIface = "pipe::MbType_in";

/// One newline-framed JSON-RPC connection to the server.
class Conn {
 public:
  explicit Conn(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] bool ok() const { return fd_ >= 0; }

  bool send_all(std::string_view s) {
    while (!s.empty()) {
      ssize_t n = ::send(fd_, s.data(), s.size(), MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      s.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
  }
  /// Reads what the socket holds; false on EOF or error.
  bool read_some() {
    char chunk[1 << 16];
    ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) return true;
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }
  /// Pops the next complete frame, if one is buffered.
  bool next_frame(std::string* out) {
    std::size_t nl = buf_.find('\n', head_);
    if (nl == std::string::npos) {
      if (head_ > 0) {
        buf_.erase(0, head_);
        head_ = 0;
      }
      return false;
    }
    out->assign(buf_, head_, nl - head_);
    head_ = nl + 1;
    return true;
  }

 private:
  int fd_ = -1;
  std::string buf_;
  std::size_t head_ = 0;
};

/// Sends one request and returns the parsed response (id and result
/// checked), or an error. `us` receives the round-trip time.
using Call = std::function<std::string(std::string_view method, std::string_view params,
                                       JsonValue* doc, double* us, std::size_t* bytes)>;

/// One JSON-RPC request frame, without the trailing newline.
std::string request_frame(std::uint64_t id, std::string_view method, std::string_view params) {
  return R"({"jsonrpc":"2.0","id":)" + std::to_string(id) + R"(,"method":")" +
         std::string(method) + R"(","params":)" + std::string(params) + "}";
}

/// Reads an info_links result into link counts, crediting `removed` tokens
/// to the link that feeds kInjectIface (whose row index lands in `inject`).
std::string links_of(const JsonValue& doc, std::uint64_t removed, std::vector<LinkCount>* out,
                     std::size_t* inject) {
  out->clear();
  *inject = SIZE_MAX;
  const JsonValue* links = doc.find("result")->find("links");
  if (links == nullptr) return "info_links result has no links";
  for (std::size_t i = 0; i < links->size(); ++i) {
    const JsonValue& l = links->at(i);
    LinkCount c{l.str_or("name"), l.u64_or("pushes"), l.u64_or("pops"), 0, l.u64_or("occupancy")};
    if (c.name.ends_with(std::string("-> ") + kInjectIface)) {
      c.removed = removed;
      *inject = out->size();
    }
    out->push_back(std::move(c));
  }
  if (*inject == SIZE_MAX) return std::string("no link feeds ") + kInjectIface;
  return check_conservation(*out);
}

/// The verb script of one debug session over `call`: catch every ipf
/// firing; at each stop read the links, follow a queued token back to its
/// origin, inject a token and remove it again, then resume. Checks every
/// response; returns the first failure. `stops` counts the stops reported.
std::string drive_decode(const Call& call,
                         const std::function<void(const char*, double, std::size_t)>& record,
                         std::uint64_t* stops) {
  JsonValue doc;
  double us = 0;
  std::size_t bytes = 0;
  std::string err = call("catch_work", R"({"filter":"ipf"})", &doc, &us, &bytes);
  if (!err.empty()) return err;
  std::uint64_t removed = 0;
  for (;;) {
    if (err = call("run", "{}", &doc, &us, &bytes); !err.empty()) return err;
    const JsonValue& res = *doc.find("result");
    const std::string outcome = res.str_or("result");
    if (outcome == "finished") return {};
    if (outcome != "stopped") return "remote run ended " + outcome;
    *stops += res.find("stops") != nullptr ? res.find("stops")->size() : 0;

    // Read the links: conservation must hold, and one link holding tokens
    // is the whence target.
    if (err = call("info_links", "{}", &doc, &us, &bytes); !err.empty()) return err;
    record("info_links", us, bytes);
    std::size_t inj = SIZE_MAX;
    std::vector<LinkCount> before;
    if (err = links_of(doc, removed, &before, &inj); !err.empty()) return err;
    for (const LinkCount& l : before) {
      if (l.occupancy == 0) continue;
      const std::string iface = l.name.substr(l.name.find("-> ") + 3);
      if (err = call("whence", R"({"iface":)" + json_quote(iface) + "}", &doc, &us, &bytes);
          !err.empty())
        return err;
      if (doc.find("result")->find("hops") == nullptr) return "whence on " + iface + " has no hops";
      record("whence", us, bytes);
      break;
    }

    // Inject raises the occupancy by exactly one; remove restores it.
    const std::string iface = std::string(R"({"iface":")") + kInjectIface + "\"";
    if (err = call("inject", iface + R"(,"value":"7"})", &doc, &us, &bytes); !err.empty())
      return err;
    record("inject", us, bytes);
    if (err = call("info_links", "{}", &doc, &us, &bytes); !err.empty()) return err;
    record("info_links", us, bytes);
    std::vector<LinkCount> injected;
    if (err = links_of(doc, removed, &injected, &inj); !err.empty()) return err;
    if (err = call("remove", iface + R"(,"slot":)" + std::to_string(before[inj].occupancy) + "}",
                   &doc, &us, &bytes);
        !err.empty())
      return err;
    ++removed;
    if (err = call("info_links", "{}", &doc, &us, &bytes); !err.empty()) return err;
    record("info_links", us, bytes);
    std::vector<LinkCount> restored;
    if (err = links_of(doc, removed, &restored, &inj); !err.empty()) return err;
    if (err = check_inject_remove(before[inj].occupancy, injected[inj].occupancy,
                                  restored[inj].occupancy);
        !err.empty())
      return err;
  }
}

/// What the client thread hands back to the main thread after join.
struct ClientResult {
  std::string error;
  SampleMap times;  ///< session_decode_ms and the per-verb round trips
  SampleMap layer;  ///< response sizes
  std::uint64_t stops = 0;
  std::uint64_t run_events = 0;
  JournalTally journal;
};

/// Span names of the client's requests (spans keep static names).
const char* span_name(std::string_view method) {
  for (const char* m : {"ping", "subscribe", "catch_work", "run", "info_links", "whence", "inject",
                        "remove", "session_list"})
    if (method == m) return m;
  return "request";
}

class Client {
 public:
  Client(int port, ClientResult* out, Tracer* spans)
      : port_(port), control_(port), sub_(port), out_(out), spans_(spans) {}

  /// The whole remote session; always ends by asking the server to shut
  /// down, so the serving thread returns even when a check failed.
  void run(int macroblocks, bool setup_only) {
    out_->error = session(macroblocks, setup_only);
    // A fresh connection, so a half-read reply on the control connection cannot hide
    // the acknowledgement; wait for it (or the close) before returning.
    Conn c(port_);
    if (!c.send_all(R"({"jsonrpc":"2.0","id":0,"method":"shutdown"})" "\n")) return;
    pollfd p{c.fd(), POLLIN, 0};
    if (::poll(&p, 1, kReplyTimeoutMs) > 0) c.read_some();
  }

 private:
  std::string session(int macroblocks, bool setup_only) {
    if (!control_.ok() || !sub_.ok()) return "cannot connect to the debug server";
    JsonValue doc;
    double us = 0;
    std::size_t bytes = 0;
    if (std::string e = request(control_, "ping", "{}", &doc, &us, &bytes); !e.empty()) return e;
    if (setup_only) return {};

    if (std::string e = request(sub_, "subscribe", R"({"stream":"journal"})", &doc, &us, &bytes);
        !e.empty())
      return e;
    out_->journal.start = out_->journal.next = doc.find("result")->u64_or("cursor");
    if (std::string e = request(sub_, "subscribe", R"({"stream":"run_events"})", &doc, &us, &bytes);
        !e.empty())
      return e;

    Call call = [this](std::string_view m, std::string_view p, JsonValue* d, double* u,
                       std::size_t* b) { return request(control_, m, p, d, u, b); };
    const std::int64_t t0 = now_ns();
    std::string e = drive_decode(
        call,
        [this](const char* verb, double rtt, std::size_t sz) {
          out_->times[std::string(verb) + "_rtt_us"].add(rtt);
          if (std::string_view(verb) != "inject")
            out_->layer[std::string("server.response_bytes.") + verb].add(static_cast<double>(sz));
        },
        &out_->stops);
    const double ms = static_cast<double>(now_ns() - t0) / 1e6;
    const std::string short_stops =
        check_count("remote stops", out_->stops, static_cast<std::uint64_t>(macroblocks));
    if (!e.empty() || !short_stops.empty())
      return e + (e.empty() || short_stops.empty() ? "" : "; ") + short_stops;
    out_->times["session_decode_ms"].add(ms);

    // The journal stream must catch up with what the session recorded.
    if (e = request(control_, "session_list", "{}", &doc, &us, &bytes); !e.empty()) return e;
    const JsonValue* sessions = doc.find("result")->find("sessions");
    if (sessions == nullptr || sessions->size() != 1) return "session_list lists no single session";
    const std::uint64_t recorded = sessions->at(0).u64_or("journal_events");
    const std::int64_t deadline = now_ns() + std::int64_t{kReplyTimeoutMs} * 1000000;
    while (out_->journal.next < recorded && now_ns() < deadline) {
      if (!pump(nullptr, 100)) return "subscriber connection lost";
    }
    return check_journal(out_->journal, recorded);
  }

  /// One request on `c`; serves pushed frames on the subscriber meanwhile.
  std::string request(Conn& c, std::string_view method, std::string_view params, JsonValue* doc,
                      double* us, std::size_t* bytes) {
    const std::uint64_t id = next_id_++;
    const std::string frame = request_frame(id, method, params) + "\n";
    Tracer::Scope span(spans_, span_name(method));
    const std::int64_t t0 = now_ns();
    if (!c.send_all(frame)) return "send failed for " + std::string(method);
    std::string reply;
    for (;;) {
      if (&c == &sub_) {
        // Replies on the subscriber interleave with notifications.
        bool got = false;
        std::string f;
        while (sub_.next_frame(&f)) {
          if (f.find(R"("id":)") != std::string::npos &&
              f.find(R"("method":)") == std::string::npos) {
            reply = std::move(f);
            got = true;
            break;
          }
          on_push(f);
        }
        if (got) break;
      } else if (c.next_frame(&reply)) {
        break;
      }
      if (!pump(&c, kReplyTimeoutMs)) return "no reply to " + std::string(method);
    }
    *us = static_cast<double>(now_ns() - t0) / 1e3;
    *bytes = reply.size();
    return check_response(reply, id, doc);
  }

  /// Waits up to `timeout_ms` for input on the subscriber and on `c`
  /// (optional), reads it and handles pushed frames. False on a lost
  /// connection or a timeout while waiting for `c`.
  bool pump(Conn* c, int timeout_ms) {
    pollfd p[2] = {{sub_.fd(), POLLIN, 0}, {c != nullptr ? c->fd() : -1, POLLIN, 0}};
    int n = ::poll(p, c != nullptr && c != &sub_ ? 2 : 1, timeout_ms);
    if (n < 0) return errno == EINTR;
    if (n == 0) return c == nullptr;
    if ((p[0].revents & (POLLIN | POLLHUP)) != 0) {
      if (!sub_.read_some()) return false;
      if (c != &sub_) {
        std::string f;
        while (sub_.next_frame(&f)) on_push(f);
      }
    }
    if (c != nullptr && c != &sub_ && (p[1].revents & (POLLIN | POLLHUP)) != 0)
      return c->read_some();
    return true;
  }

  void on_push(std::string_view f) {
    if (f.find(R"("method":"journal.delta")") != std::string_view::npos) {
      tally_journal_delta(f, &out_->journal);
    } else if (f.find(R"("method":"run.event")") != std::string_view::npos) {
      ++out_->run_events;
    }
  }

  int port_;
  Conn control_;
  Conn sub_;
  ClientResult* out_;
  Tracer* spans_;
  std::uint64_t next_id_ = 1;
};

}  // namespace

std::string Runner::remote_session(bool traced) { return remote(traced, false); }

std::string Runner::remote(bool traced, bool setup_only) {
  Tracer* t = spans(traced);
  Tracer::Scope op(t, setup_only ? "op.remote_setup" : "op.remote_session");
  auto built = h264::H264App::build(w_.decoder_config());
  if (!built.ok()) return "decoder build failed: " + built.status().message();
  h264::H264App& app = **built;
  dbg::Session session(app.app());
  session.attach();
  app.start();

  auto& reg = obs::Registry::global();
  const std::uint64_t notes0 = reg.counter("server.sub.notifications").value();
  const std::uint64_t dropped0 = reg.counter("server.sub.dropped").value();
  server::DebugServer server(session);  // default config; turns obs on
  auto port = server.listen_tcp("127.0.0.1", 0);
  if (!port.ok()) return "listen failed: " + port.status().message();

  ClientResult out;
  Tracer client_spans(2);
  client_spans.join_op(t != nullptr ? t->op() : 0);
  std::thread client([&, p = *port] {
    Client c(p, &out, traced ? &client_spans : nullptr);
    c.run(w_.macroblocks(), setup_only);
  });
  Status served;
  {
    Tracer::Scope span(t, "server.serve");
    served = server.serve();
  }
  client.join();
  obs::set_enabled(false);
  if (t != nullptr) t->absorb(client_spans);
  if (setup_only) return out.error;

  for (auto& [name, s] : out.times) {
    Samples& dst = times(traced)[name];
    for (double v : s.values()) dst.add(v);
  }
  for (auto& [name, s] : out.layer) {
    Samples& dst = layer_[name];
    for (double v : s.values()) dst.add(v);
  }
  layer_["server.notifications"].add(
      static_cast<double>(reg.counter("server.sub.notifications").value() - notes0));
  layer_["server.sub_dropped"].add(
      static_cast<double>(reg.counter("server.sub.dropped").value() - dropped0));

  std::string err = out.error;
  for (const std::string& e :
       {served.ok() ? std::string() : "serve failed: " + served.message(),
        check_count("run events", out.run_events, out.stops + 1),
        check_journal(out.journal, obs::Journal::global().cursor()),
        check_frames(app.store().decoded, want_frames_)})
    if (!e.empty()) err += (err.empty() ? "" : "; ") + e;
  return err;
}

std::string Runner::loopback_echo(bool traced) {
  constexpr int kEchoes = 256;
  Tracer::Scope op(spans(traced), "op.loopback_echo");
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  if (lfd < 0 || ::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(lfd, 1) != 0 || ::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    if (lfd >= 0) ::close(lfd);
    return "echo listen failed";
  }
  // The echo side waits in poll() and answers each line, as the server's
  // poll loop does; it ends when the client closes.
  std::thread echo([lfd] {
    const int fd = ::accept(lfd, nullptr, nullptr);
    if (fd < 0) return;
    char buf[4096];
    for (;;) {
      pollfd p{fd, POLLIN, 0};
      if (::poll(&p, 1, kReplyTimeoutMs) <= 0) break;
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n <= 0 || ::send(fd, buf, static_cast<std::size_t>(n), MSG_NOSIGNAL) != n) break;
    }
    ::close(fd);
  });
  std::string err;
  {
    Conn c(ntohs(addr.sin_port));
    const std::string line = request_frame(0, "ping", "{}") + "\n";
    Samples& rtt = times(traced)["echo_rtt_us"];
    std::string reply;
    for (int i = 0; i < kEchoes && err.empty(); ++i) {
      const std::int64_t t0 = now_ns();
      if (!c.send_all(line)) err = "echo send failed";
      while (err.empty() && !c.next_frame(&reply)) {
        pollfd p{c.fd(), POLLIN, 0};
        if (::poll(&p, 1, kReplyTimeoutMs) <= 0 || !c.read_some()) err = "no echo";
      }
      rtt.add(static_cast<double>(now_ns() - t0) / 1e3);
      if (err.empty() && reply + "\n" != line) err = "echo differs from what was sent";
    }
  }
  echo.join();
  ::close(lfd);
  return err;
}

std::string Runner::inproc_session(bool traced) {
  Tracer* t = spans(traced);
  Tracer::Scope op(t, "op.inproc_session");
  auto built = h264::H264App::build(w_.decoder_config());
  if (!built.ok()) return "decoder build failed: " + built.status().message();
  h264::H264App& app = **built;
  dbg::Session session(app.app());
  session.attach();
  app.start();
  server::DebugServer server(session);  // never listens: handle_frame only; turns obs on
  std::uint64_t id = 0;
  Call call = [&](std::string_view method, std::string_view params, JsonValue* doc, double* us,
                  std::size_t* bytes) {
    ++id;
    const std::string frame = request_frame(id, method, params);
    Tracer::Scope span(t, span_name(method));
    const std::int64_t t0 = now_ns();
    const std::string reply = server.handle_frame(frame);
    *us = static_cast<double>(now_ns() - t0) / 1e3;
    *bytes = reply.size();
    return check_response(reply, id, doc);
  };
  std::uint64_t stops = 0;
  std::string err = drive_decode(
      call,
      [this](const char* verb, double us, std::size_t) {
        layer_[std::string("server.handle_frame_us.") + verb].add(us);
      },
      &stops);
  obs::set_enabled(false);
  for (const std::string& e :
       {check_count("in-process stops", stops, static_cast<std::uint64_t>(w_.macroblocks())),
        check_frames(app.store().decoded, want_frames_)})
    if (!e.empty()) err += (err.empty() ? "" : "; ") + e;
  return err;
}

}  // namespace perfbench
