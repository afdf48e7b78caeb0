// The mhs_serve event loop: a poll()-based HTTP/1.1 server that speaks
// the svc::Request/Response schema.
//
// Architecture (one of the classic event-driven service shapes): a
// single event-loop thread owns every socket and all session state; a
// small worker pool evaluates requests (the expensive part — flows,
// sweeps, co-simulations) off the loop; finished responses come back
// through a completion queue and a self-pipe wakeup. Admission control
// is explicit and layered:
//
//   * connection limit — an accept beyond max_connections is answered
//     503 and closed immediately;
//   * bounded work queue — a request arriving while max_queue requests
//     await a worker is answered 503 without being queued;
//   * per-session serialization — one request in flight per connection
//     (HTTP/1.1 semantics); pipelined requests are buffered and served
//     in order.
//
// Replay mode (workers = 0) evaluates every request inline on the loop
// thread in arrival order — fully deterministic, the configuration the
// parity and replay tests use.
//
// The loop counts what it does in the process-wide obs registry:
// serve.accepted, serve.conn_rejected, serve.served (responses written,
// any status), serve.overloaded (503s at the queue bound) and
// serve.parse_errors (HTTP-level 400/413/501 answers), next to its
// serve.*_us histograms. With no registry installed they are not kept.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/obs.h"
#include "svc/api.h"
#include "svc/http.h"
#include "svc/recorder.h"

namespace mhs::svc {

struct ServerConfig {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral (the bound port is reported by port()).
  std::uint16_t port = 0;
  /// Concurrent connections admitted; the next accept is a 503.
  std::size_t max_connections = 64;
  /// Requests allowed to wait for a worker; beyond this, 503.
  std::size_t max_queue = 128;
  /// Worker threads. 0 = deterministic replay mode: requests are
  /// evaluated inline on the event loop in arrival order.
  std::size_t workers = 4;
  HttpParser::Limits limits;

  // ------------------------------------------------- observability knobs
  /// Flight-recorder ring size: the last N completed requests kept for
  /// GET /v1/requests.
  std::size_t recorder_entries = 256;
  /// Chrome traces kept FIFO for GET /v1/trace/<id>.
  std::size_t trace_entries = 64;
  /// Slowest traces pinned past FIFO eviction.
  std::size_t pinned_traces = 16;
  /// Requests at or above this end-to-end latency compete for a pinned
  /// trace seat (0 = no pinning).
  std::uint64_t slow_trace_us = 0;
  /// Give each request its own obs::Registry, handed to the handler as
  /// TraceContext::sink (merged into the global registry once the
  /// request completes). Off: the sink is null and no trace is kept.
  bool request_tracing = true;
  /// Renders GET /v1/metrics?format=prometheus (text exposition format);
  /// unset = that query answers with the JSON form.
  std::function<std::string()> metrics_text;
};

class Server {
 public:
  /// What evaluates a routed request — normally Dispatcher::handle
  /// bound to a dispatcher, but any callable (tests install blocking
  /// handlers to pin the queue full). The server mints a TraceContext
  /// per request (trace id, plus a per-request registry when
  /// request_tracing is on) and collects the RequestOutcome for the
  /// flight recorder.
  using TracedHandler = std::function<Response(
      const Request&, const obs::TraceContext&, RequestOutcome*)>;

  Server(ServerConfig config, TracedHandler handler);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the loop (and workers). False with the
  /// reason in *error when the socket setup fails.
  bool start(std::string* error);

  /// Stops the loop and workers and closes every connection. Safe to
  /// call twice; also called by the destructor.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port (after start(); resolves port 0 to the real one).
  std::uint16_t port() const { return port_; }
  const ServerConfig& config() const { return config_; }
  bool replay() const { return config_.workers == 0; }

  /// The flight recorder (also behind GET /v1/requests). Safe to read
  /// from any thread while the server runs.
  const FlightRecorder& recorder() const { return recorder_; }

 private:
  struct Session {
    HttpParser parser;
    std::uint64_t generation = 0;
    std::string outbox;       ///< unwritten response bytes
    std::size_t out_pos = 0;  ///< written prefix of outbox
    bool busy = false;        ///< a request from this session is in flight
    bool close_after = false; ///< close once the outbox drains
    /// obs-clock stamp of the first byte of the message being parsed
    /// (0 = none seen yet); the parse_us recorder bucket.
    double first_byte_us = 0.0;
  };
  struct Job {
    int fd = -1;
    std::uint64_t generation = 0;
    Request request;
    bool keep_alive = true;
    std::string trace_id;
    std::uint64_t parse_us = 0;
    double admitted_us = 0.0;  ///< obs-clock time route() admitted it
    /// Per-request registry (null = untraced); travels to the worker,
    /// which records into it and renders and merges it (evaluate()).
    std::unique_ptr<obs::Registry> trace_registry;
  };
  /// One finished request on its way back to the loop thread — also the
  /// uniform argument of finish() for inline (replay / server-owned /
  /// error) responses.
  struct Completion {
    int fd = -1;
    std::uint64_t generation = 0;
    int status = 200;
    std::string body;
    bool keep_alive = true;
    std::string content_type = "application/json";
    std::string trace_id;   ///< "" = no X-Mhs-Trace header, not recorded
    std::string endpoint;
    std::uint64_t parse_us = 0;
    std::uint64_t queue_us = 0;
    std::uint64_t dispatch_us = 0;
    RequestOutcome outcome;
    /// The request's rendered Chrome trace ("" = untraced). Rendered —
    /// and the per-request registry merged into the global one — by the
    /// completion's producer (worker thread), so the loop thread never
    /// pays for trace serialization.
    std::string chrome_json;
  };

  void loop();
  void worker();
  void wake();
  void accept_ready();
  void read_ready(int fd, Session& session, std::vector<int>& dead);
  void write_ready(int fd, Session& session, std::vector<int>& dead);
  /// Routes the session's parsed request: immediate error responses are
  /// queued on the outbox; work is dispatched inline (replay) or to the
  /// worker pool.
  void route(int fd, Session& session);
  void respond(Session& session, int status, const std::string& body,
               bool keep_alive);
  /// Queues the response on the session outbox (X-Mhs-Trace stamped when
  /// the request was traced), publishes the flight-recorder entry, and
  /// stores the pre-rendered Chrome trace. Loop thread only.
  void finish(Session& session, Completion& c);
  /// Runs the handler for one routed request under its TraceContext and
  /// fills `c`'s dispatch time, status, endpoint, body and outcome; when
  /// traced, also renders the Chrome trace and merges the per-request
  /// registry into obs::global_registry(). The one completion path of
  /// workers and of replay mode.
  void evaluate(const Request& request, double admitted_us,
                obs::Registry* trace_registry, Completion& c);
  void drain_completions(std::vector<int>& dead);
  void flush(int fd, Session& session, std::vector<int>& dead);

  ServerConfig config_;
  TracedHandler handler_;
  int listen_fd_ = -1;
  int wake_read_ = -1;
  int wake_write_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::thread loop_thread_;
  std::vector<std::thread> workers_;

  std::unordered_map<int, std::unique_ptr<Session>> sessions_;
  std::uint64_t next_generation_ = 1;

  FlightRecorder recorder_;
  TraceStore traces_;              ///< loop thread only
  std::uint64_t next_trace_ = 1;   ///< loop thread only
  double poll_return_us_ = 0.0;    ///< loop thread only (accept_wait_us)

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;

  std::mutex completion_mutex_;
  std::vector<Completion> completions_;
};

}  // namespace mhs::svc
