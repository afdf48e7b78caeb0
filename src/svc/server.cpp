#include "svc/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <utility>

namespace mhs::svc {
namespace {

bool set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Non-negative microsecond delta on the obs clock.
std::uint64_t us_since(double start_us) {
  const double delta = obs::now_us() - start_us;
  return delta <= 0.0 ? 0 : static_cast<std::uint64_t>(std::llround(delta));
}

/// Best-effort blocking send of a whole buffer (used only for the tiny
/// 503 answer to an over-limit connection).
void send_all(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return;
    sent += static_cast<std::size_t>(n);
  }
}

}  // namespace

Server::Server(ServerConfig config, TracedHandler handler)
    : config_(std::move(config)),
      handler_(std::move(handler)),
      recorder_(config_.recorder_entries),
      traces_(config_.trace_entries, config_.pinned_traces,
              config_.slow_trace_us) {}

Server::~Server() { stop(); }

bool Server::start(std::string* error) {
  auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what + ": " + std::strerror(errno);
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (wake_read_ >= 0) ::close(wake_read_);
    if (wake_write_ >= 0) ::close(wake_write_);
    listen_fd_ = wake_read_ = wake_write_ = -1;
    return false;
  };

  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return fail("socket");
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    errno = EINVAL;
    return fail("inet_pton(" + config_.host + ")");
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return fail("bind");
  }
  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return fail("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  if (listen(listen_fd_, 64) != 0) return fail("listen");
  if (!set_nonblocking(listen_fd_)) return fail("fcntl(listen)");

  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) return fail("pipe");
  wake_read_ = pipe_fds[0];
  wake_write_ = pipe_fds[1];
  set_nonblocking(wake_read_);
  set_nonblocking(wake_write_);

  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker(); });
  }
  loop_thread_ = std::thread([this] { loop(); });
  return true;
}

void Server::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  wake();
  if (loop_thread_.joinable()) loop_thread_.join();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    queue_.clear();
  }
  queue_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  for (auto& [fd, session] : sessions_) ::close(fd);
  sessions_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_read_ >= 0) ::close(wake_read_);
  if (wake_write_ >= 0) ::close(wake_write_);
  listen_fd_ = wake_read_ = wake_write_ = -1;
}

void Server::wake() {
  if (wake_write_ < 0) return;
  const char byte = 1;
  [[maybe_unused]] const ssize_t n =
      write(wake_write_, &byte, 1);  // EAGAIN is fine: a wakeup is pending
}

void Server::worker() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] {
        return stopping_.load(std::memory_order_acquire) || !queue_.empty();
      });
      if (stopping_.load(std::memory_order_acquire)) return;
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    Completion c;
    c.fd = job.fd;
    c.generation = job.generation;
    c.keep_alive = job.keep_alive;
    c.trace_id = std::move(job.trace_id);
    c.parse_us = job.parse_us;
    c.queue_us = us_since(job.admitted_us);
    evaluate(job.request, job.admitted_us, job.trace_registry.get(), c);
    {
      std::lock_guard<std::mutex> lock(completion_mutex_);
      completions_.push_back(std::move(c));
    }
    wake();
  }
}

void Server::evaluate(const Request& request, double admitted_us,
                      obs::Registry* trace_registry, Completion& c) {
  obs::TraceContext trace;
  trace.trace_id = c.trace_id;
  trace.sink = trace_registry;
  trace.start_us = admitted_us;
  const double dispatch_start = obs::now_us();
  const Response response = handler_(request, trace, &c.outcome);
  c.dispatch_us = us_since(dispatch_start);
  c.status = response.status;
  c.endpoint = response.endpoint;
  c.body = response.json();
  if (trace_registry != nullptr) {
    // Render the trace and fold the per-request registry into the
    // process-wide one here, on the producer: both are linear in the
    // event count, and doing them on the loop thread would serialize
    // every connection behind each completion's bookkeeping.
    c.chrome_json = trace_registry->chrome_trace_json();
    if (obs::Registry* global = obs::global_registry()) {
      global->merge_from(*trace_registry);
    }
  }
}

void Server::respond(Session& session, int status, const std::string& body,
                     bool keep_alive) {
  session.outbox += http_response(status, body, keep_alive);
  session.close_after = session.close_after || !keep_alive;
  obs::count("serve.served");
}

void Server::finish(Session& session, Completion& c) {
  const double respond_start = obs::now_us();
  std::vector<std::pair<std::string, std::string>> extra;
  if (!c.trace_id.empty()) extra.emplace_back("X-Mhs-Trace", c.trace_id);
  session.outbox +=
      http_response(c.status, c.body, c.keep_alive, c.content_type, extra);
  session.close_after = session.close_after || !c.keep_alive;
  obs::count("serve.served");
  const std::uint64_t respond_us = us_since(respond_start);

  obs::observe("serve.parse_us", c.parse_us);
  obs::observe("serve.queue_wait_us", c.queue_us);
  obs::observe("serve.dispatch_us", c.dispatch_us);

  if (!c.trace_id.empty()) {
    RecordedRequest rec;
    rec.trace_id = c.trace_id;
    rec.endpoint = c.endpoint;
    rec.status = c.status;
    rec.parse_us = c.parse_us;
    rec.queue_us = c.queue_us;
    rec.dispatch_us = c.dispatch_us;
    rec.respond_us = respond_us;
    // Stored as the exact bucket sum so the breakdown reconciles with
    // the end-to-end figure by construction.
    rec.total_us = rec.parse_us + rec.queue_us + rec.dispatch_us +
                   rec.respond_us;
    rec.cache_hit = c.outcome.cache_hit;
    rec.coalesced = c.outcome.coalesced;
    rec.profile = std::move(c.outcome.profile);
    recorder_.record(rec);

    if (!c.chrome_json.empty()) {
      traces_.store(c.trace_id, std::move(c.chrome_json), rec.total_us);
    }
  }
}

void Server::route(int fd, Session& session) {
  // Serve one request per connection at a time; further pipelined
  // requests stay buffered until the response is out.
  while (!session.busy && session.parser.done()) {
    const HttpRequest& http = session.parser.request();
    const bool keep_alive = http.keep_alive();
    const double admitted_us = obs::now_us();
    const std::uint64_t parse_us =
        session.first_byte_us > 0.0 ? us_since(session.first_byte_us) : 0;
    session.first_byte_us = 0.0;
    const std::string target = http.target;
    const std::string path(path_without_query(target));

    // ---- server-owned observability endpoints. These live outside the
    // Endpoint enum — they answer about this server instance (its
    // flight recorder and trace store), not about the request schema.
    const std::optional<std::string_view> trace_ref = parse_trace_path(path);
    if (path == "/v1/requests" || trace_ref.has_value()) {
      const char* owned = trace_ref.has_value() ? "trace" : "requests";
      if (http.method != "GET") {
        respond(session, 405,
                Response::failure(405, owned, "use GET " + path).json(),
                keep_alive);
        session.parser.reset();
        continue;
      }
      Completion c;
      c.keep_alive = keep_alive;
      c.trace_id = "r" + std::to_string(next_trace_++);
      c.endpoint = owned;
      c.parse_us = parse_us;
      const double dispatch_start = obs::now_us();
      Response answer;
      answer.endpoint = owned;
      if (!trace_ref.has_value()) {
        answer.result_json = recorder_.json();
      } else if (const std::string* trace = traces_.find(std::string(*trace_ref))) {
        answer.result_json = *trace;
      } else {
        answer = Response::failure(
            404, owned, "unknown trace id '" + std::string(*trace_ref) + "'");
      }
      c.status = answer.status;
      c.body = answer.json();
      c.dispatch_us = us_since(dispatch_start);
      session.parser.reset();
      finish(session, c);
      continue;
    }

    // ---- the Prometheus form of /v1/metrics, rendered synchronously by
    // the config callback (unset: the query falls through to the JSON
    // form).
    if (path == "/v1/metrics" && http.method == "GET" &&
        config_.metrics_text != nullptr &&
        target.find("format=prometheus") != std::string::npos) {
      Completion c;
      c.keep_alive = keep_alive;
      c.trace_id = "r" + std::to_string(next_trace_++);
      c.endpoint = "metrics";
      c.parse_us = parse_us;
      c.content_type = "text/plain; version=0.0.4";
      const double dispatch_start = obs::now_us();
      c.body = config_.metrics_text();
      c.dispatch_us = us_since(dispatch_start);
      session.parser.reset();
      finish(session, c);
      continue;
    }

    const std::optional<Endpoint> endpoint = endpoint_from_path(path);
    if (!endpoint) {
      respond(session, 404,
              Response::failure(404, "", "unknown path " + target).json(),
              keep_alive);
      session.parser.reset();
      continue;
    }
    if (http.method != endpoint_method(*endpoint)) {
      respond(session, 405,
              Response::failure(405, endpoint_name(*endpoint),
                                std::string("use ") +
                                    endpoint_method(*endpoint) + " " +
                                    endpoint_path(*endpoint))
                  .json(),
              keep_alive);
      session.parser.reset();
      continue;
    }

    Request request;
    if (http.method == "GET") {
      request.endpoint = *endpoint;
    } else {
      std::string parse_error;
      std::optional<Request> parsed =
          Request::from_json(http.body, &parse_error);
      if (!parsed) {
        respond(session, 400,
                Response::failure(400, endpoint_name(*endpoint), parse_error)
                    .json(),
                keep_alive);
        session.parser.reset();
        continue;
      }
      if (parsed->endpoint != *endpoint) {
        respond(session, 400,
                Response::failure(
                    400, endpoint_name(*endpoint),
                    std::string("body endpoint '") +
                        endpoint_name(parsed->endpoint) +
                        "' does not match " + target)
                    .json(),
                keep_alive);
        session.parser.reset();
        continue;
      }
      request = std::move(*parsed);
    }
    session.parser.reset();

    std::string trace_id = "r" + std::to_string(next_trace_++);
    std::unique_ptr<obs::Registry> trace_registry;
    if (config_.request_tracing) {
      trace_registry = std::make_unique<obs::Registry>();
    }

    if (replay()) {
      Completion c;
      c.keep_alive = keep_alive;
      c.trace_id = std::move(trace_id);
      c.parse_us = parse_us;
      evaluate(request, admitted_us, trace_registry.get(), c);
      finish(session, c);
      continue;
    }

    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      if (queue_.size() >= config_.max_queue) {
        obs::count("serve.overloaded");
        respond(session, 503,
                Response::failure(503, endpoint_name(*endpoint),
                                  "server overloaded (queue full)")
                    .json(),
                keep_alive);
        continue;
      }
      Job job;
      job.fd = fd;
      job.generation = session.generation;
      job.request = std::move(request);
      job.keep_alive = keep_alive;
      job.trace_id = std::move(trace_id);
      job.parse_us = parse_us;
      job.admitted_us = admitted_us;
      job.trace_registry = std::move(trace_registry);
      queue_.push_back(std::move(job));
    }
    session.busy = true;
    queue_cv_.notify_one();
  }
}

void Server::accept_ready() {
  for (;;) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: try again on poll
    if (sessions_.size() >= config_.max_connections) {
      obs::count("serve.conn_rejected");
      send_all(fd, http_response(
                       503,
                       Response::failure(503, "",
                                         "connection limit reached")
                           .json(),
                       /*keep_alive=*/false));
      ::close(fd);
      continue;
    }
    set_nonblocking(fd);
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto session = std::make_unique<Session>();
    session->parser = HttpParser(config_.limits);
    session->generation = next_generation_++;
    sessions_.emplace(fd, std::move(session));
    obs::count("serve.accepted");
    // How long the accept sat behind the poll() return — the loop's
    // accept latency under load.
    obs::observe("serve.accept_wait_us", us_since(poll_return_us_));
  }
}

void Server::read_ready(int fd, Session& session, std::vector<int>& dead) {
  char buf[4096];
  for (;;) {
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      if (session.first_byte_us == 0.0) session.first_byte_us = obs::now_us();
      if (!session.parser.consume(std::string_view(buf, static_cast<std::size_t>(n)))) {
        obs::count("serve.parse_errors");
        respond(session, session.parser.error_status(),
                Response::failure(session.parser.error_status(), "",
                                  session.parser.error_reason())
                    .json(),
                /*keep_alive=*/false);
        flush(fd, session, dead);
        return;
      }
      continue;
    }
    if (n == 0) {  // peer closed
      if (session.outbox.size() == session.out_pos && !session.busy) {
        dead.push_back(fd);
      } else {
        session.close_after = true;
      }
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    dead.push_back(fd);
    return;
  }
  route(fd, session);
  flush(fd, session, dead);
}

void Server::flush(int fd, Session& session, std::vector<int>& dead) {
  while (session.out_pos < session.outbox.size()) {
    const ssize_t n = send(fd, session.outbox.data() + session.out_pos,
                           session.outbox.size() - session.out_pos,
                           MSG_NOSIGNAL);
    if (n > 0) {
      session.out_pos += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    dead.push_back(fd);
    return;
  }
  session.outbox.clear();
  session.out_pos = 0;
  if (session.close_after && !session.busy) dead.push_back(fd);
}

void Server::write_ready(int fd, Session& session, std::vector<int>& dead) {
  flush(fd, session, dead);
}

void Server::drain_completions(std::vector<int>& dead) {
  std::vector<Completion> done;
  {
    std::lock_guard<std::mutex> lock(completion_mutex_);
    done.swap(completions_);
  }
  for (Completion& c : done) {
    const auto it = sessions_.find(c.fd);
    if (it == sessions_.end() || it->second->generation != c.generation) {
      // The connection died while the request was in flight. The work
      // still happened — its aggregate metrics were already merged into
      // the global registry by the producer; only the response drops.
      continue;
    }
    Session& session = *it->second;
    session.busy = false;
    finish(session, c);
    // The response frees the session for the next pipelined request.
    route(c.fd, session);
    flush(c.fd, session, dead);
  }
}

void Server::loop() {
  std::vector<pollfd> fds;
  std::vector<int> dead;
  while (!stopping_.load(std::memory_order_acquire)) {
    fds.clear();
    fds.push_back({listen_fd_, POLLIN, 0});
    fds.push_back({wake_read_, POLLIN, 0});
    for (const auto& [fd, session] : sessions_) {
      short events = 0;
      // While busy, stop reading: TCP backpressure is the flow control.
      if (!session->busy) events |= POLLIN;
      if (session->out_pos < session->outbox.size()) events |= POLLOUT;
      fds.push_back({fd, events, 0});
    }
    if (poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    poll_return_us_ = obs::now_us();

    if ((fds[1].revents & POLLIN) != 0) {
      char buf[64];
      while (read(wake_read_, buf, sizeof(buf)) > 0) {
      }
    }

    dead.clear();
    drain_completions(dead);
    for (std::size_t i = 2; i < fds.size(); ++i) {
      const int fd = fds[i].fd;
      const auto it = sessions_.find(fd);
      if (it == sessions_.end()) continue;
      Session& session = *it->second;
      if ((fds[i].revents & (POLLERR | POLLNVAL)) != 0) {
        dead.push_back(fd);
        continue;
      }
      if ((fds[i].revents & POLLOUT) != 0) write_ready(fd, session, dead);
      if ((fds[i].revents & (POLLIN | POLLHUP)) != 0) {
        read_ready(fd, session, dead);
      }
    }
    if ((fds[0].revents & POLLIN) != 0) accept_ready();

    for (const int fd : dead) {
      const auto it = sessions_.find(fd);
      if (it == sessions_.end()) continue;
      sessions_.erase(it);
      ::close(fd);
    }
  }
}

}  // namespace mhs::svc
