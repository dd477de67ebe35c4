#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <ctime>
#include <limits>
#include <numeric>

#include "serve/protocol.h"
#include "util/random.h"

namespace perfbench {

namespace serve = lshensemble::serve;

namespace {

struct Connection {
  int fd = -1;
  std::string out;
  size_t out_sent = 0;
  serve::FrameReader reader;
};

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// Write what the socket takes; false on a hard error.
bool Flush(Connection* c) {
  while (c->out_sent < c->out.size()) {
    const ssize_t n = ::send(c->fd, c->out.data() + c->out_sent,
                             c->out.size() - c->out_sent, MSG_NOSIGNAL);
    if (n > 0) {
      c->out_sent += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    } else {
      return false;
    }
  }
  c->out.clear();
  c->out_sent = 0;
  return true;
}

}  // namespace

LoadResult RunOpenLoop(const LoadOptions& options, const QuerySet& pool,
                       const std::vector<std::vector<uint64_t>>& expected,
                       Tracer* tracer, uint32_t parent) {
  LoadResult result;
  std::vector<Connection> conns(options.connections);
  for (Connection& c : conns) {
    c.fd = ConnectLoopback(options.port);
    if (c.fd < 0) {
      result.io_error = true;
      for (Connection& open : conns) {
        if (open.fd >= 0) ::close(open.fd);
      }
      return result;
    }
  }

  // Send order: a seeded permutation of the pool, repeated.
  std::vector<uint32_t> order(pool.size());
  std::iota(order.begin(), order.end(), 0u);
  lshensemble::Rng rng(options.seed ^ 0x10ad10adULL);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }

  const auto total = static_cast<uint64_t>(options.rate * options.duration_s);
  const double interval_ns = 1e9 / options.rate;
  const auto warm = static_cast<uint64_t>(options.rate * options.warmup_s);
  struct Pending {
    uint64_t due_ns = 0;
    uint32_t pick = 0;
    uint32_t span = Tracer::kNoParent;
    bool answered = false;
  };
  std::vector<Pending> pending(total);
  result.latency_ms.assign(total - std::min(total, warm),
                           std::numeric_limits<double>::infinity());
  result.late_ms.reserve(total - std::min(total, warm));

  const uint64_t family_seed = pool.sketches.front().family()->seed();
  serve::QueryRequest request;
  request.family_seed = family_seed;
  request.t_star = kThreshold;
  const uint64_t t0 = NowNanos() + 1000000;
  const uint64_t schedule_end =
      t0 + static_cast<uint64_t>(static_cast<double>(total) * interval_ns);
  const uint64_t drain_deadline =
      schedule_end + static_cast<uint64_t>(options.drain_s * 1e9);
  uint64_t next = 0;
  uint64_t outstanding = 0;
  std::vector<pollfd> fds(conns.size());
  char buffer[1 << 16];

  enum class Outcome { kOk, kShed, kError, kWrong };
  const auto finish = [&](uint64_t id, uint64_t recv_ns, Outcome outcome) {
    Pending& p = pending[id - 1];
    p.answered = true;
    --outstanding;
    tracer->SetEnd(p.span, recv_ns);
    if (id <= warm) return;
    switch (outcome) {
      case Outcome::kOk:
        result.latency_ms[id - 1 - warm] =
            static_cast<double>(recv_ns - p.due_ns) * 1e-6;
        return;
      case Outcome::kShed:
        ++result.shed;
        break;
      case Outcome::kError:
        ++result.errors;
        break;
      case Outcome::kWrong:
        ++result.wrong;
        break;
    }
  };

  while (!result.io_error) {
    uint64_t now = NowNanos();
    while (next < total) {
      const uint64_t due =
          t0 + static_cast<uint64_t>(static_cast<double>(next) * interval_ns);
      if (due > now) break;
      const uint32_t pick = order[next % order.size()];
      Connection& c = conns[next % conns.size()];
      const uint64_t id = next + 1;
      const uint64_t send_ns = NowNanos();
      const uint32_t span =
          tracer->Add("serve.request", due, send_ns, parent, id);
      request.request_id = id;
      request.query_size = pool.domains[pick].size();
      const auto& slots = pool.sketches[pick].values();
      request.slots.assign(slots.begin(), slots.end());
      serve::EncodeQueryRequest(request, &c.out);
      const uint64_t encoded_ns = NowNanos();
      tracer->Add("serve.client_encode", send_ns, encoded_ns, span, id);
      pending[next] = Pending{due, pick, span, false};
      if (id > warm) {
        result.late_ms.push_back(static_cast<double>(send_ns - due) * 1e-6);
        result.encode_us_sum +=
            static_cast<double>(encoded_ns - send_ns) * 1e-3;
        ++result.encoded;
      }
      ++next;
      ++outstanding;
      if (!Flush(&c)) result.io_error = true;
      now = encoded_ns;
    }
    if (next == total && (outstanding == 0 || now > drain_deadline)) break;

    for (size_t i = 0; i < conns.size(); ++i) {
      fds[i].fd = conns[i].fd;
      fds[i].events = POLLIN;
      if (!conns[i].out.empty()) fds[i].events |= POLLOUT;
      fds[i].revents = 0;
    }
    // Poll without sleeping: a generator that sleeps between arrivals ~50
    // us apart is woken late whenever the host is slow to reschedule its
    // vCPU, and that lateness would be charged to the server.
    timespec timeout{0, 0};
    const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (ready < 0 && errno != EINTR) {
      result.io_error = true;
      break;
    }
    if (ready <= 0) continue;

    for (size_t i = 0; i < conns.size(); ++i) {
      Connection& c = conns[i];
      if ((fds[i].revents & POLLOUT) && !Flush(&c)) result.io_error = true;
      if (!(fds[i].revents & (POLLIN | POLLERR | POLLHUP))) continue;
      for (;;) {
        const ssize_t n = ::recv(c.fd, buffer, sizeof(buffer), 0);
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n <= 0) {
          result.io_error = true;
          break;
        }
        // Every frame in this read became available at recv_ns.
        const uint64_t recv_ns = NowNanos();
        c.reader.Append(std::string_view(buffer, static_cast<size_t>(n)));
        std::string_view payload;
        while (c.reader.Next(&payload)) {
          const uint64_t decode_start = NowNanos();
          auto message = serve::DecodeMessage(payload);
          const uint64_t decode_end = NowNanos();
          if (!message.ok()) {
            result.io_error = true;
            break;
          }
          const serve::Message& m = message.value();
          const uint64_t id = m.type == serve::MessageType::kQueryResponse
                                  ? m.query_response.request_id
                                  : m.error.request_id;
          if (id == 0 || id > next || pending[id - 1].answered) {
            result.io_error = true;
            break;
          }
          tracer->Add("serve.client_decode", decode_start, decode_end,
                      pending[id - 1].span, id);
          if (id > warm) {
            result.decode_us_sum +=
                static_cast<double>(decode_end - decode_start) * 1e-3;
            ++result.decoded;
          }
          if (m.type == serve::MessageType::kQueryResponse) {
            const bool right =
                m.query_response.ids == expected[pending[id - 1].pick];
            finish(id, recv_ns, right ? Outcome::kOk : Outcome::kWrong);
          } else if (m.type == serve::MessageType::kErrorResponse) {
            finish(id, recv_ns,
                   m.error.retryable != 0 ? Outcome::kShed : Outcome::kError);
          } else {
            result.io_error = true;
            break;
          }
        }
        if (!c.reader.status().ok()) result.io_error = true;
        if (result.io_error) break;
      }
    }
  }

  for (uint64_t i = warm; i < next; ++i) {
    if (!pending[i].answered) ++result.unanswered;
  }
  result.attempted = next > warm ? next - warm : 0;
  result.latency_ms.resize(result.attempted);
  for (Connection& c : conns) ::close(c.fd);
  return result;
}

}  // namespace perfbench
