// Open-loop load generator for the in-process server.
//
// One thread keeps a fixed schedule: request i is due at t0 + i / rate,
// whatever the server does. Requests go round-robin over a few
// non-blocking connections; the thread encodes each request when it is
// due, writes it, and decodes responses as they arrive. It polls without
// ever sleeping, so it occupies one CPU for the length of the schedule.
// Latency is timed from the request's due time, not from when it was
// sent, so a generator or server stall is charged to every request it
// delays. How late the generator itself ran is reported separately.

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "pipeline.h"
#include "trace.h"

namespace perfbench {

struct LoadOptions {
  uint16_t port = 0;
  size_t connections = 2;
  /// Offered rate, requests per second.
  double rate = 1000.0;
  /// Requests due in the first `warmup_s` are sent but not measured.
  double warmup_s = 0.0;
  /// Length of the schedule, warm-up included.
  double duration_s = 1.0;
  /// After the schedule ends, wait at most this long for answers.
  double drain_s = 2.0;
  /// Seeds the order in which pool queries are sent.
  uint64_t seed = 0;
};

struct LoadResult {
  // Counts over measured requests (those due after the warm-up).
  uint64_t attempted = 0;
  uint64_t shed = 0;        // retryable error responses
  uint64_t errors = 0;      // other error responses
  uint64_t wrong = 0;       // answers that differ from the expected ids
  uint64_t unanswered = 0;  // no response before the drain deadline
  /// Latency of measured request i (in schedule order), due time to
  /// response, in ms; failed and unanswered requests are +infinity (they
  /// miss any latency limit).
  std::vector<double> latency_ms;
  /// How late the generator sent each measured request, in ms.
  std::vector<double> late_ms;
  double encode_us_sum = 0.0;
  double decode_us_sum = 0.0;
  uint64_t encoded = 0;
  uint64_t decoded = 0;
  bool io_error = false;

  uint64_t failed() const { return shed + errors + wrong + unanswered; }
};

/// Offer `pool` (query i answered by `expected[i]`) to the server on
/// `127.0.0.1:options.port` at a fixed rate. With tracing on, each
/// request is a "serve.request" span (due time to response) whose
/// children are "serve.client_encode" and "serve.client_decode".
LoadResult RunOpenLoop(const LoadOptions& options, const QuerySet& pool,
                       const std::vector<std::vector<uint64_t>>& expected,
                       Tracer* tracer, uint32_t parent);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
