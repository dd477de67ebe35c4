// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload batch|serve|ingest --seed N --seconds S
//             --trace 0|1 --work-dir DIR [--trace-out FILE]
//
// Every workload runs the whole pipeline on generated inputs: CSV tables
// -> parse -> sketch -> sharded build -> v2 snapshot -> zero-copy open ->
// threshold and top-k search -> queries served over the wire at a fixed
// offered rate. The corpus is fixed per workload; the seed picks the
// queries and their arrival order. The workloads differ in corpus scale
// and in where the measured time goes (see perfbench/README.md).
//
// With --trace 0 the last stdout line is one JSON object carrying every
// end-to-end metric. With --trace 1 the workload runs twice, untraced
// and then with spans around every library call, and the JSON carries
// the per-layer metrics. Correctness gates run before any metric is
// written; a failed gate prints "correct": false and exits 1.

#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/exact_search.h"
#include "core/sharded_ensemble.h"
#include "data/sketcher.h"
#include "eval/metrics.h"
#include "loadgen.h"
#include "minhash/hash_family.h"
#include "minhash/hash_kernel.h"
#include "pipeline.h"
#include "serve/client.h"
#include "serve/server.h"
#include "trace.h"

namespace perfbench {
namespace {

using lshensemble::Corpus;
using lshensemble::QuerySpec;
using lshensemble::ShardedEnsemble;
using lshensemble::ShardedEnsembleOptions;
using lshensemble::Status;
using lshensemble::TopKQuery;
using lshensemble::TopKResult;
namespace serve = lshensemble::serve;

// ------------------------------------------------------------ config --

/// Thread pins, the same for every workload: one process, one
/// load-generator thread, and at most nproc (4) busy threads in total.
constexpr int kPoolThreads = 2;  // LSHE_THREADS
constexpr int kReactors = 1;
constexpr int kDispatchers = 1;
constexpr size_t kConnections = 2;
constexpr size_t kBatchTile = 4096;
constexpr size_t kTopKTile = 1024;
constexpr size_t kTopK = 10;
constexpr size_t kIngestSlices = 8;
/// The BatchQuery, top-k and ingest phases take turns in this many
/// rounds, so that each phase's samples span most of the run: the host's
/// speed wanders on a scale of seconds, and a phase run in one stretch
/// of 2-3 s read its pass rate 14k-22k/s from one run to the next.
constexpr size_t kRounds = 8;
/// The open loop's first kServeWarmupS are not measured. p50_ms and
/// p90_ms are medians over kWindowS windows of the schedule of each
/// window's percentile: a host stall confined to fewer than half the
/// windows moves the run-wide percentiles (tail.*), not these.
constexpr double kServeWarmupS = 0.5;
constexpr double kWindowS = 0.25;
/// The hash family is part of an index's configuration, fixed like the
/// corpus. Over eight families the batch corpus's candidate count per
/// large query ranged 4x and its query cost up to 3.5x, so a seed-chosen
/// family would drown any code change in input variance.
constexpr uint64_t kFamilySeed = 20160905;
/// Every workload's recall against exact containment must reach this.
constexpr double kRecallFloor = 0.80;

struct Workload {
  const char* name;
  size_t domains;
  int num_hashes;
  size_t shards;
  // Threshold queries: indexed domains, then small and large planted ones.
  size_t native;
  size_t small;
  size_t large;
  size_t topk_queries;  // spread over the indexed-domain queries
  size_t serve_pool;
  /// Offered requests per second. Below a few thousand per second the
  /// server's threads idle between requests and every request pays the
  /// host's vCPU wake-up latency: at 2,000/s the batch workload's p90
  /// read 0.33-4.3 ms over three runs, at 6,000/s 0.27-0.31 ms.
  double serve_rate;
  // Shares of --seconds for the timed phases.
  double batch_share;
  double topk_share;
  double serve_share;
  double ingest_share;
  size_t open_reps;  // OpenSnapshot calls
  /// Set-ups per run; setup_s is their median. The small corpora's
  /// set-ups (~0.5 s) vary by ~20% within a run, so they take more.
  size_t setup_reps;
  /// Ingest workload: inserts between interleaved reads, and every pass
  /// ingests every table under the default rebuild policy. 0: each pass
  /// ingests the same strided eighth of the tables in bulk.
  size_t ingest_every;
};

constexpr Workload kWorkloads[] = {
    // Offline domain search over a corpus whose snapshot (~220 MB) is
    // well beyond the 105 MB L3.
    {"batch", 65536, 256, 2, 8192, 4096, 4096, 2048, 2048, 6000.0,
     0.30, 0.20, 0.30, 0.20, 25, 5, 0},
    // Serving: small per-request engine work, protocol/reactor/batcher
    // and the engine-wide Bloom fast-reject do the work.
    {"serve", 16384, 128, 2, 2048, 1024, 1024, 1024, 4096, 20000.0,
     0.15, 0.15, 0.60, 0.10, 25, 9, 0},
    // Writes beside reads under the engine's own rebuild policy.
    {"ingest", 16384, 128, 2, 2048, 1024, 1024, 1024, 4096, 5000.0,
     0.0, 0.10, 0.20, 0.70, 25, 9, 512},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string work_dir;
  std::string trace_out;
};

// ----------------------------------------------------------- helpers --

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

void Check(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what, status);
}

/// A correctness gate failed: report it and write no metric.
[[noreturn]] void GateFailed(const std::string& what) {
  std::fprintf(stderr, "perfbench: correctness gate failed: %s\n",
               what.c_str());
  std::printf("{\"correct\": false, \"attempted\": 1, \"failed\": 1, "
              "\"metrics\": {}}\n");
  std::fflush(stdout);
  std::exit(1);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in (0, 1]) of an unsorted sample.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(
                                                          v.size())));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

double Seconds(uint64_t start_ns, uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/// A throughput over the measured passes of one phase: all their work
/// over all their time. The host's speed shifts between levels from one
/// stretch of a run to the next, so the per-pass rates form clusters; a
/// median jumps between clusters as their shares change, the overall
/// rate moves in proportion (over six serve runs its spread was 0.08-0.11
/// where the per-pass median's was 0.14-0.17).
struct PassRate {
  double work = 0.0;
  double seconds = 0.0;
  std::vector<double> samples;  // per-pass rates, for the report

  void Add(double pass_work, double pass_seconds) {
    work += pass_work;
    seconds += pass_seconds;
    samples.push_back(pass_work / pass_seconds);
  }
  double value() const { return seconds > 0.0 ? work / seconds : 0.0; }
};

/// Print the spread of the samples behind a reported figure.
void PrintSamples(const char* what, const std::vector<double>& v) {
  if (v.empty()) return;
  std::printf("%s: %zu samples, min %.6g median %.6g max %.6g\n", what,
              v.size(), *std::min_element(v.begin(), v.end()), Median(v),
              *std::max_element(v.begin(), v.end()));
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

ShardedEnsembleOptions EngineOptions(const Workload& w) {
  ShardedEnsembleOptions options;
  options.base.base.num_hashes = w.num_hashes;
  options.num_shards = w.shards;
  return options;
}

/// Cumulative Pow2Histogram buckets of one family in a /metrics render:
/// (upper bound, cumulative count) pairs.
std::vector<std::pair<double, double>> HistogramBuckets(
    const std::string& text, const std::string& family) {
  std::vector<std::pair<double, double>> buckets;
  const std::string prefix = family + "_bucket{le=\"";
  size_t pos = 0;
  while ((pos = text.find(prefix, pos)) != std::string::npos) {
    pos += prefix.size();
    const size_t quote = text.find('"', pos);
    const std::string le = text.substr(pos, quote - pos);
    const size_t space = text.find(' ', quote);
    const double count = std::strtod(text.c_str() + space + 1, nullptr);
    if (le != "+Inf") buckets.emplace_back(std::strtod(le.c_str(), nullptr),
                                           count);
    pos = space;
  }
  return buckets;
}

/// Median of the observations recorded between two renders, read off
/// the power-of-two buckets: the upper bound of the bucket that holds it.
double HistogramMedianDelta(const std::string& before,
                            const std::string& after,
                            const std::string& family) {
  const auto b = HistogramBuckets(before, family);
  const auto a = HistogramBuckets(after, family);
  // A render lists every bucket up to its last nonzero one, so a bucket
  // missing from `before` holds its whole count.
  const auto before_at = [&](size_t i) {
    if (b.empty()) return 0.0;
    return i < b.size() ? b[i].second : b.back().second;
  };
  const double total = a.empty() ? 0.0 : a.back().second - before_at(a.size() - 1);
  for (size_t i = 0; i < a.size() && total > 0; ++i) {
    if (a[i].second - before_at(i) >= 0.5 * total) return a[i].first;
  }
  return 0.0;
}

/// Hand freed heap back to the OS after each pass. Freed engines stay
/// cached in malloc's per-thread arenas in amounts that vary from run to
/// run; trimming makes peak RSS one pass's footprint rather than the
/// allocator's history.
void ReleaseFreedHeap() { malloc_trim(0); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// ------------------------------------------------------------- state --

/// Everything a setup produces and the measured phases use.
struct Prepared {
  std::vector<std::string> files;
  std::string snapshot_dir;
  std::shared_ptr<const ShardedEnsemble> serving;
  QuerySet search;
  QuerySet pool;
  std::vector<size_t> recall_sample;
  std::vector<std::vector<uint64_t>> pool_expected;
  double recall = 0.0;
  double precision = 0.0;
  uint64_t snapshot_bytes = 0;
};

/// Raw results of one run of a workload.
struct RunResult {
  std::map<std::string, std::pair<double, const char*>> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Inputs of the per-layer report.
  std::vector<IngestTimes> pipelines;  // one per ingest pass
  InterleavedReads reads;
  ProbeTotals batch_probes;
  ProbeTotals serve_probes;
  LoadResult load;
  std::string metrics_before;
  std::string metrics_after;
  uint64_t serve_requests = 0;
  uint64_t serve_bytes_read = 0;
  uint64_t serve_bytes_written = 0;
  uint64_t serve_sheds = 0;
  uint64_t serve_waves = 0;
  uint64_t serve_batched = 0;
  std::vector<double> open_ms;
  uint64_t snapshot_bytes = 0;
};

void Put(RunResult* r, const std::string& name, double value,
         const char* unit) {
  r->metrics[name] = {value, unit};
}

// ------------------------------------------------------------- setup --

/// Write back the work directory's dirty pages, so that no flush of them
/// lands inside a measured phase or a timed set-up.
void SyncWorkDir(const Args& args) {
  const int dir_fd = ::open(args.work_dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::syncfs(dir_fd);
    ::close(dir_fd);
  }
}

/// The benchmark's inputs: the workload's corpus written as CSV tables.
/// Written once per run and not timed, since writing them is the
/// benchmark's work, not the program's.
std::vector<std::string> WriteInputs(const Workload& w, const Args& args) {
  const std::string csv_dir = args.work_dir + "/csv";
  std::filesystem::remove_all(csv_dir);
  std::vector<std::string> files =
      WriteCsvTables(GenerateCorpus(w.domains), csv_dir);
  SyncWorkDir(args);
  return files;
}

/// One full set-up from the CSV tables: bulk ingest to a snapshot,
/// zero-copy open, query sets, exact ground truth and the set-up gates.
Prepared Setup(const Workload& w, const Args& args,
               const std::vector<std::string>& files,
               const std::shared_ptr<const lshensemble::HashFamily>& family,
               const lshensemble::ParallelSketcher& sketcher, Tracer* tracer) {
  ScopedSpan root(tracer, "setup");
  Prepared p;
  p.files = files;

  // Bulk ingest: one rebuild, at the final Flush.
  ShardedEnsembleOptions bulk = EngineOptions(w);
  bulk.base.min_delta_for_rebuild = w.domains + 1;
  auto live = ShardedEnsemble::Create(bulk, family);
  Check(live.status(), "Create");
  p.snapshot_dir = args.work_dir + "/snapshot";
  IngestTimes times;
  Corpus parsed;
  Check(Ingest(p.files, sketcher, &live.value(), p.snapshot_dir, tracer,
               root.id(), &times, nullptr, &parsed),
        "ingest");
  p.snapshot_bytes = DirectoryBytes(p.snapshot_dir);

  uint32_t span = tracer->Begin("io.open", root.id());
  auto opened = ShardedEnsemble::OpenSnapshot(p.snapshot_dir, EngineOptions(w));
  tracer->End(span);
  Check(opened.status(), "OpenSnapshot");
  p.serving = std::make_shared<const ShardedEnsemble>(
      std::move(opened).value());

  p.search = BuildSearchQueries(parsed, sketcher, args.seed, w.native,
                                w.small, w.large);
  p.pool = BuildServePool(parsed, sketcher, args.seed, w.serve_pool);

  // The recall sample, evenly over each group (groups are in size
  // order): 256 indexed, 128 small and 128 large planted queries.
  for (size_t i = 0; i < w.native; i += w.native / 256) {
    p.recall_sample.push_back(i);
  }
  for (size_t i = 0; i < w.small; i += w.small / 128) {
    p.recall_sample.push_back(w.native + i);
  }
  for (size_t i = 0; i < w.large; i += w.large / 128) {
    p.recall_sample.push_back(w.native + w.small + i);
  }
  const std::vector<QuerySpec> all = p.search.Specs();
  std::vector<QuerySpec> sample;
  for (size_t i : p.recall_sample) sample.push_back(all[i]);

  lshensemble::ExactSearch exact;
  for (const auto& domain : parsed.domains()) {
    Check(exact.Add(domain.id, domain.values), "ExactSearch::Add");
  }
  exact.Build();

  // Gate: the reopened snapshot answers exactly as the live engine.
  std::vector<std::vector<uint64_t>> from_live(sample.size());
  std::vector<std::vector<uint64_t>> from_snapshot(sample.size());
  Check(live.value().BatchQuery(sample, from_live.data()), "BatchQuery");
  Check(p.serving->BatchQuery(sample, from_snapshot.data()), "BatchQuery");
  if (from_live != from_snapshot) {
    GateFailed("snapshot answers differ from the live engine's");
  }

  lshensemble::AccuracyAccumulator accuracy;
  std::vector<uint64_t> truth;
  for (size_t j = 0; j < sample.size(); ++j) {
    Check(exact.Query(p.search.domains[p.recall_sample[j]].values,
                      kThreshold, &truth),
          "ExactSearch::Query");
    accuracy.AddQuery(from_snapshot[j], truth);
  }
  p.recall = accuracy.MeanRecall();
  p.precision = accuracy.MeanPrecision();
  if (!(p.recall >= kRecallFloor)) {
    GateFailed("recall " + std::to_string(p.recall) + " below the floor " +
               std::to_string(kRecallFloor));
  }

  const std::vector<QuerySpec> pool_specs = p.pool.Specs();
  p.pool_expected.resize(pool_specs.size());
  Check(p.serving->BatchQuery(pool_specs, p.pool_expected.data()),
        "BatchQuery");
  return p;
}

// ------------------------------------------------------------ phases --

/// The measured phases, each for its share of --seconds. RunWorkload runs
/// the open loop first, in one stretch, so that it never runs in the
/// wake of the ingest passes' I/O (fsync'd saves, unlinks); then the
/// BatchQuery, top-k and ingest phases in kRounds rounds. Each reports
/// its rate over all its measured passes (open_ms and the latencies:
/// medians); the first pass of each warms caches and is not measured.
class MeasuredPhases {
 public:
  MeasuredPhases(const Workload& w, const Args& args, const Prepared& p,
                 std::shared_ptr<const lshensemble::HashFamily> family,
                 const lshensemble::ParallelSketcher& sketcher,
                 Tracer* tracer, RunResult* r)
      : w_(w), args_(args), p_(p), family_(std::move(family)),
        sketcher_(sketcher), tracer_(tracer), r_(r),
        search_(p.search.Specs()), search_outs_(search_.size()) {
    // Top-k: every (native / topk_queries)-th indexed-domain query.
    const std::vector<TopKQuery> all = p.search.TopKQueries();
    for (size_t i = 0; i < w.native; i += w.native / w.topk_queries) {
      topk_.push_back(all[i]);
    }
    topk_outs_.resize(topk_.size());
    // Ingest reads: every other query of the recall sample.
    for (size_t i = 0; i < p.recall_sample.size(); i += 2) {
      reads_.push_back(search_[p.recall_sample[i]]);
    }
  }

  void Open() {
    ScopedSpan root(tracer_, "pass.open");
    for (size_t i = 0; i < w_.open_reps; ++i) {
      const uint64_t start = NowNanos();
      const uint32_t span = tracer_->Begin("io.open", root.id());
      auto opened =
          ShardedEnsemble::OpenSnapshot(p_.snapshot_dir, EngineOptions(w_));
      tracer_->End(span);
      const uint64_t end = NowNanos();
      Check(opened.status(), "OpenSnapshot");
      r_->open_ms.push_back(Seconds(start, end) * 1e3);
      ++r_->attempted;
    }
  }

  /// Ingest passes, at least one, until the budget is used.
  void Ingest(double budget_s) {
    const uint64_t deadline = NowNanos() + Nanos(budget_s);
    do {
      IngestPass();
    } while (NowNanos() < deadline);
  }

  /// One ingest pipeline into a fresh engine. The ingest workload feeds
  /// every table under the engine's own rebuild policy, with interleaved
  /// reads; the others feed the same strided eighth of the tables in bulk
  /// (one rebuild, at the Flush), so every pass does the same work and
  /// the unmeasured first pass brings its tables into the page cache:
  /// passes over tables the big corpus's set-ups had pushed out of it
  /// parsed up to 5x slower and ran at ~0.55x the rate.
  void IngestPass() {
    const bool full = w_.ingest_every > 0;
    const size_t pass = ingest_passes_++;
    std::vector<std::string> files;
    for (size_t i = 0; i < p_.files.size(); ++i) {
      if (full || i % kIngestSlices == 0) {
        files.push_back(p_.files[i]);
      }
    }
    ShardedEnsembleOptions options = EngineOptions(w_);
    if (!full) options.base.min_delta_for_rebuild = w_.domains + 1;
    ScopedSpan root(tracer_, "pass.ingest");
    auto engine = ShardedEnsemble::Create(options, family_);
    Check(engine.status(), "Create");
    IngestTimes times;
    InterleavedReads interleaved;
    interleaved.every = w_.ingest_every;
    interleaved.specs = reads_;
    const std::string dir = args_.work_dir + "/ingest";
    Check(perfbench::Ingest(files, sketcher_, &engine.value(), dir, tracer_,
                            root.id(), &times, full ? &interleaved : nullptr,
                            nullptr),
          "ingest");
    r_->attempted += times.domains + interleaved.queries;

    // Gate: answers from the reopened snapshot equal the live engine's.
    auto reopened = ShardedEnsemble::OpenSnapshot(dir, options);
    Check(reopened.status(), "OpenSnapshot");
    std::vector<std::vector<uint64_t>> live(reads_.size());
    std::vector<std::vector<uint64_t>> snap(reads_.size());
    Check(engine.value().BatchQuery(reads_, live.data()), "BatchQuery");
    Check(reopened.value().BatchQuery(reads_, snap.data()), "BatchQuery");
    if (live != snap) GateFailed("reopened snapshot differs from live engine");

    if (pass > 0) {  // the first pass warms caches; it is not measured
      ingest_rate_.Add(static_cast<double>(times.domains), times.pipeline_s());
      if (full) {
        read_rate_.Add(static_cast<double>(interleaved.queries),
                       interleaved.query_s);
      }
    }
    r_->pipelines.push_back(times);
    ReleaseFreedHeap();
    InterleavedReads& sum = r_->reads;
    sum.query_s += interleaved.query_s;
    sum.queries += interleaved.queries;
    sum.batches += interleaved.batches;
    sum.delta_sum += interleaved.delta_sum;
    sum.probes.Merge(interleaved.probes);
  }

  /// BatchQuery passes over the search set in tiles of kBatchTile, at
  /// least one, until the budget is used.
  void Batch(double budget_s) {
    const uint64_t deadline = NowNanos() + Nanos(budget_s);
    do {
      ScopedSpan root(tracer_, "pass.batch");
      const uint64_t start = NowNanos();
      for (size_t off = 0; off < search_.size(); off += kBatchTile) {
        const size_t len = std::min(kBatchTile, search_.size() - off);
        Check(TracedBatchQuery(*p_.serving,
                               std::span(search_).subspan(off, len),
                               search_outs_.data() + off, tracer_, root.id(),
                               &r_->batch_probes),
              "BatchQuery");
      }
      const uint64_t end = NowNanos();
      r_->attempted += search_.size();
      if (batch_passes_++ == 0) {
        CheckTiles();  // the first pass warms caches; it is not measured
      } else {
        qps_.Add(static_cast<double>(search_.size()), Seconds(start, end));
      }
    } while (NowNanos() < deadline);
  }

  /// BatchSearch (top-k) passes in tiles of kTopKTile, likewise.
  void TopK(double budget_s) {
    const uint64_t deadline = NowNanos() + Nanos(budget_s);
    do {
      ScopedSpan root(tracer_, "pass.topk");
      const uint64_t start = NowNanos();
      for (size_t off = 0; off < topk_.size(); off += kTopKTile) {
        const size_t len = std::min(kTopKTile, topk_.size() - off);
        const uint32_t span = tracer_->Begin("core.topk", root.id());
        Check(p_.serving->BatchSearch(std::span(topk_).subspan(off, len),
                                      kTopK, topk_outs_.data() + off),
              "BatchSearch");
        tracer_->End(span);
      }
      const uint64_t end = NowNanos();
      r_->attempted += topk_.size();
      if (topk_passes_++ == 0) {
        CheckTopK();
      } else {
        topk_qps_.Add(static_cast<double>(topk_.size()), Seconds(start, end));
      }
    } while (NowNanos() < deadline);
  }

  /// Start the server and run the wire gate.
  void StartServer() {
    serve::ServerOptions options;
    options.num_reactors = kReactors;
    options.num_dispatchers = kDispatchers;
    const std::shared_ptr<const ShardedEnsemble> serving = p_.serving;
    auto server =
        serve::Server::Start(options, [serving] { return serving; });
    Check(server.status(), "Server::Start");
    server_ = std::move(server).value();
    CheckWire();
    const serve::ServerMetrics& m = server_->metrics();
    r_->metrics_before = m.RenderPrometheus();
    requests0_ = m.query_requests.load();
    read0_ = m.bytes_read.load();
    written0_ = m.bytes_written.load();
    sheds0_ = m.sheds.load();
    waves0_ = m.batches_dispatched.load();
    batched0_ = m.batched_requests.load();
  }

  /// The open loop at the workload's fixed rate; p50 and p90 per window.
  void Serve(double budget_s) {
    ScopedSpan root(tracer_, "pass.serve");
    LoadOptions load;
    load.port = server_->port();
    load.connections = kConnections;
    load.rate = w_.serve_rate;
    load.duration_s = budget_s;
    load.warmup_s = kServeWarmupS;
    load.seed = args_.seed;
    LoadResult& result = r_->load;
    result = RunOpenLoop(load, p_.pool, p_.pool_expected, tracer_, root.id());
    if (result.io_error) {
      Die("open loop", Status::IOError("connection to the server failed"));
    }
    if (result.wrong > 0) {
      GateFailed(std::to_string(result.wrong) +
                 " served answers differ from direct BatchQuery");
    }
    r_->attempted += result.attempted;
    r_->failed += result.failed();
    const auto window = static_cast<size_t>(w_.serve_rate * kWindowS);
    const std::vector<double>& lat = result.latency_ms;
    for (size_t first = 0; first + window <= lat.size(); first += window) {
      const std::vector<double> slice(lat.begin() + first,
                                      lat.begin() + first + window);
      p50_.push_back(Percentile(slice, 0.50));
      p90_.push_back(Percentile(slice, 0.90));
    }
  }

  void StopServer() {
    const serve::ServerMetrics& m = server_->metrics();
    r_->metrics_after = m.RenderPrometheus();
    r_->serve_requests = m.query_requests.load() - requests0_;
    r_->serve_bytes_read = m.bytes_read.load() - read0_;
    r_->serve_bytes_written = m.bytes_written.load() - written0_;
    r_->serve_sheds = m.sheds.load() - sheds0_;
    r_->serve_waves = m.batches_dispatched.load() - waves0_;
    r_->serve_batched = m.batched_requests.load() - batched0_;
    server_->Stop();
    server_.reset();
    if (tracer_->enabled()) {
      // Probe counters of the served traffic, from the stats path.
      const std::vector<QuerySpec> specs = p_.pool.Specs();
      std::vector<std::vector<uint64_t>> outs(specs.size());
      Check(TracedBatchQuery(*p_.serving, specs, outs.data(), tracer_,
                             Tracer::kNoParent, &r_->serve_probes),
            "BatchQuery");
    }
  }

  /// Medians over each phase's samples.
  void Report() {
    std::vector<double> split[5];
    for (const IngestTimes& t : r_->pipelines) {
      const double parts[5] = {t.parse_s, t.sketch_s, t.insert_s, t.flush_s,
                               t.save_s};
      for (int i = 0; i < 5; ++i) split[i].push_back(parts[i]);
    }
    std::printf("ingest pass split (median s): parse %.4f sketch %.4f "
                "insert %.4f flush %.4f save %.4f\n",
                Median(split[0]), Median(split[1]), Median(split[2]),
                Median(split[3]), Median(split[4]));
    PrintSamples("open ms", r_->open_ms);
    PrintSamples("ingest domains/s", ingest_rate_.samples);
    PrintSamples("BatchQuery qps", qps_.samples);
    PrintSamples("interleaved read qps", read_rate_.samples);
    PrintSamples("top-k qps", topk_qps_.samples);
    PrintSamples("serve window p50 ms", p50_);
    PrintSamples("serve window p90 ms", p90_);
    Put(r_, "open_ms", Median(r_->open_ms), "ms");
    Put(r_, "ingest_domains_per_s", ingest_rate_.value(), "1/s");
    Put(r_, "qps", (w_.ingest_every > 0 ? read_rate_ : qps_).value(), "1/s");
    Put(r_, "topk_qps", topk_qps_.value(), "1/s");
    Put(r_, "p50_ms", Median(p50_), "ms");
    Put(r_, "p90_ms", Median(p90_), "ms");
  }

 private:
  static uint64_t Nanos(double seconds) {
    return static_cast<uint64_t>(seconds * 1e9);
  }

  /// Gate: tile answers equal one-query calls on a spread sample.
  void CheckTiles() {
    std::vector<uint64_t> single;
    const size_t step = std::max<size_t>(1, search_.size() / 256);
    for (size_t i = 0; i < search_.size(); i += step) {
      Check(p_.serving->BatchQuery(std::span(search_).subspan(i, 1), &single),
            "BatchQuery");
      if (single != search_outs_[i]) {
        GateFailed("tile-" + std::to_string(kBatchTile) +
                   " answer differs from tile-1 for query " +
                   std::to_string(i));
      }
    }
  }

  /// Gate: batched rankings equal one-query calls on a spread sample.
  void CheckTopK() {
    std::vector<TopKResult> single;
    const size_t step = std::max<size_t>(1, topk_.size() / 32);
    for (size_t i = 0; i < topk_.size(); i += step) {
      Check(p_.serving->BatchSearch(std::span(topk_).subspan(i, 1), kTopK,
                                    &single),
            "BatchSearch");
      if (single != topk_outs_[i]) {
        GateFailed("batched top-k answer differs from a one-query call for "
                   "query " + std::to_string(i));
      }
    }
  }

  /// Gate: every pool answer over the wire equals a direct BatchQuery.
  void CheckWire() {
    auto client = serve::Client::Connect("127.0.0.1", server_->port());
    Check(client.status(), "Client::Connect");
    constexpr size_t kWindow = 32;
    const uint64_t family_seed = p_.pool.sketches.front().family()->seed();
    for (size_t first = 0; first < p_.pool.size(); first += kWindow) {
      const size_t last = std::min(first + kWindow, p_.pool.size());
      std::string frames;
      for (size_t i = first; i < last; ++i) {
        serve::QueryRequest req;
        req.request_id = i + 1;
        req.family_seed = family_seed;
        req.t_star = kThreshold;
        req.query_size = p_.pool.domains[i].size();
        req.slots = p_.pool.sketches[i].values();
        serve::EncodeQueryRequest(req, &frames);
      }
      Check(client.value().SendFrames(frames), "SendFrames");
      for (size_t i = first; i < last; ++i) {
        auto msg = client.value().ReceiveMessage();
        Check(msg.status(), "ReceiveMessage");
        if (msg.value().type != serve::MessageType::kQueryResponse) {
          GateFailed("gate request answered with an error: " +
                     msg.value().error.message);
        }
        const auto& resp = msg.value().query_response;
        if (resp.request_id <= first || resp.request_id > last ||
            resp.ids != p_.pool_expected[resp.request_id - 1]) {
          GateFailed("wire answer differs from direct BatchQuery");
        }
      }
    }
  }

  const Workload& w_;
  const Args& args_;
  const Prepared& p_;
  std::shared_ptr<const lshensemble::HashFamily> family_;
  const lshensemble::ParallelSketcher& sketcher_;
  Tracer* tracer_;
  RunResult* r_;

  std::vector<QuerySpec> search_;
  std::vector<std::vector<uint64_t>> search_outs_;
  std::vector<TopKQuery> topk_;
  std::vector<std::vector<TopKResult>> topk_outs_;
  std::vector<QuerySpec> reads_;
  size_t batch_passes_ = 0;
  size_t topk_passes_ = 0;
  size_t ingest_passes_ = 0;
  PassRate qps_;
  PassRate topk_qps_;
  PassRate ingest_rate_;
  PassRate read_rate_;
  std::vector<double> p50_;
  std::vector<double> p90_;

  std::unique_ptr<serve::Server> server_;
  uint64_t requests0_ = 0;
  uint64_t read0_ = 0;
  uint64_t written0_ = 0;
  uint64_t sheds0_ = 0;
  uint64_t waves0_ = 0;
  uint64_t batched0_ = 0;
};

// ------------------------------------------------------------ a run --

RunResult RunWorkload(const Workload& w, const Args& args, Tracer* tracer) {
  RunResult r;
  auto family = lshensemble::HashFamily::Create(w.num_hashes, kFamilySeed);
  Check(family.status(), "HashFamily::Create");
  const lshensemble::ParallelSketcher sketcher(family.value());

  const std::vector<std::string> files = WriteInputs(w, args);
  std::vector<double> setup_s;
  std::unique_ptr<Prepared> prepared;
  for (size_t rep = 0; rep < w.setup_reps; ++rep) {
    prepared.reset();  // free the previous set-up before building anew
    ReleaseFreedHeap();
    const uint64_t start = NowNanos();
    prepared = std::make_unique<Prepared>(
        Setup(w, args, files, family.value(), sketcher, tracer));
    setup_s.push_back(Seconds(start, NowNanos()));
    SyncWorkDir(args);
  }
  const Prepared& p = *prepared;
  PrintSamples("setup s", setup_s);
  Put(&r, "setup_s", Median(setup_s), "s");
  Put(&r, "recall", p.recall, "ratio");
  Put(&r, "precision", p.precision, "ratio");
  r.snapshot_bytes = p.snapshot_bytes;
  Put(&r, "snapshot_bytes_per_domain",
      static_cast<double>(p.snapshot_bytes) /
          static_cast<double>(p.serving->size()),
      "B");

  MeasuredPhases phases(w, args, p, family.value(), sketcher, tracer, &r);
  const double seconds = args.seconds;
  phases.Open();
  phases.StartServer();
  phases.Serve(w.serve_share * seconds);
  phases.StopServer();
  for (size_t round = 0; round < kRounds; ++round) {
    if (w.batch_share > 0.0) phases.Batch(w.batch_share * seconds / kRounds);
    phases.TopK(w.topk_share * seconds / kRounds);
    phases.Ingest(w.ingest_share * seconds / kRounds);
  }
  phases.Report();
  std::filesystem::remove_all(args.work_dir + "/ingest");

  // Only served requests can fail; every other operation's error ends
  // the run.
  Put(&r, "ok_ratio",
      1.0 - Ratio(static_cast<double>(r.load.failed()),
                  static_cast<double>(r.load.attempted)),
      "ratio");
  Put(&r, "peak_rss_mb", PeakRssMb(), "MB");
  return r;
}

// ---------------------------------------------------------- reports --

/// Per-layer metrics of a traced run `t`, with `u` the untraced run of
/// the same workload in the same process.
std::map<std::string, std::pair<double, const char*>> LayerMetrics(
    const Workload& w, const Tracer& tracer, const RunResult& u,
    const RunResult& t) {
  std::map<std::string, std::pair<double, const char*>> out;
  const auto put = [&](const std::string& name, double v, const char* unit) {
    out[name] = {v, unit};
  };
  const bool ingest = w.ingest_every > 0;

  // Ingest layers: per ingest pass (the same strided eighth of the tables
  // outside the ingest workload).
  const double pipelines = static_cast<double>(tracer.Count("pass.ingest"));
  const auto ingest_self = tracer.SelfTimes("pass.ingest");
  const auto self_s = [](const std::map<std::string, uint64_t>& m,
                         const std::string& name) {
    const auto it = m.find(name);
    return it == m.end() ? 0.0 : static_cast<double>(it->second) * 1e-9;
  };
  uint64_t values = 0;
  uint64_t flushes = 0;
  for (const IngestTimes& times : t.pipelines) {
    values += times.values;
    flushes += times.flushes;
  }
  put("data.parse_s", Ratio(self_s(ingest_self, "data.parse"), pipelines), "s");
  put("minhash.sketch_s",
      Ratio(self_s(ingest_self, "minhash.sketch"), pipelines), "s");
  put("minhash.values_per_s",
      Ratio(static_cast<double>(values), self_s(ingest_self, "minhash.sketch")),
      "1/s");
  put("core.insert_s", Ratio(self_s(ingest_self, "core.insert"), pipelines),
      "s");
  put("core.flush_s", Ratio(self_s(ingest_self, "core.flush"), pipelines), "s");
  put("core.flushes",
      Ratio(static_cast<double>(flushes), static_cast<double>(t.pipelines.size())),
      "count");
  put("io.save_s", Ratio(self_s(ingest_self, "io.save"), pipelines), "s");
  put("core.delta_mean",
      Ratio(static_cast<double>(t.reads.delta_sum),
            static_cast<double>(t.reads.batches)),
      "count");

  // Threshold queries: per pass of the workload's query phase; probe
  // counters of the workload's own query stream, from the stats path.
  const char* query_root = ingest ? "pass.ingest" : "pass.batch";
  put("core.query_s",
      Ratio(self_s(tracer.SelfTimes(query_root), "core.query"),
            static_cast<double>(tracer.Count(query_root))),
      "s");
  const ProbeTotals& probes = ingest                  ? t.reads.probes
                              : w.serve_share > 0.5 ? t.serve_probes
                                                    : t.batch_probes;
  const double q = static_cast<double>(probes.queries);
  put("core.candidates_per_query",
      Ratio(static_cast<double>(probes.candidates), q), "count");
  put("core.partitions_probed_per_query",
      Ratio(static_cast<double>(probes.partitions_probed), q), "count");
  put("core.partitions_pruned_per_query",
      Ratio(static_cast<double>(probes.partitions_pruned), q), "count");
  const double trees_per_forest = static_cast<double>(w.num_hashes) /
                                  lshensemble::LshEnsembleOptions{}.tree_depth;
  const double tree_slots =
      static_cast<double>(probes.partitions_probed -
                          probes.partitions_filter_skipped) *
      trees_per_forest;
  put("lsh.slot0_hit_ratio",
      Ratio(static_cast<double>(probes.slot0_cache_hits), tree_slots),
      "ratio");
  put("lsh.gallop_resume_ratio",
      Ratio(static_cast<double>(probes.slot0_gallop_resumes),
            tree_slots - static_cast<double>(probes.slot0_cache_hits)),
      "ratio");
  put("filter.skip_ratio",
      Ratio(static_cast<double>(probes.partitions_filter_skipped),
            static_cast<double>(probes.partitions_probed)),
      "ratio");
  put("core.topk_s",
      Ratio(self_s(tracer.SelfTimes("pass.topk"), "core.topk"),
            static_cast<double>(tracer.Count("pass.topk"))),
      "s");

  put("io.open_ms", Median(t.open_ms), "ms");
  put("io.snapshot_bytes", static_cast<double>(t.snapshot_bytes), "B");

  const double requests = static_cast<double>(t.serve_requests);
  put("serve.batch_fill_mean",
      Ratio(static_cast<double>(t.serve_batched),
            static_cast<double>(t.serve_waves)),
      "count");
  put("serve.coalesce_us_p50",
      HistogramMedianDelta(t.metrics_before, t.metrics_after,
                           "lshe_serve_coalesce_latency_us"),
      "us");
  put("serve.dispatch_us_p50",
      HistogramMedianDelta(t.metrics_before, t.metrics_after,
                           "lshe_serve_dispatch_latency_us"),
      "us");
  put("serve.request_bytes",
      Ratio(static_cast<double>(t.serve_bytes_read), requests), "B");
  put("serve.response_bytes",
      Ratio(static_cast<double>(t.serve_bytes_written), requests), "B");
  put("serve.sheds", static_cast<double>(t.serve_sheds), "count");
  put("serve.client_encode_us",
      Ratio(t.load.encode_us_sum, static_cast<double>(t.load.encoded)), "us");
  put("serve.client_decode_us",
      Ratio(t.load.decode_us_sum, static_cast<double>(t.load.decoded)), "us");

  // Validity of the serve phase, from the untraced run.
  put("loadgen.late_p99_ms", Percentile(u.load.late_ms, 0.99), "ms");
  put("loadgen.late_max_ms", Percentile(u.load.late_ms, 1.0), "ms");
  put("tail.p90_ms", Percentile(u.load.latency_ms, 0.90), "ms");
  put("tail.p99_ms", Percentile(u.load.latency_ms, 0.99), "ms");
  put("tail.p999_ms", Percentile(u.load.latency_ms, 0.999), "ms");

  // Traced vs untraced, on the workload's headline metric (> 1 = slower).
  double overhead = 0.0;
  if (ingest) {
    overhead = Ratio(u.metrics.at("ingest_domains_per_s").first,
                     t.metrics.at("ingest_domains_per_s").first);
  } else if (w.serve_share > 0.5) {
    overhead = Ratio(t.metrics.at("p50_ms").first, u.metrics.at("p50_ms").first);
  } else {
    overhead = Ratio(u.metrics.at("qps").first, t.metrics.at("qps").first);
  }
  put("trace.overhead_ratio", overhead, "ratio");
  return out;
}

void PrintResult(const std::map<std::string, std::pair<double, const char*>>&
                     metrics,
                 uint64_t attempted, uint64_t failed) {
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              static_cast<unsigned long long>(std::max<uint64_t>(attempted, 1)),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, value] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), value.first, value.second);
    first = false;
  }
  std::printf("}}\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->work_dir.empty() &&
         args->seconds > 0.0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload batch|serve|ingest --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR [--trace-out FILE]\n");
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  // Pin the pool width before anything touches the shared pool.
  setenv("LSHE_THREADS", std::to_string(kPoolThreads).c_str(), 1);
  // Pin glibc's mmap threshold at its dynamic maximum (32 MiB on 64-bit).
  // Left dynamic, it rises to the largest freed mmapped block at a point
  // that depends on thread timing, and the ingest workload's peak RSS
  // read either ~137 or ~160 MB from run to run.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  std::filesystem::create_directories(args.work_dir);

  // Host facts a run depends on: results taken on another dispatch
  // target or pool width are not comparable.
  std::printf("host: {\"nproc\": %ld, \"hash_kernel\": \"%s\", "
              "\"lshe_threads\": %d, \"reactors\": %d, \"dispatchers\": %d, "
              "\"connections\": %zu, \"offered_rate_per_s\": %.0f, "
              "\"domains\": %zu, \"num_hashes\": %d, \"shards\": %zu, "
              "\"seed\": %llu, \"seconds\": %g}\n",
              sysconf(_SC_NPROCESSORS_ONLN),
              lshensemble::ActiveKernelOps().name, kPoolThreads, kReactors,
              kDispatchers, kConnections, w->serve_rate, w->domains,
              w->num_hashes, w->shards,
              static_cast<unsigned long long>(args.seed), args.seconds);

  Tracer off(false);
  const RunResult untraced = RunWorkload(*w, args, &off);
  const LoadResult& load = untraced.load;
  std::printf("serve: %llu measured requests at %.0f/s, %llu shed, %llu "
              "errors, %llu unanswered; generator late p99 %.3f ms, max "
              "%.3f ms; run-wide latency p50 %.3f ms, p90 %.3f ms, p99 "
              "%.3f ms, p99.9 %.3f ms\n",
              static_cast<unsigned long long>(load.attempted), w->serve_rate,
              static_cast<unsigned long long>(load.shed),
              static_cast<unsigned long long>(load.errors),
              static_cast<unsigned long long>(load.unanswered),
              Percentile(load.late_ms, 0.99), Percentile(load.late_ms, 1.0),
              Percentile(load.latency_ms, 0.50),
              Percentile(load.latency_ms, 0.90),
              Percentile(load.latency_ms, 0.99),
              Percentile(load.latency_ms, 0.999));
  if (!args.trace) {
    for (const auto& [name, value] : untraced.metrics) {
      std::printf("  %-28s %14.6g %s\n", name.c_str(), value.first,
                  value.second);
    }
    PrintResult(untraced.metrics, untraced.attempted, untraced.failed);
    return 0;
  }

  Tracer tracer(true);
  const RunResult traced = RunWorkload(*w, args, &tracer);
  std::printf("traced run:");
  for (const auto& [name, value] : traced.metrics) {
    std::printf(" %s=%.6g", name.c_str(), value.first);
  }
  std::printf("\n");
  const auto layers = LayerMetrics(*w, tracer, untraced, traced);
  if (!args.trace_out.empty()) {
    if (tracer.Write(args.trace_out)) {
      std::printf("spans: %zu written to %s\n", tracer.size(),
                  args.trace_out.c_str());
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_out.c_str());
    }
  }
  for (const auto& [name, value] : layers) {
    std::printf("  %-34s %14.6g %s\n", name.c_str(), value.first,
                value.second);
  }
  PrintResult(layers, untraced.attempted + traced.attempted,
              untraced.failed + traced.failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
