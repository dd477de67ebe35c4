#include "pipeline.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <utility>

#include "data/csv.h"
#include "data/table.h"
#include "util/random.h"
#include "workload/generator.h"

namespace perfbench {

using lshensemble::Corpus;
using lshensemble::Domain;
using lshensemble::MinHash;
using lshensemble::QuerySpec;
using lshensemble::Rng;
using lshensemble::ShardedEnsemble;
using lshensemble::Status;

namespace {

constexpr size_t kColumnsPerTable = 16;
constexpr uint64_t kCorpusSeed = 20160905;

double Seconds(uint64_t start_ns, uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/// Sketch every query of `set` on the pool.
void SketchQueries(const lshensemble::ParallelSketcher& sketcher,
                   QuerySet* set) {
  Corpus queries;
  for (const Domain& domain : set->domains) queries.Add(domain);
  set->sketches = sketcher.SketchCorpus(queries);
}

/// Corpus positions in ascending domain size (ties by position).
std::vector<size_t> BySize(const Corpus& corpus) {
  std::vector<size_t> order(corpus.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return corpus.domain(a).size() < corpus.domain(b).size();
  });
  return order;
}

/// Systematic sample: `count` positions evenly spaced over [0, n) from a
/// seeded offset. Every seed draws one item per stratum, so the sampled
/// size profile, and with it the work per query set, barely moves with
/// the seed.
std::vector<size_t> Spread(size_t n, size_t count, Rng& rng) {
  std::vector<size_t> picks(count);
  const double stride = static_cast<double>(n) / static_cast<double>(count);
  const double offset = rng.NextDouble() * stride;
  for (size_t i = 0; i < count; ++i) {
    picks[i] = std::min(
        n - 1, static_cast<size_t>(offset + static_cast<double>(i) * stride));
  }
  return picks;
}

/// Low-discrepancy sequence in [0, 1): frac(offset + i * step). Two
/// irrational steps keep a query's size and containment uncorrelated.
constexpr double kGolden = 0.6180339887498949;
constexpr double kPlastic = 0.7548776662466927;
double Sequence(size_t i, double step, double offset) {
  const double x = offset + static_cast<double>(i) * step;
  return x - static_cast<double>(static_cast<uint64_t>(x));
}

Domain Planted(const Domain& target, size_t query_size, double containment,
               uint64_t query_id, Rng& rng) {
  auto query = lshensemble::MakeQueryWithContainment(
      target, query_size, containment, query_id, rng);
  if (!query.ok()) {
    std::fprintf(stderr, "query generation failed: %s\n",
                 query.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(query).value();
}

}  // namespace

Corpus GenerateCorpus(size_t num_domains) {
  lshensemble::CorpusGenOptions options;
  options.num_domains = num_domains;
  options.min_size = 5;
  options.max_size = 50000;
  options.alpha = 2.2;
  options.shared_vocabulary = 20000;
  options.shared_fraction = 0.05;
  options.shared_zipf_s = 1.05;
  options.seed = kCorpusSeed;
  auto corpus = lshensemble::CorpusGenerator(options).Generate();
  if (!corpus.ok()) {
    std::fprintf(stderr, "corpus generation failed: %s\n",
                 corpus.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(corpus).value();
}

std::vector<std::string> WriteCsvTables(const Corpus& corpus,
                                        const std::string& dir) {
  std::filesystem::create_directories(dir);
  const std::vector<size_t> order = BySize(corpus);
  std::vector<std::string> files;
  std::string text;
  char cell[24];
  for (size_t first = 0; first < order.size(); first += kColumnsPerTable) {
    const size_t last = std::min(first + kColumnsPerTable, order.size());
    text.clear();
    size_t rows = 0;
    for (size_t c = first; c < last; ++c) {
      if (c > first) text.push_back(',');
      text += "col" + std::to_string(c - first);
      rows = std::max(rows, corpus.domain(order[c]).size());
    }
    text.push_back('\n');
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = first; c < last; ++c) {
        if (c > first) text.push_back(',');
        const Domain& domain = corpus.domain(order[c]);
        if (r < domain.size()) {
          const int n = std::snprintf(
              cell, sizeof(cell), "%llx",
              static_cast<unsigned long long>(domain.values[r]));
          text.append(cell, static_cast<size_t>(n));
        }
      }
      text.push_back('\n');
    }
    const std::string path =
        dir + "/table" + std::to_string(files.size()) + ".csv";
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr ||
        std::fwrite(text.data(), 1, text.size(), f) != text.size() ||
        std::fclose(f) != 0) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      std::exit(1);
    }
    files.push_back(path);
  }
  return files;
}

void ProbeTotals::Add(const lshensemble::QueryStats& stats,
                      size_t num_candidates) {
  ++queries;
  candidates += num_candidates;
  partitions_probed += stats.partitions_probed;
  partitions_pruned += stats.partitions_pruned;
  partitions_filter_skipped += stats.partitions_filter_skipped;
  slot0_cache_hits += stats.slot0_cache_hits;
  slot0_gallop_resumes += stats.slot0_gallop_resumes;
}

void ProbeTotals::Merge(const ProbeTotals& other) {
  queries += other.queries;
  candidates += other.candidates;
  partitions_probed += other.partitions_probed;
  partitions_pruned += other.partitions_pruned;
  partitions_filter_skipped += other.partitions_filter_skipped;
  slot0_cache_hits += other.slot0_cache_hits;
  slot0_gallop_resumes += other.slot0_gallop_resumes;
}

Status TracedBatchQuery(const ShardedEnsemble& engine,
                        std::span<const QuerySpec> specs,
                        std::vector<uint64_t>* outs, Tracer* tracer,
                        uint32_t parent, ProbeTotals* totals) {
  if (!tracer->enabled()) return engine.BatchQuery(specs, outs);
  std::vector<lshensemble::QueryStats> stats(specs.size());
  Status status;
  {
    ScopedSpan span(tracer, "core.query", parent);
    status = engine.BatchQuery(specs, outs, stats.data());
  }
  if (status.ok() && totals != nullptr) {
    for (size_t i = 0; i < specs.size(); ++i) {
      totals->Add(stats[i], outs[i].size());
    }
  }
  return status;
}

Status Ingest(const std::vector<std::string>& files,
              const lshensemble::ParallelSketcher& sketcher,
              ShardedEnsemble* engine, const std::string& snapshot_dir,
              Tracer* tracer, uint32_t parent, IngestTimes* times,
              InterleavedReads* reads, Corpus* parsed) {
  uint64_t next_id = 1;
  size_t since_read = 0;
  std::vector<std::vector<uint64_t>> read_outs;
  if (reads != nullptr) read_outs.resize(reads->specs.size());
  for (const std::string& file : files) {
    Corpus table_domains;
    uint64_t start = NowNanos();
    {
      ScopedSpan span(tracer, "data.parse", parent);
      auto table = lshensemble::ReadCsvFile(file);
      if (!table.ok()) return table.status();
      for (Domain& domain : lshensemble::ExtractDomains(table.value(),
                                                         next_id)) {
        table_domains.Add(std::move(domain));
      }
    }
    uint64_t end = NowNanos();
    times->parse_s += Seconds(start, end);
    next_id += table_domains.size();

    std::vector<MinHash> sketches;
    start = NowNanos();
    {
      ScopedSpan span(tracer, "minhash.sketch", parent);
      sketches = sketcher.SketchCorpus(table_domains);
    }
    end = NowNanos();
    times->sketch_s += Seconds(start, end);

    for (size_t i = 0; i < table_domains.size(); ++i) {
      const Domain& domain = table_domains.domain(i);
      start = NowNanos();
      Status status =
          engine->Insert(domain.id, domain.size(), std::move(sketches[i]));
      end = NowNanos();
      if (!status.ok()) return status;
      // An insert that leaves the delta empty ran the engine's own
      // rebuild policy; its time is flush time.
      const bool rebuilt = engine->delta_size() == 0;
      tracer->Add(rebuilt ? "core.flush" : "core.insert", start, end,
                  parent);
      (rebuilt ? times->flush_s : times->insert_s) += Seconds(start, end);
      if (rebuilt) ++times->flushes;
      ++times->domains;
      times->values += domain.size();

      if (reads != nullptr && ++since_read == reads->every) {
        since_read = 0;
        reads->delta_sum += engine->delta_size();
        start = NowNanos();
        status = TracedBatchQuery(*engine, reads->specs, read_outs.data(),
                                  tracer, parent, &reads->probes);
        end = NowNanos();
        if (!status.ok()) return status;
        reads->query_s += Seconds(start, end);
        reads->queries += reads->specs.size();
        ++reads->batches;
      }
    }
    if (parsed != nullptr) {
      for (const Domain& domain : table_domains.domains()) {
        parsed->Add(domain);
      }
    }
  }

  const bool dirty = engine->delta_size() > 0;
  uint64_t start = NowNanos();
  {
    ScopedSpan span(tracer, "core.flush", parent);
    Status status = engine->Flush();
    if (!status.ok()) return status;
  }
  times->flush_s += Seconds(start, NowNanos());
  if (dirty) ++times->flushes;

  std::filesystem::remove_all(snapshot_dir);
  start = NowNanos();
  {
    ScopedSpan span(tracer, "io.save", parent);
    Status status = engine->SaveSnapshot(snapshot_dir);
    if (!status.ok()) return status;
  }
  times->save_s += Seconds(start, NowNanos());
  return Status::OK();
}

std::vector<QuerySpec> QuerySet::Specs() const {
  std::vector<QuerySpec> specs(size());
  for (size_t i = 0; i < size(); ++i) {
    specs[i].query = &sketches[i];
    specs[i].query_size = domains[i].size();
    specs[i].t_star = kThreshold;
  }
  return specs;
}

std::vector<lshensemble::TopKQuery> QuerySet::TopKQueries() const {
  std::vector<lshensemble::TopKQuery> queries(size());
  for (size_t i = 0; i < size(); ++i) {
    queries[i].query = &sketches[i];
    queries[i].query_size = domains[i].size();
  }
  return queries;
}

QuerySet BuildSearchQueries(const Corpus& indexed,
                            const lshensemble::ParallelSketcher& sketcher,
                            uint64_t seed, size_t native, size_t small,
                            size_t large) {
  Rng rng(seed ^ 0x5eed5eed5eedULL);
  const std::vector<size_t> by_size = BySize(indexed);
  QuerySet set;
  for (size_t pick : Spread(by_size.size(), native, rng)) {
    set.domains.push_back(indexed.domain(by_size[pick]));
  }
  // Planted targets: any domain with >= 10 values for the small
  // queries, the largest 1% of domains for the large ones.
  size_t first_small = 0;
  while (first_small + 1 < by_size.size() &&
         indexed.domain(by_size[first_small]).size() < 10) {
    ++first_small;
  }
  const size_t first_large = by_size.size() - std::max<size_t>(
                                                  1, by_size.size() / 100);
  uint64_t query_id = 1;
  for (const bool is_small : {true, false}) {
    const size_t first = is_small ? first_small : first_large;
    const size_t count = is_small ? small : large;
    const std::vector<size_t> picks =
        Spread(by_size.size() - first, count, rng);
    const double size_offset = rng.NextDouble();
    const double containment_offset = rng.NextDouble();
    for (size_t i = 0; i < count; ++i) {
      const Domain& target = indexed.domain(by_size[first + picks[i]]);
      const size_t want =
          is_small ? 5 + static_cast<size_t>(96 * Sequence(i, kPlastic,
                                                           size_offset))
                   : target.size();
      const double containment =
          0.5 + 0.5 * Sequence(i, kGolden, containment_offset);
      set.domains.push_back(Planted(target, std::min(want, target.size()),
                                    containment, query_id++, rng));
    }
  }
  SketchQueries(sketcher, &set);
  return set;
}

QuerySet BuildServePool(const Corpus& indexed,
                        const lshensemble::ParallelSketcher& sketcher,
                        uint64_t seed, size_t count) {
  Rng rng(seed ^ 0xc01dc01dc01dULL);
  const std::vector<size_t> by_size = BySize(indexed);
  const size_t num_native = count / 4;
  const std::vector<size_t> cold = Spread(by_size.size(), count - num_native,
                                          rng);
  const std::vector<size_t> native = Spread(by_size.size(), num_native, rng);
  QuerySet set;
  uint64_t query_id = 1;
  size_t next_cold = 0;
  size_t next_native = 0;
  for (size_t i = 0; i < count; ++i) {
    if (i % 4 == 3 && next_native < native.size()) {
      set.domains.push_back(indexed.domain(by_size[native[next_native++]]));
      continue;
    }
    const Domain& target = indexed.domain(by_size[cold[next_cold++]]);
    set.domains.push_back(Planted(target, std::max<size_t>(20, target.size()),
                                  0.05, query_id++, rng));
  }
  SketchQueries(sketcher, &set);
  return set;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

}  // namespace perfbench
