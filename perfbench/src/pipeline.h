// Inputs and the ingest pipeline of the benchmark.
//
// Everything the library sees is generated here: a WDC-Web-Tables-like
// power-law corpus written out as CSV tables, and query sets built
// against the domains parsed back from those tables.
// The ingest pipeline drives the library only through its public entry
// points: ReadCsvFile -> ExtractDomains -> ParallelSketcher ->
// ShardedEnsemble::Insert -> Flush -> SaveSnapshot.

#ifndef PERFBENCH_PIPELINE_H_
#define PERFBENCH_PIPELINE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/sharded_ensemble.h"
#include "data/corpus.h"
#include "data/sketcher.h"
#include "minhash/minhash.h"
#include "trace.h"
#include "util/status.h"

namespace perfbench {

/// Containment threshold of every threshold query.
inline constexpr double kThreshold = 0.5;

/// The WDC Web Tables stand-in: power-law domain sizes in [5, 50000]
/// (alpha 2.2) drawn from vocabulary pools, plus 5% Zipf-popular tokens
/// shared corpus-wide. Like the paper's corpora it is one fixed data
/// set: the workload seed picks the queries and their arrival order, not
/// the data, so every run indexes and searches the same domains.
lshensemble::Corpus GenerateCorpus(size_t num_domains);

/// Write the corpus into `dir` as CSV tables of up to 16 columns each
/// (domains of similar size share a table; shorter columns are padded
/// with empty cells, which domain extraction drops). Values are written
/// as hex strings. Returns the file paths in ingest order.
std::vector<std::string> WriteCsvTables(const lshensemble::Corpus& corpus,
                                        const std::string& dir);

/// Probe counters summed from the QueryStats overload of BatchQuery.
/// That overload switches off the engine-wide Bloom fast-reject, so these
/// counts describe the stats path, not the path untraced queries take.
struct ProbeTotals {
  uint64_t queries = 0;
  uint64_t candidates = 0;
  uint64_t partitions_probed = 0;
  uint64_t partitions_pruned = 0;
  uint64_t partitions_filter_skipped = 0;
  uint64_t slot0_cache_hits = 0;
  uint64_t slot0_gallop_resumes = 0;

  void Add(const lshensemble::QueryStats& stats, size_t candidates);
  void Merge(const ProbeTotals& other);
};

/// BatchQuery, traced as one "core.query" span; with tracing on it goes
/// through the QueryStats overload and sums the counters into `totals`.
lshensemble::Status TracedBatchQuery(
    const lshensemble::ShardedEnsemble& engine,
    std::span<const lshensemble::QuerySpec> specs,
    std::vector<uint64_t>* outs, Tracer* tracer, uint32_t parent,
    ProbeTotals* totals);

/// Reads interleaved with an ingest: one BatchQuery of `specs` after
/// every `every` inserts, against the delta-carrying index.
struct InterleavedReads {
  size_t every = 0;
  std::span<const lshensemble::QuerySpec> specs;
  // Filled by Ingest():
  double query_s = 0.0;
  uint64_t queries = 0;
  uint64_t batches = 0;
  uint64_t delta_sum = 0;  // delta_size() summed over the read batches
  ProbeTotals probes;
};

/// Time split of one ingest pipeline.
struct IngestTimes {
  double parse_s = 0.0;   // ReadCsvFile + ExtractDomains
  double sketch_s = 0.0;  // ParallelSketcher
  double insert_s = 0.0;  // Insert calls that did not rebuild
  double flush_s = 0.0;   // explicit Flush + inserts that rebuilt
  double save_s = 0.0;    // SaveSnapshot
  uint64_t domains = 0;
  uint64_t values = 0;
  uint64_t flushes = 0;

  double pipeline_s() const {
    return parse_s + sketch_s + insert_s + flush_s + save_s;
  }
};

/// Run the pipeline over `files` into `engine`, then Flush and save a v2
/// snapshot to `snapshot_dir`. `reads` (optional) interleaves queries.
/// `parsed` (optional) receives the parsed domains, in id order.
lshensemble::Status Ingest(const std::vector<std::string>& files,
                           const lshensemble::ParallelSketcher& sketcher,
                           lshensemble::ShardedEnsemble* engine,
                           const std::string& snapshot_dir, Tracer* tracer,
                           uint32_t parent, IngestTimes* times,
                           InterleavedReads* reads,
                           lshensemble::Corpus* parsed);

/// Queries with the values they were sketched from (for exact truth).
struct QuerySet {
  std::vector<lshensemble::Domain> domains;
  std::vector<lshensemble::MinHash> sketches;

  size_t size() const { return domains.size(); }
  std::vector<lshensemble::QuerySpec> Specs() const;
  std::vector<lshensemble::TopKQuery> TopKQueries() const;
};

/// Domain-search queries: `native` indexed domains, then `small` and
/// `large` planted-containment queries (containment in [0.5, 1] of a
/// target; small ones of 5-100 values, large ones the size of a target
/// among the largest 1% of domains). Each group is in ascending size of
/// its domain or target, drawn by systematic sampling from a seeded
/// offset, so every seed gets the same size profile.
QuerySet BuildSearchQueries(const lshensemble::Corpus& indexed,
                            const lshensemble::ParallelSketcher& sketcher,
                            uint64_t seed, size_t native, size_t small,
                            size_t large);

/// Serving traffic: 3 of 4 are cold ad-hoc tables (5% containment in a
/// target, so almost all values are new to the index) and 1 of 4 are
/// indexed domains, interleaved; targets and domains are systematic
/// samples like BuildSearchQueries'.
QuerySet BuildServePool(const lshensemble::Corpus& indexed,
                        const lshensemble::ParallelSketcher& sketcher,
                        uint64_t seed, size_t count);

/// Total bytes of the regular files in `dir`.
uint64_t DirectoryBytes(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_PIPELINE_H_
