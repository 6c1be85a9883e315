#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "cluster/cost_model.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/query_processor.h"
#include "datagen/textgen.h"
#include "serving/query_engine.h"
#include "similarity/edit_distance.h"
#include "similarity/jaccard.h"
#include "similarity/tokenizer.h"
#include "storage/file_util.h"

namespace simbench {
namespace {

using simdb::Result;
using simdb::Status;
using simdb::Stopwatch;
namespace adm = simdb::adm;
namespace core = simdb::core;
namespace serving = simdb::serving;
namespace storage = simdb::storage;

// ---------------------------------------------------------------------------
// Fixed workload parameters. They are part of the benchmark's definition:
// changing one changes every number it reports, so it is a benchmark change,
// never part of a change that claims a gain. README.md explains each.

constexpr const char* kDataset = "AmazonReview";
constexpr int64_t kServeRecords = 20000;  // select-serve, ingest-mixed
constexpr int64_t kJoinRecords = 1500;    // join workloads, per dataset
constexpr int kJoinSets = 12;             // join datasets per run
constexpr int kPoolPerKind = 64;          // distinct selection constants
constexpr double kJaccardThreshold = 0.5;  // the Jaccard join
/// Selection thresholds, from the paper's Figure 22 ranges, on the heavy
/// side: a lighter selection's latency on an idle 4-vCPU VM is mostly
/// thread wake-up, which drifts with the host's load by up to 3x.
constexpr double kSelectJaccardThreshold = 0.3;
constexpr int kSelectEdThreshold = 3;
constexpr int kJoinEdThreshold = 1;
constexpr int kSetups = 5;  // setup_s sums each dataset's median of this many
/// Passes over the selection pool that give the selection workloads'
/// jaccard_cpu_ms and ed_cpu_ms.
constexpr int kCpuPasses = 3;
/// Joins per thread count in the traced run's scaling probe.
constexpr int kScalingReps = 2;

/// The open-loop workloads' rates and storage settings.
struct ServeSpec {
  /// Fixed read rate (queries/s) at which read latencies are reported.
  double read_rate = 0;
  /// Fixed insert rate (statements/s); 0 for select-serve.
  double insert_rate = 0;
  storage::LsmOptions lsm;
};

/// select-serve and join-batch keep the engine's default LsmOptions: the
/// loaded data stays in the memory components.
ServeSpec SelectServe() {
  ServeSpec s;
  s.read_rate = 100;
  return s;
}

/// ingest-mixed uses a small memory component so that loading, and then
/// the insert stream, flush and merge runs on disk.
ServeSpec IngestMixed() {
  ServeSpec s;
  s.read_rate = 25;
  s.insert_rate = 50;
  s.lsm.memtable_budget_bytes = 64 * 1024;
  s.lsm.max_runs = 4;
  s.lsm.merge_policy = storage::MergePolicy::kFullMerge;
  return s;
}

const simdb::hyracks::ClusterTopology kTopology{2, 2};

// ---------------------------------------------------------------------------
// Query texts.

std::string Quote(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    if (c == '\'' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "'";
}

std::string JaccardSelect(const std::string& text) {
  return "for $t in dataset AmazonReview where "
         "similarity-jaccard(word-tokens($t.summary), word-tokens(" +
         Quote(text) + ")) >= " + std::to_string(kSelectJaccardThreshold) +
         " return $t.id;";
}

std::string EdSelect(const std::string& name) {
  return "for $t in dataset AmazonReview where edit-distance($t.reviewerName, " +
         Quote(name) + ") <= " + std::to_string(kSelectEdThreshold) +
         " return $t.id;";
}

const std::string kJaccardJoin =
    "count(for $l in dataset AmazonReview for $r in dataset AmazonReview "
    "where similarity-jaccard(word-tokens($l.summary), "
    "word-tokens($r.summary)) >= " +
    std::to_string(kJaccardThreshold) +
    " and $l.id < $r.id return {'l': $l.id, 'r': $r.id});";

const std::string kEdJoin =
    "count(for $l in dataset AmazonReview for $r in dataset AmazonReview "
    "where edit-distance($l.reviewerName, $r.reviewerName) <= " +
    std::to_string(kJoinEdThreshold) +
    " and $l.id < $r.id return {'l': $l.id, 'r': $r.id});";

const std::string kCount =
    "count(for $t in dataset AmazonReview return $t);";

std::string InsertStatement(const adm::Value& record) {
  std::string out = "insert into AmazonReview {";
  bool first = true;
  for (const auto& [name, value] : record.AsObject()) {
    if (!first) out += ", ";
    first = false;
    out += Quote(name) + ": ";
    out += value.is_int64() ? std::to_string(value.AsInt64())
                            : Quote(value.AsString());
  }
  return out + "};";
}

// ---------------------------------------------------------------------------
// Engine set-up.

/// The records a workload loads and inserts, generated once per run from
/// the seed (generation is not part of set-up time).
struct Data {
  std::vector<adm::Value> initial;
  std::vector<adm::Value> inserts;
  std::vector<std::string> texts;  // of the initial records
  std::vector<std::string> names;
};

Data MakeData(uint64_t seed, int64_t initial, int64_t inserts) {
  simdb::datagen::TextDatasetGenerator gen(simdb::datagen::AmazonProfile(),
                                           seed);
  Data data;
  for (int64_t id = 0; id < initial; ++id) {
    data.initial.push_back(gen.NextRecord(id));
  }
  data.texts = gen.texts();
  data.names = gen.names();
  for (int64_t id = initial; id < initial + inserts; ++id) {
    data.inserts.push_back(gen.NextRecord(id));
  }
  return data;
}

/// One engine with the dataset loaded and both similarity indexes built.
class Fixture {
 public:
  static Result<std::unique_ptr<Fixture>> Create(
      const std::string& dir, const std::vector<adm::Value>& records,
      int threads, const storage::LsmOptions& lsm) {
    storage::RemoveAllBestEffort(dir);
    core::EngineOptions eo;
    eo.data_dir = dir;
    eo.topology = kTopology;
    eo.lsm = lsm;
    eo.num_threads = static_cast<size_t>(threads);
    eo.transport = simdb::transport::TransportKind::kModeled;
    serving::ServingOptions so;
    so.max_concurrent = threads;
    so.max_queue = 4096;
    std::unique_ptr<Fixture> f(new Fixture(dir));
    for (const adm::Value& record : records) {
      f->user_bytes_ += record.ToJson().size();
    }
    f->engine_ = std::make_unique<serving::QueryEngine>(eo, so);
    core::QueryProcessor& qp = f->engine_->processor();

    ScopedSpan setup("bench.setup");
    const double cpu0 = CpuNow();
    {
      ScopedSpan span("core.QueryProcessor::Execute");
      SIMDB_RETURN_IF_ERROR(qp.Execute(std::string("create dataset ") +
                                       kDataset + " primary key id;"));
    }
    f->dataset_ = qp.catalog()->Find(kDataset);
    if (f->dataset_ == nullptr) return Status::Internal("dataset missing");
    f->insert_us_.reserve(records.size());
    for (const adm::Value& record : records) {
      double t0 = Now();
      SIMDB_RETURN_IF_ERROR(f->dataset_->Insert(record).status());
      double t1 = Now();
      f->insert_us_.push_back((t1 - t0) * 1e6);
      Tracer::Get().Record("storage.Dataset::Insert", 0, 0, t0, t1);
    }
    ScopedSpan index("storage.index_build");
    for (const char* ddl :
         {"create index smix on AmazonReview(summary) type keyword;",
          "create index nix on AmazonReview(reviewerName) type ngram(2);"}) {
      ScopedSpan span("core.QueryProcessor::Execute");
      SIMDB_RETURN_IF_ERROR(qp.Execute(ddl));
    }
    f->index_seconds_ = index.Close();
    f->setup_seconds_ = setup.Close();
    f->setup_cpu_seconds_ = CpuNow() - cpu0;
    return f;
  }

  ~Fixture() {
    engine_.reset();
    storage::RemoveAllBestEffort(dir_);
  }
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;

  serving::QueryEngine& engine() { return *engine_; }
  core::QueryProcessor& processor() { return engine_->processor(); }
  double setup_seconds() const { return setup_seconds_; }
  /// Process CPU seconds of the set-up (the load and both index builds).
  double setup_cpu_seconds() const { return setup_cpu_seconds_; }
  double index_seconds() const { return index_seconds_; }
  const std::vector<double>& insert_us() const { return insert_us_; }
  /// JSON bytes of every record stored so far (loaded or inserted).
  uint64_t user_bytes() const { return user_bytes_; }
  void AddUserBytes(uint64_t n) { user_bytes_ += n; }

  /// Flushes every memory component, then sums primary and index bytes on
  /// disk. Call only while no query or insert runs.
  Result<uint64_t> DiskBytes() {
    {
      ScopedSpan span("storage.Dataset::FlushAll");
      SIMDB_RETURN_IF_ERROR(dataset_->FlushAll());
    }
    ScopedSpan span("storage.disk_size");
    return dataset_->PrimaryDiskSize() + dataset_->IndexDiskSize("smix") +
           dataset_->IndexDiskSize("nix");
  }

 private:
  explicit Fixture(std::string dir) : dir_(std::move(dir)) {}

  std::string dir_;
  std::unique_ptr<serving::QueryEngine> engine_;
  storage::Dataset* dataset_ = nullptr;
  double setup_seconds_ = 0;
  double setup_cpu_seconds_ = 0;
  double index_seconds_ = 0;
  std::vector<double> insert_us_;
  uint64_t user_bytes_ = 0;
};

/// Medians over kSetups set-ups of one dataset.
struct SetupTimes {
  double cpu_s = 0;   // setup_s
  double wall_s = 0;  // diagnostic only
};

/// Sets up kSetups engines in turn and keeps the last; adds the median
/// set-up times to `times`.
Result<std::unique_ptr<Fixture>> SetUp(const std::string& dir,
                                       const std::vector<adm::Value>& records,
                                       int threads,
                                       const storage::LsmOptions& lsm,
                                       SetupTimes* times) {
  std::vector<double> cpu, wall;
  std::unique_ptr<Fixture> fixture;
  for (int i = 0; i < kSetups; ++i) {
    fixture.reset();
    SIMDB_ASSIGN_OR_RETURN(fixture, Fixture::Create(dir, records, threads, lsm));
    cpu.push_back(fixture->setup_cpu_seconds());
    wall.push_back(fixture->setup_seconds());
  }
  times->cpu_s += Median(cpu);
  times->wall_s += Median(wall);
  return fixture;
}

// ---------------------------------------------------------------------------
// Answers and ground truth.

/// Sorted ids of a selection result; nullopt when a row is not an id.
std::optional<std::vector<int64_t>> Ids(const core::QueryResult& result) {
  std::vector<int64_t> ids;
  ids.reserve(result.rows.size());
  for (const adm::Value& v : result.rows) {
    if (!v.is_int64()) return std::nullopt;
    ids.push_back(v.AsInt64());
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::optional<int64_t> CountOf(const core::QueryResult& result) {
  if (result.rows.size() != 1 || !result.rows[0].is_int64()) {
    return std::nullopt;
  }
  return result.rows[0].AsInt64();
}

struct ReadQuery {
  std::string aql;
  bool jaccard = true;
  /// Scan-plan answers before the run and (ingest-mixed) after it.
  std::vector<int64_t> before;
  std::vector<int64_t> after;
};

/// Selection constants sampled per the paper's protocol: unique field
/// values with at least 3 words (Jaccard) or 8 characters (edit distance).
Result<std::vector<ReadQuery>> MakePool(const Data& data, uint64_t seed) {
  simdb::datagen::WorkloadSampler texts(data.texts,
                                        simdb::Random::Mix(seed ^ 0x11));
  simdb::datagen::WorkloadSampler names(data.names,
                                        simdb::Random::Mix(seed ^ 0x22));
  std::vector<ReadQuery> pool;
  std::set<std::string> seen;
  for (int draws = 0; pool.size() < 2 * static_cast<size_t>(kPoolPerKind);
       ++draws) {
    if (draws > 100 * kPoolPerKind) {
      return Status::Internal("too few distinct selection constants");
    }
    bool jaccard = pool.size() % 2 == 0;
    SIMDB_ASSIGN_OR_RETURN(std::string v, jaccard
                                              ? texts.SampleWithMinWords(3)
                                              : names.SampleWithMinChars(8));
    std::string aql = jaccard ? JaccardSelect(v) : EdSelect(v);
    if (!seen.insert(aql).second) continue;
    ReadQuery q;
    q.aql = std::move(aql);
    q.jaccard = jaccard;
    pool.push_back(std::move(q));
  }
  return pool;
}

/// Answers every pool query with the scan plan (index rewrites off), two
/// queries at a time, into `before` or `after`.
Status ScanAnswers(core::QueryProcessor& qp, std::vector<ReadQuery>* pool,
                   bool after) {
  qp.opt_context().enable_index_select = false;
  std::atomic<size_t> next{0};
  std::vector<Status> errors(2, Status::OK());
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = next++; i < pool->size(); i = next++) {
        core::QueryResult result;
        Status s = qp.ExecuteConcurrent((*pool)[i].aql, {}, &result);
        std::optional<std::vector<int64_t>> ids = Ids(result);
        if (s.ok() && !ids) s = Status::Internal("non-id selection row");
        if (!s.ok()) {
          errors[t] = s;
          return;
        }
        (after ? (*pool)[i].after : (*pool)[i].before) = std::move(*ids);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  qp.opt_context().enable_index_select = true;
  for (const Status& s : errors) SIMDB_RETURN_IF_ERROR(s);
  return Status::OK();
}

/// Paths of the LSM run files under `dir`: flushes and merges each write a
/// new one, so the files present after a phase and not before it count the
/// flushes and merges the phase caused.
std::set<std::string> RunFiles(const std::string& dir) {
  std::set<std::string> files;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    std::string name = it->path().filename().string();
    if (name.rfind("run_", 0) == 0) files.insert(it->path().string());
  }
  return files;
}

bool Includes(const std::vector<int64_t>& outer,
              const std::vector<int64_t>& inner) {
  return std::includes(outer.begin(), outer.end(), inner.begin(), inner.end());
}

// ---------------------------------------------------------------------------
// Per-layer accounting from what the engine returns.

/// Operator classes reported as hyracks.op.<CLASS>.{s,rows_out}.
const char* const kOpClasses[] = {
    "HASH-JOIN", "HASH-GROUP",   "SORT",           "ASSIGN",
    "SELECT",    "UNNEST",       "HASH-EXCHANGE",  "BROADCAST-EXCHANGE",
    "GATHER",    "MERGE-GATHER", "INVERTED-SEARCH", "PRIMARY-LOOKUP"};

std::string OpClass(const std::string& name) {
  return name.substr(0, name.find('('));
}

bool IsVerifyOp(const std::string& name) {
  std::string c = OpClass(name);
  return (c == "SELECT" || c == "ASSIGN" || c == "NL-JOIN") &&
         (name.find("similarity-jaccard") != std::string::npos ||
          name.find("edit-distance") != std::string::npos);
}

uint64_t Counter(const simdb::hyracks::OpStats& op, const char* name) {
  for (const auto& [n, v] : op.counters) {
    if (n == name) return v;
  }
  return 0;
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

/// Per-layer figures from what the engine returns. Compile and execution
/// statistics come with every result (AddExec); operator counters only with
/// profiling on (AddCounters). The serving workloads take the two from
/// different passes, because profiling slows their short queries several
/// fold.
class LayerStats {
 public:
  /// Compile, execution and operator time/row figures of one query; `key`
  /// identifies its text (rules fired are counted once per distinct text).
  void AddExec(const core::QueryResult& r, int key) {
    std::lock_guard<std::mutex> lock(mu_);
    ++queries_;
    parse_ += r.compile.parse_seconds;
    translate_ += r.compile.translate_seconds;
    optimize_ += r.compile.optimize_seconds;
    aqlplus_ += r.compile.aqlplus_seconds;
    jobgen_ += r.compile.jobgen_seconds;
    rules_.emplace(key, r.fired_rules.size());
    exec_ += r.exec.wall_seconds;
    tasks_ += static_cast<double>(r.exec.tasks_executed);
    for (const simdb::hyracks::OpStats& op : r.exec.ops) {
      double secs = Sum(op.partition_seconds);
      OpAcc& acc = ops_[OpClass(op.name)];
      acc.seconds += secs;
      acc.rows_out += static_cast<double>(op.rows_out);
      local_bytes_ += static_cast<double>(op.local_bytes);
      remote_bytes_ += static_cast<double>(op.remote_bytes);
      if (IsVerifyOp(op.name)) {
        verify_s_ += secs;
        verify_pairs_ += static_cast<double>(op.rows_in);
      }
    }
  }

  /// Operator counters of one profiled query; `results` is its answer size.
  void AddCounters(const core::QueryResult& r, uint64_t results) {
    std::lock_guard<std::mutex> lock(mu_);
    ++counted_;
    results_ += static_cast<double>(results);
    for (const simdb::hyracks::OpStats& op : r.exec.ops) {
      batch_rows_ += static_cast<double>(Counter(op, "exec.batch.rows"));
      fallback_rows_ +=
          static_cast<double>(Counter(op, "exec.batch.fallback_rows"));
      cache_hits_ += static_cast<double>(Counter(op, "invsearch.cache_hits"));
      cache_misses_ +=
          static_cast<double>(Counter(op, "invsearch.cache_misses"));
      postings_ += static_cast<double>(Counter(op, "invsearch.postings_read"));
      candidates_ += static_cast<double>(Counter(op, "invsearch.candidates"));
      probes_ += static_cast<double>(Counter(op, "lookup.probes"));
    }
  }

  void Emit(Metrics* m) const {
    std::lock_guard<std::mutex> lock(mu_);
    double q = queries_ > 0 ? static_cast<double>(queries_) : 1;
    double c = counted_ > 0 ? static_cast<double>(counted_) : 1;
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0; };
    (*m)["aql.parse_ms"] = {parse_ / q * 1e3, "ms"};
    (*m)["aql.translate_ms"] = {translate_ / q * 1e3, "ms"};
    (*m)["algebricks.optimize_ms"] = {optimize_ / q * 1e3, "ms"};
    (*m)["core.aqlplus_ms"] = {aqlplus_ / q * 1e3, "ms"};
    (*m)["algebricks.jobgen_ms"] = {jobgen_ / q * 1e3, "ms"};
    double rules = 0;
    for (const auto& [key, n] : rules_) rules += static_cast<double>(n);
    (*m)["algebricks.rules_fired"] = {rules, "count"};
    (*m)["hyracks.exec_ms"] = {exec_ / q * 1e3, "ms"};
    (*m)["hyracks.tasks"] = {tasks_ / q, "count"};
    for (const char* op : kOpClasses) {
      auto it = ops_.find(op);
      OpAcc acc = it == ops_.end() ? OpAcc{} : it->second;
      (*m)[std::string("hyracks.op.") + op + ".s"] = {acc.seconds / q, "s"};
      (*m)[std::string("hyracks.op.") + op + ".rows_out"] = {
          acc.rows_out / q, "rows"};
    }
    (*m)["hyracks.batch_row_frac"] = {
        ratio(batch_rows_, batch_rows_ + fallback_rows_), "frac"};
    (*m)["hyracks.exchange.local_bytes"] = {local_bytes_ / q, "bytes"};
    (*m)["hyracks.exchange.remote_bytes"] = {remote_bytes_ / q, "bytes"};
    (*m)["storage.posting_cache.hit_rate"] = {
        ratio(cache_hits_, cache_hits_ + cache_misses_), "frac"};
    (*m)["storage.invsearch.postings_read"] = {postings_ / c, "count"};
    (*m)["storage.invsearch.candidates"] = {candidates_ / c, "count"};
    (*m)["storage.candidates_per_result"] = {ratio(candidates_, results_),
                                             "ratio"};
    (*m)["storage.lookup.probes"] = {probes_ / c, "count"};
    (*m)["similarity.verify_s"] = {verify_s_ / q, "s"};
    (*m)["similarity.verify_ns_per_pair"] = {
        ratio(verify_s_ * 1e9, verify_pairs_), "ns"};
  }

 private:
  struct OpAcc {
    double seconds = 0;
    double rows_out = 0;
  };
  mutable std::mutex mu_;
  uint64_t queries_ = 0;
  uint64_t counted_ = 0;
  double parse_ = 0, translate_ = 0, optimize_ = 0, aqlplus_ = 0, jobgen_ = 0;
  std::map<int, size_t> rules_;
  double exec_ = 0, tasks_ = 0, results_ = 0;
  std::map<std::string, OpAcc> ops_;
  double local_bytes_ = 0, remote_bytes_ = 0;
  double batch_rows_ = 0, fallback_rows_ = 0;
  double cache_hits_ = 0, cache_misses_ = 0;
  double postings_ = 0, candidates_ = 0, probes_ = 0;
  double verify_s_ = 0, verify_pairs_ = 0;
};

/// Records the engine-reported durations of one query as child spans of
/// `parent`, laid end to end from `start` (compile phases, then execution).
void RecordCompileSpans(const core::QueryResult& r, uint64_t query,
                        uint64_t parent, double start) {
  Tracer& tr = Tracer::Get();
  if (!tr.enabled()) return;
  double t = start;
  const std::pair<const char*, double> phases[] = {
      {"aql.parse", r.compile.parse_seconds},
      {"aql.translate", r.compile.translate_seconds},
      {"algebricks.optimize", r.compile.optimize_seconds},
      {"algebricks.jobgen", r.compile.jobgen_seconds},
      {"hyracks.exec", r.exec.wall_seconds}};
  for (const auto& [name, secs] : phases) {
    uint64_t id = tr.Record(name, query, parent, t, t + secs);
    if (std::string(name) == "algebricks.optimize" &&
        r.compile.aqlplus_seconds > 0) {
      tr.Record("core.aqlplus", query, id, t, t + r.compile.aqlplus_seconds);
    }
    t += secs;
  }
}

// ---------------------------------------------------------------------------
// Open-loop reads through the serving layer.

struct Arrival {
  double due;  // seconds from the phase start
  int query;   // pool index
};

/// Poisson arrivals at `rate` for `duration` seconds. Queries cycle through
/// a seeded permutation of the pool, so every text runs equally often.
std::vector<Arrival> Schedule(simdb::Random& rng, double rate, double duration,
                              const std::vector<int>& order, size_t* cursor) {
  std::vector<Arrival> out;
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    if (t >= duration) break;
    out.push_back({t, order[(*cursor)++ % order.size()]});
  }
  return out;
}

struct ReadSample {
  int query = 0;
  double due = 0;  // absolute, Now() clock
  double latency_ms = 0;
  double queue_ms = 0;
  double exec_ms = 0;
  double lag_ms = 0;
  bool ok = false;
};

/// Checks one selection answer; false counts the read as failed.
using ReadCheck = std::function<bool(int query, const std::vector<int64_t>&)>;

/// Latency charged to a failed or refused operation: it misses any limit.
constexpr double kFailedLatencyMs = 1e9;

/// Sends `arrivals` from the calling thread, sleeping until each read is
/// due, then waits for every ticket. One generator thread is enough (a
/// submit costs tens of microseconds) and leaves the CPUs to the engine. A
/// read's latency runs from its due time to the end of its execution: the
/// submit call's return plus the queue and execution times its ticket
/// reports.
std::vector<ReadSample> RunReads(serving::QueryEngine& engine,
                                 const std::vector<ReadQuery>& pool,
                                 const std::vector<Arrival>& arrivals,
                                 const ReadCheck& check, LayerStats* layers,
                                 uint64_t* refused) {
  struct Pending {
    ReadSample sample;
    double submitted = 0;
    uint64_t trace_query = 0;
    uint64_t submit_span = 0;
    std::shared_ptr<serving::QueryTicket> ticket;
  };
  std::vector<Pending> pending(arrivals.size());
  Tracer& tr = Tracer::Get();
  const double t0 = Now() + 0.002;
  for (size_t i = 0; i < arrivals.size(); ++i) {
    Pending& p = pending[i];
    p.sample.query = arrivals[i].query;
    p.sample.due = t0 + arrivals[i].due;
    SleepUntil(p.sample.due);
    double start = Now();
    p.sample.lag_ms = (start - p.sample.due) * 1e3;
    p.trace_query = tr.NewQueryId();
    Result<std::shared_ptr<serving::QueryTicket>> ticket =
        engine.Submit(pool[p.sample.query].aql);
    p.submitted = Now();
    p.submit_span = tr.Record("serving.QueryEngine::Submit", p.trace_query,
                              0, start, p.submitted);
    if (ticket.ok()) p.ticket = std::move(ticket).value();
  }

  std::vector<ReadSample> out;
  out.reserve(pending.size());
  for (Pending& p : pending) {
    ReadSample s = p.sample;
    if (p.ticket == nullptr) {
      ++*refused;
      s.latency_ms = kFailedLatencyMs;
      out.push_back(s);
      continue;
    }
    const Status& status = p.ticket->Wait();
    double queue = p.ticket->queue_seconds();
    double exec = p.ticket->exec_seconds();
    s.queue_ms = queue * 1e3;
    s.exec_ms = exec * 1e3;
    s.latency_ms = (p.submitted - s.due + queue + exec) * 1e3;
    const core::QueryResult& result = p.ticket->result();
    std::optional<std::vector<int64_t>> ids;
    if (status.ok()) ids = Ids(result);
    s.ok = ids.has_value() && check(s.query, *ids);
    if (!s.ok) {
      std::fprintf(stderr, "simbench: read %d failed: %s\n", s.query,
                   status.ok() ? "wrong answer" : status.ToString().c_str());
      s.latency_ms = kFailedLatencyMs;
    }
    if (layers != nullptr && status.ok()) layers->AddExec(result, s.query);
    if (tr.enabled()) {
      tr.Record("serving.queue", p.trace_query, p.submit_span, p.submitted,
                p.submitted + queue);
      uint64_t exec_span =
          tr.Record("core.QueryProcessor::ExecuteConcurrent", p.trace_query,
                    p.submit_span, p.submitted + queue,
                    p.submitted + queue + exec);
      RecordCompileSpans(result, p.trace_query, exec_span,
                         p.submitted + queue);
    }
    p.ticket.reset();
    out.push_back(s);
  }
  return out;
}

/// Inserts `records` through AQL `insert into` statements at the due times
/// of `dues` (absolute, Now() clock), one statement at a time. Returns each
/// insert's latency from its due time; failures get kFailedLatencyMs.
std::vector<double> RunInserts(Fixture& fx,
                               const std::vector<adm::Value>& records,
                               const std::vector<double>& dues,
                               uint64_t* failed, uint64_t* done,
                               const std::atomic<bool>& stop) {
  std::vector<double> latencies;
  latencies.reserve(dues.size());
  for (size_t i = 0; i < dues.size() && i < records.size(); ++i) {
    SleepUntil(dues[i]);
    if (stop.load()) break;
    std::string stmt = InsertStatement(records[i]);
    uint64_t trace_query = Tracer::Get().NewQueryId();
    Status s;
    {
      ScopedSpan span("core.QueryProcessor::Execute(insert)", trace_query);
      s = fx.processor().Execute(stmt);
    }
    double end = Now();
    if (s.ok()) {
      ++*done;
      fx.AddUserBytes(records[i].ToJson().size());
      latencies.push_back((end - dues[i]) * 1e3);
    } else {
      ++*failed;
      std::fprintf(stderr, "simbench: insert failed: %s\n",
                   s.ToString().c_str());
      latencies.push_back(kFailedLatencyMs);
    }
  }
  return latencies;
}

// ---------------------------------------------------------------------------
// Run bookkeeping shared by the workloads.

struct Run {
  const RunOptions& opt;
  RunResult result;
  std::string data_dir;
  std::vector<std::string> notes;  // JSON members for the details line

  explicit Run(const RunOptions& o)
      : opt(o), data_dir(o.work_dir + "/data-" + std::to_string(::getpid())) {}

  void Fail(const std::string& what) {
    result.correct = false;
    std::fprintf(stderr, "simbench: %s\n", what.c_str());
  }
  void Note(const std::string& key, const std::string& json) {
    notes.push_back(JsonString(key) + ": " + json);
  }
  void Note(const std::string& key, double v) { Note(key, JsonNumber(v)); }
  void Set(const std::string& name, double v, const char* unit) {
    result.metrics[name] = {v, unit};
  }
};

std::vector<int> Permutation(size_t n, simdb::Random& rng) {
  std::vector<int> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<int>(i);
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.Uniform(i)]);
  }
  return order;
}

/// The read latencies (diagnostic only): medians per similarity function,
/// and the larger of the two functions' tails.
void NoteReadLatencies(Run& run, const std::vector<double>& jaccard,
                       const std::vector<double>& ed) {
  run.Note("jaccard_p50_ms", Quantile(jaccard, 0.5));
  run.Note("ed_p50_ms", Quantile(ed, 0.5));
  run.Note("read_tail_ms",
           std::max(TailQuantile(jaccard), TailQuantile(ed)));
}

void AddServingLayer(const std::vector<ReadSample>& reads,
                     uint64_t peak_queue_depth, uint64_t refused, Metrics* m) {
  std::vector<double> queue, exec, lag;
  for (const ReadSample& r : reads) {
    queue.push_back(r.queue_ms);
    exec.push_back(r.exec_ms);
    lag.push_back(r.lag_ms);
  }
  (*m)["serving.queue_wait_ms.p50"] = {Quantile(queue, 0.5), "ms"};
  (*m)["serving.queue_wait_ms.p99"] = {Quantile(queue, 0.99), "ms"};
  (*m)["serving.exec_ms.p50"] = {Quantile(exec, 0.5), "ms"};
  (*m)["serving.shed"] = {static_cast<double>(refused), "count"};
  (*m)["serving.peak_queue_depth"] = {static_cast<double>(peak_queue_depth),
                                      "count"};
  (*m)["bench.generator_lag_ms.p99"] = {Quantile(lag, 0.99), "ms"};
}

/// Per-layer metrics a workload has no traffic for are reported as the
/// zero they measure; this fills every name the catalogue lists.
void FillLayerDefaults(Metrics* m) {
  for (const char* name :
       {"serving.queue_wait_ms.p50", "serving.queue_wait_ms.p99",
        "serving.exec_ms.p50", "serving.shed", "serving.peak_queue_depth",
        "bench.generator_lag_ms.p99"}) {
    if (m->count(name) == 0) {
      (*m)[name] = {0, std::string(name).find("_ms") != std::string::npos
                           ? "ms"
                           : "count"};
    }
  }
}

/// Bytes on disk after a final flush, and the records' own (JSON) bytes.
struct DiskUse {
  uint64_t disk = 0;
  uint64_t user = 0;
};

/// Checks the final record count, then measures the dataset's disk use.
DiskUse FinishStorage(Run& run, Fixture& fx, int64_t expected_records) {
  core::QueryResult result;
  Status s;
  {
    ScopedSpan span("core.QueryProcessor::Execute");
    s = fx.processor().Execute(kCount, &result);
  }
  std::optional<int64_t> n = CountOf(result);
  ++run.result.attempted;
  if (!s.ok() || !n || *n != expected_records) {
    ++run.result.failed;
    run.Fail("final count() " + (n ? std::to_string(*n) : s.ToString()) +
             " != " + std::to_string(expected_records));
  }
  Result<uint64_t> disk = fx.DiskBytes();
  if (!disk.ok()) {
    run.Fail("disk size: " + disk.status().ToString());
    return {};
  }
  return {disk.value(), fx.user_bytes()};
}

void ReportDisk(Run& run, const DiskUse& use) {
  if (run.opt.trace) {
    run.Set("storage.disk_bytes", static_cast<double>(use.disk), "bytes");
  } else {
    run.Set("disk_bytes_per_user_byte",
            static_cast<double>(use.disk) /
                static_cast<double>(std::max<uint64_t>(1, use.user)),
            "B/B");
  }
  run.Note("disk_bytes", static_cast<double>(use.disk));
  run.Note("user_bytes", static_cast<double>(use.user));
}

void StorageLayer(Run& run, Fixture& fx) {
  run.Set("storage.insert_us.p50", Median(fx.insert_us()), "us");
  run.Set("storage.index_build_s", fx.index_seconds(), "s");
}

// ---------------------------------------------------------------------------
// Join scaling probe (traced runs): the join-batch queries at one thread
// and at nproc threads.

struct JoinTimes {
  std::vector<double> wall;  // per query
  double compute = 0;        // summed operator partition seconds
  double makespan = 0;       // cost-model critical path
  double network = 0;        // modeled network seconds
  int64_t jaccard_count = -1;
  int64_t ed_count = -1;
};

Result<int64_t> RunJoin(core::QueryProcessor& qp, bool jaccard,
                        core::QueryResult* result) {
  // The AQL+ three-stage plan runs only when the index join is off.
  qp.opt_context().enable_index_join = !jaccard;
  Status s;
  {
    ScopedSpan span(jaccard ? "core.QueryProcessor::Execute(jaccard-join)"
                            : "core.QueryProcessor::Execute(ed-join)");
    s = qp.Execute(jaccard ? kJaccardJoin : kEdJoin, result);
  }
  qp.opt_context().enable_index_join = true;
  SIMDB_RETURN_IF_ERROR(s);
  std::optional<int64_t> n = CountOf(*result);
  if (!n) return Status::Internal("join returned no count");
  return *n;
}

Result<JoinTimes> TimeJoins(core::QueryProcessor& qp, int reps) {
  JoinTimes t;
  for (int rep = 0; rep < reps; ++rep) {
    for (bool jaccard : {true, false}) {
      core::QueryResult r;
      Stopwatch sw;
      SIMDB_ASSIGN_OR_RETURN(int64_t n, RunJoin(qp, jaccard, &r));
      t.wall.push_back(sw.ElapsedSeconds());
      (jaccard ? t.jaccard_count : t.ed_count) = n;
      for (const auto& op : r.exec.ops) t.compute += Sum(op.partition_seconds);
      simdb::cluster::MakespanReport mk;
      {
        ScopedSpan span("cluster.ComputeMakespan");
        mk = simdb::cluster::ComputeMakespan(r.exec, kTopology);
      }
      t.makespan += mk.total_seconds();
      t.network += mk.network_seconds;
    }
  }
  t.compute /= reps;
  t.makespan /= reps;
  t.network /= reps;
  return t;
}

/// hyracks.speedup, hyracks.compute_inflation and the 1-thread cluster
/// figures, from the join-batch dataset at 1 and nproc threads.
Status JoinScaling(Run& run, const Data& join_data) {
  JoinTimes at[2];
  const int threads[2] = {1, run.opt.threads};
  for (int i = 0; i < 2; ++i) {
    SIMDB_ASSIGN_OR_RETURN(
        std::unique_ptr<Fixture> fx,
        Fixture::Create(run.data_dir + "-scaling", join_data.initial,
                        threads[i], storage::LsmOptions{}));
    fx->processor().set_profile_queries(true);
    SIMDB_ASSIGN_OR_RETURN(at[i], TimeJoins(fx->processor(), kScalingReps));
  }
  if (at[0].jaccard_count != at[1].jaccard_count ||
      at[0].ed_count != at[1].ed_count) {
    run.Fail("join counts differ between 1 and nproc threads");
  }
  run.result.attempted += 4 * kScalingReps;
  run.Set("hyracks.speedup", Sum(at[0].wall) / Sum(at[1].wall), "x");
  run.Set("hyracks.compute_inflation", at[1].compute / at[0].compute, "x");
  run.Set("cluster.makespan_s", at[0].makespan, "s");
  run.Set("cluster.network_modeled_s", at[0].network, "s");
  return Status::OK();
}

/// jaccard_cpu_ms and ed_cpu_ms of the selection workloads: every pool
/// query kCpuPasses times, one at a time through the serving layer, each
/// timed on the process CPU clock and checked against `expected`; the
/// figure is the median per similarity function.
void SelectionCpu(Run& run, serving::QueryEngine& engine,
                  const std::vector<ReadQuery>& pool,
                  const std::function<const std::vector<int64_t>&(int)>&
                      expected) {
  std::vector<double> cpu[2];
  for (int pass = 0; pass < kCpuPasses; ++pass) {
    for (size_t q = 0; q < pool.size(); ++q) {
      const double cpu0 = CpuNow();
      Result<std::shared_ptr<serving::QueryTicket>> ticket =
          engine.Submit(pool[q].aql);
      bool ok = ticket.ok() && ticket.value()->Wait().ok();
      double cpu_used_ms = (CpuNow() - cpu0) * 1e3;
      std::optional<std::vector<int64_t>> ids;
      if (ok) ids = Ids(ticket.value()->result());
      ++run.result.attempted;
      if (!ids || *ids != expected(static_cast<int>(q))) {
        ++run.result.failed;
        run.Fail("cpu-pass selection " + std::to_string(q) + " failed");
        cpu_used_ms = kFailedLatencyMs;
      }
      cpu[pool[q].jaccard ? 0 : 1].push_back(cpu_used_ms);
    }
  }
  run.Set("jaccard_cpu_ms", Median(cpu[0]), "ms");
  run.Set("ed_cpu_ms", Median(cpu[1]), "ms");
}

// ---------------------------------------------------------------------------
// Workloads.

/// Provenance and set-up facts shared by every workload.
void NoteCommon(Run& run, int64_t records, int generators,
                const storage::LsmOptions& lsm) {
  run.Note("dataset_records", static_cast<double>(records));
  run.Note("lsm", "{\"memtable_budget_bytes\": " +
                      std::to_string(lsm.memtable_budget_bytes) +
                      ", \"max_runs\": " + std::to_string(lsm.max_runs) +
                      ", \"merge_policy\": " +
                      (lsm.merge_policy == storage::MergePolicy::kFullMerge
                           ? "\"full\"}"
                           : "\"size-tiered\"}"));
  run.Note("engine_threads", run.opt.threads);
  run.Note("serving_max_concurrent", run.opt.threads);
  run.Note("generator_threads", generators);
  run.Note("topology", "\"2x2\"");
  run.Note("transport", "\"modeled\"");
}

/// select-serve and ingest-mixed: reads at a fixed rate with the answer
/// checks around them; ingest-mixed runs its insert stream beside the reads.
Status ServeWorkload(Run& run, const ServeSpec& spec) {
  const RunOptions& opt = run.opt;
  const bool inserts = spec.insert_rate > 0;
  const double window = opt.seconds;
  // Traced runs first read untraced for 30% of the window (the reference
  // for the tracing overhead), then traced for half of it.
  const double fixed_secs = opt.trace ? window * 0.5 : window;
  const int64_t insert_cap =
      inserts ? static_cast<int64_t>(spec.insert_rate * window * 1.5) + 100
              : 0;
  Data data = MakeData(opt.seed, kServeRecords, insert_cap);
  SIMDB_ASSIGN_OR_RETURN(std::vector<ReadQuery> pool,
                         MakePool(data, opt.seed));
  SetupTimes setup;
  SIMDB_ASSIGN_OR_RETURN(
      std::unique_ptr<Fixture> fx,
      SetUp(run.data_dir, data.initial, opt.threads, spec.lsm, &setup));
  // Generator threads: the reads' (RunReads) and the inserts'.
  NoteCommon(run, kServeRecords, inserts ? 2 : 1, spec.lsm);
  run.Note("read_rate_qps", spec.read_rate);
  run.Note("insert_rate_per_s", spec.insert_rate);
  run.Note("pool_queries", static_cast<double>(pool.size()));

  // Ground truth, outside the timed window.
  {
    ScopedSpan span("bench.ground_truth");
    SIMDB_RETURN_IF_ERROR(ScanAnswers(fx->processor(), &pool, false));
  }
  ReadCheck check = [&](int q, const std::vector<int64_t>& ids) {
    if (!inserts) return ids == pool[q].before;
    return Includes(ids, pool[q].before);  // upper bound checked after
  };
  // ingest-mixed keeps every answer for the check against the final state.
  std::vector<std::pair<int, std::vector<int64_t>>> mixed_answers;
  ReadCheck check_mixed = [&](int q, const std::vector<int64_t>& ids) {
    if (!check(q, ids)) return false;
    mixed_answers.emplace_back(q, ids);
    return true;
  };
  const ReadCheck& reads_check = inserts ? check_mixed : check;

  simdb::Random rng(simdb::Random::Mix(opt.seed ^ 0x33));
  std::vector<int> order = Permutation(pool.size(), rng);
  size_t cursor = 0;

  // The insert stream runs beside every read phase of ingest-mixed.
  std::atomic<bool> stop_inserts{false};
  std::vector<double> insert_lat;
  uint64_t insert_failed = 0, inserted = 0;
  std::thread insert_thread;
  auto start_inserts = [&](double duration) {
    simdb::Random irng(simdb::Random::Mix(opt.seed ^ 0x44));
    std::vector<double> dues;
    double t = Now() + 0.002;
    const double end = t + duration;
    while (dues.size() < data.inserts.size()) {
      t += -std::log(1.0 - irng.NextDouble()) / spec.insert_rate;
      if (t >= end) break;
      dues.push_back(t);
    }
    insert_thread = std::thread([&, dues] {
      insert_lat = RunInserts(*fx, data.inserts, dues, &insert_failed,
                              &inserted, stop_inserts);
    });
  };

  const std::set<std::string> runs_before = RunFiles(run.data_dir);
  uint64_t refused = 0;
  LayerStats layers;
  std::vector<ReadSample> fixed;
  double reference_exec_ms = 0;

  if (opt.trace) {
    // Untraced reference for the tracing overhead, then the traced phase.
    const double ref_secs = window * 0.3;
    if (inserts) start_inserts(ref_secs + fixed_secs + 0.5);
    Tracer::Get().Disable();
    std::vector<ReadSample> ref = RunReads(
        fx->engine(), pool, Schedule(rng, spec.read_rate, ref_secs, order,
                                     &cursor),
        reads_check, nullptr, &refused);
    std::vector<double> ref_exec;
    for (const ReadSample& r : ref) ref_exec.push_back(r.exec_ms);
    reference_exec_ms = Sum(ref_exec) / std::max<size_t>(1, ref_exec.size());
    run.result.attempted += ref.size();
    for (const ReadSample& r : ref) run.result.failed += r.ok ? 0 : 1;
    Tracer::Get().Enable();
    fixed = RunReads(fx->engine(), pool,
                     Schedule(rng, spec.read_rate, fixed_secs, order, &cursor),
                     reads_check, &layers, &refused);
    // Operator counters: every pool query once more, one at a time, with
    // profiling on.
    fx->processor().set_profile_queries(true);
    for (size_t q = 0; q < pool.size(); ++q) {
      ScopedSpan span("bench.profiled_read");
      Result<std::shared_ptr<serving::QueryTicket>> ticket =
          fx->engine().Submit(pool[q].aql);
      bool ok = ticket.ok() && ticket.value()->Wait().ok();
      std::optional<std::vector<int64_t>> ids;
      if (ok) ids = Ids(ticket.value()->result());
      ok = ids && reads_check(static_cast<int>(q), *ids);
      ++run.result.attempted;
      if (!ok) {
        ++run.result.failed;
        run.Fail("profiled read " + std::to_string(q) + " failed");
        continue;
      }
      layers.AddCounters(ticket.value()->result(), ids->size());
    }
    fx->processor().set_profile_queries(false);
  } else {
    if (inserts) start_inserts(fixed_secs + 0.5);
    ResetPeakRss();
    fixed = RunReads(fx->engine(), pool,
                     Schedule(rng, spec.read_rate, fixed_secs, order, &cursor),
                     reads_check, nullptr, &refused);
    run.Set("peak_rss_mb", PeakRssMb(), "MB");
  }
  stop_inserts = true;
  if (insert_thread.joinable()) insert_thread.join();
  size_t runs_written = 0;
  for (const std::string& f : RunFiles(run.data_dir)) {
    runs_written += runs_before.count(f) == 0;
  }
  run.Note("lsm_runs_written", static_cast<double>(runs_written));
  run.result.attempted += fixed.size();
  for (const ReadSample& r : fixed) run.result.failed += r.ok ? 0 : 1;

  if (inserts) {
    run.result.attempted += inserted + insert_failed;
    run.result.failed += insert_failed;
    run.Note("inserts_done", static_cast<double>(inserted));
    run.Note("insert_p50_ms", Quantile(insert_lat, 0.5));
    run.Note("insert_p99_ms", Quantile(insert_lat, 0.99));
  }

  // Answer checks that need the final state (ingest-mixed): every answer
  // seen during the run lies between the scan answers before and after,
  // and the index plan now agrees with the scan plan exactly.
  if (inserts) {
    ScopedSpan span("bench.ground_truth");
    SIMDB_RETURN_IF_ERROR(ScanAnswers(fx->processor(), &pool, true));
    for (const auto& [q, ids] : mixed_answers) {
      if (!Includes(pool[q].after, ids)) {
        ++run.result.failed;
        run.Fail("read " + std::to_string(q) + " saw a record never inserted");
      }
    }
    for (size_t q = 0; q < pool.size(); ++q) {
      core::QueryResult result;
      Status s = fx->processor().ExecuteConcurrent(pool[q].aql, {}, &result);
      std::optional<std::vector<int64_t>> ids = Ids(result);
      ++run.result.attempted;
      if (!s.ok() || !ids || *ids != pool[q].after) {
        ++run.result.failed;
        run.Fail("final selection " + std::to_string(q) +
                 " differs from the scan plan");
      }
    }
  }
  ReportDisk(run, FinishStorage(run, *fx,
                                kServeRecords + static_cast<int64_t>(inserted)));

  if (opt.trace) {
    AddServingLayer(fixed, fx->engine().Stats().peak_queue_depth, refused,
                    &run.result.metrics);
    layers.Emit(&run.result.metrics);
    StorageLayer(run, *fx);
    std::vector<double> exec;
    for (const ReadSample& r : fixed) exec.push_back(r.exec_ms);
    double traced_exec_ms = Sum(exec) / std::max<size_t>(1, exec.size());
    run.Set("observability.trace_overhead_frac",
            reference_exec_ms > 0 ? traced_exec_ms / reference_exec_ms - 1 : 0,
            "frac");
    fx.reset();
    Data join_data = MakeData(opt.seed, kJoinRecords, 0);
    SIMDB_RETURN_IF_ERROR(JoinScaling(run, join_data));
  } else {
    std::vector<double> jac, ed;
    for (const ReadSample& r : fixed) {
      (pool[r.query].jaccard ? jac : ed).push_back(r.latency_ms);
    }
    run.Set("setup_s", setup.cpu_s, "s");
    run.Note("setup_wall_s", setup.wall_s);
    NoteReadLatencies(run, jac, ed);
    SelectionCpu(run, fx->engine(), pool,
                 [&](int q) -> const std::vector<int64_t>& {
                   return inserts ? pool[q].after : pool[q].before;
                 });
    run.Note("fixed_phase_reads", static_cast<double>(fixed.size()));
    std::vector<double> queue, exec, lag;
    for (const ReadSample& r : fixed) {
      queue.push_back(r.queue_ms);
      exec.push_back(r.exec_ms);
      lag.push_back(r.lag_ms);
    }
    run.Note("fixed_phase_queue_ms_p50", Quantile(queue, 0.5));
    run.Note("fixed_phase_exec_ms_p50", Quantile(exec, 0.5));
    run.Note("fixed_phase_lag_ms_p99", Quantile(lag, 0.99));
  }
  return Status::OK();
}

/// Both joins' counts over every pair of records, computed directly with
/// the engine's similarity functions and no query plan: the ground truth
/// the join plans are checked against, outside the window.
void BruteForceCounts(const Data& data, int64_t expected[2]) {
  namespace sim = simdb::similarity;
  const size_t n = data.texts.size();
  std::vector<std::vector<std::string>> tokens(n);
  for (size_t i = 0; i < n; ++i) {
    tokens[i] = sim::WordTokens(data.texts[i]);
    std::sort(tokens[i].begin(), tokens[i].end());
  }
  expected[0] = expected[1] = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      // Length filter: a multiset Jaccard is at most min/max of the sizes.
      const double lo = std::min(tokens[i].size(), tokens[j].size());
      const double hi = std::max(tokens[i].size(), tokens[j].size());
      if (lo / hi >= kJaccardThreshold &&
          sim::JaccardSorted(tokens[i], tokens[j]) >= kJaccardThreshold) {
        ++expected[0];
      }
      if (sim::EditDistanceCheck(data.names[i], data.names[j],
                                 kJoinEdThreshold) >= 0) {
        ++expected[1];
      }
    }
  }
}

/// The non-index nested-loop plan's count for each join (index join and
/// three-stage rewrites off): the cross-check of BruteForceCounts.
Status NestedLoopCounts(core::QueryProcessor& qp, int64_t expected[2]) {
  ScopedSpan span("bench.ground_truth");
  qp.opt_context().enable_index_join = false;
  qp.opt_context().enable_three_stage_join = false;
  Status status;
  for (int k = 0; k < 2 && status.ok(); ++k) {
    core::QueryResult r;
    status = qp.Execute(k == 0 ? kJaccardJoin : kEdJoin, &r);
    std::optional<int64_t> n = CountOf(r);
    if (status.ok() && !n) status = Status::Internal("join returned no count");
    if (status.ok()) expected[k] = *n;
  }
  qp.opt_context().enable_index_join = true;
  qp.opt_context().enable_three_stage_join = true;
  return status;
}

/// join-batch (`clients` = 0): one client, one query at a time through
/// QueryProcessor::Execute, alternating the AQL+ three-stage Jaccard self
/// join and the index nested-loop edit-distance join.
/// join-serve (`clients` > 0): that many closed-loop clients submit one
/// join kind, then the other, through serving::QueryEngine, with the
/// index-join rewrite on for both (the engine's optimizer settings are
/// shared by concurrent queries).
/// The window is split over kJoinSets datasets generated from seeds derived
/// from the run's seed, set up one after another: a join's cost follows how
/// many similar pairs its data holds, which differs from seed to seed, and
/// averaging over several datasets keeps one draw from setting a run's
/// figures. The gated figures are process CPU time per join, not wall time:
/// on a shared host the wall time of a four-thread join follows how many
/// vCPUs the host lends the run, and CPU time does not.
Status JoinWorkload(Run& run, int clients) {
  const RunOptions& opt = run.opt;
  std::vector<ReadSample> serving_samples;  // traced join-serve runs
  uint64_t peak_depth = 0;
  const double segment = opt.seconds / kJoinSets;
  LayerStats layers;
  DiskUse disk;
  SetupTimes setup;
  double rss = 0;
  double cpu_ms[2] = {0, 0}, wall_ms[2] = {0, 0};
  double traced_s = 0, reference_s = 0;  // traced runs: summed round times
  int traced_rounds = 0, reference_rounds = 0;
  int rounds = 0;
  Data first;
  for (int i = 0; i < kJoinSets; ++i) {
    Data data = MakeData(simdb::Random::Mix(opt.seed + 0x100 * (i + 1)),
                         kJoinRecords, 0);
    SIMDB_ASSIGN_OR_RETURN(std::unique_ptr<Fixture> fx,
                           SetUp(run.data_dir, data.initial, opt.threads,
                                 storage::LsmOptions{}, &setup));
    core::QueryProcessor& qp = fx->processor();
    int64_t expected[2] = {0, 0};
    {
      ScopedSpan span("bench.ground_truth");
      BruteForceCounts(data, expected);
    }
    if (i == 0) {
      int64_t planned[2] = {0, 0};
      SIMDB_RETURN_IF_ERROR(NestedLoopCounts(qp, planned));
      if (planned[0] != expected[0] || planned[1] != expected[1]) {
        ++run.result.failed;
        run.Fail("the nested-loop plan's join counts differ from the "
                 "brute-force counts");
      }
    }
    char pairs[64];
    std::snprintf(pairs, sizeof(pairs), "[%lld, %lld]",
                  static_cast<long long>(expected[0]),
                  static_cast<long long>(expected[1]));
    run.Note("expected_pairs_" + std::to_string(i), std::string(pairs));

    // Per join kind: wall and CPU milliseconds of each join (join-batch)
    // or of each closed-loop phase's joins on average (join-serve).
    std::vector<double> ms[2], cpu[2], round_rss;
    auto round = [&](LayerStats* acc) {
      ResetPeakRss();
      for (int k = 0; k < 2; ++k) {
        const bool jaccard = k == 0;
        core::QueryResult r;
        Stopwatch sw;
        const double cpu0 = CpuNow();
        Result<int64_t> n = RunJoin(qp, jaccard, &r);
        double elapsed_ms = sw.ElapsedSeconds() * 1e3;
        double cpu_used_ms = (CpuNow() - cpu0) * 1e3;
        ++run.result.attempted;
        if (!n.ok() || n.value() != expected[k]) {
          ++run.result.failed;
          run.Fail(std::string(jaccard ? "jaccard" : "ed") + " join: " +
                   (n.ok() ? "count " + std::to_string(n.value())
                           : n.status().ToString()));
          elapsed_ms = cpu_used_ms = kFailedLatencyMs;
        }
        ms[k].push_back(elapsed_ms);
        cpu[k].push_back(cpu_used_ms);
        if (acc != nullptr && n.ok()) {
          acc->AddExec(r, k);
          acc->AddCounters(r, static_cast<uint64_t>(n.value()));
        }
      }
      round_rss.push_back(PeakRssMb());
    };

    // Peak RSS is measured from a trimmed heap, so that it does not carry
    // what the allocator kept from earlier queries: without this,
    // join-serve's peak RSS spread 0.12 over ten seeds, as the heap grew
    // through some runs and not others. join-batch trims once per dataset,
    // because trimming before every round made each join fault its memory
    // in again and raised the Jaccard join's CPU time by about 15%.
    if (clients == 0) {
      TrimHeap();
      // Traced runs alternate untraced rounds (the tracing-overhead
      // reference) with traced, profiled ones.
      const double start = Now();
      int segment_rounds = 0;
      do {
        const bool traced = opt.trace && segment_rounds % 2 == 1;
        if (opt.trace) {
          traced ? Tracer::Get().Enable() : Tracer::Get().Disable();
          qp.set_profile_queries(traced);
        }
        Stopwatch sw;
        round(traced ? &layers : nullptr);
        (traced ? traced_s : reference_s) += sw.ElapsedSeconds();
        ++(traced ? traced_rounds : reference_rounds);
        ++segment_rounds;
      } while (Now() < start + segment || (opt.trace && segment_rounds < 2));
      rounds += segment_rounds;
    } else {
      // One closed-loop phase per join kind, so that the process CPU time
      // a phase used divided by the joins it completed is that kind's CPU
      // cost per join. Every client completes at least one join a phase.
      // Traced runs spend the first half of each phase untraced (the
      // reference) and the second half traced and profiled.
      std::mutex mu;
      auto client = [&](int k, double until, bool traced) {
        do {
          double t0 = Now();
          Result<std::shared_ptr<serving::QueryTicket>> ticket =
              fx->engine().Submit(k == 0 ? kJaccardJoin : kEdJoin);
          bool ok = ticket.ok() && ticket.value()->Wait().ok();
          double elapsed_ms = (Now() - t0) * 1e3;
          std::optional<int64_t> n;
          if (ok) n = CountOf(ticket.value()->result());
          std::lock_guard<std::mutex> lock(mu);
          ++run.result.attempted;
          ++rounds;
          if (!n || *n != expected[k]) {
            ++run.result.failed;
            run.Fail(std::string(k == 0 ? "jaccard" : "ed") + " join failed");
            elapsed_ms = kFailedLatencyMs;
          }
          ms[k].push_back(elapsed_ms);
          (traced ? traced_s : reference_s) += elapsed_ms;
          ++(traced ? traced_rounds : reference_rounds);
          if (traced && n) {
            const serving::QueryTicket& t = *ticket.value();
            layers.AddExec(t.result(), k);
            layers.AddCounters(t.result(), static_cast<uint64_t>(*n));
            ReadSample s;
            s.queue_ms = t.queue_seconds() * 1e3;
            s.exec_ms = t.exec_seconds() * 1e3;
            serving_samples.push_back(s);
          }
        } while (Now() < until);
      };
      auto phase = [&](int k, double until, bool traced) {
        const size_t done = ms[k].size();
        const double cpu0 = CpuNow();
        std::vector<std::thread> threads;
        for (int c = 0; c < clients; ++c) {
          threads.emplace_back(client, k, until, traced);
        }
        for (std::thread& t : threads) t.join();
        const size_t joins = ms[k].size() - done;
        if (joins > 0) cpu[k].push_back((CpuNow() - cpu0) * 1e3 / joins);
      };
      for (int k = 0; k < 2; ++k) {
        const double start = Now(), end = start + segment / 2;
        TrimHeap();
        ResetPeakRss();
        if (opt.trace) {
          Tracer::Get().Disable();
          qp.set_profile_queries(false);
          phase(k, start + segment / 4, false);
          Tracer::Get().Enable();
          qp.set_profile_queries(true);
        }
        phase(k, end, opt.trace);
        round_rss.push_back(PeakRssMb());
      }
      peak_depth = std::max(peak_depth, fx->engine().Stats().peak_queue_depth);
    }
    // Each figure is the mean over the datasets of that dataset's median.
    for (int k = 0; k < 2; ++k) {
      cpu_ms[k] += Median(cpu[k]) / kJoinSets;
      wall_ms[k] += Median(ms[k]) / kJoinSets;
    }
    rss += Median(round_rss) / kJoinSets;

    DiskUse one = FinishStorage(run, *fx, kJoinRecords);
    disk.disk += one.disk;
    disk.user += one.user;
    if (i == 0) {
      if (opt.trace) StorageLayer(run, *fx);
      first = std::move(data);
    }
  }
  NoteCommon(run, kJoinRecords * kJoinSets, std::max(1, clients),
             storage::LsmOptions{});
  run.Note(clients == 0 ? "rounds" : "joins", rounds);
  ReportDisk(run, disk);

  if (opt.trace) {
    if (clients > 0) {
      AddServingLayer(serving_samples, peak_depth, 0, &run.result.metrics);
    }
    FillLayerDefaults(&run.result.metrics);
    layers.Emit(&run.result.metrics);
    run.Set("observability.trace_overhead_frac",
            (traced_s / traced_rounds) / (reference_s / reference_rounds) - 1,
            "frac");
    SIMDB_RETURN_IF_ERROR(JoinScaling(run, first));
  } else {
    run.Set("setup_s", setup.cpu_s, "s");
    run.Note("setup_wall_s", setup.wall_s);
    run.Set("jaccard_cpu_ms", cpu_ms[0], "ms");
    run.Set("ed_cpu_ms", cpu_ms[1], "ms");
    run.Set("peak_rss_mb", rss, "MB");
    run.Note("jaccard_p50_ms", wall_ms[0]);
    run.Note("ed_p50_ms", wall_ms[1]);
  }
  return Status::OK();
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "select-serve" || name == "join-batch" ||
         name == "join-serve" || name == "ingest-mixed";
}

/// Nanoseconds per step of a fixed single-threaded integer loop: how fast
/// this host ran plain CPU work around the run (diagnostic only).
double CpuCalibrationNs() {
  constexpr uint64_t kSteps = 20'000'000;
  volatile uint64_t sink = 0;
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  double t0 = Now();
  for (uint64_t i = 0; i < kSteps; ++i) x = simdb::Random::Mix(x + i);
  sink = x;
  (void)sink;
  return (Now() - t0) * 1e9 / kSteps;
}

RunResult RunWorkload(const RunOptions& options) {
  Run run(options);
  run.Note("cpu_calibration_ns_before", CpuCalibrationNs());
  const double steal0 = StealSeconds();
  if (options.trace) Tracer::Get().Enable();
  Status s = storage::EnsureDir(options.work_dir);
  if (s.ok()) {
    if (options.workload == "join-batch") {
      s = JoinWorkload(run, 0);
    } else if (options.workload == "join-serve") {
      s = JoinWorkload(run, options.threads);
    } else {
      s = ServeWorkload(run, options.workload == "ingest-mixed"
                                 ? IngestMixed()
                                 : SelectServe());
    }
  }
  storage::RemoveAllBestEffort(run.data_dir);
  storage::RemoveAllBestEffort(run.data_dir + "-scaling");
  run.Note("cpu_calibration_ns_after", CpuCalibrationNs());
  run.Note("host_steal_s", StealSeconds() - steal0);
  if (!s.ok()) {
    run.result.error = s.ToString();
    run.result.correct = false;
  }
  if (run.result.failed > 0) run.result.correct = false;
  std::string details = "{";
  for (size_t i = 0; i < run.notes.size(); ++i) {
    details += (i ? ", " : "") + run.notes[i];
  }
  run.result.details = details + "}";
  return run.result;
}

}  // namespace simbench
