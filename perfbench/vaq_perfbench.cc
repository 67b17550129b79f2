// One run of the VAQ performance benchmark (see perfbench/README.md).
//
//   vaq_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --work-dir <dir>
//
// Generates the workload's vectors and queries from the seed, computes
// exact k-NN itself, builds the index (twice, for a median set-up time),
// saves and reloads it, then measures a single-client closed loop of
// Search calls and a two-thread SearchBatchInto pass. With --trace 1 it
// also runs interleaved traced/untraced passes and a scan-kernel probe
// and prints the per-layer metrics instead of the end-to-end ones.
// Every answer is checked against computations made here, outside the
// index. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Progress and every metric, both sets, go to stderr.
//
// Internal mode, used for resident_bytes_per_vector so that each measured
// Load runs in a fresh heap:
//   vaq_perfbench --load-probe <workload> <index file>

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdarg>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "core/scan.h"
#include "core/vaq_index.h"
#include "datasets/synthetic.h"
#include "index/vaq_ivf.h"

namespace {

using vaq::FloatMatrix;
using vaq::Neighbor;
using vaq::QueryPhase;
using vaq::SearchMode;
using vaq::SearchScratch;
using vaq::SearchStats;
using vaq::Status;
using Clock = std::chrono::steady_clock;

// Shared index settings of every workload.
constexpr size_t kSubspaces = 32;
constexpr size_t kBudgetBits = 256;
// Lloyd iterations per dictionary. The library default (25) makes one
// set-up of these workloads take 14-41 s on one core; two iterations keep
// every pipeline stage in set-up at a cost the run budget can repeat.
constexpr int kKmeansIters = 2;
constexpr size_t kTrainThreads = 1;
constexpr size_t kBatchThreads = 2;
constexpr double kQueryNoise = 0.1;
constexpr uint64_t kIndexSeed = 42;

constexpr uint64_t kCorpusSeed = 2022;

constexpr int kSetupRepeats = 2;
constexpr int kRssProbes = 3;
constexpr size_t kMinLoads = 5;
constexpr double kLoadBudgetSeconds = 0.3;
constexpr int kValidateRepeats = 3;
// Undisturbed single-client samples a run collects at least (every run
// makes at least two passes). With 1000 queries, ten lie above the p99.
constexpr size_t kMinLatencySamples = 1200;
// A single-client sample whose wall time exceeds its thread CPU time by
// more than max(20 us, 5%) ran while the thread was descheduled (host
// steal or another process); it is counted and left out of the latency
// percentiles. A batch is judged the same way on the sums over its
// queries, and batch_qps is taken over undisturbed batches.
constexpr double kDescheduledMinMicros = 20.0;
constexpr double kDescheduledShare = 0.05;
constexpr size_t kMinCleanBatches = 5;
// Single-client queries run on one CPU before the thread moves on.
constexpr size_t kRotateQueries = 100;
// Relative tolerance between a float distance returned by the index and
// the same distance recomputed here in double precision.
constexpr double kDistanceRelTol = 1e-5;

struct Workload {
  const char* name;
  vaq::SyntheticKind kind;
  size_t n;            ///< database vectors
  size_t train_n;      ///< leading vectors given to Train; the rest to Add
  size_t num_queries;  ///< distinct queries, cycled by the closed loop
  size_t k;
  bool ivf;            ///< VaqIvfIndex instead of the flat VaqIndex
  SearchMode mode;     ///< flat index only
  double visit_fraction;
  size_t ti_clusters;
  size_t coarse_k;     ///< IVF only
  size_t nprobe;       ///< IVF only
  size_t adc_sample;   ///< queries whose exhaustive ADC k-th is checked
  /// Queries per SearchBatchInto call, for ~30 ms batches: short batches
  /// let batch_qps skip the ones the host disturbed.
  size_t batch_queries;
};

// sift100k-ea keeps 100 TI clusters: the early-abandon scan never reads
// the partition, and at 1000 clusters its single-threaded rebuild over
// 100k codes alone takes ~21 s, more than a run can spend on set-up.
const Workload kWorkloads[] = {
    {"sift100k-ea", vaq::SyntheticKind::kSiftLike, 100000, 10000, 1000, 10,
     false, SearchMode::kEarlyAbandon, 1.0, 100, 0, 0, 16, 20},
    {"sift20k-ti", vaq::SyntheticKind::kSiftLike, 20000, 20000, 1000, 100,
     false, SearchMode::kTriangleInequality, 0.25, 1000, 0, 0, 16, 100},
    {"sald20k-ivf", vaq::SyntheticKind::kSaldLike, 20000, 20000, 1000, 10,
     true, SearchMode::kEarlyAbandon, 1.0, 1000, 256, 8, 0, 200},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
double Micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double hi = v[mid];
  return (*std::max_element(v.begin(), v.begin() + mid) + hi) / 2.0;
}

/// Nearest-rank percentile, p in (0, 1].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
  return v[std::max<size_t>(rank, 1) - 1];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / v.size();
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Runs fn(i) for i in [0, n) on up to four threads (inputs and checks
/// only; nothing timed runs here).
template <typename Fn>
void ParallelFor(size_t n, const Fn& fn) {
  const size_t threads = std::clamp<size_t>(
      std::thread::hardware_concurrency(), 1, std::min<size_t>(4, n));
  std::vector<std::thread> workers;
  const size_t chunk = (n + threads - 1) / threads;
  for (size_t t = 0; t < threads; ++t) {
    const size_t begin = t * chunk;
    const size_t end = std::min(n, begin + chunk);
    if (begin >= end) break;
    workers.emplace_back([&fn, begin, end] {
      for (size_t i = begin; i < end; ++i) fn(i);
    });
  }
  for (auto& worker : workers) worker.join();
}

size_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  size_t size_pages = 0, resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<size_t>(sysconf(_SC_PAGESIZE));
}

void Log(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
void Log(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::fprintf(stderr, "[perfbench] ");
  std::vfprintf(stderr, fmt, args);
  std::fprintf(stderr, "\n");
  va_end(args);
}

// ---------------------------------------------------------------------------
// The two index types behind one interface.

class BenchIndex {
 public:
  static vaq::VaqOptions Options(const Workload& w) {
    vaq::VaqOptions o;
    o.num_subspaces = kSubspaces;
    o.total_bits = kBudgetBits;
    o.kmeans_iters = kKmeansIters;
    o.train_threads = kTrainThreads;
    o.ti_clusters = w.ti_clusters;
    o.seed = kIndexSeed;
    return o;
  }

  /// Train (+ Add); `add_seconds` receives the Add time (0 without Add).
  static Status Build(const Workload& w, const FloatMatrix& train,
                      const FloatMatrix& rest, BenchIndex* out,
                      double* add_seconds) {
    *add_seconds = 0.0;
    if (w.ivf) {
      vaq::VaqIvfOptions io;
      io.vaq = Options(w);
      io.coarse_k = w.coarse_k;
      io.default_nprobe = w.nprobe;
      auto built = vaq::VaqIvfIndex::Train(train, io);
      if (!built.ok()) return built.status();
      out->ivf_ = std::make_unique<vaq::VaqIvfIndex>(std::move(*built));
      return Status::OK();
    }
    auto built = vaq::VaqIndex::Train(train, Options(w));
    if (!built.ok()) return built.status();
    out->flat_ = std::make_unique<vaq::VaqIndex>(std::move(*built));
    if (rest.rows() > 0) {
      const auto t0 = Clock::now();
      Status st = out->flat_->Add(rest);
      *add_seconds = Seconds(t0, Clock::now());
      return st;
    }
    return Status::OK();
  }

  static Status Load(const Workload& w, const std::string& path,
                     BenchIndex* out) {
    if (w.ivf) {
      auto loaded = vaq::VaqIvfIndex::Load(path);
      if (!loaded.ok()) return loaded.status();
      out->ivf_ = std::make_unique<vaq::VaqIvfIndex>(std::move(*loaded));
    } else {
      auto loaded = vaq::VaqIndex::Load(path);
      if (!loaded.ok()) return loaded.status();
      out->flat_ = std::make_unique<vaq::VaqIndex>(std::move(*loaded));
    }
    return Status::OK();
  }

  const vaq::VaqIndex* flat() const { return flat_.get(); }
  size_t size() const { return flat_ ? flat_->size() : ivf_->size(); }
  size_t dim() const { return flat_ ? flat_->dim() : ivf_->dim(); }

  Status Search(const Workload& w, const float* q, vaq::QueryTrace* trace,
                SearchScratch* scratch, std::vector<Neighbor>* out,
                SearchStats* stats) const {
    if (flat_) {
      vaq::SearchParams p = Params(w);
      p.trace = trace;
      return flat_->Search(q, p, scratch, out, stats);
    }
    vaq::QueryControl control;
    control.trace = trace;
    return ivf_->Search(q, w.k, w.nprobe, control, scratch, out, stats);
  }

  Status SearchBatch(const Workload& w, const FloatMatrix& queries,
                     std::vector<std::vector<Neighbor>>* results,
                     std::vector<Status>* statuses,
                     std::vector<SearchStats>* stats) const {
    if (flat_) {
      return flat_->SearchBatchInto(queries, Params(w), kBatchThreads,
                                    results, statuses, stats);
    }
    return ivf_->SearchBatchInto(queries, w.k, w.nprobe, vaq::QueryControl{},
                                 kBatchThreads, results, statuses, stats);
  }

  Status Save(const std::string& path) const {
    return flat_ ? flat_->Save(path) : ivf_->Save(path);
  }
  Status Validate() const {
    return flat_ ? flat_->ValidateInvariants() : ivf_->ValidateInvariants();
  }
  /// Answers one all-zero query: the index is ready.
  Status AnswerOne(const Workload& w) const {
    std::vector<float> query(dim(), 0.f);
    SearchScratch scratch;
    std::vector<Neighbor> out;
    return Search(w, query.data(), nullptr, &scratch, &out, nullptr);
  }

  const std::vector<int>& bits() const {
    return flat_ ? flat_->bits_per_subspace() : ivf_->bits_per_subspace();
  }

 private:
  static vaq::SearchParams Params(const Workload& w) {
    vaq::SearchParams p;
    p.k = w.k;
    p.mode = w.mode;
    p.visit_fraction = w.visit_fraction;
    return p;
  }

  std::unique_ptr<vaq::VaqIndex> flat_;
  std::unique_ptr<vaq::VaqIvfIndex> ivf_;
};

// ---------------------------------------------------------------------------
// Outputs.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  size_t attempted = 0;
  size_t failed = 0;

  /// Counts one operation; returns `ok`.
  bool Op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
    return ok;
  }
  void E2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
};

void PrintJson(const Report& r, bool trace) {
  std::string s = "{\"correct\": ";
  s += r.failed == 0 ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(r.attempted);
  s += ", \"failed\": " + std::to_string(r.failed);
  s += ", \"metrics\": {";
  const std::vector<Metric>& metrics = trace ? r.per_layer : r.end_to_end;
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    if (i > 0) s += ", ";
    s += "\"" + metrics[i].name + "\": {\"value\": " + value +
         ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Checks computed outside the index.

/// Exact k-NN in double precision over the raw vectors.
std::vector<std::vector<int64_t>> ExactKnn(const FloatMatrix& data,
                                           const FloatMatrix& queries,
                                           size_t k) {
  std::vector<std::vector<int64_t>> truth(queries.rows());
  ParallelFor(queries.rows(), [&](size_t q) {
    std::vector<std::pair<double, int64_t>> dist(data.rows());
    const float* qv = queries.row(q);
    for (size_t r = 0; r < data.rows(); ++r) {
      const float* x = data.row(r);
      double acc = 0.0;
      for (size_t j = 0; j < data.cols(); ++j) {
        const double diff = static_cast<double>(qv[j]) - x[j];
        acc += diff * diff;
      }
      dist[r] = {acc, static_cast<int64_t>(r)};
    }
    std::partial_sort(dist.begin(), dist.begin() + k, dist.end());
    truth[q].resize(k);
    for (size_t i = 0; i < k; ++i) truth[q][i] = dist[i].second;
  });
  return truth;
}

/// k entries, distinct in-range ids, distances ascending.
bool ValidList(const std::vector<Neighbor>& list, size_t k, size_t n) {
  if (list.size() != k) return false;
  std::vector<int64_t> ids;
  ids.reserve(k);
  for (size_t i = 0; i < list.size(); ++i) {
    if (list[i].id < 0 || static_cast<size_t>(list[i].id) >= n) return false;
    if (!std::isfinite(list[i].distance)) return false;
    if (i > 0 && list[i].distance < list[i - 1].distance) return false;
    ids.push_back(list[i].id);
  }
  std::sort(ids.begin(), ids.end());
  return std::adjacent_find(ids.begin(), ids.end()) == ids.end();
}

bool SameAnswer(const std::vector<Neighbor>& a,
                const std::vector<Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id) return false;
    if (std::memcmp(&a[i].distance, &b[i].distance, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

bool CloseTo(double got, double want) {
  return std::fabs(got - want) <= kDistanceRelTol * want + 1e-6;
}

/// Codes of every database vector, recomputed from the raw vectors with
/// the index's public projection and codebooks.
vaq::CodeMatrix RecomputeCodes(const vaq::VaqIndex& index,
                               const FloatMatrix& data) {
  vaq::CodeMatrix codes(data.rows(), index.num_subspaces());
  ParallelFor(data.rows(), [&](size_t r) {
    std::vector<float> projected;
    index.ProjectQuery(data.row(r), &projected);
    index.codebooks().EncodeRow(projected.data(), codes.row(r));
  });
  return codes;
}

/// Squared distance from a projected query to every dictionary entry,
/// in double precision, laid out like the index's lookup table.
std::vector<double> ExactLut(const vaq::VariableCodebooks& books,
                             const std::vector<float>& projected) {
  std::vector<double> lut(books.lut_entries());
  const vaq::SubspaceLayout& layout = books.layout();
  for (size_t s = 0; s < books.num_subspaces(); ++s) {
    const vaq::SubspaceSpan& span = layout.span(s);
    const FloatMatrix& dict = books.centroids(s);
    for (size_t c = 0; c < dict.rows(); ++c) {
      double acc = 0.0;
      for (size_t j = 0; j < span.length; ++j) {
        const double diff =
            static_cast<double>(projected[span.offset + j]) - dict.row(c)[j];
        acc += diff * diff;
      }
      lut[books.lut_offset(s) + c] = acc;
    }
  }
  return lut;
}

// ---------------------------------------------------------------------------
// Build-stage registry counters.

struct StageCounters {
  static constexpr int kNum = 7;
  static constexpr const char* kNames[kNum] = {
      "vaq_build_pca_us_total",      "vaq_build_allocation_us_total",
      "vaq_build_codebook_us_total", "vaq_build_encode_us_total",
      "vaq_build_ti_us_total",       "vaq_build_coarse_us_total",
      "vaq_build_scan_layout_us_total"};
  double us[kNum] = {};

  static StageCounters Read() {
    StageCounters c;
    for (int i = 0; i < kNum; ++i) {
      c.us[i] = static_cast<double>(
          vaq::MetricsRegistry::Global().GetCounter(kNames[i], "")->value());
    }
    return c;
  }
};

// ---------------------------------------------------------------------------
// Load probe (child process): resident growth of one Load in a fresh heap.

int LoadProbeMain(const std::string& workload, const std::string& path) {
  const Workload* w = FindWorkload(workload);
  if (w == nullptr) return 2;
  const size_t rss_before = ResidentBytes();
  BenchIndex index;
  if (!BenchIndex::Load(*w, path, &index).ok()) return 1;
  if (!index.AnswerOne(*w).ok()) return 1;
  const size_t rss_after = ResidentBytes();
  std::printf("%zu\n",
              rss_after > rss_before ? rss_after - rss_before : size_t{0});
  return 0;
}

bool RunLoadProbe(const Workload& w, const std::string& path,
                  double* rss_growth) {
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (len <= 0) return false;
  exe[len] = '\0';
  const std::string cmd = std::string("'") + exe + "' --load-probe '" +
                          w.name + "' '" + path + "'";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return false;
  size_t growth = 0;
  const int got = std::fscanf(pipe, "%zu", &growth);
  const int rc = pclose(pipe);
  *rss_growth = static_cast<double>(growth);
  return got == 1 && rc == 0;
}

// ---------------------------------------------------------------------------
// Measurement passes.

double ThreadCpuMicros() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return ts.tv_sec * 1e6 + ts.tv_nsec / 1e3;
}

/// True when the query's thread was off the CPU for a noticeable part of
/// its wall time: the host or the OS ran something else meanwhile.
bool Descheduled(double wall_us, double cpu_us) {
  return wall_us - cpu_us > std::max(kDescheduledMinMicros,
                                     kDescheduledShare * wall_us);
}

/// Moves the single-client thread over every CPU the process may use,
/// kRotateQueries queries at a time, each pass starting one CPU further.
/// On a shared host one vCPU can run a third slower than another for a
/// whole run; without this, a run's latencies hang on the vCPU its main
/// thread happened to start on.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
      }
    }
  }

  /// Pins the calling thread to the slot-th allowed CPU, round robin.
  void Pin(size_t slot) const {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[slot % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

  /// Lets the calling thread run anywhere again. Threads it starts later,
  /// such as the shared pool's workers, inherit its mask.
  void Release() const {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(allowed_), &allowed_);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
};

struct LatencyPass {
  std::vector<double> wall;     ///< wall time of every query, by index
  std::vector<bool> disturbed;  ///< by index: ran while descheduled
};

/// One pass over every query; each answer must equal `expected` or, on
/// the first pass, be a valid list (then stored into `expected`). The
/// thread CPU clock is read outside the timed interval.
LatencyPass TimedPass(const Workload& w, const BenchIndex& index,
                      const FloatMatrix& queries, SearchScratch* scratch,
                      std::vector<std::vector<Neighbor>>* expected,
                      size_t pass_index, const CpuRotation& cpus,
                      Report* report) {
  LatencyPass pass;
  std::vector<Neighbor> out;
  for (size_t q = 0; q < queries.rows(); ++q) {
    if (q % kRotateQueries == 0) cpus.Pin(q / kRotateQueries + pass_index);
    const double cpu0 = ThreadCpuMicros();
    const auto t0 = Clock::now();
    const Status st =
        index.Search(w, queries.row(q), nullptr, scratch, &out, nullptr);
    const double wall = Micros(t0, Clock::now());
    const double cpu = ThreadCpuMicros() - cpu0;
    pass.wall.push_back(wall);
    pass.disturbed.push_back(Descheduled(wall, cpu));
    if (pass_index == 0) {
      report->Op(st.ok() && ValidList(out, w.k, index.size()));
      (*expected)[q] = out;
    } else {
      report->Op(st.ok() && SameAnswer(out, (*expected)[q]));
    }
  }
  cpus.Release();
  return pass;
}

struct TracedTotals {
  std::vector<double> wall;
  std::vector<double> phase[vaq::kNumQueryPhases];
  double phase_sum = 0.0;
  double wall_sum = 0.0;
  double codes_visited = 0, rows_scanned = 0, lut_adds = 0,
         codes_skipped = 0, partitions = 0;
  size_t queries = 0;
};

void TracedPass(const Workload& w, const BenchIndex& index,
                const FloatMatrix& queries, SearchScratch* scratch,
                const std::vector<std::vector<Neighbor>>& expected,
                size_t pass_index, const CpuRotation& cpus,
                TracedTotals* totals, Report* report) {
  vaq::QueryTrace trace;
  std::vector<Neighbor> out;
  for (size_t q = 0; q < queries.rows(); ++q) {
    if (q % kRotateQueries == 0) cpus.Pin(q / kRotateQueries + pass_index);
    SearchStats stats;
    const double cpu0 = ThreadCpuMicros();
    const auto t0 = Clock::now();
    const Status st =
        index.Search(w, queries.row(q), &trace, scratch, &out, &stats);
    const double us = Micros(t0, Clock::now());
    const double cpu = ThreadCpuMicros() - cpu0;
    report->Op(st.ok() && SameAnswer(out, expected[q]));
    // Times from undisturbed queries only, as in TimedPass; the work
    // counters below are deterministic and taken from every query.
    if (!Descheduled(us, cpu)) {
      totals->wall.push_back(us);
      totals->wall_sum += us;
      for (int p = 0; p < vaq::kNumQueryPhases; ++p) {
        const double phase_us =
            trace.PhaseTotalMicros(static_cast<QueryPhase>(p));
        totals->phase[p].push_back(phase_us);
        totals->phase_sum += phase_us;
      }
    }
    totals->codes_visited += stats.codes_visited;
    totals->rows_scanned += stats.rows_scanned;
    totals->lut_adds += stats.lut_adds;
    totals->codes_skipped += stats.codes_skipped_ti;
    totals->partitions += stats.partitions_visited;
    ++totals->queries;
  }
  cpus.Release();
}

/// Times BlockedFullScan and BlockedEaScan from outside the index over a
/// BlockedCodes built here. Returns {full ns/row, EA ns/row, full LUT
/// adds per second}.
struct KernelProbe {
  double full_ns_per_row = 0, ea_ns_per_row = 0, full_adds_per_s = 0;
};

KernelProbe ProbeKernels(const vaq::CodeMatrix& codes,
                         const std::vector<std::vector<float>>& luts,
                         const std::vector<uint32_t>& offsets, size_t k,
                         double budget_s) {
  const vaq::BlockedCodes bc = vaq::BlockedCodes::Build(codes);
  const vaq::ScanKernel& kernel =
      vaq::GetScanKernel(vaq::ScanKernelType::kAuto);
  const size_t m = codes.cols();
  float acc[vaq::kScanBlockSize];
  vaq::TopKHeap heap(k);
  std::vector<double> full_ns, ea_ns, adds_per_s;
  const auto start = Clock::now();
  // Whole rounds over the probe LUTs until the budget is spent.
  do {
    for (const std::vector<float>& lut : luts) {
      SearchStats stats;
      heap.Reset(k);
      auto t0 = Clock::now();
      vaq::BlockedFullScan(bc, nullptr, lut.data(), offsets.data(), m, kernel,
                           acc, &heap, &stats);
      double ns = std::chrono::duration<double, std::nano>(Clock::now() - t0)
                      .count();
      full_ns.push_back(ns / codes.rows());
      adds_per_s.push_back(static_cast<double>(stats.lut_adds) / (ns * 1e-9));
      heap.Reset(k);
      t0 = Clock::now();
      vaq::BlockedEaScan(bc, 0, bc.rows(), nullptr, lut.data(),
                         offsets.data(), m, 4, kernel, acc, &heap, &stats);
      ns = std::chrono::duration<double, std::nano>(Clock::now() - t0)
               .count();
      ea_ns.push_back(ns / codes.rows());
    }
  } while (Seconds(start, Clock::now()) < budget_s);
  return {Median(full_ns), Median(ea_ns), Median(adds_per_s)};
}

// ---------------------------------------------------------------------------

/// Generates the corpus into `corpus` and returns the queries. Both come
/// from one GenerateSynthetic process with a fixed seed: the corpus is its
/// first n rows, and the queries are the next num_queries rows, in an
/// order shuffled by `seed`, plus Gaussian noise drawn from `seed` of
/// kQueryNoise times each dimension's RMS (the noise model of
/// GenerateSyntheticQueries). GenerateSyntheticQueries itself draws a new
/// mixture per seed, so its queries miss the corpus's clusters.
FloatMatrix MakeInputs(const Workload& w, uint64_t seed, FloatMatrix* corpus) {
  const FloatMatrix pool =
      vaq::GenerateSynthetic(w.kind, w.n + w.num_queries, kCorpusSeed);
  const size_t d = pool.cols();
  *corpus = FloatMatrix(w.n, d);
  std::copy_n(pool.data(), w.n * d, corpus->data());

  std::mt19937_64 rng(DeriveSeed(seed, 1));
  std::vector<size_t> order(w.num_queries);
  std::iota(order.begin(), order.end(), w.n);
  std::shuffle(order.begin(), order.end(), rng);
  FloatMatrix queries(w.num_queries, d);
  std::vector<double> rms(d, 0.0);
  for (size_t q = 0; q < w.num_queries; ++q) {
    std::copy_n(pool.row(order[q]), d, queries.row(q));
    for (size_t j = 0; j < d; ++j) {
      rms[j] += double{queries.row(q)[j]} * queries.row(q)[j];
    }
  }
  for (size_t j = 0; j < d; ++j) rms[j] = std::sqrt(rms[j] / w.num_queries);
  std::normal_distribution<double> gauss(0.0, 1.0);
  for (size_t q = 0; q < w.num_queries; ++q) {
    for (size_t j = 0; j < d; ++j) {
      queries.row(q)[j] +=
          static_cast<float>(kQueryNoise * rms[j] * gauss(rng));
    }
  }
  return queries;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 8;
  bool trace = false;
  std::string work_dir;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      a->trace = val == "1";
    } else if (key == "--work-dir") {
      a->work_dir = val;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && !a->work_dir.empty() && a->seconds > 0;
}

/// Removes the saved index file on every exit path.
struct FileGuard {
  std::string path;
  ~FileGuard() {
    if (!path.empty()) std::remove(path.c_str());
  }
};

int RunMain(const Args& args) {
  const Workload* wp = FindWorkload(args.workload);
  if (wp == nullptr) {
    Log("unknown workload '%s'", args.workload.c_str());
    return 2;
  }
  const Workload& w = *wp;
  Report report;
  const auto run_start = Clock::now();

  // Inputs. The corpus is fixed per workload, as a real dataset would be;
  // the queries, and so every answer, come from --seed.
  FloatMatrix data;
  const FloatMatrix queries = MakeInputs(w, args.seed, &data);
  const size_t d = data.cols();
  const size_t nq = queries.rows();
  FloatMatrix train(w.train_n, d), rest(w.n - w.train_n, d);
  std::copy_n(data.data(), w.train_n * d, train.data());
  std::copy_n(data.data() + w.train_n * d, rest.rows() * d, rest.data());
  const auto truth = ExactKnn(data, queries, w.k);
  Log("%s: inputs + exact k-NN in %.1f s", w.name,
      Seconds(run_start, Clock::now()));

  // Set-up: raw vectors in memory -> index ready.
  BenchIndex index;
  std::vector<double> setup_s, add_s;
  std::vector<double> stage_us[StageCounters::kNum];
  auto build = [&]() {
    index = BenchIndex();
    const StageCounters before = StageCounters::Read();
    double add_seconds = 0.0;
    const auto t0 = Clock::now();
    const Status st = BenchIndex::Build(w, train, rest, &index, &add_seconds);
    setup_s.push_back(Seconds(t0, Clock::now()));
    add_s.push_back(add_seconds);
    const StageCounters after = StageCounters::Read();
    for (int i = 0; i < StageCounters::kNum; ++i) {
      stage_us[i].push_back(after.us[i] - before.us[i]);
    }
    if (!st.ok()) Log("build failed: %s", st.ToString().c_str());
    return report.Op(st.ok());
  };

  // Measurement rounds: one untraced single-client pass over the queries,
  // then one SearchBatchInto of all of them on two pool threads.
  std::vector<std::vector<Neighbor>> answers(nq);
  SearchScratch scratch;
  const CpuRotation cpus;
  std::vector<double> latencies, batch_cpu_us;
  // Per query: its undisturbed and its disturbed times.
  std::vector<std::vector<double>> clean_us(nq), disturbed_us(nq);
  // Per batch: share of its queries' wall time spent descheduled, and
  // queries per second.
  std::vector<std::pair<double, double>> batch_runs;
  double queries_shed = 0;
  size_t passes = 0, descheduled = 0, batches_descheduled = 0;
  std::vector<FloatMatrix> batches;
  for (size_t begin = 0; begin < nq; begin += w.batch_queries) {
    const size_t rows = std::min(w.batch_queries, nq - begin);
    batches.emplace_back(rows, d);
    std::copy_n(queries.row(begin), rows * d, batches.back().data());
  }
  std::vector<std::vector<Neighbor>> batch_results;
  std::vector<Status> statuses;
  std::vector<SearchStats> qstats;
  auto measure = [&](double budget_s, size_t min_samples) {
    const auto t0 = Clock::now();
    double elapsed = 0;
    size_t rounds = 0;
    do {
      LatencyPass pass = TimedPass(w, index, queries, &scratch, &answers,
                                   passes, cpus, &report);
      for (size_t q = 0; q < nq; ++q) {
        (pass.disturbed[q] ? disturbed_us : clean_us)[q].push_back(
            pass.wall[q]);
        if (pass.disturbed[q]) {
          ++descheduled;
        } else {
          latencies.push_back(pass.wall[q]);
        }
      }
      ++passes;

      for (size_t b = 0; b < batches.size(); ++b) {
        const FloatMatrix& batch = batches[b];
        const auto batch_t0 = Clock::now();
        const Status st =
            index.SearchBatch(w, batch, &batch_results, &statuses, &qstats);
        const double qps = batch.rows() / Seconds(batch_t0, Clock::now());
        if (st.code() == vaq::StatusCode::kUnavailable) {
          queries_shed += batch.rows();
        }
        double wall_sum = 0, cpu_sum = 0;
        for (size_t i = 0; i < batch.rows(); ++i) {
          const bool ok =
              st.ok() && statuses[i].ok() &&
              SameAnswer(batch_results[i], answers[b * w.batch_queries + i]);
          if (report.Op(ok)) {
            batch_cpu_us.push_back(qstats[i].cpu_micros);
            wall_sum += qstats[i].wall_micros;
            cpu_sum += qstats[i].cpu_micros;
          }
        }
        const bool disturbed = Descheduled(wall_sum, cpu_sum);
        batches_descheduled += disturbed ? 1 : 0;
        batch_runs.push_back(
            {wall_sum > 0 ? (wall_sum - cpu_sum) / wall_sum : 0.0, qps});
      }
      ++rounds;
      // Another round only if it should end within half a round of the
      // budget (a round of sift100k-ea takes seconds).
      elapsed = Seconds(t0, Clock::now());
    } while (elapsed + 0.5 * elapsed / rounds < budget_s ||
             (latencies.size() < min_samples && elapsed < 3 * budget_s));
  };

  // Build, persist, measure half the budget, build again (identical
  // index: the answers must not change), measure the other half. Spreading
  // the samples over most of the run keeps one slow stretch of the host
  // from setting a run's figures.
  if (!build()) return 1;
  FileGuard file{args.work_dir + "/" + w.name + "." +
                 std::to_string(getpid()) + ".vaq"};
  const auto save_t0 = Clock::now();
  if (!report.Op(index.Save(file.path).ok())) return 1;
  const double save_ms = Seconds(save_t0, Clock::now()) * 1e3;
  double file_bytes = 0;
  {
    std::ifstream f(file.path, std::ios::binary | std::ios::ate);
    file_bytes = static_cast<double>(f.tellg());
  }
  std::vector<double> rss_growth;
  for (int rep = 0; rep < kRssProbes; ++rep) {
    double growth = 0;
    if (report.Op(RunLoadProbe(w, file.path, &growth))) {
      rss_growth.push_back(growth);
    }
  }
  // load_ms: Load until the index answers a query, repeated in-process
  // in two bouts, one after each set-up. Loads the host descheduled are
  // left out, as for queries.
  BenchIndex loaded;
  std::vector<double> load_ms, all_load_ms;
  auto measure_loads = [&]() {
    const auto t0 = Clock::now();
    size_t loads = 0;
    do {
      loaded = BenchIndex();
      const double cpu0 = ThreadCpuMicros();
      const auto load_t0 = Clock::now();
      Status st = BenchIndex::Load(w, file.path, &loaded);
      if (st.ok()) st = loaded.AnswerOne(w);
      const double us = Micros(load_t0, Clock::now());
      const double cpu = ThreadCpuMicros() - cpu0;
      all_load_ms.push_back(us / 1e3);
      if (!Descheduled(us, cpu)) load_ms.push_back(us / 1e3);
      ++loads;
      if (!report.Op(st.ok())) return false;
    } while (loads < kMinLoads ||
             Seconds(t0, Clock::now()) < kLoadBudgetSeconds);
    return true;
  };
  if (!measure_loads()) return 1;
  std::vector<double> validate_ms;
  for (int rep = 0; rep < kValidateRepeats; ++rep) {
    const auto t0 = Clock::now();
    report.Op(loaded.Validate().ok());
    validate_ms.push_back(Seconds(t0, Clock::now()) * 1e3);
  }

  measure(0.5 * args.seconds, 0);
  for (int rep = 1; rep < kSetupRepeats; ++rep) {
    if (!build()) return 1;
  }
  if (!measure_loads()) return 1;
  if (load_ms.size() < kMinLoads) load_ms = all_load_ms;
  measure(0.5 * args.seconds, kMinLatencySamples);
  // batch_qps: upper quartile over the undisturbed batches (or, when the
  // host disturbed most of them, over the least disturbed quarter). The
  // host only ever slows a batch down, also without descheduling it
  // (shared caches, memory bandwidth), so the upper quartile tracks the
  // program's own rate more steadily than the median.
  std::sort(batch_runs.begin(), batch_runs.end());
  const size_t clean = batch_runs.size() - batches_descheduled;
  const size_t take = std::min(
      batch_runs.size(),
      std::max({clean, batch_runs.size() / 4, kMinCleanBatches}));
  std::vector<double> clean_qps;
  for (size_t i = 0; i < take; ++i) clean_qps.push_back(batch_runs[i].second);
  const double batch_qps = Percentile(clean_qps, 0.75);
  Log("set-up %.2f s (median of %d)", Median(setup_s), kSetupRepeats);
  // Single-client rate over the same undisturbed samples as batch_qps.
  const double single_qps = 1e6 / Mean(latencies);
  // A query's latency is the median of its undisturbed samples (of all
  // its samples if none ran clear), taken on different CPUs; p50 and p99
  // are over queries. The p99 is then the program's own tail, its hardest
  // 1% of queries, which one slow stretch of the host cannot set.
  std::vector<double> per_query(nq);
  for (size_t q = 0; q < nq; ++q) {
    per_query[q] = Median(clean_us[q].empty() ? disturbed_us[q] : clean_us[q]);
  }
  const double p50 = Median(per_query);
  const double p99 = Percentile(per_query, 0.99);
  Log("single client: %zu passes, %zu samples (%zu descheduled left out), "
      "p50 %.1f us, p99 %.1f us; batch %.0f queries/s",
      passes, latencies.size(), descheduled, p50, p99, batch_qps);

  // The loaded index answers like the built one.
  {
    std::vector<Neighbor> out;
    for (size_t q = 0; q < nq; ++q) {
      const Status st =
          loaded.Search(w, queries.row(q), nullptr, &scratch, &out, nullptr);
      report.Op(st.ok() && SameAnswer(out, answers[q]));
    }
  }

  // Recall against the exact k-NN.
  double recall_sum = 0.0;
  for (size_t q = 0; q < nq; ++q) {
    size_t hits = 0;
    for (const Neighbor& nb : answers[q]) {
      hits += std::count(truth[q].begin(), truth[q].end(), nb.id);
    }
    recall_sum += static_cast<double>(hits) / w.k;
  }
  const double recall = recall_sum / nq;

  // Flat index: distances against decoded codes, and the k-th distance
  // against an exhaustive ADC over every recomputed code.
  vaq::CodeMatrix codes;
  std::vector<std::vector<float>> probe_luts;
  std::vector<uint32_t> probe_offsets;
  const size_t num_probe_luts = 4;
  if (const vaq::VaqIndex* flat = index.flat()) {
    const auto t0 = Clock::now();
    const vaq::VariableCodebooks& books = flat->codebooks();
    codes = RecomputeCodes(*flat, data);
    double max_rel_err = 0.0;
    std::vector<float> projected, decoded(d);
    for (size_t q = 0; q < nq; ++q) {
      flat->ProjectQuery(queries.row(q), &projected);
      bool ok = true;
      for (const Neighbor& nb : answers[q]) {
        books.DecodeRow(codes.row(nb.id), decoded.data());
        double acc = 0.0;
        for (size_t j = 0; j < d; ++j) {
          const double diff = static_cast<double>(projected[j]) - decoded[j];
          acc += diff * diff;
        }
        const double want = std::sqrt(acc);
        ok = ok && CloseTo(nb.distance, want);
        if (want > 0) {
          max_rel_err = std::max(max_rel_err,
                                 std::fabs(nb.distance - want) / want);
        }
      }
      report.Op(ok);
    }
    std::vector<double> sample_ok(w.adc_sample, 0.0);
    ParallelFor(w.adc_sample, [&](size_t q) {
      std::vector<float> pq;
      flat->ProjectQuery(queries.row(q), &pq);
      const std::vector<double> lut = ExactLut(books, pq);
      std::vector<double> dist(codes.rows());
      for (size_t r = 0; r < codes.rows(); ++r) {
        const uint16_t* code = codes.row(r);
        double acc = 0.0;
        for (size_t s = 0; s < codes.cols(); ++s) {
          acc += lut[books.lut_offset(s) + code[s]];
        }
        dist[r] = acc;
      }
      std::nth_element(dist.begin(), dist.begin() + (w.k - 1), dist.end());
      const double kth = std::sqrt(dist[w.k - 1]);
      const double got = answers[q].back().distance;
      // Exhaustive modes return the exact ADC top-k; TI may only miss
      // candidates, so its k-th distance is never below the exact one.
      sample_ok[q] = w.mode == SearchMode::kTriangleInequality
                         ? (got >= kth * (1.0 - kDistanceRelTol) - 1e-6)
                         : CloseTo(got, kth);
    });
    for (double ok : sample_ok) report.Op(ok != 0.0);
    for (size_t q = 0; q < num_probe_luts; ++q) {
      flat->ProjectQuery(queries.row(q), &projected);
      probe_luts.emplace_back();
      books.BuildLookupTable(projected.data(), &probe_luts.back());
    }
    for (size_t s = 0; s < books.num_subspaces(); ++s) {
      probe_offsets.push_back(static_cast<uint32_t>(books.lut_offset(s)));
    }
    Log("distance checks in %.1f s, max relative error %.3g",
        Seconds(t0, Clock::now()), max_rel_err);
  } else {
    // No public codebooks on the IVF index: the kernel probe runs over
    // uniform codes of the trained bit allocation with a random table.
    std::mt19937_64 rng(DeriveSeed(args.seed, 3));
    const std::vector<int>& bits = index.bits();
    codes = vaq::CodeMatrix(w.n, bits.size());
    for (size_t r = 0; r < w.n; ++r) {
      for (size_t s = 0; s < bits.size(); ++s) {
        codes.row(r)[s] = static_cast<uint16_t>(rng() >> (64 - bits[s]));
      }
    }
    uint32_t offset = 0;
    for (int b : bits) {
      probe_offsets.push_back(offset);
      offset += uint32_t{1} << b;
    }
    std::uniform_real_distribution<float> uni(0.f, 1.f);
    for (size_t q = 0; q < num_probe_luts; ++q) {
      probe_luts.emplace_back(offset);
      for (float& v : probe_luts.back()) v = uni(rng);
    }
  }

  size_t lut_entries = 0;
  for (int b : index.bits()) lut_entries += size_t{1} << b;

  // End-to-end metrics.
  report.E2e("recall_at_k", recall, "fraction");
  report.E2e("query_p50_us", p50, "us");
  report.E2e("query_p99_us", p99, "us");
  report.E2e("batch_qps", batch_qps, "1/s");
  report.E2e("setup_s", Median(setup_s), "s");
  report.E2e("load_ms", Median(load_ms), "ms");
  report.E2e("index_bytes_per_vector", file_bytes / w.n, "bytes");
  report.E2e("resident_bytes_per_vector", Median(rss_growth) / w.n, "bytes");

  if (args.trace) {
    // Interleaved untraced/traced passes, so the tracing overhead is not
    // confounded with drift over the run.
    TracedTotals traced;
    std::vector<double> untraced;
    const auto t0 = Clock::now();
    size_t traced_passes = 0;
    do {
      // Both passes of a pair visit the CPUs in the same order.
      const size_t slot = passes + traced_passes++;
      LatencyPass pass =
          TimedPass(w, index, queries, &scratch, &answers, slot, cpus, &report);
      for (size_t q = 0; q < nq; ++q) {
        if (!pass.disturbed[q]) untraced.push_back(pass.wall[q]);
      }
      vaq::SetTracingEnabled(true);
      TracedPass(w, index, queries, &scratch, answers, slot, cpus, &traced,
                 &report);
      vaq::SetTracingEnabled(false);
    } while (Seconds(t0, Clock::now()) < 0.4 * args.seconds);
    const KernelProbe kp =
        ProbeKernels(codes, probe_luts, probe_offsets, w.k,
                     0.1 * args.seconds);

    auto phase = [&](QueryPhase p) {
      return Median(traced.phase[static_cast<int>(p)]);
    };
    const double qn = std::max<size_t>(traced.queries, 1);
    const bool ti = !w.ivf && w.mode == SearchMode::kTriangleInequality;
    auto stage = [&](int i) { return Median(stage_us[i]); };

    report.Layer("linalg.project_us", phase(QueryPhase::kProject), "us");
    report.Layer("core.codebook.lut_build_us", phase(QueryPhase::kLutBuild),
                 "us");
    report.Layer("core.codebook.lut_entries", lut_entries, "count");
    report.Layer("core.ti_partition.rank_us",
                 w.ivf ? 0.0 : phase(QueryPhase::kPartitionRank), "us");
    report.Layer("index.vaq_ivf.rank_us",
                 w.ivf ? phase(QueryPhase::kPartitionRank) : 0.0, "us");
    report.Layer("core.ti_partition.prune_us", phase(QueryPhase::kTiPrune),
                 "us");
    report.Layer("core.ti_partition.codes_skipped",
                 traced.codes_skipped / qn, "count");
    report.Layer("core.ti_partition.partitions_entered",
                 ti ? traced.partitions / qn : 0.0, "count");
    report.Layer("core.scan.block_scan_us", phase(QueryPhase::kBlockScan),
                 "us");
    report.Layer("core.scan.codes_visited", traced.codes_visited / qn,
                 "count");
    report.Layer("core.scan.rows_scanned", traced.rows_scanned / qn, "count");
    report.Layer("core.scan.lut_adds", traced.lut_adds / qn, "count");
    report.Layer("core.scan.ns_per_code_visited",
                 traced.codes_visited > 0
                     ? phase(QueryPhase::kBlockScan) * 1e3 /
                           (traced.codes_visited / qn)
                     : 0.0,
                 "ns");
    report.Layer("core.scan.full_scan_ns_per_row", kp.full_ns_per_row, "ns");
    report.Layer("core.scan.ea_scan_ns_per_row", kp.ea_ns_per_row, "ns");
    report.Layer("core.scan.full_scan_lut_adds_per_s", kp.full_adds_per_s,
                 "1/s");
    report.Layer("index.vaq_ivf.rows_scanned",
                 w.ivf ? traced.rows_scanned / qn : 0.0, "count");
    report.Layer("core.search_batch.cpu_us_per_query", Mean(batch_cpu_us),
                 "us");
    report.Layer("core.search_batch.batch_qps", batch_qps, "1/s");
    report.Layer("core.search_batch.single_qps", single_qps, "1/s");
    report.Layer("core.search_batch.speedup", batch_qps / single_qps,
                 "ratio");
    report.Layer("common.thread_pool.queries_shed", queries_shed, "count");
    report.Layer("common.host.descheduled_share",
                 static_cast<double>(descheduled) / (passes * nq), "fraction");
    report.Layer("common.host.batches_descheduled_share",
                 static_cast<double>(batches_descheduled) /
                     batch_runs.size(),
                 "fraction");
    report.Layer("common.trace.overhead_us",
                 Median(traced.wall) - Median(untraced), "us");
    report.Layer("common.trace.phase_coverage",
                 traced.wall_sum > 0 ? traced.phase_sum / traced.wall_sum
                                     : 0.0,
                 "fraction");
    report.Layer("linalg.pca.fit_s", stage(0) / 1e6, "s");
    report.Layer("solver.allocation_ms", stage(1) / 1e3, "ms");
    report.Layer("core.codebook.train_s", stage(2) / 1e6, "s");
    report.Layer("core.codebook.encode_s", stage(3) / 1e6, "s");
    report.Layer("core.ti_partition.build_s", stage(4) / 1e6, "s");
    report.Layer("clustering.kmeans.coarse_train_s", stage(5) / 1e6, "s");
    report.Layer("core.scan.layout_build_ms", stage(6) / 1e3, "ms");
    report.Layer("core.vaq_index.add_s", Median(add_s), "s");
    report.Layer("common.serialize.save_ms", save_ms, "ms");
    report.Layer("common.serialize.validate_ms", Median(validate_ms), "ms");
    report.Layer("core.vaq_index.code_bytes_per_vector",
                 index.flat() != nullptr
                     ? static_cast<double>(index.flat()->code_bytes()) / w.n
                     : static_cast<double>(index.bits().size() *
                                           sizeof(uint16_t)),
                 "bytes");
  }

  for (const Metric& m : report.end_to_end) {
    Log("  %-40s %16.6g %s", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : report.per_layer) {
    Log("  %-40s %16.6g %s", m.name.c_str(), m.value, m.unit.c_str());
  }
  Log("%zu operations, %zu failed, run %.1f s", report.attempted,
      report.failed, Seconds(run_start, Clock::now()));
  PrintJson(report, args.trace);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 4 && std::strcmp(argv[1], "--load-probe") == 0) {
    return LoadProbeMain(argv[2], argv[3]);
  }
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Log("usage: vaq_perfbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> --work-dir <dir>");
    return 2;
  }
  return RunMain(args);
}
