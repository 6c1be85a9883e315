#ifndef SIMBENCH_HARNESS_H_
#define SIMBENCH_HARNESS_H_

// Measurement plumbing shared by the workloads: clocks, quantiles, the
// in-memory span tracer, metric collection and JSON rendering. Nothing here
// touches the engine.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace simbench {

using Clock = std::chrono::steady_clock;

/// Seconds on the steady clock since the process started measuring.
double Now();
/// CPU seconds this process has used so far, summed over all its threads.
/// Time the hypervisor gave to other guests (steal time) is not counted.
double CpuNow();
/// Steal time of all vCPUs so far, in seconds, from /proc/stat (0 where
/// the kernel does not report it).
double StealSeconds();
/// Sleeps until Now() reaches `t`.
void SleepUntil(double t);

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// The highest of p99 / p90 / p50 that has at least ten samples above it,
/// or the largest sample when there are too few for any of them.
double TailQuantile(std::vector<double> values);

/// Peak resident set size of this process in MiB since the last
/// ResetPeakRss() (or since start), from VmHWM in /proc/self/status.
double PeakRssMb();
/// Restarts the peak (writes 5 to /proc/self/clear_refs).
void ResetPeakRss();
/// Returns the heap's free memory to the system (glibc malloc_trim).
void TrimHeap();

/// One finished span: a timed call into a layer, or a duration the engine
/// reported for a layer (queue wait, compile phases, execution). Spans of
/// one query share `query`; `parent` is the enclosing span's id (0 = root).
struct Span {
  const char* name;
  uint64_t id;
  uint64_t parent;
  uint64_t query;
  double start;  // seconds, Now() clock
  double end;
  int thread;
};

/// Keeps spans in memory while the workload runs and writes them out once,
/// at exit, as Chrome trace_event JSON. Disabled tracers record nothing.
class Tracer {
 public:
  static Tracer& Get();

  void Enable() { enabled_ = true; }
  void Disable() { enabled_ = false; }
  bool enabled() const { return enabled_; }

  uint64_t NewQueryId();
  /// Records a span and returns its id (0 when disabled).
  uint64_t Record(const char* name, uint64_t query, uint64_t parent,
                  double start, double end);
  /// Writes {"traceEvents": [...]} to `path`.
  bool Write(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_span_ = 1;
  uint64_t next_query_ = 1;
};

/// Times one call into a layer; records a span when tracing is on.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, uint64_t query = 0, uint64_t parent = 0)
      : name_(name), query_(query), parent_(parent), start_(Now()) {}
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  /// Ends the span now; returns its duration in seconds.
  double Close();

 private:
  const char* name_;
  uint64_t query_;
  uint64_t parent_;
  double start_;
  bool closed_ = false;
  double seconds_ = 0;
};

/// A measured value with its unit.
struct Metric {
  double value = 0;
  std::string unit;
};

/// Metrics in insertion-independent (sorted) order.
using Metrics = std::map<std::string, Metric>;

/// JSON string literal with escapes.
std::string JsonString(const std::string& s);
/// A double with all its significant digits (JSON has no NaN/inf: those
/// render as 0).
std::string JsonNumber(double v);
std::string MetricsJson(const Metrics& metrics);

}  // namespace simbench

#endif  // SIMBENCH_HARNESS_H_
