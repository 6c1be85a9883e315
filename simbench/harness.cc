#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <functional>
#include <thread>

#include <malloc.h>
#include <unistd.h>

namespace simbench {

namespace {
const Clock::time_point kEpoch = Clock::now();

int ThreadTag() {
  return static_cast<int>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000);
}
}  // namespace

double Now() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

double CpuNow() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void SleepUntil(double t) {
  std::this_thread::sleep_until(
      kEpoch + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(t)));
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double TailQuantile(std::vector<double> values) {
  const double n = static_cast<double>(values.size());
  for (double q : {0.99, 0.90, 0.50}) {
    if (n * (1.0 - q) >= 10.0) return Quantile(std::move(values), q);
  }
  return values.empty() ? 0 : *std::max_element(values.begin(), values.end());
}

double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

double StealSeconds() {
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {};
  int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                      &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  const long tick = sysconf(_SC_CLK_TCK);
  return n == 8 && tick > 0 ? static_cast<double>(v[7]) / tick : 0;
}

void TrimHeap() { malloc_trim(0); }

void ResetPeakRss() {
  FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return;
  std::fputs("5", f);
  std::fclose(f);
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

uint64_t Tracer::NewQueryId() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return next_query_++;
}

uint64_t Tracer::Record(const char* name, uint64_t query, uint64_t parent,
                        double start, double end) {
  if (!enabled_) return 0;
  int thread = ThreadTag();
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t id = next_span_++;
  spans_.push_back({name, id, parent, query, start, end, thread});
  return id;
}

bool Tracer::Write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fputs("{\"traceEvents\": [\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %llu, "
                 "\"parent\": %llu, \"query\": %llu}}%s\n",
                 JsonString(s.name).c_str(), s.thread, s.start * 1e6,
                 (s.end - s.start) * 1e6,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.query),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

double ScopedSpan::Close() {
  if (closed_) return seconds_;
  closed_ = true;
  double end = Now();
  seconds_ = end - start_;
  Tracer::Get().Record(name_, query_, parent_, start_, end);
  return seconds_;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const Metrics& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}";
}

}  // namespace simbench
