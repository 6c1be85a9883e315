// simbench: runs one SimDB benchmark workload and prints its metrics.
//
//   simbench --workload <select-serve|join-batch|join-serve|ingest-mixed> --seed <n>
//            --seconds <s> --trace <0|1> [--work-dir <dir>]
//            [--git-sha <sha>] [--source-digest <hex>]
//
// Output (stdout): one line {"simbench": {...}} with the run's provenance
// and diagnostics, then, as the last line, the result object
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 reports the per-layer metrics and writes
// the span trace to <work-dir>/trace-<workload>-<seed>.json. The exit code
// is 0 only when every answer was correct. simbench/run.py builds this
// binary and is the usual way to call it; see simbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "harness.h"
#include "workloads.h"

using simbench::JsonNumber;
using simbench::JsonString;

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <select-serve|join-batch|join-serve|ingest-mixed> "
               "--seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>] "
               "[--git-sha <sha>] [--source-digest <hex>]\n",
               argv0);
  return 2;
}

std::string EnvOr(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : fallback;
}

std::string Provenance(const simbench::RunOptions& o) {
#ifdef SIMDB_LOCK_RANK
  const bool lock_rank = true;
#else
  const bool lock_rank = false;
#endif
  std::string p = "{";
  p += "\"workload\": " + JsonString(o.workload);
  p += ", \"seed\": " + std::to_string(o.seed);
  p += ", \"seconds\": " + JsonNumber(o.seconds);
  p += ", \"trace\": " + std::string(o.trace ? "true" : "false");
  p += ", \"git_sha\": " + JsonString(o.git_sha);
  p += ", \"source_digest\": " + JsonString(o.source_digest);
  p += ", \"build_type\": " + JsonString(SIMBENCH_BUILD_TYPE);
  p += ", \"simdb_lock_rank\": " + std::string(lock_rank ? "true" : "false");
#if defined(__clang__)
  p += ", \"compiler\": " + JsonString("clang " __VERSION__);
#else
  p += ", \"compiler\": " + JsonString("gcc " __VERSION__);
#endif
  p += ", \"nproc\": " +
       std::to_string(std::thread::hardware_concurrency());
  p += ", \"env\": {\"SIMDB_SIMD\": " + JsonString(EnvOr("SIMDB_SIMD", "")) +
       ", \"MALLOC_ARENA_MAX\": " + JsonString(EnvOr("MALLOC_ARENA_MAX", "")) +
       "}";
  return p + "}";
}

}  // namespace

int main(int argc, char** argv) {
  simbench::RunOptions opt;
  opt.threads = static_cast<int>(std::thread::hardware_concurrency());
  if (opt.threads < 1) opt.threads = 1;
  opt.work_dir = ".bench_build/simbench/work";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (i + 1 >= argc) return Usage(argv[0]);
    std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      opt.seconds = std::atof(v.c_str());
      have_seconds = opt.seconds > 0;
    } else if (a == "--trace") {
      opt.trace = v == "1";
      have_trace = v == "0" || v == "1";
    } else if (a == "--work-dir") {
      opt.work_dir = v;
    } else if (a == "--git-sha") {
      opt.git_sha = v;
    } else if (a == "--source-digest") {
      opt.source_digest = v;
    } else {
      return Usage(argv[0]);
    }
  }
  if (!simbench::IsWorkload(opt.workload) || !have_seed || !have_seconds ||
      !have_trace) {
    return Usage(argv[0]);
  }

  simbench::RunResult r = simbench::RunWorkload(opt);
  if (!r.error.empty()) {
    std::fprintf(stderr, "simbench: %s: %s\n", opt.workload.c_str(),
                 r.error.c_str());
  }
  if (opt.trace) {
    std::string path = opt.work_dir + "/trace-" + opt.workload + "-" +
                       std::to_string(opt.seed) + ".json";
    if (!simbench::Tracer::Get().Write(path)) {
      std::fprintf(stderr, "simbench: cannot write %s\n", path.c_str());
    }
  }
  std::printf("{\"simbench\": {\"provenance\": %s, \"details\": %s}}\n",
              Provenance(opt).c_str(), r.details.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted < 1 ? 1
                                                              : r.attempted),
              static_cast<unsigned long long>(r.failed),
              simbench::MetricsJson(r.metrics).c_str());
  std::fflush(stdout);
  return r.correct && r.error.empty() ? 0 : 1;
}
