// Copyright 2026 The HybridTree Authors.
// perfbench: the repository's one benchmark (see README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tmp-dir <dir>] [--trace-file <path>] [--commit <id>]
//
// Prints the host fingerprint, the correctness gates and every metric with
// its unit and sample count, then, as the last line of standard output,
// one JSON object: {"correct", "attempted", "failed", "metrics"}. The
// metrics are the end-to-end set with --trace 0 and the per-layer set with
// --trace 1. Exits 1 on a wrong answer or a missing acknowledged row, 2 on
// bad arguments.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "geometry/kernels/kernels.h"
#include "report.h"
#include "storage/page.h"
#include "trace.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// The host fingerprint: results with different fingerprints are never
/// compared.
std::string FingerprintJson(const std::string& commit) {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const long os_page = sysconf(_SC_PAGESIZE);
  return std::string("{\"nproc\": ") + std::to_string(nproc) +
         ", \"simd_tier\": \"" +
         ht::kernels::TierName(ht::kernels::ActiveTier()) +
         "\", \"compiler\": \"" + Compiler() + "\", \"build_type\": \"" +
         PERFBENCH_BUILD_TYPE + "\", \"index_page_bytes\": " +
         std::to_string(ht::kDefaultPageSize) + ", \"os_page_bytes\": " +
         std::to_string(os_page) + ", \"commit\": \"" + commit + "\"}";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--tmp-dir <dir>] "
               "[--trace-file <path>] [--commit <id>]\nworkloads:",
               why);
  for (const auto& w : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  config.tmp_dir = ".";
  std::string trace_file;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage("bad --seed");
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(config.seconds > 0)) return Usage("bad --seconds");
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace takes 0 or 1");
      }
      config.trace = value[0] == '1';
    } else if (arg == "--tmp-dir") {
      config.tmp_dir = value;
    } else if (arg == "--trace-file") {
      trace_file = value;
    } else if (arg == "--commit") {
      commit = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");

  const std::string fingerprint = FingerprintJson(commit);
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  std::printf("fingerprint: %s\n", fingerprint.c_str());
  std::fflush(stdout);

  perfbench::Tracer tracer;
  perfbench::WorkloadReport report;
  if (!perfbench::RunWorkload(config, &tracer, &report)) {
    return Usage(("unknown workload " + config.workload).c_str());
  }

  for (const std::string& note : report.notes) {
    std::printf("%s\n", note.c_str());
  }
  std::printf("%s metrics:\n", config.trace ? "per-layer" : "end-to-end");
  std::printf("%s", perfbench::ResultTable(report.result).c_str());
  if (!report.extra.empty()) {
    perfbench::RunResult extra;
    extra.metrics = report.extra;
    std::printf("also reported (not in the JSON line):\n%s",
                perfbench::ResultTable(extra).c_str());
  }
  if (config.trace && !trace_file.empty()) {
    const std::string header =
        "{\"workload\": \"" + config.workload +
        "\", \"seed\": " + std::to_string(config.seed) +
        ", \"fingerprint\": " + fingerprint +
        ", \"stored_spans\": " + std::to_string(tracer.stored()) +
        ", \"dropped_spans\": " + std::to_string(tracer.dropped()) +
        ", \"result\": " + perfbench::ResultJson(report.result) + "}";
    if (!tracer.WriteJsonLines(trace_file, header)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_file.c_str());
      return 1;
    }
    std::printf("spans: %llu written to %s (%llu over the in-memory cap)\n",
                static_cast<unsigned long long>(tracer.stored()),
                trace_file.c_str(),
                static_cast<unsigned long long>(tracer.dropped()));
  }
  std::printf("%s\n", perfbench::ResultJson(report.result).c_str());
  std::fflush(stdout);
  if (!report.result.correct) {
    std::fprintf(stderr, "perfbench: correctness gate failed\n");
    return 1;
  }
  return 0;
}
