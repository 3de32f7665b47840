// perfbench_driver — portatune's benchmark driver.
//
//   perfbench_driver --workload <transfer-grid|service-mixed>
//                    --seed N --seconds S --trace 0|1
//                    --references references.json [--cli portatune_cli]
//   perfbench_driver --write-references references.json
//
// Runs one workload through the libraries' public functions (and, for
// service-mixed, against a `portatune_cli serve` daemon), checks its
// outputs, and prints the result as the last stdout line: one JSON object
// with correct/attempted/failed and the metrics, end-to-end ones with
// --trace 0 and per-layer ones with --trace 1. A `host` line before it
// records nproc, the compiler and the build type; a `samples` line gives
// the sample count behind every percentile. Exit 0 only when every check
// passed. perfbench/run.py builds this and is the entry point.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"
#include "obs/json.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) || __has_feature(undefined_behavior_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif

namespace perfbench {

void Report::percentile(const std::string& name, std::span<const double> values,
                        double q, double scale, const std::string& unit) {
  samples.push_back({name, values.size()});
  const double beyond = static_cast<double>(values.size()) * (1.0 - q);
  if (beyond < 10.0 - 1e-9)
    error(name + ": " + std::to_string(values.size()) +
          " samples leave fewer than ten beyond the percentile");
  add(name, values.empty() ? 0.0 : portatune::quantile(values, q) * scale, unit);
}

double peak_rss_mb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

namespace {

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print_result(const Options& opt, const Report& r) {
  namespace json = portatune::obs::json;
  std::printf("host {\"nproc\":%zu,\"compiler\":\"%s\",\"build_type\":\"%s\","
              "\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d}\n",
              opt.threads, json::escape(PERFBENCH_COMPILER).c_str(),
              json::escape(PERFBENCH_BUILD_TYPE).c_str(),
              json::escape(opt.workload).c_str(),
              static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);
  std::string samples = "samples {";
  for (std::size_t i = 0; i < r.samples.size(); ++i)
    samples += (i ? ",\"" : "\"") + r.samples[i].first +
               "\":" + std::to_string(r.samples[i].second);
  std::printf("%s}\n", samples.c_str());
  for (const std::string& e : r.errors)
    std::fprintf(stderr, "check failed: %s\n", e.c_str());

  std::string out = "{\"correct\":";
  out += r.correct() ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(r.attempted);
  out += ",\"failed\":" + std::to_string(r.failed);
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& [name, vu] = r.metrics[i];
    out += (i ? ",\"" : "\"") + json::escape(name) + "\":{\"value\":" +
           number(vu.first) + ",\"unit\":\"" + json::escape(vu.second) + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

Options parse(int argc, char** argv, bool& write_refs) {
  Options o;
  o.threads = std::max(1u, std::thread::hardware_concurrency());
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") o.workload = value;
    else if (key == "--seed") o.seed = std::stoull(value);
    else if (key == "--seconds") o.seconds = std::stod(value);
    else if (key == "--trace") o.trace = value != "0";
    else if (key == "--references") o.references = value;
    else if (key == "--cli") o.cli = value;
    else if (key == "--write-references") {
      o.references = value;
      write_refs = true;
    } else {
      throw std::runtime_error("unknown option " + key);
    }
  }
  if (argc % 2 == 0) throw std::runtime_error("options come in pairs");
  return o;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
#ifdef PERFBENCH_SANITIZED
  std::fprintf(stderr, "perfbench refuses to time a sanitizer build\n");
  return 2;
#endif
  try {
    bool write_refs = false;
    const Options opt = parse(argc, argv, write_refs);
    if (write_refs) return write_references(opt);
    Report r;
    if (opt.workload == "transfer-grid")
      r = run_transfer(opt);
    else if (opt.workload == "service-mixed")
      r = run_service(opt);
    else
      throw std::runtime_error("unknown workload '" + opt.workload + "'");
    if (r.attempted == 0) r.error("no work was attempted");
    print_result(opt, r);
    return r.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
}
