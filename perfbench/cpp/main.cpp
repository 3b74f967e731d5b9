// perfbench: runs one workload of the benchmark and writes its result
// record as JSON.  run.py builds this binary, runs it, checks the record
// against the answers recorded for the seed, and prints the result line.
//
//   perfbench --workload census|serve_churn --seed N
//             --seconds S --trace 0|1 --workers W --work-dir DIR --out FILE
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "bench.h"
#include "idnscope/obs/trace.h"
#include "workload.h"

namespace perfbench {
namespace {

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
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
          char escaped[8];
          std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
          out += escaped;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", std::isfinite(value) ? value : 0.0);
  return buffer;
}

std::string json_metrics(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, metric] : metrics) {
    if (out.size() > 1) {
      out += ",";
    }
    out += json_string(name) + ":{\"value\":" + json_number(metric.value) +
           ",\"unit\":" + json_string(metric.unit) +
           ",\"samples\":" + std::to_string(metric.samples) + "}";
  }
  return out + "}";
}

std::string json_strings(const std::map<std::string, std::string>& values) {
  std::string out = "{";
  for (const auto& [key, value] : values) {
    if (out.size() > 1) {
      out += ",";
    }
    out += json_string(key) + ":" + json_string(value);
  }
  return out + "}";
}

std::string result_json(const RunConfig& config, const RunResult& result,
                        const Tracer& tracer, double wall_s) {
  std::string out = "{\"schema\":\"perfbench-result-1\"";
  out += ",\"workload\":" + json_string(config.workload);
  out += ",\"seed\":" + std::to_string(config.seed);
  out += ",\"seconds\":" + std::to_string(config.seconds);
  out += ",\"trace\":" + std::string(config.trace ? "true" : "false");
  out += ",\"workers\":" + std::to_string(config.workers);
  out += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  out += ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE);
  out += ",\"compiler\":" + json_string(PERFBENCH_COMPILER);
  out += ",\"wall_s\":" + json_number(wall_s);
  out += ",\"attempted\":" + std::to_string(result.attempted);
  out += ",\"failed\":" + std::to_string(result.failed);
  out += ",\"checks\":[";
  for (std::size_t i = 0; i < result.checks.size(); ++i) {
    const Check& check = result.checks[i];
    out += std::string(i == 0 ? "" : ",") + "{\"name\":" +
           json_string(check.name) + ",\"ok\":" + (check.ok ? "true" : "false") +
           ",\"detail\":" + json_string(check.detail) + "}";
  }
  out += "],\"digests\":" + json_strings(result.digests);
  out += ",\"facts\":" + json_strings(result.facts);
  out += ",\"end_to_end\":" + json_metrics(result.end_to_end);
  out += ",\"per_layer\":" + json_metrics(result.per_layer);
  out += ",\"spans\":[";
  const std::vector<LayerSpan>& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const LayerSpan& s = spans[i];
    out += std::string(i == 0 ? "" : ",") + "{\"name\":" + json_string(s.name) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"start_s\":" + json_number(s.start_s) +
           ",\"end_s\":" + json_number(s.end_s) +
           ",\"rss_before_mb\":" + json_number(s.rss_before_mb) +
           ",\"rss_after_mb\":" + json_number(s.rss_after_mb) +
           ",\"peak_before_mb\":" + json_number(s.peak_before_mb) +
           ",\"peak_after_mb\":" + json_number(s.peak_after_mb) + "}";
  }
  out += "],\"library_spans\":{";
  if (tracer.enabled()) {
    bool first = true;
    for (const auto& [path, stats] : idnscope::obs::trace_table()) {
      out += std::string(first ? "" : ",") + json_string(path) +
             ":{\"calls\":" + std::to_string(stats.calls) +
             ",\"total_s\":" +
             json_number(static_cast<double>(stats.total_ns) / 1e9) + "}";
      first = false;
    }
  }
  return out + "}}\n";
}

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "census|serve_churn --seed N --seconds S "
               "--trace 0|1 --workers W --work-dir DIR --out FILE\n",
               message);
  return 2;
}

bool parse_u64(const char* text, std::uint64_t* out) {
  if (text == nullptr || *text < '0' || *text > '9') {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0') {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const double start = now_s();
  RunConfig config;
  std::string out_path;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr) {
      return usage("missing flag value");
    }
    std::uint64_t number = 0;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--out") {
      out_path = value;
    } else if (!parse_u64(value, &number)) {
      return usage("flag value is not a whole number");
    } else if (flag == "--seed") {
      config.seed = number;
    } else if (flag == "--seconds" && number >= 1 && number <= 3600) {
      config.seconds = static_cast<unsigned>(number);
    } else if (flag == "--trace" && number <= 1) {
      config.trace = number == 1;
    } else if (flag == "--workers" && number >= 1 && number <= 32) {
      config.workers = static_cast<unsigned>(number);
    } else {
      return usage("unknown flag or value out of range");
    }
  }
  if (config.workers == 0) {
    config.workers = std::max(1u, std::thread::hardware_concurrency());
  }
  if (config.work_dir.empty() || out_path.empty()) {
    return usage("--work-dir and --out are required");
  }
  RunResult (*run)(const RunConfig&, Tracer&) = nullptr;
  if (config.workload == "census") {
    run = run_census;
  } else if (config.workload == "serve_churn") {
    run = run_serve_churn;
  } else {
    return usage("unknown workload");
  }

  Tracer tracer(config.trace);
  RunResult result;
  try {
    std::filesystem::create_directories(config.work_dir);
    result = run(config, tracer);
    result.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 config.workload.c_str(), error.what());
    return 1;
  }
  const double wall_s = now_s() - start;
  if (config.trace) {
    double covered = 0.0;
    for (const LayerSpan& span : tracer.spans()) {
      if (span.parent < 0) {
        covered += span.end_s - span.start_s;
      }
    }
    result.per_layer["bench.layer_coverage"] = {covered / wall_s, "ratio"};
  }
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", out_path.c_str());
    return 1;
  }
  const std::string json = result_json(config, result, tracer, wall_s);
  const bool written =
      std::fwrite(json.data(), 1, json.size(), out) == json.size();
  if (std::fclose(out) != 0 || !written) {
    std::fprintf(stderr, "perfbench: short write to %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}
