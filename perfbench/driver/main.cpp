// ffc_perfbench: the same-host benchmark driver (perfbench/README.md).
//
//   ffc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--negative-control] [--commit ID] [--src-digest HEX]
//                 [--out-dir DIR]
//
// Prints a provenance line and a details line, then, as the last line, one
// JSON object {"attempted", "failed", "metrics", "correct"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. The same
// record, with provenance, goes to DIR/<workload>-seed<N>-trace<T>.json, and
// a traced run's spans to DIR/trace-<workload>.json (Chrome trace events).
// Refuses to run (exit 3) from an unoptimised or sanitizer build.
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "harness.hpp"
#include "report/json.hpp"

namespace {

using perfbench::RunOptions;
using perfbench::RunResult;

const std::map<std::string, std::function<std::unique_ptr<perfbench::Workload>()>>
    kWorkloads = {
        {"map_smalln", perfbench::make_map_smalln},
        {"spectral_single", perfbench::make_spectral_single},
        {"spectral_multi", perfbench::make_spectral_multi},
        {"des_packets", perfbench::make_des_packets},
};

int usage(const std::string& message) {
  std::cerr << "ffc_perfbench: " << message << "\n"
            << "usage: ffc_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--negative-control] [--commit ID] "
               "[--src-digest HEX] [--out-dir DIR]\n";
  return 2;
}

/// Why this build must not report timings, or empty if it may.
std::string unfit_build() {
#if !defined(__OPTIMIZE__)
  return "unoptimised build";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#else
  const std::string_view type = FFCB_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    return "build type '" + std::string(type) + "'";
  }
  if (std::string_view(FFCB_CXX_FLAGS).find("-fsanitize") != std::string_view::npos) {
    return "sanitizer flags";
  }
  return "";
#endif
}

constexpr std::size_t kMaxTraceEvents = 200000;

struct Provenance {
  std::string commit = "unknown";
  std::string src_digest = "unknown";
  std::string workload;
  std::vector<double> load_average;  ///< 1, 5 and 15 minutes, at start
};

void write_provenance(ffc::report::JsonWriter& json, const Provenance& p,
                      const RunOptions& options) {
  json.begin_object()
      .kv("commit", p.commit)
      .kv("src_digest", p.src_digest)
      .kv("compiler", FFCB_COMPILER)
      .kv("compiler_version", __VERSION__)
      .kv("build_type", FFCB_BUILD_TYPE)
      .kv("flags", FFCB_CXX_FLAGS)
      .kv("nproc", std::int64_t(sysconf(_SC_NPROCESSORS_ONLN)));
  json.key("load_average").value(p.load_average);
  json.kv("workload", p.workload)
      .kv("seed", options.seed)
      .kv("seconds", options.seconds)
      .kv("trace", options.trace ? 1 : 0)
      .end_object();
}

void write_details(ffc::report::JsonWriter& json, const RunResult& result) {
  json.begin_object();
  for (const auto& [name, value] : result.details) json.kv(name, value);
  json.end_object();
}

/// Writes the result object and returns its "correct": no failed task and
/// no metric that is NaN or infinite (written as null).
bool write_result(ffc::report::JsonWriter& json, const RunResult& result) {
  json.begin_object()
      .kv("attempted", result.attempted)
      .kv("failed", result.failed);
  json.key("metrics").begin_object();
  for (const auto& [name, metric] : result.metrics) {
    json.key(name).begin_object()
        .kv("value", metric.value)
        .kv("unit", metric.unit)
        .end_object();
  }
  json.end_object();
  const bool correct = result.failed == 0 && json.non_finite_count() == 0;
  json.kv("correct", correct).end_object();
  return correct;
}

/// One compact JSON document, as a string.
template <typename Write>
std::string compact(Write&& write) {
  std::ostringstream out;
  ffc::report::JsonWriter json(out, 0);
  write(json);
  json.close();
  return out.str();
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno || end == s || *end || s[0] == '-') return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  Provenance provenance;
  std::string out_dir;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--negative-control") {
      options.negative_control = true;
      continue;
    }
    const char* v = value();
    if (!v) return usage("missing value for " + std::string(arg));
    if (arg == "--workload") {
      provenance.workload = v;
    } else if (arg == "--seed") {
      if (!parse_u64(v, options.seed)) return usage("bad --seed");
      have_seed = true;
    } else if (arg == "--seconds") {
      char* end = nullptr;
      options.seconds = std::strtod(v, &end);
      if (*end || !(options.seconds > 0 && options.seconds <= 120)) {
        return usage("--seconds must be in (0, 120]");
      }
      have_seconds = true;
    } else if (arg == "--trace") {
      if (std::strcmp(v, "0") && std::strcmp(v, "1")) {
        return usage("--trace must be 0 or 1");
      }
      options.trace = v[0] == '1';
      have_trace = true;
    } else if (arg == "--commit") {
      provenance.commit = v;
    } else if (arg == "--src-digest") {
      provenance.src_digest = v;
    } else if (arg == "--out-dir") {
      out_dir = v;
    } else {
      return usage("unknown argument " + std::string(arg));
    }
  }
  const auto factory = kWorkloads.find(provenance.workload);
  if (factory == kWorkloads.end()) return usage("unknown --workload");
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }
  if (const std::string why = unfit_build(); !why.empty()) {
    std::cerr << "ffc_perfbench: refusing to report from an " << why
              << " (" << FFCB_BUILD_TYPE << ", flags '" << FFCB_CXX_FLAGS
              << "')\n";
    return 3;
  }
  std::ifstream loadavg("/proc/loadavg");
  provenance.load_average.assign(3, 0.0);
  for (double& load : provenance.load_average) loadavg >> load;

  RunResult result;
  try {
    auto workload = factory->second();
    result = perfbench::run_workload(*workload, options);
  } catch (const std::exception& e) {
    std::cerr << "ffc_perfbench: " << e.what() << "\n";
    return 1;
  }

  if (!out_dir.empty()) {
    std::filesystem::create_directories(out_dir);
    if (options.trace) {
      const std::string path = out_dir + "/trace-" + provenance.workload + ".json";
      const long events =
          perfbench::write_chrome_trace(path, result.traces, kMaxTraceEvents);
      if (events < 0) {
        std::cerr << "ffc_perfbench: cannot write trace file " << path << "\n";
        return 1;
      }
      result.details["trace_events_written"] = double(events);
    }
    const std::string path = out_dir + "/" + provenance.workload + "-seed" +
                             std::to_string(options.seed) + "-trace" +
                             (options.trace ? "1" : "0") + ".json";
    std::ofstream record(path);
    ffc::report::JsonWriter json(record, 0);
    json.begin_object().key("provenance");
    write_provenance(json, provenance, options);
    json.key("details");
    write_details(json, result);
    json.key("result");
    write_result(json, result);
    json.end_object();
    json.close();
    record << "\n";
  }
  std::cout << "provenance: "
            << compact([&](auto& json) { write_provenance(json, provenance, options); })
            << "\ndetails: "
            << compact([&](auto& json) { write_details(json, result); }) << "\n"
            << compact([&](auto& json) { write_result(json, result); })
            << std::endl;
  return 0;
}
