// perfbench: one workload of the repository benchmark in one process.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>]
//
// Prints the run's simulated-output digest, then (traced runs) the flat
// per-layer table, and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// ones. A traced run also writes <out>/<workload>-seed<n>.trace.json
// (Chrome-trace spans, loadable in Perfetto) and .layers.tsv.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out <dir>]\n",
               why.c_str());
  std::exit(2);
}

unsigned long long parse_uint(const std::string& flag, const std::string& v) {
  std::size_t pos = 0;
  unsigned long long n = 0;
  try {
    n = std::stoull(v, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (v.empty() || pos != v.size()) usage(flag + " needs a whole number, got '" + v + "'");
  return n;
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options o;
  o.out_dir = ".bench_out";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag{argv[i]};
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string v{argv[++i]};
    if (flag == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = parse_uint(flag, v);
    } else if (flag == "--seconds") {
      o.seconds = static_cast<double>(parse_uint(flag, v));
    } else if (flag == "--trace") {
      o.trace = parse_uint(flag, v) != 0;
    } else if (flag == "--out") {
      o.out_dir = v;
    } else {
      usage("unknown flag '" + flag + "'");
    }
  }
  if (!have_workload) usage("--workload is required");
  bool known = false;
  for (const std::string& w : perfbench::workload_names()) known = known || w == o.workload;
  if (!known) usage("unknown workload '" + o.workload + "'");
  return o;
}

/// Write the span file and the flat table; false when either write fails.
bool write_traced_files(const perfbench::Options& o, const perfbench::Outcome& out) {
  std::filesystem::create_directories(o.out_dir);
  const std::string stem = o.out_dir + "/" + o.workload + "-seed" + std::to_string(o.seed);
  std::ofstream trace{stem + ".trace.json"};
  trace << out.chrome_trace;
  std::ofstream table{stem + ".layers.tsv"};
  table << "metric\tunit\tvalue\tstat\tsamples\n";
  for (const perfbench::LayerRow& r : out.layers) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", r.value);
    table << r.metric << '\t' << r.unit << '\t' << buf << '\t' << r.stat << '\t' << r.samples
          << '\n';
  }
  trace.close();
  table.close();
  if (!trace || !table) return false;
  std::printf("wrote %s.trace.json and %s.layers.tsv\n", stem.c_str(), stem.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options opts = parse(argc, argv);
  perfbench::Outcome out;
  try {
    out = perfbench::run(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opts.workload.c_str(), e.what());
    return 1;
  }

  std::printf("digest %s seed=%llu %s\n", opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), out.digest.c_str());
  std::printf("fail_rate %.9g (%llu of %llu operations failed)\n",
              out.attempted ? static_cast<double>(out.failed) / static_cast<double>(out.attempted)
                            : 1.0,
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));

  std::printf("wall_s samples:");
  for (const double w : out.walls) std::printf(" %.4f", w);
  if (opts.trace) {
    std::printf("; traced:");
    for (const double w : out.traced_walls) std::printf(" %.4f", w);
  }
  std::printf("\n");

  std::vector<perfbench::Metric> metrics = out.metrics;
  if (opts.trace) {
    std::printf("%-36s %-6s %16s  %-6s %s\n", "metric", "unit", "value", "stat", "samples");
    for (const perfbench::LayerRow& r : out.layers) {
      std::printf("%-36s %-6s %16.6g  %-6s %zu\n", r.metric.c_str(), r.unit.c_str(), r.value,
                  r.stat.c_str(), r.samples);
      metrics.push_back({r.metric, r.value, r.unit});
    }
    if (!write_traced_files(opts, out)) {
      std::fprintf(stderr, "perfbench: cannot write the traced run's files to %s\n",
                   opts.out_dir.c_str());
      return 1;
    }
  }

  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  const char* sep = "";
  for (const perfbench::Metric& m : metrics) {
    if (!perfbench::valid_metric_name(m.name) || !std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: bad metric '%s' = %g\n", m.name.c_str(), m.value);
      return 1;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    json += sep;
    json += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
    sep = ", ";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
