// ripple_perf: one measured run of one benchmark workload.
//
//   ripple_perf --workload campaign|dataflow|serving --seed N
//               [--trace 0|1] [--replay 0|1] [--spans PATH]
//
// Generates the workload from the seed, then times one Session from
// construction to destruction (tracing on or off), repeats the set-up
// a few more times for a steadier setup_s, optionally replays the
// workload's pre-run scheduler batch, and prints one JSON object on
// stdout. perfbench/run.py runs this binary once per repetition, so
// each measured run has a process, and a peak RSS, of its own.

#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace perf;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  bool replay = false;
  std::string spans_path;
};

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--replay") {
      args.replay = value == "1";
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  return args;
}

WorkloadPlan plan_for(const Args& args) {
  if (args.workload == "campaign") return plan_campaign(args.seed);
  if (args.workload == "dataflow") return plan_dataflow(args.seed);
  if (args.workload == "serving") return plan_serving(args.seed);
  throw std::invalid_argument("unknown workload '" + args.workload + "'");
}

json::Value to_object(const std::map<std::string, double>& values) {
  json::Value out = json::Value::object();
  for (const auto& [name, value] : values) out.set(name, value);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    const WorkloadPlan plan = plan_for(args);

    Spans spans;
    RunRecord record;
    const HostRecord host =
        drive(plan.factory, args.seed, args.trace, spans, record);

    json::Value out = json::Value::object();
    out.set("workload", plan.name);
    out.set("seed", args.seed);
    out.set("traced", args.trace);
    out.set("unit", plan.unit);
    out.set("attempted", record.attempted);
    out.set("done", record.done);
    out.set("failed", record.failed);

    json::Value setups = json::Value::array();
    for (const double s : host.setup_s) setups.push_back(s);
    json::Value span_totals = json::Value::object();
    for (const char* name :
         {"platform.setup", "data.setup", "ml.setup", "core.submit",
          "wf.submit", "sim.run", "core.teardown"}) {
      span_totals.set(name, spans.total(name));
    }
    out.set("host", json::Value::object({{"wall_s", host.wall_s},
                                         {"run_s", host.run_s},
                                         {"setup_s", setups},
                                         {"peak_rss_mb", host.peak_rss_mb},
                                         {"spans", span_totals}}));
    out.set("sim", json::Value::object(
                       {{"makespan_s", record.makespan_s},
                        {"latency_p50_s", record.latency_p50_s},
                        {"latency_p99_s", record.latency_p99_s},
                        {"bytes_moved_gb",
                         record.layers.at("data.bytes_moved_gb")}}));
    out.set("layers", to_object(record.layers));
    json::Value fingerprints = json::Value::object();
    for (const auto& [name, hash] : record.fingerprints) {
      fingerprints.set(name, hex(hash));
    }
    out.set("fingerprints", fingerprints);
    json::Value checks = json::Value::object();
    for (const auto& [name, ok] : record.checks) checks.set(name, ok);
    out.set("checks", checks);

    if (args.replay) {
      const ReplayResult replay = replay_scheduler(plan, args.seed);
      out.set("replay", json::Value::object(
                            {{"requests", plan.replay.size()},
                             {"submit_us", replay.submit_us},
                             {"release_us", replay.release_us},
                             {"grants", replay.grants}}));
    }
    if (!args.spans_path.empty()) {
      std::ofstream file(args.spans_path);
      file << spans.to_json().dump() << "\n";
      if (!file) throw std::runtime_error("cannot write " + args.spans_path);
    }
    std::cout << out.dump() << std::endl;
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "ripple_perf: " << error.what() << "\n";
    return 2;
  }
}
