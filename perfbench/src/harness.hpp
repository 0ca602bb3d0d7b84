#pragma once

/// \file harness.hpp
/// Shared pieces of the benchmark driver: host-time spans around the
/// benchmark's own calls into ripple modules, the per-run record every
/// workload fills, and the generic set-up / run / teardown sequence
/// that times a Session from construction to destruction.
///
/// Layers are measured from outside: nothing here reaches into the
/// library beyond its public headers.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ripple/common/json.hpp"
#include "ripple/core/session.hpp"

namespace perf {

using namespace ripple;

/// One host-time interval the benchmark spent inside a module call.
/// `name` is "<layer>.<what>" (e.g. "core.submit"); per-layer host
/// metrics sum the spans of one name.
struct HostSpan {
  std::string name;
  std::string call;    ///< public API called, e.g. "TaskManager::submit_all"
  double start = 0.0;  ///< seconds since the span log's origin
  double end = 0.0;
  int parent = -1;  ///< index of the enclosing span, -1 for roots
};

/// In-memory host-time span log (written out once the run is over).
class Spans {
 public:
  Spans();

  /// RAII span: opens on construction, closes on destruction; nests
  /// under whichever span is open when it starts.
  class Scope {
   public:
    Scope(Spans& spans, std::string name, std::string call);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    int index_;
  };

  [[nodiscard]] Scope scope(std::string name, std::string call) {
    return Scope(*this, std::move(name), std::move(call));
  }

  /// Seconds since the log's origin.
  [[nodiscard]] double now() const;

  /// Sum of the durations of every span called `name`.
  [[nodiscard]] double total(const std::string& name) const;

  [[nodiscard]] json::Value to_json() const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<HostSpan> spans_;
  int open_ = -1;
};

/// Everything one workload run reports back to the runner.
struct RunRecord {
  std::size_t attempted = 0;
  std::size_t done = 0;
  std::size_t failed = 0;

  // Simulated end-to-end metrics (seconds of simulated time).
  double makespan_s = 0.0;
  double latency_p50_s = 0.0;
  double latency_p99_s = 0.0;

  /// Determinism fingerprints (FNV-1a), compared across reruns and
  /// between the traced and untraced runs.
  std::map<std::string, std::uint64_t> fingerprints;
  /// Per-layer counts and simulated-time values read from public
  /// getters after the run.
  std::map<std::string, double> layers;
  /// Named correctness checks; every one must hold.
  std::map<std::string, bool> checks;
};

/// A workload instance bound to one Session. The driver constructs it
/// right after the Session, calls setup(), runs the loop, calls
/// collect(), then destroys it before the Session.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Everything before Session::run(): platforms, pilots, stores,
  /// datasets, services and pre-run submissions.
  virtual void setup(Spans& spans) = 0;
  /// Reads results through public getters once the loop drained.
  virtual void collect(RunRecord& record) = 0;
};

/// Builds a workload on a fresh Session; in-run calls the workload
/// makes into modules are recorded in `spans`.
using WorkloadFactory =
    std::function<std::unique_ptr<Workload>(core::Session&, Spans& spans)>;

/// Set-ups per measured run (its own plus extra ones after it), for a
/// steadier setup_s median.
inline constexpr int kSetups = 3;

/// Host-side results of the driver around one measured run.
struct HostRecord {
  double wall_s = 0.0;
  double run_s = 0.0;
  std::vector<double> setup_s;
  double peak_rss_mb = 0.0;
};

/// Runs one measured Session seeded with `seed` (construction, setup,
/// run, collect, teardown), reads peak RSS, then repeats construction +
/// setup kSetups - 1 more times. Collection (the workload's and the
/// session-wide getters) is excluded from wall_s.
HostRecord drive(const WorkloadFactory& factory, std::uint64_t seed,
                 bool traced, Spans& spans, RunRecord& record);

/// Peak resident set of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

/// Linear-interpolation quantile of `samples` with `failed` extra units
/// that never completed: those count as missing every latency limit
/// (kMissedLatency seconds).
[[nodiscard]] double latency_quantile(std::vector<double> samples,
                                      std::size_t failed, double q);
inline constexpr double kMissedLatency = 1e9;

/// Quantile of a sample set, 0 when empty (a layer that did no work).
[[nodiscard]] double quantile_or_zero(std::vector<double> samples, double q);

/// A fingerprint as 16 lower-case hex digits.
[[nodiscard]] std::string hex(std::uint64_t value);

/// Adds the critical-path buckets of the session's task spans over
/// [begin, end] as metrics.cp.*_frac (zeros while tracing is off).
void add_critical_path(core::Session& session, double begin, double end,
                       RunRecord& record);

/// Folds one simulated time, all its bits, into an FNV-1a fingerprint.
[[nodiscard]] std::uint64_t fold_time(std::uint64_t hash, double seconds);

}  // namespace perf
