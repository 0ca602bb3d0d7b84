// ripple_calibrate: how fast the host runs event-driven code right now.
//
//   ripple_calibrate
//
// Times one fixed reference computation and prints one JSON object,
// {"calibration_s": <host seconds>, "checksum": <hex>}, on stdout.
//
// The work never changes. It is the three kinds of host work ripple does:
// discrete-event simulations (a binary-heap timer queue of type-erased
// callbacks, a string-keyed hash map of heap-allocated entities and an
// ordered wait index), which chase pointers like the event loop and the
// managers, once over a table that fits a core's cache and once over one
// spread across megabytes like a workload's heap, so that the probe feels
// contention for the core and for the shared cache; backfill-style passes
// over a flat wait queue, which scan memory like the scheduler; and
// building small JSON request messages and parsing them back into fields,
// like the message layer. It uses the standard library only, so no change
// to ripple changes its time, while a shared host that slows ripple down
// slows it down too. perfbench/run.py runs it around every measured
// repetition and scales the workload's host times by the reference
// calibration time over the measured one.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <queue>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace {

constexpr std::size_t kSmallTable = 4096;
constexpr std::size_t kLargeTable = 65536;
constexpr std::size_t kEvents = 120000;  // per table
constexpr std::size_t kHistory = 16;
constexpr std::size_t kQueued = 8192;
constexpr std::size_t kPasses = 3000;
constexpr std::size_t kMessages = 50000;

/// xorshift64: fixed seed, so every run does exactly the same work.
struct Rng {
  std::uint64_t state = 88172645463325252ull;
  std::uint64_t next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }
};

struct Entity {
  std::vector<double> history;
  std::uint64_t visits = 0;
};

struct Event {
  double time = 0.0;
  std::uint64_t seq = 0;
  std::function<void()> callback;
};

struct Later {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

class Simulation {
 public:
  explicit Simulation(std::size_t entities) : entities_count_(entities) {}

  std::uint64_t run() {
    for (std::size_t i = 0; i < entities_count_ / 2; ++i) schedule(0.0);
    for (std::size_t done = 0; done < kEvents && !queue_.empty(); ++done) {
      Event event = queue_.top();
      queue_.pop();
      now_ = event.time;
      event.callback();
    }
    return checksum_;
  }

 private:
  void schedule(double delay) {
    const std::size_t target = rng_.below(entities_count_);
    const double jitter = static_cast<double>(rng_.below(1000)) * 1e-3;
    const double when = now_ + delay + jitter;
    queue_.push(Event{when, seq_++, [this, target] { visit(target); }});
  }

  void visit(std::size_t target) {
    Entity& entity = entities_["entity." + std::to_string(target)];
    ++entity.visits;
    if (entity.history.size() == kHistory) entity.history.clear();
    entity.history.push_back(now_);
    waiting_.emplace(std::make_pair(rng_.below(4), seq_), target);
    if (waiting_.size() > entities_count_ / 4) {
      const auto oldest = waiting_.begin();
      checksum_ = checksum_ * 1099511628211ull + oldest->second;
      waiting_.erase(oldest);
    }
    checksum_ += entity.visits + entity.history.size();
    schedule(1.0);
  }

  std::size_t entities_count_;
  Rng rng_;
  double now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t checksum_ = 1469598103934665603ull;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::unordered_map<std::string, Entity> entities_;
  std::map<std::pair<std::size_t, std::uint64_t>, std::size_t> waiting_;
};

struct Request {
  std::uint32_t cores = 1;
  std::uint32_t gpus = 0;
  float mem_gb = 0.0f;
};

/// Each pass walks the whole wait queue in order and grants every request
/// that still fits a freshly drawn free capacity, as a backfill pass does.
std::uint64_t backfill_passes() {
  Rng rng;
  std::vector<Request> queue(kQueued);
  for (Request& request : queue) {
    request.cores = static_cast<std::uint32_t>(1 + rng.below(64));
    request.gpus = static_cast<std::uint32_t>(rng.below(5));
    request.mem_gb = static_cast<float>(rng.below(256));
  }
  std::uint64_t granted = 0;
  for (std::size_t pass = 0; pass < kPasses; ++pass) {
    std::uint32_t cores = static_cast<std::uint32_t>(rng.below(256));
    std::uint32_t gpus = static_cast<std::uint32_t>(rng.below(8));
    float mem_gb = static_cast<float>(rng.below(1024));
    for (const Request& request : queue) {
      if (request.cores <= cores && request.gpus <= gpus &&
          request.mem_gb <= mem_gb) {
        cores -= request.cores;
        gpus -= request.gpus;
        mem_gb -= request.mem_gb;
        ++granted;
      }
    }
  }
  return granted;
}

/// Builds each request as JSON text, then parses its flat object back
/// into a field map.
std::uint64_t message_round_trips() {
  Rng rng;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kMessages; ++i) {
    const std::string text =
        "{\"uid\":\"request." + std::to_string(rng.below(100000)) +
        "\",\"model\":\"llama-8b\",\"tokens\":" +
        std::to_string(rng.below(4096)) + ",\"sent\":" +
        std::to_string(static_cast<double>(rng.below(1000000)) * 1e-3) + "}";
    const std::string_view body(text);
    std::map<std::string, std::string> fields;
    std::size_t at = 1;
    while (at < body.size() && body[at] == '"') {
      const std::size_t key_end = body.find('"', at + 1);
      const std::size_t value_start = key_end + 2;
      const std::size_t value_end = body.find_first_of(",}", value_start);
      fields.emplace(body.substr(at + 1, key_end - at - 1),
                     body.substr(value_start, value_end - value_start));
      at = value_end + 1;
    }
    total += fields.size() + fields["tokens"].size();
  }
  return total;
}

}  // namespace

int main() {
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t checksum =
      Simulation(kSmallTable).run() ^ Simulation(kLargeTable).run() ^
      backfill_passes() ^ message_round_trips();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::printf("{\"calibration_s\": %.9f, \"checksum\": \"%016llx\"}\n", seconds,
              static_cast<unsigned long long>(checksum));
  return 0;
}
