#pragma once

/// \file inference_server.hpp
/// The inference request pipeline (Ollama role): adaptive micro-batching
/// and vLLM-style continuous batching.
///
/// The paper states: "Currently, services are single-threaded, and, as
/// such, they only handle one request at a time, queuing further
/// incoming requests." The default configuration (one worker, batch of
/// one) implements exactly that queue; `max_batch`/`batch_window` turn
/// on the batched serving mode the paper names as future work: an idle
/// worker takes up to `max_batch` queued requests at once, and when
/// fewer are queued it holds a `batch_window`-long window open so
/// near-simultaneous requests coalesce. A full batch always dispatches
/// immediately (the "adaptive" part: no window penalty at saturation).
///
/// `continuous` replaces fixed micro-batches with ONE running batch of
/// per-sequence decode states: each admitted request is a sequence with
/// `ModelSpec::sequence_work(tokens)` seconds of solo decode work left,
/// and every sequence drains at rate 1/step_factor(N) while N sequences
/// share the decode loop (the same `batch_cost_slope` cost model the
/// fixed path charges batch-wide). Queued requests are admitted at step
/// boundaries — whenever the batch composition changes — up to
/// `max_batch`, and each request replies the moment *its* sequence
/// finishes instead of at batch end. That is what lifts tail latency at
/// saturation: a short sequence no longer waits for the longest one in
/// its batch. Admission order, decode-segment arithmetic and completion
/// order are all pure functions of the seed, so same-seed runs produce
/// bit-identical batch traces and completion orders.
///
/// Request life (fixed): arrive -> FIFO queue -> [batch] parse -> one
/// batched inference (ModelSpec::batch_duration) -> serialize -> reply.
/// Request life (continuous): arrive -> FIFO queue -> admit at a step
/// boundary -> parse -> decode as a sequence of the running batch ->
/// sequence finishes -> serialize -> reply. Either way the Responder's
/// compute stamps bracket only the decode, so queue wait + parse +
/// serialize land in the paper's `service` component.
///
/// Every reply also records an arrival->reply latency sample into a
/// sliding `latency_window` (metrics::WindowQuantile): the per-request
/// latency stream the SLO autoscaler polls through the ServiceManager.

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "ripple/common/random.hpp"
#include "ripple/common/statistics.hpp"
#include "ripple/metrics/counters.hpp"
#include "ripple/metrics/tracer.hpp"
#include "ripple/metrics/window_quantile.hpp"
#include "ripple/ml/model.hpp"
#include "ripple/msg/rpc.hpp"
#include "ripple/sim/event_loop.hpp"

namespace ripple::ml {

struct ServerConfig {
  /// Concurrent batches processed (1 == the paper's current design).
  /// Ignored in continuous mode: there is one shared decode loop.
  std::size_t max_concurrency = 1;

  /// Queue bound; requests beyond it are rejected with an error reply.
  /// 0 means unbounded (the paper's services queue without bound).
  std::size_t max_queue = 0;

  /// Requests coalesced into one inference (1 == unbatched baseline).
  /// In continuous mode: the running batch's sequence cap.
  std::size_t max_batch = 1;

  /// How long an idle worker waits for a partial batch to fill before
  /// dispatching what is queued. 0 dispatches partial batches
  /// immediately. Ignored when max_batch == 1 and in continuous mode
  /// (admission there is immediate at step boundaries).
  sim::Duration batch_window = 0.0;

  /// vLLM-style continuous batching (see the file comment).
  bool continuous = false;

  /// Trailing window of per-request latencies kept for SLO queries.
  sim::Duration latency_window = 10.0;
};

class InferenceServer {
 public:
  InferenceServer(sim::EventLoop& loop, common::Rng rng, ModelSpec model,
                  ServerConfig config = {});

  /// Cancels the batch-window and decode timers and expires the
  /// liveness token: pending pipeline callbacks (parse/inference/
  /// serialize of in-flight batches, decode boundaries and per-sequence
  /// replies of a running continuous batch) become no-ops instead of
  /// touching a dead server — a failed/killed service can be torn down
  /// with work still queued, and sequences that already replied are
  /// never replied to twice.
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Wires the runtime's tracer/counters in (either may be null).
  /// `entity` names this server in the span log — the owning service
  /// uid, so replicas stay distinguishable. When tracing is enabled,
  /// fixed-mode batches and continuous-mode sequences become spans and
  /// the serving counters ("ml.batches", "ml.served", ...) tick, with
  /// "ml.batch_fill" tracking the latest dispatched/running batch size.
  void set_trace(metrics::Tracer* tracer, metrics::Counters* counters,
                 std::string entity) {
    tracer_ = tracer;
    counters_ = counters;
    trace_entity_ = std::move(entity);
  }

  /// Accepts an RPC "infer" request (called from the bound method).
  void handle(std::shared_ptr<msg::Responder> responder);

  /// Requests queued or executing.
  [[nodiscard]] std::size_t outstanding() const noexcept {
    return queue_.size() + busy_requests_;
  }
  [[nodiscard]] std::size_t queue_depth() const noexcept {
    return queue_.size();
  }
  /// Requests currently admitted (parsing, decoding or serializing).
  [[nodiscard]] std::size_t busy() const noexcept { return busy_requests_; }
  /// Sequences currently inside the running continuous batch.
  [[nodiscard]] std::size_t running_sequences() const noexcept {
    return running_.size();
  }
  [[nodiscard]] std::uint64_t served() const noexcept { return served_; }
  [[nodiscard]] std::uint64_t rejected() const noexcept { return rejected_; }
  /// Fixed mode: batches dispatched. Continuous mode: sequences
  /// admitted into the running batch.
  [[nodiscard]] std::uint64_t batches() const noexcept { return batches_; }
  [[nodiscard]] std::size_t peak_queue() const noexcept {
    return peak_queue_;
  }
  [[nodiscard]] const ModelSpec& model() const noexcept { return model_; }

  /// Observed inference durations: per dispatched batch (fixed mode) or
  /// per completed sequence (continuous mode).
  [[nodiscard]] const common::Summary& inference_times() const noexcept {
    return inference_times_;
  }

  /// Batch-size trace, capped at kBatchTraceCap entries so long-running
  /// servers don't grow without bound. Fixed mode: dispatched batch
  /// sizes in dispatch order. Continuous mode: the running batch size
  /// after each admission, in admission order. Same-seed runs must
  /// produce bit-identical traces (the serving determinism tests diff
  /// this directly).
  [[nodiscard]] const std::vector<std::uint32_t>& batch_trace()
      const noexcept {
    return batch_trace_;
  }

  /// FNV-1a over *every* batch-trace entry (not capped): the cheap
  /// full-lifetime determinism fingerprint.
  [[nodiscard]] std::uint64_t batch_trace_hash() const noexcept {
    return batch_trace_hash_;
  }

  /// Continuous mode: sequence ids (admission-ordered, 0-based) in the
  /// order their decode finished, capped at kBatchTraceCap.
  [[nodiscard]] const std::vector<std::uint64_t>& completion_order()
      const noexcept {
    return completion_order_;
  }

  /// FNV-1a over *every* completed sequence id, uncapped.
  [[nodiscard]] std::uint64_t completion_hash() const noexcept {
    return completion_hash_;
  }

  /// Full-lifetime arrival->reply latencies (every served request).
  [[nodiscard]] const common::Summary& request_latencies() const noexcept {
    return request_latencies_;
  }

  /// Sliding-window latencies for SLO queries (config.latency_window).
  [[nodiscard]] const metrics::WindowQuantile& latency_window()
      const noexcept {
    return latency_window_;
  }

  static constexpr std::size_t kBatchTraceCap = 1 << 16;

  [[nodiscard]] json::Value stats() const;

 private:
  /// A request waiting in the FIFO queue (arrival stamped for the
  /// latency stream).
  struct Queued {
    std::shared_ptr<msg::Responder> responder;
    sim::SimTime arrived = 0.0;
  };

  /// One sequence of the running continuous batch. `remaining` is solo
  /// decode work (seconds at batch size 1) still to drain.
  struct Sequence {
    std::uint64_t id = 0;
    std::shared_ptr<msg::Responder> responder;
    double remaining = 0.0;
    sim::SimTime arrived = 0.0;
    sim::SimTime started = 0.0;  ///< decode join time (inference stamp)
    metrics::SpanId trace = 0;   ///< open decode span, 0 when untraced
  };

  void pump();
  void dispatch(std::size_t batch_size);

  // --- continuous engine -------------------------------------------------
  /// Admits queued requests into free batch slots (each pays its parse
  /// cost before joining the decode loop).
  void admit();
  /// Adds a parsed request to the running batch at a step boundary.
  void join(Queued request);
  /// Advances every running sequence's progress to now at the decode
  /// rate of the segment that just ended.
  void settle();
  /// (Re)arms the decode timer for the earliest sequence completion.
  void reschedule();
  /// Decode timer fired: retire finished sequences, admit, re-arm.
  void on_decode_boundary();
  void finish_sequence(Sequence sequence);

  void note_batch(std::size_t batch_size);
  void record_latency(sim::SimTime arrived);

  sim::EventLoop& loop_;
  common::Rng rng_;
  ModelSpec model_;
  ServerConfig config_;
  metrics::Tracer* tracer_ = nullptr;
  metrics::Counters* counters_ = nullptr;
  std::string trace_entity_ = "inference";
  std::deque<Queued> queue_;
  sim::EventLoop::TimerHandle window_timer_;
  /// The open batch window ran out while every worker was busy; the
  /// waiting partial batch dispatches to the first freeing worker
  /// instead of being re-windowed (it already paid its window once).
  bool window_expired_ = false;
  /// Liveness token captured (weakly) by every scheduled callback.
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);
  std::size_t busy_workers_ = 0;
  std::size_t busy_requests_ = 0;
  std::uint64_t served_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t batches_ = 0;
  std::size_t peak_queue_ = 0;

  /// Continuous engine state: the running batch (admission order), the
  /// count of admitted-but-still-parsing requests (they hold batch
  /// slots so admission can never overshoot max_batch), the timer armed
  /// for the next earliest sequence completion, and the wall time the
  /// current constant-composition decode segment began.
  std::vector<Sequence> running_;
  std::size_t parsing_ = 0;
  sim::EventLoop::TimerHandle decode_timer_;
  sim::SimTime segment_start_ = 0.0;
  std::uint64_t next_sequence_ = 0;

  common::Summary inference_times_;
  common::Summary batch_sizes_;
  common::Summary request_latencies_;
  metrics::WindowQuantile latency_window_;
  std::vector<std::uint32_t> batch_trace_;
  std::uint64_t batch_trace_hash_ = 14695981039346656037ULL;
  std::vector<std::uint64_t> completion_order_;
  std::uint64_t completion_hash_ = 14695981039346656037ULL;
};

}  // namespace ripple::ml
