#include "ripple/ml/inference_service.hpp"

#include "ripple/common/error.hpp"
#include "ripple/common/strutil.hpp"

namespace ripple::ml {

InferenceProgram::InferenceProgram(const core::ServiceDescription& desc)
    : desc_(desc) {}

void InferenceProgram::init(core::ExecutionContext& ctx, DoneFn done,
                            FailFn fail) {
  const std::string model_name =
      ctx.config.get_or("model", json::Value("noop")).as_string();
  if (!ModelRegistry::global().has(model_name)) {
    fail(strutil::cat("unknown model '", model_name, "'"));
    return;
  }
  const ModelSpec& model = ModelRegistry::global().get(model_name);

  ServerConfig server_config;
  server_config.max_concurrency = static_cast<std::size_t>(
      ctx.config.get_or("max_concurrency", json::Value(1)).as_int());
  server_config.max_queue = static_cast<std::size_t>(
      ctx.config.get_or("max_queue", json::Value(0)).as_int());
  server_config.max_batch = static_cast<std::size_t>(
      ctx.config.get_or("max_batch", json::Value(1)).as_int());
  server_config.batch_window =
      ctx.config.get_or("batch_window", json::Value(0.0)).as_double();
  server_config.continuous =
      ctx.config.get_or("continuous", json::Value(false)).as_bool();
  server_config.latency_window =
      ctx.config.get_or("latency_window", json::Value(10.0)).as_double();
  server_ = std::make_unique<InferenceServer>(
      ctx.loop(), ctx.rng.fork("server"), model, server_config);
  server_->set_trace(&ctx.runtime->tracer(), &ctx.runtime->counters(),
                     ctx.uid);

  if (ctx.config.get_or("preloaded", json::Value(false)).as_bool()) {
    ctx.loop().post(std::move(done));
    return;
  }

  const auto concurrent_loads = static_cast<std::size_t>(
      ctx.config.get_or("concurrent_inits", json::Value(1)).as_int());
  const double fs_coeff =
      ctx.config.get_or("fs_contention_coeff", json::Value(0.0)).as_double();
  const auto fs_threshold = static_cast<std::size_t>(
      ctx.config.get_or("fs_contention_threshold", json::Value(64))
          .as_int());
  const sim::Duration load_time = model.sample_init(
      ctx.rng, concurrent_loads, fs_coeff, fs_threshold);
  ctx.log.debug("loading model ", model.name, " (",
                strutil::format_duration(load_time), ")");
  ctx.loop().call_after(load_time, std::move(done));
}

void InferenceProgram::bind(msg::RpcServer& server) {
  ensure(server_ != nullptr, Errc::invalid_state,
         "bind called before init");
  server.bind_method("infer",
                     [this](std::shared_ptr<msg::Responder> responder) {
                       server_->handle(std::move(responder));
                     });
  server.bind_method("stats",
                     [this](std::shared_ptr<msg::Responder> responder) {
                       responder->reply(server_->stats());
                     });
}

std::size_t InferenceProgram::outstanding() const {
  return server_ ? server_->outstanding() : 0;
}

void InferenceProgram::collect_window_latencies(
    sim::SimTime now, std::vector<double>& out) const {
  if (server_ != nullptr) server_->latency_window().collect(now, out);
}

json::Value InferenceProgram::stats() const {
  return server_ ? server_->stats() : json::Value::object();
}

}  // namespace ripple::ml
