#include "ripple/core/executor.hpp"

#include "ripple/common/error.hpp"
#include "ripple/common/strutil.hpp"

namespace ripple::core {

// ---------------------------------------------------------------------------
// ModeledPayload
// ---------------------------------------------------------------------------

void ModeledPayload::run(ExecutionContext& ctx, DoneFn done, FailFn fail) {
  (void)fail;
  const sim::Duration duration =
      duration_.sample(ctx.rng) * ctx.speed_factor;
  ctx.loop().call_after(duration, [duration, done = std::move(done)] {
    json::Value result = json::Value::object();
    result.set("runtime", duration);
    done(std::move(result));
  });
}

// ---------------------------------------------------------------------------
// Registries
// ---------------------------------------------------------------------------

PayloadRegistry::PayloadRegistry() {
  register_factory("modeled", [](const TaskDescription& desc) {
    return std::make_unique<ModeledPayload>(desc.duration);
  });
}

void PayloadRegistry::register_factory(const std::string& kind,
                                       Factory factory) {
  ensure(static_cast<bool>(factory), Errc::invalid_argument,
         "payload factory must not be empty");
  factories_[kind] = std::move(factory);
}

bool PayloadRegistry::has(const std::string& kind) const {
  return factories_.count(kind) != 0;
}

std::unique_ptr<TaskPayload> PayloadRegistry::create(
    const TaskDescription& desc) const {
  const auto it = factories_.find(desc.kind);
  ensure(it != factories_.end(), Errc::not_found,
         "no payload factory for kind '", desc.kind, "'");
  auto payload = it->second(desc);
  ensure(payload != nullptr, Errc::internal, "payload factory '", desc.kind,
         "' returned null");
  return payload;
}

void ProgramRegistry::register_factory(const std::string& name,
                                       Factory factory) {
  ensure(static_cast<bool>(factory), Errc::invalid_argument,
         "program factory must not be empty");
  factories_[name] = std::move(factory);
}

bool ProgramRegistry::has(const std::string& name) const {
  return factories_.count(name) != 0;
}

std::unique_ptr<ServiceProgram> ProgramRegistry::create(
    const ServiceDescription& desc) const {
  const auto it = factories_.find(desc.program);
  ensure(it != factories_.end(), Errc::not_found, "no service program '",
         desc.program, "'");
  auto program = it->second(desc);
  ensure(program != nullptr, Errc::internal, "program factory '", desc.program,
         "' returned null");
  return program;
}

void FunctionRegistry::register_fn(const std::string& name, Fn fn) {
  ensure(static_cast<bool>(fn), Errc::invalid_argument,
         "function must not be empty");
  functions_[name] = std::move(fn);
}

bool FunctionRegistry::has(const std::string& name) const {
  return functions_.count(name) != 0;
}

const FunctionRegistry::Fn& FunctionRegistry::get(
    const std::string& name) const {
  const auto it = functions_.find(name);
  ensure(it != functions_.end(), Errc::not_found, "no registered function '",
         name, "'");
  return it->second;
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

namespace {

/// Built-in "function" payload: runs a registered C++ callable for real,
/// while the simulated duration comes from the task's duration model.
class FunctionPayload final : public TaskPayload {
 public:
  FunctionPayload(const FunctionRegistry& registry, TaskDescription desc)
      : registry_(registry), desc_(std::move(desc)) {}

  void run(ExecutionContext& ctx, DoneFn done, FailFn fail) override {
    const std::string fn_name =
        desc_.payload.get_or("fn", json::Value("")).as_string();
    if (!registry_.has(fn_name)) {
      fail(strutil::cat("unknown function '", fn_name, "'"));
      return;
    }
    json::Value output;
    try {
      output = registry_.get(fn_name)(
          ctx, desc_.payload.get_or("args", json::Value::object()));
    } catch (const std::exception& e) {
      fail(strutil::cat("function '", fn_name, "' threw: ", e.what()));
      return;
    }
    const sim::Duration duration =
        desc_.duration.sample(ctx.rng) * ctx.speed_factor;
    ctx.loop().call_after(
        duration, [duration, output = std::move(output),
                   done = std::move(done)]() mutable {
          json::Value result = json::Value::object();
          result.set("runtime", duration);
          result.set("output", std::move(output));
          done(std::move(result));
        });
  }

 private:
  const FunctionRegistry& registry_;
  TaskDescription desc_;
};

}  // namespace

Executor::Executor(Runtime& runtime) : runtime_(runtime) {
  payloads_.register_factory("function", [this](const TaskDescription& desc) {
    return std::make_unique<FunctionPayload>(functions_, desc);
  });
}

ExecutionContext Executor::make_context(const std::string& uid,
                                        sim::HostId host,
                                        json::Value config) {
  ExecutionContext ctx{.runtime = &runtime_,
                       .data = nullptr,
                       .host = std::move(host),
                       .uid = uid,
                       .config = std::move(config),
                       .rng = runtime_.rng().fork(uid),
                       .log = runtime_.make_logger(uid)};
  return ctx;
}

void Executor::launch(platform::Cluster& cluster,
                      std::size_t concurrency_hint,
                      std::function<void(sim::Duration)> done) {
  ++launches_;
  cluster.launcher().launch(std::move(done), concurrency_hint);
}

}  // namespace ripple::core
