// Use case II-A: the Cell Painting pipeline.
//
// Classifies radiation dose levels from cell-painting microscopy
// images with a fine-tuned ViT. Two asynchronously coupled stages:
//   1. CPU data processing & augmentation of a ~1.6 TB image dataset
//      (Globus-managed staging through the DataManager); augmentation
//      here is REAL compute on synthetic image tensors (rotation,
//      flipping, contrast), one seeded stream per image.
//   2. GPU fine-tuning driven by hyperparameter optimization
//      (successive halving over learning rate / batch size / weight
//      decay / dropout) on a synthetic-but-structured response surface.
// Training starts as soon as the first augmentation batches land
// (unblock_next_after), exactly the async coupling the paper motivates.

#include <algorithm>
#include <cmath>
#include <functional>
#include <iostream>
#include <memory>
#include <vector>

#include "ripple/common/strutil.hpp"
#include "ripple/core/session.hpp"
#include "ripple/metrics/report.hpp"
#include "ripple/ml/install.hpp"
#include "ripple/platform/profiles.hpp"
#include "ripple/wf/hyperopt.hpp"

using namespace ripple;

namespace {

/// Real augmentation work: builds a batch of synthetic 32x32 "images",
/// applies flip + rotation + contrast, and returns a checksum so the
/// compiler cannot elide the work. Each image draws from its own
/// seeded stream.
json::Value augment_batch(core::ExecutionContext& ctx,
                          const json::Value& args) {
  const auto images = static_cast<std::size_t>(
      args.get_or("images", json::Value(64)).as_int());
  constexpr std::size_t kSide = 32;
  const std::uint64_t seed = ctx.rng.uniform_int(1, 1 << 30);
  double total = 0.0;
  for (std::size_t i = 0; i < images; ++i) {
    common::Rng rng(seed + i);
    std::vector<float> img(kSide * kSide);
    for (auto& px : img) {
      px = static_cast<float>(rng.uniform(0.0, 1.0));
    }
    // Horizontal flip.
    for (std::size_t r = 0; r < kSide; ++r) {
      for (std::size_t c = 0; c < kSide / 2; ++c) {
        std::swap(img[r * kSide + c], img[r * kSide + (kSide - 1 - c)]);
      }
    }
    // 90-degree rotation into a scratch buffer.
    std::vector<float> rotated(img.size());
    for (std::size_t r = 0; r < kSide; ++r) {
      for (std::size_t c = 0; c < kSide; ++c) {
        rotated[c * kSide + (kSide - 1 - r)] = img[r * kSide + c];
      }
    }
    // Contrast stretch.
    double sum = 0.0;
    for (auto& px : rotated) {
      px = std::clamp((px - 0.5f) * 1.3f + 0.5f, 0.0f, 1.0f);
      sum += px;
    }
    total += sum;
  }

  json::Value out = json::Value::object();
  out.set("images", images);
  out.set("checksum", total);
  return out;
}

/// Synthetic-but-structured validation loss surface for the HPO stage:
/// a smooth bowl over (log lr, batch, weight decay, dropout) plus noise.
/// Minimum near lr=3e-4, batch=64, wd=1e-4, dropout=0.1.
double validation_loss(const json::Value& params, common::Rng& rng) {
  const double lr = params.at("lr").as_double();
  const double batch = static_cast<double>(params.at("batch").as_int());
  const double wd = params.at("weight_decay").as_double();
  const double dropout = params.at("dropout").as_double();
  const double loss =
      0.35 + std::pow(std::log10(lr) - std::log10(3e-4), 2.0) * 0.08 +
      std::pow(std::log2(batch) - 6.0, 2.0) * 0.01 +
      std::pow(std::log10(wd) - std::log10(1e-4), 2.0) * 0.02 +
      std::pow(dropout - 0.1, 2.0) * 0.9;
  return loss + rng.normal(0.0, 0.01);
}

}  // namespace

int main() {
  core::Session session({.seed = 1606});
  ml::install(session);
  session.add_platform(platform::delta_profile(8));
  auto& pilot = session.submit_pilot({.platform = "delta", .nodes = 8});

  // The raw dataset (~1.6 TB) lives at the "lab" site and is staged to
  // Delta via the Globus-like transfer model before processing starts.
  session.runtime().network().register_host("lab:archive", "lab");
  session.data().register_dataset("cell-painting-raw", 1.6e12, "lab");
  session.data().set_bandwidth("lab", "delta", 5.0e9);  // 40 Gb/s Globus

  session.executor().functions().register_fn("augment_batch",
                                             augment_batch);

  // ---- Stage 1: augmentation workers (CPU) --------------------------
  std::vector<std::string> augment_uids;
  for (int i = 0; i < 8; ++i) {
    core::TaskDescription task;
    task.name = "augment";
    task.kind = "function";
    task.cores = 4;
    task.payload = json::Value::object(
        {{"fn", "augment_batch"}, {"args", json::Value::object({
                                      {"images", 128},
                                  })}});
    // Each worker also models the bulk of its IO/augmentation time.
    task.duration = common::Distribution::lognormal(240.0, 0.25, 60.0);
    task.staging.push_back(core::StagingDirective::in("cell-painting-raw"));
    augment_uids.push_back(session.tasks().submit(pilot, task));
  }

  // ---- Stage 2: HPO-driven fine-tuning (GPU), async-coupled ---------
  // Starts as soon as TWO augmentation workers have delivered batches.
  wf::SuccessiveHalving search(
      {wf::ParamSpec::log_real("lr", 1e-5, 1e-2),
       wf::ParamSpec::integer("batch", 16, 256),
       wf::ParamSpec::log_real("weight_decay", 1e-6, 1e-2),
       wf::ParamSpec::real("dropout", 0.0, 0.5)},
      session.runtime().rng().fork("hpo"), /*initial=*/8, /*eta=*/2);
  common::Rng objective_rng = session.runtime().rng().fork("objective");

  std::size_t trials_run = 0;
  std::function<void()> run_rung = [&] {
    const auto pending = search.pending();
    if (pending.empty()) return;
    auto remaining = std::make_shared<std::size_t>(pending.size());
    for (const auto& trial : pending) {
      core::TaskDescription train;
      train.name = "finetune";
      train.kind = "modeled";
      train.cores = 2;
      train.gpus = 1;
      // Budget grows with the rung (successive halving semantics).
      const double epochs = 2.0 * std::pow(2.0, trial.rung);
      train.duration =
          common::Distribution::lognormal(180.0 * epochs, 0.2, 30.0);
      const auto uid = session.tasks().submit(pilot, train);
      const std::size_t trial_id = trial.id;
      const json::Value params = trial.params;
      session.tasks().when_done({uid}, [&, trial_id, params,
                                        remaining](bool ok) {
        ++trials_run;
        search.report(trial_id,
                      ok ? validation_loss(params, objective_rng) : 1e9);
        if (--(*remaining) == 0) {
          if (search.rung_complete()) search.advance_rung();
          if (!search.finished()) {
            run_rung();
          } else {
            session.services().stop_all();
          }
        }
      });
    }
  };

  std::size_t augmented_done = 0;
  bool training_started = false;
  for (const auto& uid : augment_uids) {
    session.tasks().when_done({uid}, [&](bool ok) {
      if (!ok) {
        std::cerr << "augmentation worker failed\n";
        return;
      }
      ++augmented_done;
      if (augmented_done == 2 && !training_started) {
        training_started = true;
        std::cout << "sufficient processed data at t=" << session.now()
                  << " s -> starting asynchronous HPO training\n";
        run_rung();
      }
    });
  }

  session.run();

  std::cout << "\nCell Painting pipeline complete at t="
            << strutil::format_duration(session.now()) << "\n";
  std::cout << "augmentation workers: " << augmented_done << "/8 done\n";
  std::cout << "HPO trials executed:  " << trials_run << "\n";
  const auto& best = search.best();
  std::cout << "best validation loss: "
            << strutil::format_fixed(best.value, 4)
            << " with params " << best.params.dump() << "\n";
  std::cout << "dataset transfers:    " << session.data().transfers()
            << " (" << strutil::format_bytes(session.data().bytes_moved())
            << " moved)\n";
  return 0;
}
