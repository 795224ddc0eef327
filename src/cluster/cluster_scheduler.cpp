#include "cluster/cluster_scheduler.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/error.hpp"

namespace aurora::cluster {

const char* dispatch_mode_name(DispatchMode m) {
  switch (m) {
    case DispatchMode::kDataParallel:
      return "data-parallel";
    case DispatchMode::kShardParallel:
      return "shard-parallel";
  }
  throw Error("invalid DispatchMode");
}

namespace {

/// A serving unit fail-stopped at `down` (kNever: it did not) mid-request:
/// the attempt's work is lost, the outcome and the timeline collapse to the
/// failure instant, and no compute tail is left for a successor to hide
/// its DRAM streaming under.
void collapse_on_failure(ClusterOutcome& outcome, core::ChipTimeline& timeline,
                         Cycle down) {
  if (down == fault::kNever) return;
  outcome.failed = true;
  outcome.failed_at = down;
  outcome.finish_cycle = down;
  timeline.busy_until = down;
  timeline.prev_compute_tail = 0;
}

}  // namespace

ClusterScheduler::ClusterScheduler(const core::AuroraConfig& config,
                                   const ClusterParams& params)
    : config_(config), params_(params) {
  AURORA_CHECK(params.num_chips >= 1);
}

void ClusterScheduler::reset() {
  chips_.clear();
  chip_timelines_.clear();
  engine_.reset();
  shard_timeline_ = core::ChipTimeline{};
  service_cache_.clear();
}

void ClusterScheduler::ensure_chips() {
  if (!chips_.empty()) return;
  const std::uint32_t n = params_.num_chips;
  // One accelerator per chip, reused across the requests it serves, so
  // partition/mapping state carries over exactly as on a single chip.
  chips_.reserve(n);
  for (std::uint32_t c = 0; c < n; ++c) {
    chips_.push_back(std::make_unique<core::AuroraAccelerator>(config_));
    if (tracer_ != nullptr) chips_.back()->set_tracer(tracer_);
  }
  chip_timelines_.assign(n, core::ChipTimeline{});
}

void ClusterScheduler::ensure_engine() {
  if (engine_ != nullptr) return;
  engine_ = std::make_unique<ClusterEngine>(config_, params_);
  if (tracer_ != nullptr) engine_->set_tracer(tracer_);
}

const core::Service* ClusterScheduler::cache_lookup(
    const std::string& key) const {
  if (tracer_ != nullptr) return nullptr;
  const auto it = service_cache_.find(key);
  return it == service_cache_.end() ? nullptr : &it->second;
}

const core::Service& ClusterScheduler::remember(const std::string& key,
                                                core::Service& measured) {
  if (tracer_ != nullptr) return measured;
  return service_cache_[key] = std::move(measured);
}

Cycle ClusterScheduler::next_free(DispatchMode mode) const {
  if (mode == DispatchMode::kShardParallel) {
    // Dispatch-time fallback covers gang chips that are down when the next
    // request probes its start, so the shard timeline needs no adjustment.
    return shard_timeline_.busy_until;
  }
  if (chips_.empty()) return 0;
  const fault::FaultPlan* plan = active_fault_plan();
  Cycle free = fault::kNever;
  for (std::size_t c = 0; c < chip_timelines_.size(); ++c) {
    Cycle f = chip_timelines_[c].busy_until;
    if (plan != nullptr) {
      f = plan->chip_up_after(static_cast<std::uint32_t>(c), f);
      if (f == fault::kNever) continue;
    }
    free = std::min(free, f);
  }
  if (free == fault::kNever) {
    // Every chip is permanently down. Keep the clock finite — dispatches
    // will report no_capacity and the queue drains as permanent failures.
    free = chip_timelines_[0].busy_until;
    for (const core::ChipTimeline& t : chip_timelines_) {
      free = std::min(free, t.busy_until);
    }
  }
  return free;
}

ClusterOutcome ClusterScheduler::serve(const graph::Dataset& dataset,
                                       core::ScheduledRequest request,
                                       DispatchMode mode, Cycle not_before,
                                       bool share_configuration,
                                       std::optional<std::uint32_t> pin_chip) {
  return mode == DispatchMode::kDataParallel
             ? serve_data_parallel(dataset, request, not_before,
                                   share_configuration, pin_chip)
             : serve_shard_parallel(dataset, request, not_before,
                                    share_configuration);
}

ClusterOutcome ClusterScheduler::serve_data_parallel(
    const graph::Dataset& dataset, core::ScheduledRequest& request,
    Cycle not_before, bool share_configuration,
    std::optional<std::uint32_t> pin_chip) {
  ensure_chips();
  const fault::FaultPlan* plan = active_fault_plan();
  // Least-loaded dispatch, ties to the lowest chip index; a pinned chip
  // (batch follower) overrides. Under a fault plan the load is
  // fault-adjusted: a chip's cost is the cycle it is both free and up, and
  // permanently dead chips are never selected.
  std::uint32_t chip = 0;
  bool have_chip = false;
  if (pin_chip.has_value()) {
    AURORA_CHECK(*pin_chip < chips_.size());
    chip = *pin_chip;
    have_chip = true;
    if (plan != nullptr &&
        plan->chip_up_after(chip, std::max(chip_timelines_[chip].busy_until,
                                           not_before)) == fault::kNever) {
      // The batch head's chip died for good: break the pin, and the
      // configuration share with it — the replacement chip never applied
      // the head's configuration.
      have_chip = false;
      share_configuration = false;
    }
  }
  if (!have_chip && plan == nullptr) {
    for (std::uint32_t c = 1; c < chips_.size(); ++c) {
      if (chip_timelines_[c].busy_until < chip_timelines_[chip].busy_until) {
        chip = c;
      }
    }
    have_chip = true;
  }
  if (!have_chip) {
    Cycle best = fault::kNever;
    for (std::uint32_t c = 0; c < chips_.size(); ++c) {
      const Cycle eff = plan->chip_up_after(
          c, std::max(chip_timelines_[c].busy_until, not_before));
      if (eff < best) {
        best = eff;
        chip = c;
        have_chip = true;
      }
    }
    if (!have_chip) {
      // Every chip is permanently down: nothing can serve this request, now
      // or ever. Report the capacity loss without simulating.
      ClusterOutcome outcome;
      outcome.label = std::move(request.label);
      outcome.start_cycle = not_before;
      outcome.finish_cycle = not_before;
      outcome.failed = true;
      outcome.failed_at = not_before;
      outcome.no_capacity = true;
      return outcome;
    }
  }

  const std::string key =
      "data:" + request.dataset_key + ":" + core::job_signature(request.job);
  const core::Service* service = cache_lookup(key);
  core::Service measured;
  if (service == nullptr) {
    measured = core::chip_service(chips_[chip]->run(dataset, request.job));
    service = &remember(key, measured);
  }

  ClusterOutcome outcome;
  outcome.chip = chip;
  core::ChipTimeline& timeline = chip_timelines_[chip];
  const core::ChipTimeline before = timeline;
  core::RequestOutcome& placed = outcome;
  placed = core::place(timeline, std::move(request.label), *service,
                       not_before, share_configuration);
  if (plan != nullptr) {
    // If the chip is down at the tentative start, push the start to the
    // repair cycle and place again. A window's end never falls inside
    // another window, so one push suffices.
    const Cycle up = plan->chip_up_after(chip, outcome.start_cycle);
    AURORA_CHECK(up != fault::kNever);
    if (up != outcome.start_cycle) {
      timeline = before;
      placed = core::place(timeline, std::move(outcome.label), *service,
                           std::max(not_before, up), share_configuration);
    }
    collapse_on_failure(
        outcome, timeline,
        plan->chip_down_in(chip, outcome.start_cycle, outcome.finish_cycle));
  }
  return outcome;
}

ClusterOutcome ClusterScheduler::serve_shard_parallel(
    const graph::Dataset& dataset, core::ScheduledRequest& request,
    Cycle not_before, bool share_configuration) {
  ensure_engine();
  const fault::FaultPlan* plan = active_fault_plan();

  const std::string key =
      "shard:" + request.dataset_key + ":" + core::job_signature(request.job);
  const core::Service* service = cache_lookup(key);
  core::Service measured;
  if (service == nullptr) {
    const ClusterRunMetrics cluster = engine_->run(dataset, request.job);
    for (const ChipRun& chip : cluster.chips) measured.metrics += chip.metrics;
    measured.metrics.total_cycles = cluster.total_cycles;
    measured.metrics.counters.merge(cluster.counters);
    // Every chip must be free before the next request's barriers can line
    // up, so the request-level overlap is the weakest chip-level one. Each
    // chip skips its own reconfiguration when the configuration is shared;
    // the cluster makespan shrinks conservatively by the smallest per-chip
    // skip (the critical chip is unknown without re-simulating).
    measured.lead = cluster.chips.empty() ? 0 : sim::kNoEvent;
    measured.tail = cluster.chips.empty() ? 0 : sim::kNoEvent;
    measured.shareable_reconfig = cluster.chips.empty() ? 0 : sim::kNoEvent;
    for (const ChipRun& chip : cluster.chips) {
      measured.lead =
          std::min(measured.lead, core::lead_dram_cycles(chip.metrics));
      measured.tail =
          std::min(measured.tail, core::tail_compute_cycles(chip.metrics));
      measured.shareable_reconfig = std::min(measured.shareable_reconfig,
                                             chip.metrics.reconfig_cycles);
    }
    service = &remember(key, measured);
  }

  ClusterOutcome outcome;
  core::ChipTimeline timeline = shard_timeline_;
  core::RequestOutcome& placed = outcome;
  placed = core::place(timeline, {}, *service, not_before,
                       share_configuration);
  if (plan != nullptr) {
    for (std::uint32_t c = 0; c < params_.num_chips; ++c) {
      if (plan->chip_up_after(c, outcome.start_cycle) != outcome.start_cycle) {
        // A gang chip is down (possibly forever) at the cycle the gang
        // would start, and a shard-parallel request needs every chip:
        // fail over to a data-parallel placement on a surviving chip. The
        // configuration share does not carry — the chip pool never applied
        // the gang's configuration.
        ClusterOutcome fallback = serve_data_parallel(
            dataset, request, not_before, /*share_configuration=*/false,
            std::nullopt);
        fallback.shard_fallback = true;
        return fallback;
      }
    }
  }
  outcome.label = std::move(request.label);
  shard_timeline_ = timeline;
  if (plan != nullptr) {
    // Any gang member failing kills the whole shard-parallel attempt.
    Cycle down = fault::kNever;
    for (std::uint32_t c = 0; c < params_.num_chips; ++c) {
      down = std::min(down, plan->chip_down_in(c, outcome.start_cycle,
                                               outcome.finish_cycle));
    }
    collapse_on_failure(outcome, shard_timeline_, down);
  }
  return outcome;
}

}  // namespace aurora::cluster
