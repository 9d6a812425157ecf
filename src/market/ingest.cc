#include "market/ingest.h"

#include <cmath>

#include "common/check.h"
#include "common/thread_pool.h"

namespace ecrs::market {

auction::units quantize_demand(double accumulated,
                               const ingest_config& config,
                               auction::units supply_cap) {
  if (accumulated <= 0.0) return 0;
  auto q = static_cast<auction::units>(
      std::ceil(accumulated / config.unit_demand));
  if (config.max_requirement > 0) q = std::min(q, config.max_requirement);
  q = std::min(q, supply_cap);
  if (config.demand_scale != 1.0) {
    q = static_cast<auction::units>(
        std::ceil(static_cast<double>(q) * config.demand_scale));
  }
  return q;
}

round_ingestor::round_ingestor(ingest_config config,
                               auction::regional_instance standing)
    : config_(config), round_(std::move(standing)) {
  ECRS_CHECK_MSG(config_.regions >= 1, "need at least one region");
  ECRS_CHECK_MSG(config_.microservices >= 1, "need at least one microservice");
  ECRS_CHECK_MSG(config_.unit_demand > 0.0, "unit_demand must be > 0");
  ECRS_CHECK_MSG(config_.supply_margin >= 0.0 && config_.supply_margin <= 1.0,
                 "supply margin out of [0,1]");
  ECRS_CHECK_MSG(config_.demand_scale >= 1.0, "demand scale must be >= 1");
  ECRS_CHECK_MSG(round_.regions.size() == config_.regions,
                 "standing bids carry " << round_.regions.size()
                                        << " regions, config says "
                                        << config_.regions);

  accum_.resize(config_.regions);
  if (config_.supply_margin > 0.0) caps_.resize(config_.regions);
  for (std::uint32_t r = 0; r < config_.regions; ++r) {
    const std::uint32_t n = demanders_in(r);
    auction::single_stage_instance& local = round_.regions[r];
    local.requirements.assign(n, 0);
    accum_[r] = arena_.alloc_array<double>(n);
    for (std::uint32_t k = 0; k < n; ++k) accum_[r][k] = 0.0;
    if (config_.supply_margin > 0.0) {
      // Guaranteed-supply cap per local demander, the generators'
      // satisfiability bound (computed once — bids are standing).
      const std::vector<auction::units> supply =
          auction::guaranteed_supply(local);
      caps_[r] = arena_.alloc_array<auction::units>(n);
      for (std::uint32_t k = 0; k < n; ++k) {
        caps_[r][k] = static_cast<auction::units>(std::floor(
            config_.supply_margin * static_cast<double>(supply[k])));
      }
    }
  }
  round_.validate();  // bids must be consistent with the demander counts
}

std::uint32_t round_ingestor::demanders_in(std::uint32_t region) const {
  ECRS_CHECK(region < config_.regions);
  if (region >= config_.microservices) return 0;
  return (config_.microservices - 1 - region) / config_.regions + 1;
}

auction::units round_ingestor::supply_cap(std::uint32_t region,
                                          std::uint32_t local) const {
  ECRS_CHECK(region < config_.regions && local < demanders_in(region));
  return caps_.empty() ? kNoSupplyCap : caps_[region][local];
}

void round_ingestor::accumulate(std::span<const workload::request> batch) {
  const std::uint32_t regions = config_.regions;
  for (const workload::request& q : batch) {
    ECRS_CHECK_MSG(q.microservice < config_.microservices,
                   "request targets microservice "
                       << q.microservice << " outside the configured "
                       << config_.microservices);
    accum_[q.microservice % regions][q.microservice / regions] +=
        q.service_demand;
  }
}

void round_ingestor::add_demand(std::uint32_t microservice, double amount) {
  ECRS_CHECK_MSG(microservice < config_.microservices,
                 "demand targets microservice "
                     << microservice << " outside the configured "
                     << config_.microservices);
  ECRS_CHECK_MSG(amount >= 0.0, "negative demand");
  accum_[microservice % config_.regions][microservice / config_.regions] +=
      amount;
}

void round_ingestor::add_demands(std::span<const double> by_microservice) {
  ECRS_CHECK_MSG(by_microservice.size() == config_.microservices,
                 "dense demand vector carries "
                     << by_microservice.size() << " entries for "
                     << config_.microservices << " microservices");
  const std::uint32_t regions = config_.regions;
  for (std::uint32_t m = 0; m < config_.microservices; ++m) {
    const double amount = by_microservice[m];
    ECRS_CHECK_MSG(amount >= 0.0, "negative demand");
    accum_[m % regions][m / regions] += amount;
  }
}

void round_ingestor::quantize_region(std::uint32_t region) {
  const std::uint32_t n = demanders_in(region);
  double* acc = accum_[region];
  const auction::units* caps = caps_.empty() ? nullptr : caps_[region];
  std::vector<auction::units>& req = round_.regions[region].requirements;
  for (std::uint32_t k = 0; k < n; ++k) {
    req[k] = quantize_demand(acc[k], config_,
                             caps != nullptr ? caps[k] : kNoSupplyCap);
    acc[k] = 0.0;
  }
}

const auction::regional_instance& round_ingestor::finalize() {
  const std::uint32_t regions = config_.regions;
  if (config_.threads == 1 || regions == 1 ||
      config_.microservices < kParallelDemanders) {
    for (std::uint32_t r = 0; r < regions; ++r) quantize_region(r);
  } else {
    thread_pool::shared().parallel_for(
        regions,
        [&](std::size_t r) {
          quantize_region(static_cast<std::uint32_t>(r));
        },
        config_.threads);
  }
  return round_;
}

const auction::regional_instance& round_ingestor::ingest(
    std::span<const workload::request> batch) {
  accumulate(batch);
  return finalize();
}

}  // namespace ecrs::market
