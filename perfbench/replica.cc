#include "replica.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace perfbench {
namespace {

std::vector<ecrs::workload::qos_class> qos_of(
    const ecrs::workload::generator& gen) {
  std::vector<ecrs::workload::qos_class> qos;
  const std::uint32_t n = gen.microservice_count();
  qos.reserve(n);
  for (std::uint32_t m = 0; m < n; ++m) qos.push_back(gen.class_of(m));
  return qos;
}

ecrs::market::marketplace_options serial(ecrs::market::marketplace_options o) {
  o.threads = 1;
  return o;
}

// Closes a span when it leaves scope; records nothing without a tracer.
class scoped_span {
 public:
  scoped_span(tracer* t, std::uint64_t round, layer name) : t_(t) {
    if (t_ != nullptr) open_ = tracer::begin(round, name);
  }
  ~scoped_span() {
    if (t_ != nullptr) t_->end(open_);
  }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

 private:
  tracer* t_;
  tracer::open_span open_{};
};

}  // namespace

replica::replica(ecrs::simrun::daemon_setup setup, bool shadow_serial)
    : config_(setup.config),
      gen_(setup.workload),
      cluster_(setup.cluster, qos_of(gen_)),
      estimator_(setup.estimator),
      topo_(std::move(setup.topology)),
      market_(topo_, setup.sellers, setup.market),
      ingestor_(setup.ingest, std::move(setup.standing)) {
  if (shadow_serial) {
    shadow_.emplace(topo_, setup.sellers, serial(setup.market));
  }
  for (const auto& region : setup.sellers) {
    seller_counts_.push_back(static_cast<std::uint32_t>(region.size()));
  }
  const auto services =
      static_cast<std::uint32_t>(cluster_.microservice_count());
  population_.reserve(services);
  for (std::uint32_t m = 0; m < services; ++m) {
    population_.push_back(static_cast<std::uint32_t>(
        cluster_.cloud(cluster_.cloud_of(m)).hosted.size()));
  }
  stats_.resize(services);
  estimates_.resize(services, 0.0);
  granted_.resize(services, 0);
  service_clock_.assign(services, 0.0);
}

// simrun::daemon::apply_churn, also applied to the shadow marketplace.
void replica::apply_churn(std::uint64_t round) {
  const ecrs::simrun::scenario_config& sc = config_.scenario;
  if (sc.churn_every == 0) return;
  const auto regions = static_cast<std::uint64_t>(seller_counts_.size());
  const auto set_active = [&](std::uint64_t ordinal, bool active) {
    const auto region = static_cast<std::uint32_t>(ordinal % regions);
    const auto seller = static_cast<std::uint32_t>((ordinal / regions) %
                                                   seller_counts_[region]);
    market_.set_seller_active(region, seller, active);
    if (shadow_) shadow_->set_seller_active(region, seller, active);
  };
  if (sc.churn_downtime > 0 && round > sc.churn_downtime &&
      (round - sc.churn_downtime) % sc.churn_every == 0) {
    set_active((round - sc.churn_downtime) / sc.churn_every, true);
  }
  if (round % sc.churn_every == 0) set_active(round / sc.churn_every, false);
}

// simrun::daemon::apply_allocations.
void replica::apply_allocations(const ecrs::auction::regional_instance& inst,
                                const ecrs::market::marketplace_round& out) {
  const std::uint32_t regions = ingestor_.config().regions;
  for (std::uint32_t r = 0; r < regions; ++r) {
    const std::vector<ecrs::auction::units>& req =
        inst.regions[r].requirements;
    for (std::uint32_t k = 0; k < req.size(); ++k) {
      granted_[static_cast<std::size_t>(k) * regions + r] = req[k];
    }
  }
  for (std::uint32_t r = 0; r < regions; ++r) {
    for (const ecrs::market::spill_deficit& def : out.shards[r].uncovered) {
      granted_[static_cast<std::size_t>(def.demander) * regions + r] -=
          def.missing;
    }
  }
  for (const ecrs::market::spill_award& award : out.spillover.awards) {
    for (const ecrs::auction::demander_id k : award.covered) {
      granted_[static_cast<std::size_t>(k) * regions + award.demand_region] +=
          award.amount;
    }
  }
  for (std::size_t m = 0; m < granted_.size(); ++m) {
    const double g =
        static_cast<double>(std::max<ecrs::auction::units>(0, granted_[m]));
    cluster_.service(static_cast<std::uint32_t>(m))
        .set_allocation(config_.base_allocation +
                        config_.resources_per_unit * g);
  }
}

void replica::run_round(tracer* t) {
  const std::uint64_t r = completed_ + 1;
  const double dur = config_.round_duration;
  const double start = static_cast<double>(r - 1) * dur;
  const double end = static_cast<double>(r) * dur;
  tracer::open_span round_span{};
  if (t != nullptr) round_span = tracer::begin(r, layer::round);

  {
    const scoped_span s(t, r, layer::scenario);
    gen_.set_rate_scale(ecrs::simrun::scenario_rate_scale(config_.scenario, r));
    apply_churn(r);
  }
  {
    const scoped_span s(t, r, layer::generate);
    gen_.round_into(start, dur, batch_);
  }
  {
    const scoped_span s(t, r, layer::deliver);
    const std::uint64_t events_before = sim_.executed_events();
    if (!batch_.empty()) {
      arrivals_.resize(batch_.size());
      for (std::size_t i = 0; i < batch_.size(); ++i) {
        arrivals_[i] = batch_[i].arrival_time;
      }
      sim_.schedule_stream(arrivals_, [this](std::size_t i) {
        const ecrs::workload::request& req = batch_[i];
        ecrs::edge::microservice& svc = cluster_.service(req.microservice);
        const double now = sim_.now();
        double& mark = service_clock_[req.microservice];
        if (now > mark) {
          svc.advance(mark, now - mark);
          mark = now;
        }
        svc.enqueue(req);
      });
    }
    sim_.run_until(end);
    last_events_ = sim_.executed_events() - events_before;
  }
  ECRS_CHECK_MSG(sim_.pending_events() == 0,
                 "arrivals leaked past the round boundary");

  const auto services = static_cast<std::uint32_t>(stats_.size());
  {
    const scoped_span s(t, r, layer::close);
    for (std::uint32_t m = 0; m < services; ++m) {
      ecrs::edge::microservice& svc = cluster_.service(m);
      double& mark = service_clock_[m];
      if (end > mark) {
        svc.advance(mark, end - mark);
        mark = end;
      }
      stats_[m] = svc.end_round(r, dur, population_[m]);
    }
  }
  {
    const scoped_span s(t, r, layer::observe);
    for (const ecrs::edge::round_stats& st : stats_) estimator_.observe(st);
  }
  {
    const scoped_span s(t, r, layer::estimate);
    estimator_.estimates_into(estimates_);
  }
  const ecrs::auction::regional_instance* inst = nullptr;
  {
    const scoped_span s(t, r, layer::ingest);
    ingestor_.add_demands(estimates_);
    inst = &ingestor_.finalize();
  }
  {
    const scoped_span s(t, r, layer::market);
    market_.run_round(*inst, market_out_);
  }
  {
    const scoped_span s(t, r, layer::apply);
    apply_allocations(*inst, market_out_);
  }
  ++completed_;
  if (t != nullptr) t->end(round_span);

  if (shadow_) shadow_->run_round(*inst, shadow_out_);
}

}  // namespace perfbench
